"""Constructors for concrete shift families.

Each constructor returns an exact :class:`~shiftlab.core.LanguageOracle`.
SFT, S-gap, coded and nonnegative cocyclic shifts of dimension <= 3 have a
finite layer (sets of forbidden-word automaton states, run and gap
lengths, code-automaton position sets, product supports); beta shifts
step the tie automaton of z with the length read, and the other cocyclic
shifts the integer product of their matrices.  No constructor checks
factoriality or extendability; the tests check them by enumeration.
numpy is imported by the one function that uses it, so a run that needs
no eigensolve does not load it.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import (
    Alphabet,
    CodeAutomaton,
    EMPTY_WORD,
    LanguageOracle,
    Word,
    WordSet,
    default_depth_guard,
)
from .errors import (
    DepthExceededError,
    EmptyLanguageError,
    ExpansionUncertainError,
)


# ---------------------------------------------------------------------------
# Shifts of finite type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SftSpec:
    alphabet: Alphabet
    forbidden: tuple[Word, ...]

    @classmethod
    def from_strings(cls, symbols: Sequence[str], forbidden: Sequence[str]) -> "SftSpec":
        alphabet = Alphabet(tuple(symbols))
        return cls(alphabet, tuple(sorted(alphabet.word(f) for f in forbidden)))

    @property
    def memory(self) -> int:
        return max((len(f) for f in self.forbidden), default=1) - 1


def _recurrent(succ: Mapping) -> set:
    """The states of a graph (state -> successors) that lie on a
    bi-infinite path: states with no in-edge or no out-edge among the rest
    are dropped, to a fixpoint."""
    live = set(succ)
    while True:
        entered = {t for q in live for t in succ[q] if t in live}
        keep = {q for q in live & entered if any(t in live for t in succ[q])}
        if keep == live:
            return live
        live = keep


def sft_from_forbidden(spec: SftSpec, enumeration_limit: int | None = None) -> LanguageOracle:
    """Language oracle for the SFT avoiding the given factors.

    The step is that of the forbidden words' automaton (Aho & Corasick,
    1975): its state is the longest suffix read so far that is a proper
    prefix of a forbidden word, and a step that completes a forbidden word
    returns None.  Tabulated once from the empty word, it is pruned to the
    states on bi-infinite paths (``_recurrent``), which read exactly the
    SFT's words.  The layer state is the set of kept states a word can be
    read into from any kept state, so the oracle satisfies the
    extendability invariant; after m (the memory) symbols it is one state.
    Raises EmptyLanguageError when nothing survives.
    """
    forbidden = frozenset(f for f in spec.forbidden if f)
    prefixes = {f[:i] for f in forbidden for i in range(len(f))} | {EMPTY_WORD}

    def step(u: Word, a: int) -> Word | None:
        v = u + (a,)
        # u is the longest suffix that prefixes a forbidden word, so any completed one ends v
        if any(v[i:] in forbidden for i in range(len(v))):
            return None
        return next(v[i:] for i in range(len(v) + 1) if v[i:] in prefixes)

    limit = enumeration_limit if enumeration_limit is not None else default_depth_guard(spec.alphabet.size)
    automaton = LanguageOracle.finite_state(spec.alphabet, EMPTY_WORD, step, limit)
    labels, rows = automaton.labels, automaton.transitions
    live = _recurrent({q: row.values() for q, row in enumerate(rows)})
    if not live:
        raise EmptyLanguageError("every symbol is stranded by the forbidden set")
    kept = {labels[q]: {a: labels[t] for a, t in rows[q].items() if t in live} for q in live}

    return LanguageOracle.finite_state(
        spec.alphabet,
        frozenset(kept),
        lambda s, a: frozenset(kept[u][a] for u in s if a in kept[u]) or None,
        limit,
        name=f"sft({','.join(spec.alphabet.text(f) for f in spec.forbidden) or 'full'})",
        locality=max(spec.memory, 0) + 1 if spec.forbidden else 0,
    )


def full_shift(k: int, enumeration_limit: int | None = None) -> LanguageOracle:
    return sft_from_forbidden(SftSpec(Alphabet.of_size(k), ()), enumeration_limit)


def sft_entropy_exact(source: SftSpec | LanguageOracle) -> float:
    """Exact entropy of a shift with a finite layer (SFT, S-gap, coded,
    nonnegative cocyclic of dimension <= 3): the layer is deterministic, so
    its paths from the start are the words, and the entropy is the log
    spectral radius of its transition matrix on the states of bi-infinite
    paths (for an SFT, the pruned forbidden-word automaton), from one
    eigensolve.  Raises EmptyLanguageError when no state lies on a
    bi-infinite path, and ValueError for an oracle with no finite layer
    (beta shifts, and cocyclic shifts that are signed or have d >= 4)."""
    import numpy as np  # imported here, so only an eigensolve pays for it

    oracle = sft_from_forbidden(source) if isinstance(source, SftSpec) else source
    rows = oracle.transitions
    if rows is None:
        raise ValueError(f"{oracle.name} has no finite layer")
    states = sorted(_recurrent({q: row.values() for q, row in enumerate(rows)}))
    if not states:
        raise EmptyLanguageError(f"{oracle.name} has no bi-infinite path")
    idx = {q: i for i, q in enumerate(states)}
    a = np.zeros((len(states), len(states)))
    for q in states:
        for t in rows[q].values():
            if t in idx:
                a[idx[q], idx[t]] += 1.0
    return math.log(float(np.abs(np.linalg.eigvals(a)).max()))


def cycle_sft(k: int, enumeration_limit: int | None = None) -> LanguageOracle:
    """SFT on {1,...,k} allowing transitions a -> a+1 and a -> a+2 mod k."""
    if k < 4:
        raise ValueError("cycle SFT needs k >= 4")
    alphabet = Alphabet(tuple(str(i + 1) for i in range(k)))
    forbidden = [
        (i, j)
        for i in range(k)
        for j in range(k)
        if (j - i) % k not in (1, 2)
    ]
    spec = SftSpec(alphabet, tuple(forbidden))
    limit = enumeration_limit if enumeration_limit is not None else max(18, default_depth_guard(k))
    oracle = sft_from_forbidden(spec, limit)
    oracle.name = f"cycle_sft({k})"
    return oracle


def avoid_symbol_set(oracle: LanguageOracle, symbol: str) -> WordSet:
    """Words of the language avoiding one symbol, by a one-state pattern that
    rejects it: over a finite layer the count is a path count (no depth
    limit) and the partition sums the transfer DP over the product; phi_hat
    still extends into the whole shift."""
    a = oracle.alphabet.index(symbol)
    return WordSet(oracle, predicate=lambda w: a not in w,
                   pattern=(0, lambda p, b: None if b == a else p), name=f"avoid({symbol})")


# ---------------------------------------------------------------------------
# Beta shifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaSpec:
    """Driving data for a beta-shift: either a base beta > 1 (the
    quasi-greedy expansion of 1 is computed) or an explicit eventually
    periodic sequence z."""

    beta: float | None
    z_pre: tuple[int, ...]
    z_period: tuple[int, ...] | None
    depth: int

    @classmethod
    def from_beta(cls, beta: float, depth: int = 24) -> "BetaSpec":
        if beta <= 1:
            raise ValueError("beta must be > 1")
        pre, period = _quasi_greedy_digits(beta, depth)
        return cls(beta, pre, period, depth)

    @classmethod
    def from_sequence(cls, pre: Sequence[int], period: Sequence[int] | None,
                      depth: int = 24) -> "BetaSpec":
        return cls(None, tuple(pre), tuple(period) if period else None, depth)

    def digit(self, i: int) -> int:
        """1-based digit z_i."""
        if i <= len(self.z_pre):
            return self.z_pre[i - 1]
        if self.z_period:
            return self.z_period[(i - len(self.z_pre) - 1) % len(self.z_period)]
        raise DepthExceededError(f"driving sequence certified only to depth {len(self.z_pre)}")

    def digit_alphabet(self) -> Alphabet:
        if self.beta is not None:
            top = math.ceil(self.beta) - 1
        else:
            digits = self.z_pre + (self.z_period or ())
            top = max(digits)
        return Alphabet(tuple(str(d) for d in range(top + 1)))


#: a greedy step this close to an integer is snapped to it; one closer
#: than _GUARD but not snapped cannot be resolved
_SNAP, _GUARD = 1e-12, 1e-9


def _quasi_greedy_digits(beta: float, n: int) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    """First n digits of the quasi-greedy expansion of 1 in base beta.

    Runs the greedy map r -> beta r - floor(beta r) from r = 1 in integers:
    beta is the binary rational num / 2**e that the float holds exactly,
    and r is R / 2**prec with prec = 133 + n log2(beta) bits (at least
    167).  A step multiplies by num and shifts right by e, so it is exact
    while e k <= prec and then drops bits below 2**-prec; later steps
    multiply that error by beta, so it stays below 2**-133 / (beta - 1).
    A step landing within ``_SNAP`` of an integer is snapped: the greedy
    expansion terminates there and the quasi-greedy sequence is the
    terminating word with its last digit decremented, repeated.  A step
    landing within ``_GUARD`` of an integer but outside the snap zone
    cannot be resolved and raises ExpansionUncertainError.  Both bounds are
    compared exactly, as multiples of 2**-prec.  Each digit is below beta
    (r < 1), and a snap lands on an integer >= 1 (a kept r exceeds
    ``_GUARD``, and beta r >= r).
    """
    num, den = float(beta).as_integer_ratio()
    e = den.bit_length() - 1
    prec = max(167, 133 + math.ceil(n * math.log2(beta)))
    one = 1 << prec
    snap, guard = ((a << prec) >> (b.bit_length() - 1)
                   for a, b in (_SNAP.as_integer_ratio(), _GUARD.as_integer_ratio()))
    r, digits = one, []
    for k in range(1, n + 1):
        x = num * r >> e
        d, f = x >> prec, x & (one - 1)
        nearest, dist = (d, f) if 2 * f <= one else (d + 1, one - f)
        if dist <= snap:
            return (), tuple(digits + [nearest - 1])
        if dist <= guard:
            raise ExpansionUncertainError(
                f"digit {k} of the expansion of 1 in base {beta} cannot be resolved "
                f"within tolerance {_SNAP:g} (distance {dist / one:.3e} to integer)"
            )
        digits.append(d)
        r = f
    return tuple(digits), None


def beta_shift(spec: BetaSpec, enumeration_limit: int | None = None) -> LanguageOracle:
    """A word is admissible iff every suffix is lexicographically <= the
    prefix of z of the same length, read by z's tie automaton.

    Its state m is the length of the longest suffix read so far that equals
    z[:m]; the other tied suffixes are the borders of z[:m], which the
    Knuth-Morris-Pratt failure links list.  Reading a is rejected if a > z[l]
    for some tied l, and otherwise moves to the longest l + 1 with z[l] = a,
    or to 0.  That is the suffix condition read one symbol at a time, so it
    is exact for any z; for a quasi-greedy z it is Parry's automaton (Parry,
    "On the beta-expansions of real numbers", 1960).  Rows are tabulated on
    demand, row m reading digit m + 1.

    The layer state is (m, n), n the length read: reading the symbol after
    n first asks for rows 0..n, and ``state(w)`` asks for rows 0..|w|-1
    before it reads w.  Past the certified depth of z (the oracle's
    ``certified_depth`` when z has no period) ``BetaSpec.digit`` raises
    DepthExceededError, whatever the word, and a raise is not cached.  The
    states of length n number at most n + 1, so ``count`` is a path count;
    the layer is not finite, so words are listed to the enumeration limit.
    """
    alphabet = spec.digit_alphabet()
    limit = enumeration_limit if enumeration_limit is not None else spec.depth
    if spec.z_period is None and limit > len(spec.z_pre):
        limit = len(spec.z_pre)

    #: rows[m][a]: the state after reading a at state m, for a up to the
    #: least digit z[l] over the tied lengths l; a larger a is rejected
    rows: list[tuple[int, ...]] = []
    #: fail[m]: the length of the longest proper border of z[:m] (m >= 1)
    fail: list[int] = [0, 0]
    z: list[int] = []

    def grow(n: int) -> None:
        while len(rows) < n:
            m = len(rows)
            d = spec.digit(m + 1)  # raises past the certified depth
            if m > 1:
                # the border of z[:m] from those of z[:m-1], as in KMP
                k = fail[m - 1]
                while k and z[k] != z[m - 1]:
                    k = fail[k]
                fail.append(k + (z[k] == z[m - 1]))
            below = rows[fail[m]] if m else (0,) * (d + 1)
            rows.append(tuple(m + 1 if a == d else below[a] for a in range(min(d + 1, len(below)))))
            z.append(d)

    def step(q: tuple[int, int], a: int) -> tuple[int, int] | None:
        m, n = q
        if n >= len(rows):
            grow(n + 1)
        row = rows[m]
        return (row[a], n + 1) if a < len(row) else None

    label = f"beta({spec.beta})" if spec.beta is not None else "beta(z)"
    return _BetaOracle(alphabet, grow, step, limit, name=label,
                       certified_depth=len(spec.z_pre) if spec.z_period is None else None)


class _BetaOracle(LanguageOracle):
    """A beta shift's stepped layer, whose ``state(w)`` grows the tie
    automaton's rows to |w| before it reads w, so that past the certified
    depth every word raises, not only the ones that live that long."""

    def __init__(self, alphabet: Alphabet, grow, step, limit: int, **options):
        super().__init__(alphabet, (0, 0), step, limit, **options)
        self._grow = grow

    def state(self, w: Word):
        if self.alphabet.valid(w):
            self._grow(len(w))
        return super().state(w)


# ---------------------------------------------------------------------------
# S-gap shifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SGapSpec:
    """Gap set S as an explicit finite part plus an optional arithmetic
    tail {tail_start + j*tail_period : j >= 0}."""

    values: tuple[int, ...]
    tail_start: int | None = None
    tail_period: int | None = None

    def __post_init__(self):
        if not self.values and self.tail_start is None:
            raise ValueError("S must be nonempty")

    @property
    def unbounded(self) -> bool:
        return self.tail_start is not None

    def max_finite(self) -> int | None:
        return None if self.unbounded else max(self.values)


def s_gap_shift(spec: SGapSpec, enumeration_limit: int | None = None) -> LanguageOracle:
    """Binary shift whose internal runs of 0s between consecutive 1s have
    lengths in S; boundary runs only need some gap at least as long.

    The layer state is ("lead", r), the r 0s before the first 1, or
    ("gap", g), the g 0s since the last 1, which a 1 closes only if g is in
    S.  Both stay at most max(S); with a tail the leading run is not
    counted, and a gap past the tail start and every finite value is folded
    back by the tail period, which keeps its verdict.  The layer reads the
    language exactly, so p^infinity is a point iff the orbit of the start
    under q -> q.p never dies (``exact_periods``), bounded or not.
    """
    alphabet = Alphabet.of_size(2)
    mx = spec.max_finite()
    values = frozenset(spec.values)
    tail_start = spec.tail_start
    tail_period = spec.tail_period or 1

    def gap_ok(g: int) -> bool:
        return g in values or (tail_start is not None and g >= tail_start
                               and (g - tail_start) % tail_period == 0)

    if mx is None:
        # every gap >= fold - tail_period is past the tail start and every value
        fold = max(tail_start, max(values, default=-1) + 1) + tail_period

    def step(q: tuple[str, int], a: int) -> tuple[str, int] | None:
        phase, g = q
        if a == 1:
            return ("gap", 0) if phase == "lead" or gap_ok(g) else None
        if mx is not None:
            return (phase, g + 1) if g < mx else None
        if phase == "lead":
            return q
        return ("gap", g + 1 if g + 1 < fold else g + 1 - tail_period)

    limit = enumeration_limit if enumeration_limit is not None else default_depth_guard(2)
    return LanguageOracle.finite_state(
        alphabet,
        ("lead", 0),
        step,
        limit,
        name=f"s_gap({list(spec.values)}{'+' if spec.unbounded else ''})",
        locality=None if spec.unbounded else mx + 2,
        exact_periods=True,
    )


# ---------------------------------------------------------------------------
# Coded shifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodedSpec:
    generators: tuple[Word, ...]
    alphabet: Alphabet

    @classmethod
    def from_strings(cls, symbols: Sequence[str], generators: Sequence[str]) -> "CodedSpec":
        alphabet = Alphabet(tuple(symbols))
        gens = tuple(sorted(alphabet.word(g) for g in generators))
        return cls(gens, alphabet)


def coded_shift(spec: CodedSpec, enumeration_limit: int | None = None) -> LanguageOracle:
    """A word is admissible iff it occurs in some bi-infinite concatenation
    of generators, that is iff its run through the generators'
    :class:`~shiftlab.core.CodeAutomaton` from every parse position never
    becomes empty.  The layer's states are the nonempty position sets that
    run reaches."""
    if not spec.generators or any(len(g) == 0 for g in spec.generators):
        raise ValueError("generators must be nonempty words")
    gens = spec.generators
    automaton = CodeAutomaton(gens)
    limit = enumeration_limit if enumeration_limit is not None else default_depth_guard(spec.alphabet.size)
    return LanguageOracle.finite_state(
        spec.alphabet,
        automaton.positions,
        lambda states, a: automaton.step(states, a) or None,
        limit,
        name=f"coded({len(gens)} gens)",
    )


# ---------------------------------------------------------------------------
# Cocyclic shifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CocyclicSpec:
    """One square integer matrix per symbol; a word is admissible iff the
    ordered product of its matrices is nonzero (exact arithmetic)."""

    matrices: tuple[tuple[tuple[int, ...], ...], ...]
    alphabet: Alphabet

    @classmethod
    def from_lists(cls, matrices: Sequence[Sequence[Sequence[int]]],
                   symbols: Sequence[str] | None = None) -> "CocyclicSpec":
        """Raises ValueError unless there is at least one matrix, all are
        square of one dimension d >= 1 with integer entries, and
        ``symbols`` (1, 2, ... by default) names each matrix once."""
        mats = tuple(tuple(tuple(row) for row in m) for m in matrices)
        d = len(mats[0]) if mats else 0
        if d == 0:
            raise ValueError("cocyclic shifts need matrices of dimension at least 1")
        for m in mats:
            if len(m) != d or any(len(row) != d for row in m):
                raise ValueError("matrices must be square and of equal dimension")
        if not all(isinstance(x, numbers.Integral) and not isinstance(x, bool)
                   for m in mats for row in m for x in row):
            raise ValueError("matrix entries must be integers")
        if symbols and len(symbols) != len(mats):
            raise ValueError(f"{len(symbols)} symbols for {len(mats)} matrices")
        alphabet = Alphabet(tuple(symbols) if symbols else tuple(str(i + 1) for i in range(len(mats))))
        return cls(tuple(tuple(tuple(int(x) for x in row) for row in m) for m in mats), alphabet)

    @property
    def dimension(self) -> int:
        return len(self.matrices[0])


def _mat_mul(a, b, d: int):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
        for i in range(d)
    )


def _mat_is_zero(a) -> bool:
    return all(all(x == 0 for x in row) for row in a)


def cocyclic_shift(spec: CocyclicSpec, enumeration_limit: int | None = None) -> LanguageOracle:
    """A word is admissible iff the ordered product of its matrices is
    nonzero.

    Nonnegative products cannot cancel, so the support of M_w M_a is the
    Boolean product of the supports of M_w and M_a (Kwapisz, "Cocyclic
    subshifts", 2000).  For nonnegative matrices of dimension d <= 3 the
    layer state is the support of the product so far, one bit mask per row,
    starting from the identity's: at most 2**(d*d) <= 512 states.  Signed
    matrices, whose Boolean product can be nonzero where the product is
    zero, and d >= 4, where the supports reached can run to tens of
    thousands, step the exact integer product M_w itself, from the
    identity: M_w M_a is zero iff w.a leaves the language, since a prefix's
    zero product stays zero.
    """
    d = spec.dimension
    mats = spec.matrices
    limit = enumeration_limit if enumeration_limit is not None else default_depth_guard(spec.alphabet.size)
    name = f"cocyclic(d={d})"
    if d <= 3 and all(x >= 0 for m in mats for row in m for x in row):
        # image[a][r]: the union of the row supports of matrix a over the bits of r
        supports = [[sum(1 << j for j, x in enumerate(row) if x) for row in m] for m in mats]
        image = [[functools.reduce(operator.or_, (rows[k] for k in range(d) if r >> k & 1), 0)
                  for r in range(1 << d)] for rows in supports]

        def step(s: tuple[int, ...], a: int) -> tuple[int, ...] | None:
            t = tuple(image[a][r] for r in s)
            return t if any(t) else None

        return LanguageOracle.finite_state(spec.alphabet, tuple(1 << i for i in range(d)), step,
                                           limit, name=name)
    identity = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))

    def product(m, a: int):
        t = _mat_mul(m, mats[a], d)
        return None if _mat_is_zero(t) else t

    return LanguageOracle(spec.alphabet, identity, product, limit, name=name)
