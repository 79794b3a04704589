"""Plainly correct references that the tests compare the library with: an
oracle whose state is the word itself, cocyclic membership by the whole
integer product, phi_hat by listing extensions, and in exact ``Fraction``
arithmetic with 50-digit partition sums, the quasi-greedy expansion of 1
in mpmath, cylinder tables one start position's word set at a time, the
enumeration checks of factoriality and extendability, beta membership by the suffix scan,
periodic points and orbit measures by listing, S-gap periodic points by
their cyclic gaps, the parse count behind unique decipherability, the obstruction complement of a decomposition, the
synchronising times of a word, the union lemma on marking sets, and the
binomial-entropy lemma of the proofs, and ``cgc``'s near obstructions by a
connector search per word.  None of them runs in the library."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from shiftlab.core import (
    EMPTY_WORD,
    Alphabet,
    LanguageOracle,
    Potential,
    Word,
    WordSet,
    log_sum_exp,
    phi_hat,
)
from shiftlab.decomp import Decomposition, TripleCollections, make_decomposer
from shiftlab.errors import ExpansionUncertainError, NoPeriodicPointsError, NotInLanguageError
from shiftlab.models import _GUARD, _SNAP, BetaSpec, SGapSpec
from shiftlab.thermo import (
    NEG_INF,
    CylinderRow,
    CylinderTable,
    PeriodicMeasure,
    PeriodicPoints,
    log_partition_sum,
    pressure_estimate,
)
from shiftlab.tower import SyncTriple


class WordStateOracle(LanguageOracle):
    """A language given by a membership predicate over whole words, read as
    a layer whose state is the word itself: ``step`` asks the predicate of
    the word extended by one symbol, and ``state`` asks it once of the
    whole word.  Listing, counting and phi_hat then read every word from
    its first symbol, as the library's beta and signed cocyclic oracles did
    before they stepped a real state."""

    def __init__(self, alphabet: Alphabet, membership: Callable[[Word], bool],
                 enumeration_limit: int, **options):
        super().__init__(alphabet, EMPTY_WORD,
                         lambda w, a: w + (a,) if membership(w + (a,)) else None,
                         enumeration_limit, **options)
        self.membership = membership

    def state(self, w: Word):
        return w if not w or (self.alphabet.valid(w) and self.membership(w)) else None


def reference_cocyclic_contains(mats):
    """The ordered product of the word's matrices in exact integers,
    multiplied out from the identity: a member iff it is nonzero."""
    d = len(mats[0])

    def contains(w):
        if w and not (min(w) >= 0 and max(w) < len(mats)):
            return False
        p = [[int(i == j) for j in range(d)] for i in range(d)]
        for a in w:
            m = mats[a]
            p = [[sum(p[i][k] * m[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
        return any(any(row) for row in p)

    return contains


def phi_hat_by_extensions(potential: Potential, oracle: LanguageOracle, w: Word) -> float:
    """phi_hat read off directly: the fsum of the windows inside w, plus the
    max, over the (r-1)-symbol words e (lexicographically, the first max
    kept) with w.e a word by ``contains``, of the fsum of the windows of
    s.e that start in s, s being the last min(|w|, r-1) symbols of w.  A
    missing window raises NotInLanguageError at the first one met in that
    order, as phi_hat does."""
    if not w:
        return 0.0
    if not oracle.contains(w):
        raise NotInLanguageError(f"word {w} not in language of {oracle.name}")
    if potential.is_zero:
        return 0.0
    r, n = potential.window, len(w)
    fixed = potential.window_sum(w, 0, n - r + 1) if n >= r else 0.0
    if r == 1:
        return fixed
    s = w[max(0, n - r + 1):]
    tails = [s + e for e in itertools.product(range(oracle.alphabet.size), repeat=r - 1)
             if oracle.contains(w + e)]
    if not tails:
        raise NotInLanguageError(
            f"word {w} has no admissible {r - 1}-symbol extension (oracle not extendable)")
    return fixed + max(potential.window_sum(u, 0, len(s)) for u in tails)


def _exact_window_sum(potential: Potential, w: Word, start: int, stop: int) -> Fraction:
    """``Potential.window_sum`` as an exact ``Fraction``, with its error."""
    r = potential.window
    try:
        values = [potential.table[w[j:j + r]] for j in range(start, stop)]
    except KeyError as exc:
        raise NotInLanguageError(f"potential table has no entry for window {exc.args[0]}") from None
    return sum(map(Fraction, values), Fraction(0))


def phi_hat_exact(potential: Potential, oracle: LanguageOracle, w: Word) -> Fraction:
    """``phi_hat_by_extensions`` in exact arithmetic: every window sum a
    ``Fraction``, the same errors in the same order."""
    if not w:
        return Fraction(0)
    if not oracle.contains(w):
        raise NotInLanguageError(f"word {w} not in language of {oracle.name}")
    if potential.is_zero:
        return Fraction(0)
    r, n = potential.window, len(w)
    fixed = _exact_window_sum(potential, w, 0, n - r + 1) if n >= r else Fraction(0)
    if r == 1:
        return fixed
    s = w[max(0, n - r + 1):]
    tails = [s + e for e in itertools.product(range(oracle.alphabet.size), repeat=r - 1)
             if oracle.contains(w + e)]
    if not tails:
        raise NotInLanguageError(
            f"word {w} has no admissible {r - 1}-symbol extension (oracle not extendable)")
    return fixed + max(_exact_window_sum(potential, u, 0, len(s)) for u in tails)


def log_sum_and_sup_exact(potential: Potential, oracle: LanguageOracle,
                          words: Iterable[Word]) -> tuple[float, float]:
    """(log of the sum of e^{phi_hat(w)}, max phi_hat(w)) over ``words``,
    each phi_hat an exact ``Fraction`` (``phi_hat_exact``, asked word by
    word in order, so that the first error met is raised) and the log-sum
    evaluated with mpmath at 50 digits, each rounded once to a float; both
    -inf for no word."""
    import mpmath

    vals = [phi_hat_exact(potential, oracle, w) for w in words]
    if not vals:
        return NEG_INF, NEG_INF
    top = max(vals)
    with mpmath.workdps(50):
        def mpf(x: Fraction):
            return mpmath.mpf(x.numerator) / x.denominator

        total = mpmath.fsum(mpmath.exp(mpf(v - top)) for v in vals)
        return float(mpf(top) + mpmath.log(total)), float(top)


def position_set(oracle: LanguageOracle, v: Word, i: int, depth: int) -> WordSet:
    """The words that hold v at 1-based start position i, to ``depth``.
    Its pattern counts the symbols read up to the end of v and forces v's
    at positions i-1 .. i+|v|-2 (0-based), so its paths shorter than i+|v|-1
    are not members."""
    lo, k = i - 1, len(v)
    return WordSet(oracle, predicate=lambda w: w[lo : lo + k] == v, depth=depth,
                   pattern=(0, lambda p, a: p if p == lo + k else (
                       None if p >= lo and a != v[p - lo] else p + 1)))


def cylinder_sums_by_positions(oracle: LanguageOracle, potential: Potential, v: Word,
                               n: int) -> list[tuple[float, int | None]]:
    """(log Lambda_n, the count at zero potential or None) of each start
    position's ``position_set``, i = 1 .. n - |v|, in order: over a finite
    layer the transfer DP of its own product, which falls back to listing
    the set's words where some word raises; elsewhere the listed words."""
    rows = []
    for i in range(1, n - len(v) + 1):
        hits = position_set(oracle, v, i, n)
        rows.append((log_partition_sum(hits, potential, n),
                     hits.count(n) if potential.is_zero else None))
    return rows


def cylinder_table_by_positions(oracle: LanguageOracle, potential: Potential, v: Word,
                                n: int) -> CylinderTable:
    """``thermo.cylinder_count_table`` with one word set, one product and
    one DP from length 0 per start position (``cylinder_sums_by_positions``)."""
    if not oracle.contains(v):
        raise NotInLanguageError(f"{v} is not admissible")
    k = len(v)
    if k == 0 or k > n:
        raise ValueError("need 1 <= |v| <= n")
    p_hat = pressure_estimate(WordSet.language(oracle), potential, n).point_estimate
    pv = phi_hat(potential, oracle, v)
    rows = []
    for i, (ls, count) in enumerate(cylinder_sums_by_positions(oracle, potential, v, n), 1):
        ratio = math.exp(ls - (n - k) * p_hat - pv) if ls > NEG_INF else 0.0
        rows.append(CylinderRow(i, ls, count, ratio))
    return CylinderTable(v, n, p_hat, rows)


def check_factorial(oracle: LanguageOracle, n_max: int) -> list[Word]:
    """Exhaustively verify factoriality up to n_max; returns violating subwords."""
    bad: list[Word] = []
    for n in range(1, n_max + 1):
        for w in oracle.words(n):
            for i in range(len(w)):
                for j in range(i + 1, len(w) + 1):
                    if not oracle.contains(w[i:j]):
                        bad.append(w[i:j])
    return bad


def check_extendable(oracle: LanguageOracle, n_max: int) -> list[Word]:
    """Verify that every admissible word shorter than n_max has a one-symbol
    right and left extension; returns the stranded words."""
    bad: list[Word] = []
    k = oracle.alphabet.size
    for n in range(0, n_max):
        for w in oracle.words(n):
            if not any(oracle.contains(w + (a,)) for a in range(k)):
                bad.append(w)
            elif not any(oracle.contains((a,) + w) for a in range(k)):
                bad.append(w)
    return bad


def beta_suffix_scan(spec: BetaSpec, w: Word) -> bool:
    """Beta-shift membership by the lexicographic condition read off
    directly: every suffix of w is <= the prefix of z of the same length.
    The prefix z[:|w|] is read first, so past the certified depth of z the
    scan raises DepthExceededError whatever w is."""
    n = len(w)
    z = tuple(spec.digit(i) for i in range(1, n + 1))
    return all(w[k:] <= z[: n - k] for k in range(n))


def quasi_greedy_digits_mpmath(beta: float, n: int
                               ) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    """``models._quasi_greedy_digits`` as it was computed before it ran in
    integers: the greedy map in mpmath at max(50, 40 + n log10 beta)
    digits, nearest integers by ``nint``, and the snap, guard, near-zero
    and digit-alphabet checks, with the same messages."""
    import mpmath as mp

    dps = max(50, 30 + int(n * math.log10(beta)) + 10)
    with mp.workdps(dps):
        b = mp.mpf(beta)
        top = math.ceil(beta) - 1
        r = mp.mpf(1)
        digits: list[int] = []
        for k in range(1, n + 1):
            x = b * r
            nearest = int(mp.nint(x))
            dist = abs(x - nearest)
            if dist <= _SNAP:
                if nearest < 1:
                    raise ExpansionUncertainError(
                        f"digit {k} of the expansion of 1 in base {beta} is ambiguous near 0")
                return (), tuple(digits + [nearest - 1])
            if dist <= _GUARD:
                raise ExpansionUncertainError(
                    f"digit {k} of the expansion of 1 in base {beta} cannot be resolved "
                    f"within tolerance {_SNAP:g} (distance {float(dist):.3e} to integer)")
            d = int(mp.floor(x))
            if k > 1 and d > top:
                raise ExpansionUncertainError(
                    f"digit {k} exceeded the digit alphabet; beta too imprecise")
            digits.append(d)
            r = x - d
        return tuple(digits), None


def periodic_points_listing(oracle: LanguageOracle, n: int,
                            check: Callable[[Word], bool] | None = None) -> PeriodicPoints:
    """The periodic points of period n by asking ``contains(p * reps)`` of
    every listed word p, with the repetition rule of ``periodic_points``:
    length >= n + locality where the oracle is window-local (exact), else
    length >= enumeration limit + n (approximate).  A periodic check, given
    for an oracle with ``exact_periods`` (``s_gap_cyclic_gaps_ok``), is
    asked instead, and is exact."""
    if oracle.exact_periods and check is None:
        raise ValueError(f"{oracle.name} has exact periods: give its periodic check")
    exact = True
    out = []
    for p in oracle.words(n):
        if check is not None:
            ok = check(p)
        elif oracle.locality is not None:
            ok = oracle.contains(p * max(1, -(-(n + oracle.locality) // n)))
        else:
            exact = False
            ok = oracle.contains(p * max(1, -(-(oracle.enumeration_limit + n) // n)))
        if ok:
            out.append(p)
    return PeriodicPoints(n, tuple(out), exact)


def s_gap_cyclic_gaps_ok(spec: SGapSpec, p: Word) -> bool:
    """Whether p^infinity lies in the S-gap shift, read off p's cyclic
    gaps: every run of 0s between cyclically consecutive 1s of p has its
    length in S, and 0^infinity needs S unbounded."""
    ones = [i for i, c in enumerate(p) if c == 1]
    if not ones:
        return spec.unbounded
    gaps = [b - a - 1 for a, b in zip(ones, ones[1:])]
    gaps.append(ones[0] + len(p) - 1 - ones[-1])
    return all(g in spec.values or (spec.unbounded and g >= spec.tail_start
                                    and (g - spec.tail_start) % (spec.tail_period or 1) == 0)
               for g in gaps)


def _periodic_atoms(oracle: LanguageOracle, potential: Potential, n: int, depth: int,
                    check: Callable[[Word], bool] | None) -> tuple[list[tuple[Word, list]], bool]:
    """The atoms of a periodic-orbit measure by listing, as (p, the table
    values of the windows starting in p along p^infinity), every periodic
    point of ``periodic_points_listing`` (``check`` passed on) up to period
    n, and the exact flag.  Raises what listing raises: the enumeration
    limit at its period, a missing window at its atom, and no periodic
    points after the last period."""
    if not (n >= depth >= 1):
        raise ValueError("need horizon >= depth >= 1")
    r = potential.window
    atoms: list[tuple[Word, list]] = []
    exact = True
    for k in range(1, n + 1):
        per = periodic_points_listing(oracle, k, check)
        exact = exact and per.exact
        for p in per.words:
            u = (p * (k + r))[:k + r - 1]
            atoms.append((p, [potential.value(u[j:j + r]) for j in range(k)]))
    if not atoms:
        raise NoPeriodicPointsError(f"no periodic points up to period {n}")
    return atoms, exact


def periodic_orbit_measure_listing(oracle: LanguageOracle, potential: Potential, n: int,
                                   depth: int, check: Callable[[Word], bool] | None = None
                                   ) -> PeriodicMeasure:
    """``thermo.periodic_orbit_measure`` by listing: the atoms of
    ``_periodic_atoms``, each weighed by the fsum of its windows."""
    atoms, exact = _periodic_atoms(oracle, potential, n, depth, check)
    sums = [math.fsum(values) for _, values in atoms]
    log_total = log_sum_exp(sums)
    weights: dict[Word, float] = {}
    for (p, _), s in zip(atoms, sums):
        u = (p * depth)[:depth]
        weights[u] = weights.get(u, 0.0) + math.exp(s - log_total)
    return PeriodicMeasure(n, depth, weights, exact)


def periodic_orbit_measure_exact(oracle: LanguageOracle, potential: Potential, n: int,
                                 depth: int, check: Callable[[Word], bool] | None = None
                                 ) -> PeriodicMeasure:
    """The listing's measure in exact arithmetic: each atom's Birkhoff sum
    an exact ``Fraction`` of its windows, each weight evaluated with mpmath
    at 50 digits and rounded once to a float.  Same keys in the same order,
    and the same errors, as ``periodic_orbit_measure_listing``."""
    import mpmath

    atoms, exact = _periodic_atoms(oracle, potential, n, depth, check)
    sums = [sum(map(Fraction, values), Fraction(0)) for _, values in atoms]
    top = max(sums)
    with mpmath.workdps(50):
        terms: dict[Word, mpmath.mpf] = {}
        for (p, _), s in zip(atoms, sums):
            u = (p * depth)[:depth]
            d = s - top
            x = mpmath.exp(mpmath.mpf(d.numerator) / d.denominator)
            terms[u] = terms.get(u, mpmath.mpf(0)) + x
        total = mpmath.fsum(terms.values())
        weights = {u: float(x / total) for u, x in terms.items()}
    return PeriodicMeasure(n, depth, weights, exact)


def factorisation_count(irreducibles: Iterable[Word], w: Word) -> int:
    """Number of parses of w into irreducible words (exact integer)."""
    n = len(w)
    irr = set(irreducibles)
    f = [0] * (n + 1)
    f[0] = 1
    for j in range(1, n + 1):
        f[j] = sum(f[i] for i in range(j) if w[i:j] in irr)
    return f[n]


def obstruction_complement(
    collections: TripleCollections, oracle: LanguageOracle, n: int
) -> tuple[WordSet, Callable[[Word], Decomposition | None]]:
    """The words of length 1..n with no Cp.G.Cs decomposition, together with
    the decomposition finder (the empty word is never reported)."""
    decompose = make_decomposer(collections)
    words = [w for m in range(1, n + 1) for w in oracle.words(m) if decompose(w) is None]
    return WordSet.from_words(oracle, words, depth=n), decompose


def near_obstructions_by_search(obstructions: WordSet, oracle: LanguageOracle, reach: int,
                                side: str) -> WordSet:
    """``cgc``'s near obstructions D-+ as a connector search per word: w is
    a member iff it is a nonempty word and some word x with |x| <= reach,
    listed length by length, has w.x (side "right") or x.w (side "left") in
    the collection, asked whether or not that is a word.  An empty list
    gives the empty set."""
    if obstructions.known_empty:
        return WordSet.empty(oracle)

    def member(w: Word) -> bool:
        left, right = (w, EMPTY_WORD) if side == "right" else (EMPTY_WORD, w)
        x = oracle.connectors(left, right, range(reach + 1), obstructions.contains)
        return len(w) > 0 and next(x, None) is not None

    return WordSet.from_predicate(oracle, member, name=f"D{'+' if side == 'left' else '-'}")


@dataclass(frozen=True)
class SyncTimes:
    word: Word
    times: tuple[int, ...]
    in_obstruction_set: bool


def sync_times(w: Word, triple: SyncTriple, good: WordSet, oracle: LanguageOracle) -> SyncTimes:
    """Synchronising times of a word: 1-based positions i marking the end of
    an occurrence of r with c.s following.  When the good set is smaller
    than the language, the prefix w[.. i] and the tail past the connector
    must also be good.  Over the whole language, the words with no time
    are those that ``tower.obstruction_fraction_table`` counts."""
    uniform = good.is_full_language
    pat = triple.pattern
    lr, lc, ls = len(triple.r), len(triple.c), len(triple.s)
    out = []
    for i in range(lr, len(w) - lc - ls + 1):
        if w[i - lr : i + lc + ls] != pat:
            continue
        if not uniform:
            if not good.contains(w[:i]):
                continue
            if not good.contains(w[i + lc:]):
                continue
        out.append(i)
    return SyncTimes(w, tuple(out), not out)


def union_closure(maximal_sets: Sequence[tuple[int, ...]], window: Word,
                  contains: Callable[[Word], bool]) -> bool | None:
    """The union lemma on the maximal marking sets of a window: for every two
    of them, the union of their cuts strictly inside their common range
    marks the window there, each block between consecutive cuts lying in
    the family.  None with fewer than two sets."""
    if len(maximal_sets) < 2:
        return None
    for a in range(len(maximal_sets)):
        for b in range(a + 1, len(maximal_sets)):
            j1, j2 = maximal_sets[a], maximal_sets[b]
            lo = max(j1[0], j2[0]) + 1
            hi = min(j1[-1], j2[-1]) - 1
            merged = [c for c in sorted(set(j1) | set(j2)) if lo <= c <= hi]
            if not all(contains(window[x - 1 : y - 1]) for x, y in zip(merged, merged[1:])):
                return False
    return True


def entropy_function(delta: float) -> float:
    """The standard two-point entropy h(delta); 0 at the endpoints."""
    if delta <= 0.0 or delta >= 1.0:
        return 0.0
    return -delta * math.log(delta) - (1 - delta) * math.log(1 - delta)


def binomial_entropy_bound_holds(n: int, ell: int) -> bool:
    """C(n, ell) <= (n+1) e^{h(ell/n) n + 1}, exact integer-vs-float check."""
    lhs = math.comb(n, ell)
    rhs = (n + 1) * math.exp(entropy_function(ell / n) * n + 1)
    return lhs <= rhs
