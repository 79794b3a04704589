"""Partition sums, pressure estimates with one-sided bounds, Gibbs-ratio
tables, periodic-orbit measures, and the hyperbolicity diagnostic.

No limit is ever claimed: the result objects carry the finite-n table, a
Fekete upper bound where submultiplicativity warrants one, and a point
estimate taken from the largest computed lengths (the last successive-ratio
increment, which converges far faster than (1/n) log Lambda_n).  ``cli``
renders them as reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from .core import (
    LanguageOracle,
    Potential,
    Word,
    WordSet,
    distortion_bound,
    log_sum_exp,
    path_counts,
    phi_hat,
    phi_tail,
)
from .errors import NoPeriodicPointsError, NotInLanguageError, ShiftLabError

NEG_INF = float("-inf")


def rate_estimate(points) -> float:
    """The one pressure point estimate from (n, log sum) pairs: the slope
    through the last two with a finite log sum, that log sum over n when
    only one has one, -inf when none has."""
    supported = [(n, v) for n, v in points if v > NEG_INF]
    if len(supported) >= 2:
        (n1, v1), (n2, v2) = supported[-2:]
        return (v2 - v1) / (n2 - n1)
    return supported[0][1] / supported[0][0] if supported else NEG_INF


def log_partition_sum(words: WordSet, potential: Potential, n: int) -> float:
    """log Lambda_n(D, phi); -inf when D_n is empty.

    Zero potentials use exact integer counts (``WordSet.count``).  A set
    with ``paths`` (the language, whose paths are the oracle's own layer,
    or a pattern set, whose paths are its product with that layer) sums
    the transfer DP of its paths (``_Transfer``) over (path state, last
    <= r-1 symbols), with no word listed: each step adds phi of the
    r-window it completes, and the last adds ``phi_tail``, so every path
    weighs exactly e^{phi_hat(w)}.  On a finite layer that holds at any n.
    A stepped layer (beta, signed and d >= 4 cocyclic shifts, and their
    products) first raises the depth errors that listing raises, in the
    order ``WordSet.count`` raises them: the set's depth, then the
    oracle's limit.  The language's DP is kept on the oracle, one per
    potential, so that every analysis of a config over that language reads
    one DP.  Other sets (predicate sets with no pattern, explicit lists),
    and a DP that meets a missing window or a word with no extension, sum
    e^{phi_hat(w)} over the listed words, which raises what listing
    raises.  Either way terms are combined after a max shift with
    compensated summation in a fixed order, so the result is
    reproducible; the two agree to rounding.
    """
    return _log_sum_and_sup(words, potential, n)[0]


def _log_sum_and_sup(words: WordSet, potential: Potential, n: int) -> tuple[float, float]:
    """(log Lambda_n, max phi_hat) over D_n, both -inf when D_n is empty at
    every potential; else the max is 0 at zero potential (no word weighed)."""
    if potential.is_zero:
        c = words.count(n)
        return (math.log(c), 0.0) if c > 0 else (NEG_INF, NEG_INF)
    paths = words.paths
    if paths is not None and n >= 1:
        if paths.transitions is None:
            words.check_depth(n)
        memo = words.oracle._transfer if words.is_full_language else words.transfer_memo
        got = _transfer(memo, potential, paths).total(paths, words.oracle, n)
        if got is not None:
            return got
        # a missing window or a stranded word: listing reports it exactly,
        # or, past the enumeration limit of a finite layer, reports the limit
    elems = words.at(n)
    if not elems:
        return NEG_INF, NEG_INF
    vals = [phi_hat(potential, words.oracle, w) for w in elems]
    return log_sum_exp(vals), max(vals)


def _transfer(memo: dict, potential: Potential, layer: LanguageOracle) -> "_Transfer":
    """The potential's transfer DP in ``memo`` (an oracle's ``_transfer`` or
    a set's ``transfer_memo``), made on first use from the layer's start."""
    dp = memo.get(potential)
    if dp is None:
        dp = memo[potential] = _Transfer(potential, layer.start)
    return dp


class _Transfer:
    """The transfer DP of one layer at one potential (Ruelle's transfer
    operator on the higher-block presentation of Lind & Marcus, sec. 2.3),
    extended one length at a time.  Its owner keeps it, the oracle for its
    language and a pattern set for its product; it holds no reference to
    either, and the layer and the oracle are passed in, so that no cycle
    keeps an oracle and its ``words`` cache alive.  The layer is finite or
    stepped: a stepped layer's rows are made as the DP first reads them,
    and a row that raises (a beta digit past the certified depth) raises
    here, as listing the words raises it.  A beta layer's states at length
    j are (m, j) with m <= j, so F_j has at most (j + 1) k^(r-1) keys,
    where listing reads every word.

    ``vectors[j]`` is the forward vector F_j.  Its keys are the DP states
    of the words w of length j, (layer state, last min(j, r-1) symbols),
    and its values (log sum e^{F(w)}, max F(w)) over the words ending
    there, F(w) being the running sum of the windows inside w (phi_hat
    takes their fsum), or None once some path into the state has met a
    window missing from the table; the mark is carried forward, so every
    successor of a key is a key of the next vector.
    """

    def __init__(self, potential: Potential, start):
        self.potential = potential
        self.vectors: list[dict[tuple, tuple[float, float] | None]] = [{(start, ()): (0.0, 0.0)}]
        #: n -> ``total``
        self.totals: dict[int, tuple[float, float] | None] = {}

    def vector(self, rows, j: int) -> dict[tuple, tuple[float, float] | None]:
        """F_j, extended over ``rows`` (the layer's) from the last kept."""
        r, table = self.potential.window, self.potential.table
        while len(self.vectors) <= j:
            sums: dict[tuple, list[float]] = {}
            best: dict[tuple, float] = {}
            marked = set()
            for (q, s), val in self.vectors[-1].items():
                for a, t in rows[q].items():
                    win = s + (a,)
                    f = 0.0
                    if len(win) == r:
                        try:
                            f = table[win]
                        except KeyError:
                            f = None
                        win = win[1:]
                    key = (t, win)
                    if val is None or f is None:
                        marked.add(key)
                        continue
                    sums.setdefault(key, []).append(val[0] + f)
                    if key not in best or val[1] + f > best[key]:
                        best[key] = val[1] + f
            vec = {key: (log_sum_exp(vals), best[key]) for key, vals in sums.items()}
            vec.update(dict.fromkeys(marked))
            self.vectors.append(vec)
        return self.vectors[j]

    def total(self, layer: LanguageOracle, oracle: LanguageOracle,
              n: int) -> tuple[float, float] | None:
        """(log Lambda_n, max phi_hat) over the paths of length n >= 1, each
        F_n value plus ``phi_tail`` at the oracle's state: the layer's own
        state on the oracle, else the second of the product's pair, which
        a finite product keeps in its label and a stepped one is; -inf
        with no path.  None where listing must answer: a marked state, or a
        ``phi_tail`` that finds no extension or a missing window.  Then
        some word raises in phi_hat, and listing reports the same error
        (past the enumeration limit, the limit)."""
        if n in self.totals:
            return self.totals[n]
        vec = self.vector(layer._rows, n)
        got = None if vec else (NEG_INF, NEG_INF)
        if vec and None not in vec.values():
            own, labels = layer is oracle, layer.labels
            try:
                tails = [phi_tail(self.potential, oracle,
                                  q if own else (q if labels is None else labels[q])[1], s)
                         for q, s in vec]
            except NotInLanguageError:
                tails = [None]
            if None not in tails:
                got = (log_sum_exp([ls + t for (ls, _), t in zip(vec.values(), tails)]),
                       max(mx + t for (_, mx), t in zip(vec.values(), tails)))
        self.totals[n] = got
        return got


@dataclass(frozen=True)
class PressureRow:
    n: int
    log_sum: float
    count: int | None
    rate: float
    upper_bound: float | None = None


@dataclass
class PressureReport:
    """Finite-scale pressure table for a word set.

    For the full language log Lambda is exactly submultiplicative, so each
    row carries the Fekete upper bound (1/n)(log Lambda_n + |phi|_d), valid
    for the pressure at every n; ``fekete_upper`` is the sharpest of them.
    ``point_estimate`` is the increment log Lambda_N - log Lambda_{N'} over
    the last two supported lengths (far faster convergence than the raw
    rate column).
    """

    set_name: str
    rows: list[PressureRow]
    fekete_upper: float | None
    point_estimate: float
    distortion: float
    gap_flags: dict[str, bool] = field(default_factory=dict)

    @property
    def n_max(self) -> int:
        return self.rows[-1].n if self.rows else 0

    def rate_at(self, n: int) -> float:
        for row in self.rows:
            if row.n == n:
                return row.rate
        raise KeyError(n)


def pressure_estimate(
    words: WordSet,
    potential: Potential,
    n_max: int,
) -> PressureReport:
    """Pressure table for lengths 1..n_max.

    The Fekete upper bound is included when the set is the full language,
    where Lambda_{m+n} <= Lambda_m Lambda_n holds exactly.
    """
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    use_fekete = words.is_full_language
    dist = distortion_bound(potential)
    rows: list[PressureRow] = []
    for n in range(1, n_max + 1):
        ls = log_partition_sum(words, potential, n)
        count = words.count(n) if potential.is_zero else None
        rate = ls / n if ls > NEG_INF else NEG_INF
        ub = (ls + dist) / n if (use_fekete and ls > NEG_INF) else None
        rows.append(PressureRow(n, ls, count, rate, ub))

    supported = [r for r in rows if r.log_sum > NEG_INF]
    point = rate_estimate((r.n, r.log_sum) for r in rows)

    fekete_upper = None
    if use_fekete and supported:
        fekete_upper = min(r.upper_bound for r in supported)

    flags: dict[str, bool] = {}
    flags["support_full"] = len(supported) == len(rows)
    tail = [r.rate for r in rows[-(max(2, len(rows) // 4)) :] if r.log_sum > NEG_INF]
    flags["tail_monotone"] = all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    if fekete_upper is not None:
        flags["fekete_consistent"] = fekete_upper >= point - 1e-6
    return PressureReport(words.name or "words", rows, fekete_upper, point, dist, flags)


# ---------------------------------------------------------------------------
# Cylinder occurrence tables (finite-scale Gibbs ratios)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderRow:
    position: int
    log_sum: float
    count: int | None
    gibbs_ratio: float


@dataclass
class CylinderTable:
    word: Word
    n: int
    pressure_used: float
    rows: list[CylinderRow]


def cylinder_count_table(
    oracle: LanguageOracle,
    potential: Potential,
    v: Word,
    n: int,
) -> CylinderTable:
    """Partition sums over the words of length n containing v at each start
    position i (the finite-length analogue of a cylinder), plus the ratios
    Lambda_n(H) * e^{-(n-|v|) P - phi_hat(v)} as empirical Gibbs constants,
    P being the point estimate of the full language at depth n.

    The rows come from two passes over the oracle's layer
    (``_cylinder_sums``), whatever the oracle: the forward vectors of the
    language's transfer DP, which on a finite layer the pressure estimate
    has just extended to n, and one backward pass from length n.  At zero
    potential both carry exact integer counts.  So no row lists a word or
    builds a product, and on a finite layer n may exceed the enumeration
    limit.

    Errors: the pressure estimate comes first and sums every word of
    lengths 1..n, so a missing window, a word with no extension or, on a
    stepped layer, a length past the limit raises there, as listing the
    language raises it.  A row that still meets one is
    answered by listing that position's words, rows in order, which raises
    what the listing raises.
    """
    if not oracle.contains(v):
        raise NotInLanguageError(f"{v} is not admissible")
    k = len(v)
    if k == 0 or k > n:
        raise ValueError("need 1 <= |v| <= n")
    p_hat = pressure_estimate(WordSet.language(oracle), potential, n).point_estimate
    pv = phi_hat(potential, oracle, v)
    rows: list[CylinderRow] = []
    for i, (ls, count) in enumerate(_cylinder_sums(oracle, potential, v, n), 1):
        ratio = math.exp(ls - (n - k) * p_hat - pv) if ls > NEG_INF else 0.0
        rows.append(CylinderRow(i, ls, count, ratio))
    return CylinderTable(v, n, p_hat, rows)


def _cylinder_sums(oracle: LanguageOracle, potential: Potential, v: Word,
                   n: int) -> list[tuple[float, int | None]]:
    """(log Lambda_n, the count at zero potential or None) over the words
    of length n that hold v at start position i, for i = 1 .. n - |v|.

    A word u.v.x with |u| = i - 1 weighs e^{F(u)}, from the forward vector
    F_{i-1} of the language's transfer DP, times e^f for the windows f
    completed while v is read (``_read``), times e^{B_m} at the DP state
    after u.v, m = |x|.  The backward vector B_0 is ``phi_tail``, and B_m
    sums, over each symbol read, the window it completes plus B_{m-1} at
    the state it reaches; B_m is made only at the keys of F_{n-m}, which
    hold every state that a word of length n - m reaches.  At zero
    potential the same passes carry path counts, so each count is exact.
    On a layer that is not finite a length past the enumeration limit
    raises DepthExceededError first, as listing does.

    A term that meets a missing window, a word with no extension or a
    marked forward state leaves its row None.  Such rows are answered in
    order by listing the position's words with phi_hat, which raises the
    error that listing the row's word set raises.
    """
    rows, k = oracle._rows, len(v)
    if n <= k:
        return []
    if oracle.transitions is None:
        oracle.check_depth(n)
    if potential.is_zero:
        walk = path_counts(oracle.start, lambda q: rows[q].values())
        forward = [next(walk) for _ in range(n + 1)]
        back = dict.fromkeys(forward[n], 1)
        counts = [0] * (n - k)
        for m in range(1, n - k + 1):
            back = {q: sum(back[t] for t in rows[q].values()) for q in forward[n - m]}
            i = n - m - k  # the 0-based row whose v ends at length n - m
            counts[i] = sum(c * back[t] for q, c in forward[i].items()
                            if (t := _state_after(rows, q, v)) is not None)
        return [(math.log(c) if c > 0 else NEG_INF, c) for c in counts]
    forward = [_transfer(oracle._transfer, potential, oracle).vector(rows, j)
               for j in range(n + 1)]
    back = {}
    for q, s in forward[n]:
        try:
            back[q, s] = phi_tail(potential, oracle, q, s)
        except ShiftLabError:  # a missing window, or a beta digit past the certified depth
            back[q, s] = None
    out: list = [None] * (n - k)
    for m in range(1, n - k + 1):
        back = {key: _through(((0.0,) + _read(rows, potential, key, (a,)) for a in rows[key[0]]),
                              back) for key in forward[n - m]}
        i = n - m - k
        terms = ((None if val is None else val[0],) + got for key, val in forward[i].items()
                 if (got := _read(rows, potential, key, v)) is not None)
        out[i] = _through(terms, back)
    for i, got in enumerate(out):
        if got is None:
            vals = [phi_hat(potential, oracle, w) for w in oracle.words(n) if w[i:i + k] == v]
            out[i] = log_sum_exp(vals) if vals else NEG_INF
    return [(ls, None) for ls in out]


def _state_after(rows, q, u: Word):
    """The layer state after reading u from q, or None."""
    for a in u:
        q = rows[q].get(a)
        if q is None:
            return None
    return q


def _read(rows, potential: Potential, key: tuple, u: Word) -> tuple | None:
    """(the sum of the windows completed while u is read from ``key``, or
    None for one the table lacks; the DP key after u), or None when u
    cannot be read from the key's layer state."""
    (q, s), r, f = key, potential.window, 0.0
    for a in u:
        q = rows[q].get(a)
        if q is None:
            return None
        s += (a,)
        if len(s) == r:
            if f is not None:
                try:
                    f += potential.table[s]
                except KeyError:
                    f = None
            s = s[1:]
    return f, (q, s)


def _through(terms, back: dict) -> float | None:
    """log sum e^{x + f + back[key]} over the (x, f, key) of ``terms`` whose
    key has a path on (back[key] > -inf); None when one of those has x, f
    or back[key] None."""
    vals = []
    for x, f, key in terms:
        b = back[key]
        if b == NEG_INF:
            continue
        if x is None or f is None or b is None:
            return None
        vals.append(x + f + b)
    return log_sum_exp(vals) if vals else NEG_INF


# ---------------------------------------------------------------------------
# Periodic points and weighted periodic-orbit measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicPoints:
    period: int
    words: tuple[Word, ...]
    exact: bool


def periodic_reps(oracle: LanguageOracle, n: int) -> int | None:
    """The copies of a period-n word that ``periodic_points`` reads: the
    fewest reaching n + locality, else n + the enumeration limit; None (all
    of them) where the oracle has ``exact_periods``."""
    if oracle.exact_periods:
        return None
    window = oracle.locality
    return max(1, -(-(n + (oracle.enumeration_limit if window is None else window)) // n))


def periodic_points(oracle: LanguageOracle, n: int) -> PeriodicPoints:
    """All length-n words p whose infinite repetition is admissible: those
    with p^reps a word, reps from ``periodic_reps``.  Exact when the oracle
    has ``exact_periods`` (S-gap) or is window-local (SFTs); otherwise the
    repetition only reaches past the enumeration limit, and the result is
    flagged approximate.

    On a finite layer p^reps is a word iff the orbit of the start under
    p's transition-monoid element f_p: q -> q.p lives for reps steps (or
    forever, read until it repeats).  Each word of ``words(n)`` takes f_p's
    id from its prefix's, and each (id, reps) is decided once.  Other
    layers, whose states are not finitely many, ask ``contains(p * reps)``
    of every listed word.
    """
    if n < 1:
        raise ValueError("period must be >= 1")
    reps = periodic_reps(oracle, n)
    words = oracle.words(n)
    exact = oracle.exact_periods or oracle.locality is not None or not words
    if oracle.transitions is None:
        keep = tuple(p for p in words if oracle.contains(p * reps))
    else:
        monoid = _monoid(oracle)
        ids = monoid.word_ids(oracle._states, n)
        verdict = monoid.decide(ids, reps)
        keep = tuple(p for p, m in zip(words, ids) if verdict[m])
    return PeriodicPoints(n, keep, exact)


def _monoid(oracle: LanguageOracle) -> "_TransitionMonoid":
    """The finite layer's transition monoid, kept on the oracle."""
    if oracle._monoid is None:
        oracle._monoid = _TransitionMonoid(oracle.transitions)
    return oracle._monoid


class _TransitionMonoid:
    """The elements q -> q.p of a finite layer's words p, as tuples of
    images (``dead`` for none), numbered as met from the empty word's, 0.
    ``periodic_points`` steps the ids of ``words(n)`` (``word_ids``), and
    ``periodic_orbit_measure`` the ids of its classes (``_step``); both
    decide each (id, reps) once (``decide``)."""

    def __init__(self, rows: list[dict[int, int]]):
        self.rows, self.dead = rows, len(rows)
        self.elements = [tuple(range(self.dead + 1))]
        self.index = {self.elements[0]: 0}
        #: steps[id][a]: the id of p.a's element, for p of element id
        self.steps: list[dict[int, int]] = [{}]
        #: reps -> {id: whether the orbit of the start lives}
        self.verdicts: dict[int | None, dict[int, bool]] = {}
        self.length, self.ids = 0, [0]

    def word_ids(self, states: dict[int, list[int]], n: int) -> list[int]:
        """The ids of words(n), carried from the last length read (or from
        the empty word) over the states that words(n) keeps."""
        if n < self.length:
            self.length, self.ids = 0, [0]
        rows, steps = self.rows, self.steps
        while self.length < n:
            ids = []
            for m, q in zip(self.ids, states[self.length]):
                step = steps[m]
                for a in rows[q]:
                    c = step.get(a)
                    ids.append(self._step(m, a) if c is None else c)
            self.length, self.ids = self.length + 1, ids
        return self.ids

    def decide(self, ids, reps: int | None) -> dict[int, bool]:
        """{id: whether the start's orbit lives for reps steps}, the orbit
        walked once per id and reps."""
        verdict = self.verdicts.setdefault(reps, {})
        for m in set(ids).difference(verdict):
            verdict[m] = _orbit_lives(self.elements[m], reps)
        return verdict

    def _step(self, m: int, a: int) -> int:
        f = tuple(q if q == self.dead else self.rows[q].get(a, self.dead)
                  for q in self.elements[m])
        c = self.steps[m][a] = self.index.setdefault(f, len(self.elements))
        if c == len(self.elements):
            self.elements.append(f)
            self.steps.append({})
        return c


def _orbit_lives(f: tuple[int, ...], reps: int | None) -> bool:
    """Whether start.p, ..., start.p^reps (every power when reps is None)
    are states, f being q -> q.p (last the dead state's image) and 0 the
    start; the orbit stops at its first repeat, from which it cycles."""
    q, seen, read, dead = f[0], set(), 1, len(f) - 1
    while q != dead and q not in seen and read != reps:
        seen.add(q)
        q = f[q]
        read += 1
    return q != dead


def _cyclic(p: Word, m: int) -> Word:
    """The first m symbols of p^infinity."""
    return p * (m // len(p)) + p[: m % len(p)]


def _cyclic_birkhoff(potential: Potential, p: Word) -> float:
    """Birkhoff sum of one full period along the periodic point p^infinity:
    the windows starting in p, read from its first |p| + r - 1 symbols."""
    k = len(p)
    return potential.window_sum(_cyclic(p, k + potential.window - 1), 0, k)


def _carried(oracle: LanguageOracle, potential: Potential) -> "_CarriedSums | None":
    """The oracle's scaled window sums for the potential, made on first
    use, or None for a table value that is not a finite float, which no
    integer holds."""
    if potential not in oracle._sums:
        try:
            values = [float(v) for v in potential.table.values()]
        except (TypeError, ValueError, OverflowError):
            values = None
        oracle._sums[potential] = (
            _CarriedSums(potential, values)
            if values is not None and all(map(math.isfinite, values)) else None)
    return oracle._sums[potential]


class _CarriedSums:
    """Exact window sums for the class DP of ``periodic_orbit_measure``.
    Each table value is scaled by ``scale`` = 2**E to an integer, E the
    least exponent that makes every value one.  ``steps`` gives the scaled
    window each symbol completes after the last r - 1 symbols read, and
    ``wrap`` the windows that wrap around p^infinity.  CPython's int true
    division and ``math.fsum`` are both correctly rounded, so a sum over
    ``scale`` is, bit for bit, the fsum of its windows."""

    def __init__(self, potential: Potential, values: list[float]):
        self.potential = potential
        self.scale = 1 << max((v.as_integer_ratio()[1].bit_length() - 1 for v in values),
                              default=0)
        #: steps[tail][a]: (the value of the window tail.a completes, 0
        #: below length r, None if missing; the tail of tail.a)
        self.steps: dict[Word, dict[int, tuple[int | None, Word]]] = {(): {}}
        self.wraps: dict[Word, int | None] = {}

    def _step(self, t: Word, a: int) -> tuple[int | None, Word]:
        w = t + (a,)
        full = len(w) == self.potential.window
        tail = w[1:] if full else w
        self.steps.setdefault(tail, {})
        out = self.steps[t][a] = (self._scaled(w) if full else 0, tail)
        return out

    def _scaled(self, window: Word) -> int | None:
        try:
            num, den = float(self.potential.table[window]).as_integer_ratio()
        except KeyError:
            return None
        return num * (self.scale // den)

    def wrap(self, u: Word) -> int | None:
        """The scaled sum of the windows of u, or None for one the table
        lacks: u holds the last r - 1 and first r - 1 symbols of a period
        (all of p^infinity's first |p| + r - 1 when |p| < r - 1), so its
        windows are the ones that wrap around."""
        if u not in self.wraps:
            r = self.potential.window
            sums = [self._scaled(u[j:j + r]) for j in range(len(u) - r + 1)]
            self.wraps[u] = None if None in sums else sum(sums)
        return self.wraps[u]


@dataclass
class PeriodicMeasure:
    horizon: int
    depth: int
    cylinder_weights: dict[Word, float]
    exact_periods: bool


def periodic_orbit_measure(
    oracle: LanguageOracle,
    potential: Potential,
    n: int,
    depth: int,
) -> PeriodicMeasure:
    """The normalized phi-weighted sum of point masses on periodic points of
    period at most n, reported as cylinder weights at the given depth
    (under specification they tend to the equilibrium state; Bowen 1975,
    ch. 1).

    On a finite layer with a table of finite values (``_carried``) no word
    is listed: ``_class_sums`` sums the periodic words by class, keeping
    their window sums as exact integers, so no rounding grows with |phi|.
    Period k asks ``check_depth(k)`` first, as listing does, so the
    enumeration limit still bounds the horizon.  Stepped layers, and finite
    layers whose table ``_carried`` refuses, weigh each word of
    ``periodic_points`` as its own atom, by the correctly rounded fsum of
    its windows along p^infinity (``_cyclic_birkhoff``).  Either way a
    missing window raises what listing raises, at the same atom.
    """
    if not (n >= depth >= 1):
        raise ValueError("need horizon >= depth >= 1")
    if oracle.transitions is not None:
        sums = _carried(oracle, potential)
        if sums is not None:
            weights, exact = _class_sums(oracle, potential, sums, n, depth)
            return PeriodicMeasure(n, depth, weights, exact)
    atoms: list[tuple[Word, float]] = []
    exact = True
    for k in range(1, n + 1):
        per = periodic_points(oracle, k)
        exact = exact and per.exact
        atoms.extend((p, _cyclic_birkhoff(potential, p)) for p in per.words)
    if not atoms:
        raise NoPeriodicPointsError(f"no periodic points up to period {n}")
    # normalised in logs: a Birkhoff sum past ~709 overflows math.exp
    log_total = log_sum_exp([s for _, s in atoms])
    weights: dict[Word, float] = {}
    for p, s in atoms:
        u = _cyclic(p, depth)
        weights[u] = weights.get(u, 0.0) + math.exp(s - log_total)
    return PeriodicMeasure(n, depth, weights, exact)


def _class_sums(oracle: LanguageOracle, potential: Potential, sums: "_CarriedSums",
                n: int, depth: int) -> tuple[dict[Word, float], bool]:
    """(cylinder weights, exact flag) of ``periodic_orbit_measure`` on a
    finite layer, from the classes of ``_classes`` with head max(depth,
    r - 1).  At period k each class's element decides the orbit rule of
    ``periodic_points`` once; a live class adds the windows that wrap
    around p^infinity, read from its last and first symbols, and is summed
    into the cylinder of its first depth symbols.  The classes come in the
    order of their first symbols, as ``words(k)`` keeps its words, so the
    cylinders enter in the listing's order.  A live class that holds a
    missing window lists period k, whose first such atom raises."""
    r, scale = potential.window, sums.scale
    monoid = _monoid(oracle)
    levels = _classes(oracle, sums, monoid, max(depth, r - 1))
    cylinders: dict[Word, tuple[int, float]] = {}
    exact = True
    for k in range(1, n + 1):
        oracle.check_depth(k)
        level = next(levels)
        exact = exact and (oracle.exact_periods or oracle.locality is not None or not level)
        verdict = monoid.decide({m for m, _, _ in level}, periodic_reps(oracle, k))
        for (m, head, tail), (ref, mant) in level.items():
            if not verdict[m]:
                continue
            wrap = sums.wrap(tail + head[:r - 1] if k >= r - 1 else _cyclic(head, k + r - 1))
            if ref is None or wrap is None:
                for p in periodic_points(oracle, k).words:
                    _cyclic_birkhoff(potential, p)
                raise AssertionError("a periodic class with a missing window listed none")
            u = head[:depth] if k >= depth else _cyclic(head, depth)
            cylinders[u] = _merged(cylinders.get(u), ref + wrap, mant, scale)
    if not cylinders:
        raise NoPeriodicPointsError(f"no periodic points up to period {n}")
    top = max(ref for ref, _ in cylinders.values())
    terms = {u: mant * math.exp(max(ref - top, -1100 * scale) / scale)
             for u, (ref, mant) in cylinders.items()}
    total = math.fsum(terms.values())
    return {u: term / total for u, term in terms.items()}, exact


def _classes(oracle: LanguageOracle, sums: "_CarriedSums", monoid: _TransitionMonoid,
             head: int) -> Iterator[dict[tuple, tuple[int | None, float]]]:
    """For k = 1, 2, ..., the words of length k summed by class, as
    {(element id, first min(k, head) symbols, last min(k, r - 1) symbols):
    (R, m)}; until k passes head a class is one word.  Over the words w of
    a class, the sum of e^{S(w)/scale} is m e^{R/scale}, S(w) being the
    scaled integer sum of the windows inside w; R is None once one of them
    holds a missing window.  A class steps from its element's image of the
    start, each symbol adding the window it completes to R
    (``_CarriedSums.steps``)."""
    rows, start, scale = oracle.transitions, oracle.start, sums.scale
    elements, msteps, ssteps = monoid.elements, monoid.steps, sums.steps
    level = {(0, (), ()): (0, 1.0)}
    while True:
        grown: dict[tuple, tuple[int | None, float]] = {}
        for (m, h, t), (ref, mant) in level.items():
            mstep, sstep, longer = msteps[m], ssteps[t], len(h) < head
            for a in rows[elements[m][start]]:
                c = mstep.get(a)
                v, u = sstep.get(a) or sums._step(t, a)
                key = (monoid._step(m, a) if c is None else c, h + (a,) if longer else h, u)
                grown[key] = _merged(grown.get(key), None if ref is None or v is None else ref + v,
                                     mant, scale)
        level = grown
        yield level


def _merged(old: tuple[int | None, float] | None, ref: int | None, mant: float,
            scale: int) -> tuple[int | None, float]:
    """old's m e^{R/scale} plus mant e^{ref/scale}, as (R, m): the larger R
    is kept and the other mantissa scaled by exp of the exact integer
    difference over scale, correctly rounded, so no rounding grows with
    |R|.  A difference too large for the int division to give a float
    scales by 0.0, as exp of any float below -746 does.  Mantissas start
    at 1 and never fall below it.  A None R marks a missing window, and
    the mark is kept."""
    if old is None:
        return ref, mant
    ref0, mant0 = old
    if ref is None or ref0 is None:
        return None, mant
    if ref < ref0:
        ref, mant, ref0, mant0 = ref0, mant0, ref, mant
    try:
        return ref, mant + mant0 * math.exp((ref0 - ref) / scale)
    except OverflowError:
        return ref, mant


# ---------------------------------------------------------------------------
# Hyperbolicity diagnostic
# ---------------------------------------------------------------------------

#: gaps at or below this are rounding noise, not a gap
_GAP_FLOOR = 1e-9


@dataclass(frozen=True)
class HyperbolicityRow:
    n: int
    sup_rate: float
    rate: float
    gap: float


@dataclass
class HyperbolicityReport:
    rows: list[HyperbolicityRow]
    point_estimate: float
    verdict: str


def hyperbolicity_diagnostic(
    oracle: LanguageOracle,
    potential: Potential,
    n_max: int,
) -> HyperbolicityReport:
    """Compares sup_w phi_hat(w)/n against the pressure estimate.

    The per-n gap is the successive-ratio pressure increment
    log Lambda_n - log Lambda_{n-1} minus the sup Birkhoff rate.  The point
    estimate is ``rate_estimate`` of the table's own (n, log Lambda_n)
    values.  Each row's log Lambda_n and sup come from one pass over the
    full language, the one behind ``log_partition_sum``: the transfer DP
    and its max-plus twin, at any n_max on a finite layer and to the
    enumeration limit on a stepped one; one phi_hat per listed word only
    where the DP meets a missing window or a word with no extension.  At
    zero potential the sum is the oracle's count and the sup 0 (-inf with no word).
    Verdict is "hyperbolic-at-depth" iff over the last quarter of the table
    every gap exceeds 1e-9 (so rounding noise around an exact gap of 0 is
    no gap) and does not shrink on net (the oscillation tolerance scales
    with the gap size, so a gap decaying to zero is rejected while a stable
    positive gap passes)."""
    lang = WordSet.language(oracle)
    rows: list[HyperbolicityRow] = []
    log_sums: list[tuple[int, float]] = []
    prev_log = None
    for n in range(1, n_max + 1):
        log_sum, sup = _log_sum_and_sup(lang, potential, n)
        sup /= n
        if prev_log is not None and prev_log > NEG_INF and log_sum > NEG_INF:
            rate = log_sum - prev_log
        else:
            rate = log_sum / n if log_sum > NEG_INF else NEG_INF
        prev_log = log_sum
        log_sums.append((n, log_sum))
        rows.append(HyperbolicityRow(n, sup, rate, rate - sup))
    # raised after the table, so that an error inside the table (a depth or
    # membership failure) is the one reported
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    point = rate_estimate(log_sums)
    tail = rows[-max(3, len(rows) // 4) :]
    gaps = [r.gap for r in tail]
    positive = all(g > _GAP_FLOOR for g in gaps)
    scale = sorted(abs(g) for g in gaps)[len(gaps) // 2]
    tol = max(_GAP_FLOOR, 0.05 * scale)
    widening = gaps[-1] >= gaps[0] - tol
    verdict = "hyperbolic-at-depth" if (positive and widening) else "not-hyperbolic-at-depth"
    return HyperbolicityReport(rows, point, verdict)
