"""Finite-scale checkers and constructors for the specification conditions,
obstruction collections, the good-word construction from complete obstruction
lists, quasi-finite-type constraints, and synchronised decompositions.

Every verdict is depth-certified: it quantifies over the enumerated words
only and records the depth.  No checker claims an infinite-depth result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .core import (
    EMPTY_WORD,
    LanguageOracle,
    Potential,
    Word,
    WordSet,
)
from .errors import DepthExceededError, NotSynchronisingError, NoValidParametersError
from . import thermo
from .thermo import NEG_INF, PressureReport, pressure_estimate, rate_estimate

DEFAULT_MARGIN = 0.05
#: the thresholds M and N that cgc_construct scans, smallest first
_M_GRID, _N_GRID = (2, 3, 4), (2, 3, 4, 6, 8, 10)


@dataclass
class TripleCollections:
    """Prefix, good, and suffix collections with the gluing bound tau and
    the overlap parameter L, and, where it is known in closed form, the
    [II] obstruction set Cp u Cs u (L \\ Cp.G.Cs)."""

    cp: WordSet
    good: WordSet
    cs: WordSet
    tau: int
    L_param: int | None = None
    obstructions: WordSet | None = None


@dataclass(frozen=True)
class Decomposition:
    """w = w[:prefix_end] * w[prefix_end:good_end] * w[good_end:]."""

    prefix_end: int
    good_end: int


@dataclass
class Verdict:
    condition: str
    depth: int
    passed: bool
    witnesses: list = field(default_factory=list)
    parameters: dict = field(default_factory=dict)


def _collection_words(ws: WordSet, n: int) -> list[Word]:
    out: list[Word] = []
    for m in range(1, n + 1):
        out.extend(ws.at(m))
    return out


# ---------------------------------------------------------------------------
# Conditions [I] and [III]
# ---------------------------------------------------------------------------

def check_spec_I(collections: TripleCollections, oracle: LanguageOracle, n: int) -> Verdict:
    """[I]: every pair of good words glues with a connector u, |u| <= tau."""
    good, tau = collections.good, collections.tau
    if good._explicit is not None and 2 * n + tau > good.depth:
        raise DepthExceededError(
            f"gluing check needs membership at length {2 * n + tau}, set certified to {good.depth}"
        )
    words = _collection_words(good, n)
    witnesses: list[tuple[Word, Word]] = []
    for v, w in itertools.product(words, repeat=2):
        if next(oracle.connectors(v, w, range(tau + 1), good.contains), None) is None:
            witnesses.append((v, w))
    return Verdict(
        "[I]",
        n,
        not witnesses,
        witnesses[:20],
        parameters={"tau": tau},
    )


def check_stay_good_III(collections: TripleCollections, oracle: LanguageOracle, n: int) -> Verdict:
    """[III] over all admissible u,v,w with |uvw| <= n, |v| >= L, uv and vw
    good, uvw admissible: v and uvw must be good."""
    if collections.L_param is None:
        raise ValueError("check_stay_good_III needs L_param")
    L = collections.L_param
    good = collections.good
    witnesses: list[tuple[Word, Word, Word]] = []
    for m in range(L, n + 1):
        for t in oracle.words(m):
            for i in range(0, m + 1):
                for j in range(i + L, m + 1):
                    u, v, w = t[:i], t[i:j], t[j:]
                    if not (good.contains(t[:j]) and good.contains(t[i:])):
                        continue
                    if not (good.contains(v) and good.contains(t)):
                        witnesses.append((u, v, w))
    return Verdict(
        "[III]",
        n,
        not witnesses,
        witnesses[:20],
        # recorded reports name the mode, though "full" is the only one
        parameters={"L": L, "mode": "full"},
    )


# ---------------------------------------------------------------------------
# Decompositions and the pressure-gap condition [II]
# ---------------------------------------------------------------------------

def make_decomposer(collections: TripleCollections) -> Callable[[Word], Decomposition | None]:
    """Split finder for Cp.G.Cs with the deterministic tie rule: smallest
    prefix end, then largest good end.  ``pressure_gap_II`` builds it only
    for collections with no closed-form obstruction set (``cgc``'s), and
    ``tests/reference.py`` lists the [II] set of any collections with it."""

    cp, good, cs = collections.cp, collections.good, collections.cs

    def decompose(w: Word) -> Decomposition | None:
        for i in range(0, len(w) + 1):
            if not cp.contains(w[:i]):
                continue
            for j in range(len(w), i - 1, -1):
                if cs.contains(w[j:]) and good.contains(w[i:j]):
                    return Decomposition(i, j)
        return None

    return decompose


@dataclass
class GapReport:
    condition: str
    obstruction_report: PressureReport
    language_report: PressureReport
    margin: float
    passed: bool


def margin_rule(obstruction: PressureReport, language: PressureReport, margin: float) -> bool:
    """Gap holds at depth iff the obstruction rate stays below the language
    rate by the margin on every length in the top half of the table."""
    n_max = language.n_max
    for row in language.rows:
        if row.n <= n_max // 2:
            continue
        other = obstruction.rate_at(row.n)
        if other > row.rate - margin:
            return False
    return True


def pressure_gap_II(
    collections: TripleCollections,
    oracle: LanguageOracle,
    potential: Potential,
    n_max: int,
    *,
    margin: float = DEFAULT_MARGIN,
) -> GapReport:
    """[II]: pressure of Cp u Cs u (L \\ Cp.G.Cs) versus the full language,
    judged by the margin rule.  The set is ``collections.obstructions``
    where the collections give it, else a predicate running
    ``make_decomposer``'s split search on each word."""
    obstructions = collections.obstructions
    if obstructions is None:
        decompose = make_decomposer(collections)
        cp, cs = collections.cp, collections.cs

        def in_obstructions(w: Word) -> bool:
            return cp.contains(w) or cs.contains(w) or decompose(w) is None

        obstructions = WordSet.from_predicate(oracle, in_obstructions, name="C")
    lang = WordSet.language(oracle)
    rep_c = pressure_estimate(obstructions, potential, n_max)
    rep_l = pressure_estimate(lang, potential, n_max)
    return GapReport("[II]", rep_c, rep_l, margin, margin_rule(rep_c, rep_l, margin))


# ---------------------------------------------------------------------------
# Obstruction pairs: persistence, [I*], and good words G(C^+-, M)
# ---------------------------------------------------------------------------

@dataclass
class ObstructionPair:
    cminus: WordSet
    cplus: WordSet


def good_words_from_obstructions(pair: ObstructionPair, oracle: LanguageOracle, M: int) -> WordSet:
    """G(C^+-, M): words that do not start with a C^- word or end with a C^+
    word of length >= M."""
    if M < 1:
        raise ValueError("threshold M must be >= 1")
    cminus, cplus = pair.cminus, pair.cplus

    def member(w: Word) -> bool:
        for i in range(M, len(w) + 1):
            if cminus.contains(w[:i]):
                return False
            if cplus.contains(w[len(w) - i :]):
                return False
        return True

    return WordSet.from_predicate(oracle, member, name=f"G(C+-,{M})")


def check_persistence(pair: ObstructionPair, oracle: LanguageOracle, n: int) -> Verdict:
    """eqn-persistence: prefixes of C^+ words stay in C^+ and suffixes of
    C^- words stay in C^-, over all splits to depth n."""
    witnesses: list[tuple[Word, Word]] = []
    for m in range(2, n + 1):
        for u in pair.cplus.at(m):
            for t in range(1, m):
                if not pair.cplus.contains(u[:t]):
                    witnesses.append((u[:t], u))
        for u in pair.cminus.at(m):
            for t in range(1, m):
                if not pair.cminus.contains(u[t:]):
                    witnesses.append((u[t:], u))
    return Verdict("persistence", n, not witnesses, witnesses[:20])


def check_complete_list_Istar(
    pair: ObstructionPair,
    oracle: LanguageOracle,
    M_list: Sequence[int],
    n: int,
) -> Verdict:
    """[I*]: for each M, the minimal tau <= n such that all pairs from
    G(C^+-, M) up to depth n glue into the language (not necessarily into
    the good set) with a connector of length <= tau: the verdict's
    ``parameters["tau_of_M"]``, over the M that pass."""
    table: dict[int, int] = {}
    witnesses: list = []
    for M in M_list:
        good = good_words_from_obstructions(pair, oracle, M)
        words = _collection_words(good, n)
        lefts, rights, search = oracle.connector_classes(words, words)
        worst = 0
        for (kv, i), (kw, j) in itertools.product(lefts.items(), rights.items()):
            c = next(search(kv, kw, range(n + 1)), None)
            if c is None:
                witnesses.append((M, (words[i], words[j])))
                break
            worst = max(worst, len(c))
        else:
            table[M] = worst
    return Verdict(
        "[I*]",
        n,
        not witnesses,
        witnesses,
        parameters={"tau_of_M": dict(sorted(table.items())), "tau_cap": n},
    )


# ---------------------------------------------------------------------------
# The construction of good collections from a complete obstruction list
# ---------------------------------------------------------------------------

def star_closure(base: WordSet, oracle: LanguageOracle, name: str = "") -> WordSet:
    """Kleene star of a collection, by length-bounded parsing DP; the empty
    word is included."""
    if base.known_empty:
        return WordSet(oracle, explicit={0: [EMPTY_WORD]}, depth=oracle.enumeration_limit,
                       name=name or "{epsilon}")

    def member(w: Word) -> bool:
        n = len(w)
        if n == 0:
            return True
        reach = [False] * (n + 1)
        reach[0] = True
        for i in range(n):
            if not reach[i]:
                continue
            for j in range(i + 1, n + 1):
                if not reach[j] and base.contains(w[i:j]):
                    reach[j] = True
        return reach[n]

    return WordSet.from_predicate(oracle, member, name=name or f"({base.name})*")


@dataclass
class CgcResult:
    collections: TripleCollections
    parameters: dict
    gap_report: GapReport


def cgc_construct(
    pair: ObstructionPair,
    oracle: LanguageOracle,
    potential: Potential,
    eps: float = DEFAULT_MARGIN,
    *,
    depth: int | None = None,
) -> CgcResult:
    """Builds prefix/good/suffix collections from a persistent complete
    obstruction list, scanning (M, N) over _M_GRID x _N_GRID and returning the
    smallest pair that passes the margin rule with margin eps; [I*] is
    checked to depth min(depth, 6).

    The construction follows the three-step recipe: choose M and tau(M),
    derive the near-obstruction collections D^-+ (words extendable into an
    obstruction within tau+M symbols), take star closures
    Cp = (C^-_{>=M} u D^+_{>=N})*, Cs = (C^+_{>=M} u D^-_{>=N})*, and keep
    as good words those clear of all four collections at every scale.
    Raises NoValidParametersError when no grid pair meets the margin rule.
    """
    work_depth = depth if depth is not None else min(oracle.enumeration_limit, 12)
    glue_depth = min(work_depth, 6)
    cminus, cplus = pair.cminus, pair.cplus
    rate_minus, rate_plus = (
        rate_estimate((m, thermo.log_partition_sum(ws, potential, m))
                      for m in range(1, work_depth + 1))
        for ws in (cminus, cplus))
    # collection -> (its admissible words, their log Lambda_m by m): the one
    # row list its tail surrogates read, filled from the least cutoff asked
    rows: dict[WordSet, tuple[WordSet, dict[int, float]]] = {}

    def surrogate_ok(ws: WordSet, cutoff: int, rate: float) -> bool:
        """Finite surrogate of the tail-pressure inequalities: the sup-rate
        of the length->=cutoff part must not exceed the collection's rate
        estimate by more than eps.  Vacuous for empty collections."""
        if rate == NEG_INF:
            return True
        if ws not in rows:
            # only an explicit list may hold words outside the language
            rows[ws] = (WordSet.from_predicate(ws.oracle, ws.contains)
                        if ws._explicit is not None else ws, {})
        admissible, logs = rows[ws]
        lengths = range(max(1, cutoff), work_depth + 1)
        for m in lengths:
            if m not in logs:
                logs[m] = thermo.log_partition_sum(admissible, potential, m)
        phat = max((logs[m] / m for m in lengths if logs[m] > NEG_INF), default=NEG_INF)
        return phat <= rate + eps or phat == NEG_INF

    for M in _M_GRID:
        if not surrogate_ok(cminus, M, rate_minus):
            continue
        if not surrogate_ok(cplus, M, rate_plus):
            continue
        istar = check_complete_list_Istar(pair, oracle, [M], glue_depth)
        if not istar.passed:
            continue
        tau = istar.parameters["tau_of_M"][M]
        dminus = _near_obstructions(cminus, oracle, tau + M, side="right")
        dplus = _near_obstructions(cplus, oracle, tau + M, side="left")
        for N in _N_GRID:
            if N < M:
                continue
            if not surrogate_ok(dminus, N, rate_minus):
                continue
            if not surrogate_ok(dplus, N, rate_plus):
                continue
            result = _assemble_cgc(pair, oracle, potential, M, N, tau,
                                   dminus, dplus, work_depth, eps)
            if result is not None:
                return result
    raise NoValidParametersError(
        f"no (M, N) in {list(_M_GRID)} x {list(_N_GRID)} meets the margin rule at depth {work_depth}"
    )


def _near_obstructions(obstructions: WordSet, oracle: LanguageOracle, reach: int,
                       side: str) -> WordSet:
    """Words within `reach` symbols of an obstruction: side="right" means
    some extension wx, x a word with |x| <= reach, lands in the collection,
    side="left" means some xw does; w is a nonempty word, and the
    collection is asked of wx whether or not wx is a word.

    An explicit list over a finite layer makes this a finite set, read off
    its members o = w.x (x.w) once: the w with x a word, |x| <= reach.
    Elsewhere each member test searches the x of each length in turn.  The
    search lists the words x of each length, so where reach passes the
    enumeration limit a w with no x within the limit raises
    DepthExceededError; the finite set raises the same for it."""
    if obstructions.known_empty:
        return WordSet.empty(oracle)
    name = f"D{'+' if side == 'left' else '-'}"
    if obstructions._explicit is not None and oracle.transitions is not None:
        limit = oracle.enumeration_limit
        cap = min(reach, limit)
        near = set()
        for o in itertools.chain.from_iterable(obstructions._explicit.values()):
            if side == "right":  # o = w.x
                splits = ((o[:i], o[i:]) for i in range(max(1, len(o) - cap), len(o) + 1))
            else:  # o = x.w
                splits = ((o[i:], o[:i]) for i in range(min(cap, len(o) - 1) + 1))
            near.update(w for w, x in splits if oracle.contains(x))

        def near_member(w: Word) -> bool:
            if w in near:
                return True
            if w and reach > limit:
                oracle.check_depth(limit + 1)
            return False

        return WordSet.from_predicate(oracle, near_member, name=name)

    def member(w: Word) -> bool:
        left, right = (w, EMPTY_WORD) if side == "right" else (EMPTY_WORD, w)
        x = oracle.connectors(left, right, range(reach + 1), obstructions.contains)
        return len(w) > 0 and next(x, None) is not None

    return WordSet.from_predicate(oracle, member, name=name)


def _assemble_cgc(pair, oracle, potential, M, N, tau, dminus, dplus, depth, margin):
    cminus, cplus = pair.cminus, pair.cplus

    def at_least(ws: WordSet, cutoff: int) -> WordSet:
        return WordSet.from_predicate(oracle, lambda w: len(w) >= cutoff and ws.contains(w))

    prefix_base = at_least(cminus, M).union(at_least(dplus, N))
    suffix_base = at_least(cplus, M).union(at_least(dminus, N))
    cp = star_closure(prefix_base, oracle, name="Cp")
    cs = star_closure(suffix_base, oracle, name="Cs")

    def in_good(w: Word) -> bool:
        if len(w) == 0:
            return False
        if dplus.contains(w) or dminus.contains(w):
            return False
        for i in range(M, len(w) + 1):
            if cminus.contains(w[:i]) or cplus.contains(w[len(w) - i :]):
                return False
        for i in range(N, len(w) + 1):
            if dplus.contains(w[:i]) or dminus.contains(w[len(w) - i :]):
                return False
        return True

    good = WordSet.from_predicate(oracle, in_good, name="G(cgc)")
    collections = TripleCollections(cp, good, cs, tau=tau, L_param=N)
    gap = pressure_gap_II(collections, oracle, potential, depth, margin=margin)
    if not gap.passed:
        return None

    params = {"M": M, "N": N, "tau": tau, "depth": depth, "margin": margin}
    return CgcResult(collections, params, gap)


# ---------------------------------------------------------------------------
# Quasi-finite-type constraints
# ---------------------------------------------------------------------------

@dataclass
class QftReport:
    depth: int
    exact: bool
    left: dict[int, tuple[Word, ...]]
    right: dict[int, tuple[Word, ...]]


def _is_left_constraint(oracle: LanguageOracle, w: Word, bound: int) -> bool:
    """Some v, 1 <= |v| <= bound, has w[1:].v a word and w.v not: on a
    finite layer, the run from the state of w[1:] survives, within bound
    symbols, one that kills the run from the state of w."""
    if not w:
        return False
    if oracle.transitions is not None:
        cap = min(bound, oracle.enumeration_limit)
        hit = oracle.separates(oracle.state(w[1:]), oracle.state(w), cap)
        if not hit:  # as the word search, which reads on past the limit
            oracle.check_depth(min(bound, oracle.enumeration_limit + 1))
        return hit

    def splits(x: Word) -> bool:
        return oracle.contains(x) and not oracle.contains(w[:1] + x)

    return next(oracle.connectors(w[1:], EMPTY_WORD, range(1, bound + 1), splits),
                None) is not None


def _is_right_constraint(oracle: LanguageOracle, w: Word, bound: int) -> bool:
    """Some v, 1 <= |v| <= bound, has v.w[:-1] a word and v.w not: on a
    finite layer, some state that a word of length 1..bound ends on lies in
    the domain of w[:-1] and not in that of w."""
    if not w:
        return False
    if oracle.transitions is not None:
        cap = min(bound, oracle.enumeration_limit)
        hit = not oracle.reach(cap).isdisjoint(oracle.domain(w[:-1]) - oracle.domain(w))
        if not hit:
            oracle.check_depth(min(bound, oracle.enumeration_limit + 1))
        return hit

    def splits(x: Word) -> bool:
        return oracle.contains(x) and not oracle.contains(x + w[-1:])

    return next(oracle.connectors(EMPTY_WORD, w[:-1], range(1, bound + 1), splits),
                None) is not None


def _constraint_bound(oracle: LanguageOracle) -> tuple[int, bool]:
    if oracle.locality is not None:
        return max(0, oracle.locality - 1), True
    return 4, False


def qft_constraints(oracle: LanguageOracle, n: int) -> QftReport:
    """Left/right constraint words up to length n.

    Exact for window-local oracles (the witness extension never needs more
    than the memory); otherwise the extension search is bounded by 4
    symbols and the result is depth-certified (exact=False)."""
    bound, exact = _constraint_bound(oracle)
    left: dict[int, tuple[Word, ...]] = {}
    right: dict[int, tuple[Word, ...]] = {}
    for m in range(1, n + 1):
        words = oracle.words(m)
        left[m] = tuple(w for w in words if _is_left_constraint(oracle, w, bound))
        right[m] = tuple(w for w in words if _is_right_constraint(oracle, w, bound))
    return QftReport(n, exact, left, right)


def qft_obstruction_pair(oracle: LanguageOracle) -> ObstructionPair:
    """C^+ = left constraints, C^- = right constraints, as predicate sets."""
    bound, _ = _constraint_bound(oracle)
    cplus = WordSet.from_predicate(oracle, lambda w: _is_left_constraint(oracle, w, bound),
                                   name="C^l")
    cminus = WordSet.from_predicate(oracle, lambda w: _is_right_constraint(oracle, w, bound),
                                    name="C^r")
    return ObstructionPair(cminus, cplus)


# ---------------------------------------------------------------------------
# Synchronised shifts
# ---------------------------------------------------------------------------

def sync_decomposition(
    oracle: LanguageOracle,
    s: Word,
    *,
    depth: int | None = None,
) -> TripleCollections:
    """Collections for a synchronising word: good words start and end with
    s, prefix/suffix obstructions avoid s entirely, and tau is the length
    of the least connector c with s.c.s admissible, searched to the depth.
    A word that holds s splits at its first and last s into Cp.G.Cs, so
    the [II] set ``obstructions``, named "C", is the words avoiding s (all
    words when s is empty): on a finite layer, the paths of the layer's
    product with s's automaton (Lind & Marcus, sec. 3.3).

    The synchronising property (vs, sw admissible implies vsw admissible)
    is verified exhaustively to the given depth; a failing pair raises
    NotSynchronisingError with the witness.  Whether v.s.w is a word
    depends on state(v.s) and domain(w) alone, so on a finite layer the
    check reads one v per state and one w per domain from the class DPs of
    ``tower`` and lists no word; a stepped layer lists both and keys them
    with ``connector_classes``.  Either way the first failing pair is the
    one the lists meet first."""
    d = depth if depth is not None else min(oracle.enumeration_limit // 2, 8)
    if not oracle.contains(s):
        raise NotSynchronisingError(f"{s} is not admissible", witness=s)
    # v.s.w is a word iff the empty connector joins v.s to w
    if oracle.transitions is not None:
        from .tower import _check_lengths, _left_classes, _right_classes

        _check_lengths(oracle, range(d + 1))
        rights = _right_classes(oracle, s, d, through_prefix=False)
        lefts = _left_classes(oracle, s, EMPTY_WORD, d)
        search = oracle._walk
    else:
        right_words = list(oracle.connectors(s, EMPTY_WORD, range(d + 1)))
        left_words = list(oracle.connectors(EMPTY_WORD, s, range(d + 1)))
        left_keys, right_keys, search = oracle.connector_classes(
            [v + s for v in left_words], right_words)
        lefts = {k: left_words[i] for k, i in left_keys.items()}
        rights = {k: right_words[j] for k, j in right_keys.items()}
    for (kv, v), (kw, w) in itertools.product(lefts.items(), rights.items()):
        if next(search(kv, kw, (0,)), None) is None:
            raise NotSynchronisingError(
                f"{v} and {w} witness failure of synchronisation for {s}",
                witness=(v, w),
            )
    connector = next(oracle.connectors(s, s, range(d + 1)), None)
    if connector is None:
        raise NotSynchronisingError(f"no connector c with scs admissible within {d}")

    ls = len(s)

    def in_good(w: Word) -> bool:
        return len(w) >= ls and w[:ls] == s and w[len(w) - ls :] == s and oracle.contains(w)

    good = WordSet.from_predicate(oracle, in_good, name=f"G(sync {oracle.alphabet.text(s)})")
    edge = WordSet.avoiding(oracle, s)
    # with s empty, Cp and Cs are empty and every word is an obstruction
    obstructions = WordSet.avoiding(oracle, s, name="C") if s else WordSet(
        oracle, predicate=lambda w: True, pattern=(0, lambda p, a: p), name="C")
    return TripleCollections(edge, good, edge, tau=len(connector), L_param=ls,
                             obstructions=obstructions)
