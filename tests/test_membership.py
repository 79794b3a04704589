"""Differential tests: the finite layers of SFT, S-gap, coded and
nonnegative cocyclic shifts (membership runs, count DPs and the state walk
of connector searches) and the memoised predicate word sets against plain
reference implementations.

The references are whole-word scans: a forbidden-factor scan plus a
live-window scan for SFTs, a per-run gap-set query for S-gap shifts, a
boundary-reachability scan for coded shifts and the exact integer matrix
product for cocyclic shifts (signed and 4x4 ones too, which keep it as
their predicate).  Every word up to length 10 is compared where that is at
most a few thousand words (all binary cases); larger alphabets compare
every word up to the length where k**n passes 1024, plus drawn words up to
length 10.  Drawn words may use the symbols -1
and k outside the alphabet, which the layer run must reject on its own.

Beta membership, read by the tie automaton, is compared with the suffix
scan of ``reference.py`` over every word up to length 10, for quasi-greedy
and arbitrary driving sequences, raises past the certified depth included,
and the periodic points and periodic-orbit measures of finite layers, read
from transition-monoid elements, with the listings of ``reference.py``
(the measures' keys and errors, and their weights to 1e-12 relative of the
exact reference), S-gap periodic points with their cyclic gaps.

Beta and signed or 4 x 4 cocyclic oracles, which step their tie-automaton
state or integer product, are compared with ``reference.WordStateOracle``
(each word its own state) on words, counts, pattern-set counts and phi_hat,
bit for bit and error for error, and on partition sums, which sum the
transfer DP, to 1e-12 of the exact reference.

For every family, beta and cocyclic shifts included, ``words(n)`` is also
compared with the sorted filter of all words of length n by ``contains``.
A connector search's reference is the word loop, which a plain predicate
``accept`` and an explicit word list still take; the walked search of a
predicate word set is compared with it, and the words that pattern sets
list from their product layers with the filter of the language's words.
"""

from __future__ import annotations

import functools
import itertools
import math

import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st

import shiftlab as sl
from shiftlab import cli, thermo
from shiftlab.errors import (
    DepthExceededError,
    EmptyLanguageError,
    ExpansionUncertainError,
    ShiftLabError,
)
from shiftlab.tower import _distinct_star_counts

from reference import (
    beta_suffix_scan,
    check_extendable,
    check_factorial,
    cylinder_sums_by_positions,
    cylinder_table_by_positions,
    log_sum_and_sup_exact,
    periodic_orbit_measure_exact,
    periodic_orbit_measure_listing,
    periodic_points_listing,
    phi_hat_by_extensions,
    position_set,
    reference_cocyclic_contains,
    s_gap_cyclic_gaps_ok,
    WordStateOracle,
)

MAX_LEN = 10


# -- references ---------------------------------------------------------------

def _valid(k, w):
    return all(0 <= i < k for i in w)


def _contains(haystack, needle):
    ln = len(needle)
    return any(haystack[i : i + ln] == needle for i in range(len(haystack) - ln + 1))


def _has_factor(w, forbidden):
    return any(_contains(w, f) for f in forbidden if f)


def live_sft_states(spec):
    """The m-words (m = memory) on bi-infinite paths of the de Bruijn graph,
    by brute force: the m-words avoiding every forbidden word, then, to a
    fixpoint, drop any with no in-edge or no out-edge.  An edge u -> v
    joins m-words with u + (a,) = (b,) + v avoiding every forbidden word;
    for m = 0 the empty word carries one loop per allowed symbol."""
    k, forbidden = spec.alphabet.size, spec.forbidden
    m = max(spec.memory, 0)
    live = {u for u in itertools.product(range(k), repeat=m) if not _has_factor(u, forbidden)}
    while True:
        edges = {(u, (u + (a,))[1:]) for u in live for a in range(k)
                 if (u + (a,))[1:] in live and not _has_factor(u + (a,), forbidden)}
        keep = {u for u, _ in edges} & {v for _, v in edges}
        if keep == live:
            return live
        live = keep


def reference_sft_contains(spec):
    """Forbidden-factor scan, then every m-window live (long words) or a
    factor of a live state (short words)."""
    m, k, forbidden = max(spec.memory, 0), spec.alphabet.size, spec.forbidden
    live = live_sft_states(spec)

    def contains(w):
        if not _valid(k, w):
            return False
        if len(w) == 0:
            return True
        if _has_factor(w, forbidden):
            return False
        if m == 0:
            return True
        if len(w) >= m:
            return all(w[i : i + m] in live for i in range(len(w) - m + 1))
        return any(_contains(s, w) for s in live)

    return contains


def reference_sgap_contains(spec):
    """Boundary runs need some gap at least as long; internal runs need a
    gap in S."""

    def has_gap_at_least(g):
        return spec.unbounded or any(s >= g for s in spec.values)

    def contains_gap(g):
        if g in spec.values:
            return True
        if spec.tail_start is not None and g >= spec.tail_start:
            return (g - spec.tail_start) % (spec.tail_period or 1) == 0
        return False

    def contains(w):
        if not _valid(2, w):
            return False
        if len(w) == 0:
            return True
        ones = [i for i, c in enumerate(w) if c == 1]
        if not ones:
            return has_gap_at_least(len(w))
        if not has_gap_at_least(ones[0]) or not has_gap_at_least(len(w) - 1 - ones[-1]):
            return False
        return all(contains_gap(b - a - 1) for a, b in zip(ones, ones[1:]))

    return contains


def _all_words(k):
    n_max = MAX_LEN
    while k ** n_max > 1024:
        n_max -= 1
    for n in range(n_max + 1):
        yield from itertools.product(range(k), repeat=n)


def _drawn_words(k):
    return st.lists(st.lists(st.integers(-1, k), max_size=MAX_LEN).map(tuple), max_size=40)


def _assert_agree(oracle, reference, drawn):
    for w in itertools.chain(_all_words(oracle.alphabet.size), drawn):
        assert oracle.contains(w) == reference(w), w


# -- SFTs ---------------------------------------------------------------------

@st.composite
def sft_instances(draw):
    k = draw(st.integers(2, 4))
    forbidden = draw(st.lists(
        st.lists(st.integers(0, k - 1), min_size=1, max_size=3).map(tuple),
        max_size=6, unique=True,
    ))
    words = draw(_drawn_words(k))
    return k, tuple(sorted(forbidden)), words


@settings(max_examples=80, deadline=None)
@given(sft_instances())
def test_sft_membership_matches_reference(instance):
    k, forbidden, drawn = instance
    spec = sl.SftSpec(sl.Alphabet.of_size(k), forbidden)
    try:
        oracle = sl.sft_from_forbidden(spec)
    except EmptyLanguageError:
        return
    _assert_agree(oracle, reference_sft_contains(spec), drawn)


@settings(max_examples=150, deadline=None)
@example((2, [(0,), (1,)]))
@example((2, [(0, 0), (0, 1), (1, 1)]))
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), st.lists(
    st.lists(st.integers(0, k - 1), min_size=1, max_size=4).map(tuple), max_size=6, unique=True))))
def test_sft_layer_labels_are_sets_of_kept_automaton_states(instance):
    """Each label is a nonempty set of kept states of the forbidden words'
    automaton, all of them at the start; after m symbols it is the one
    state the word ends in, its longest suffix that is a proper prefix of a
    forbidden word.  The kept states are those the live m-words end in; a
    language with no live m-word raises EmptyLanguageError."""
    k, forbidden = instance
    spec = sl.SftSpec(sl.Alphabet.of_size(k), tuple(sorted(forbidden)))
    live = live_sft_states(spec)
    if not live:
        with pytest.raises(EmptyLanguageError):
            sl.sft_from_forbidden(spec)
        return
    m = max(spec.memory, 0)
    prefixes = {f[:i] for f in forbidden for i in range(len(f))} | {()}

    def ends_in(w):
        return next(w[i:] for i in range(len(w) + 1) if w[i:] in prefixes)

    kept = {ends_in(u) for u in live}
    oracle = sl.sft_from_forbidden(spec)
    labels = oracle.labels
    assert len(labels) == len(set(labels))
    assert labels[0] == kept
    assert all(label and label <= kept for label in labels)
    for n in range(m, m + 3):
        for w in oracle.words(n):
            assert labels[oracle.state(w)] == {ends_in(w)}, w


def test_sft_layer_grows_with_the_forbidden_list_not_the_memory():
    # one state set per prefix of 0^15 read from the start and one state
    # per prefix after a 1: 31 states, where a state per live 15-word
    # would be 2^15 of them
    spec = sl.SftSpec.from_strings("01", ["0" * 16])
    assert len(sl.sft_from_forbidden(spec).labels) <= 40
    report = cli.run({"shift": {"family": "sft", "alphabet": ["0", "1"], "forbidden": ["0" * 16]},
                         "analyses": [{"op": "entropy_exact"}]})
    [entry] = report["analyses"]
    assert entry["status"] == "ok"
    assert float(entry["result"]["entropy"]) == pytest.approx(math.log(2), abs=1e-4)


# -- S-gap shifts --------------------------------------------------------------

@st.composite
def sgap_instances(draw):
    values = tuple(sorted(draw(st.sets(st.integers(0, 6), max_size=4))))
    if draw(st.booleans()) or not values:
        tail_start = draw(st.integers(0, 8))
        tail_period = draw(st.sampled_from([None, 1, 2, 3]))
        spec = sl.SGapSpec(values, tail_start=tail_start, tail_period=tail_period)
    else:
        spec = sl.SGapSpec(values)
    return spec, draw(_drawn_words(2))


@settings(max_examples=60, deadline=None)
@given(sgap_instances())
def test_sgap_membership_matches_reference(instance):
    spec, drawn = instance
    oracle = sl.s_gap_shift(spec)
    _assert_agree(oracle, reference_sgap_contains(spec), drawn)


# -- coded shifts -------------------------------------------------------------

def reference_coded_contains(k, gens):
    """Boundary reachability: the word is read from a partial generator
    suffix (or a boundary) across whole generators, and may end inside one."""

    def member(w):
        n = len(w)
        starts = {0}
        for g in gens:
            lg = len(g)
            for j in range(1, lg):
                avail = lg - j
                if avail >= n:
                    if g[j : j + n] == w:
                        return True
                elif g[j:] == w[:avail]:
                    starts.add(avail)
        seen = set(starts)
        queue = sorted(starts)
        while queue:
            i = queue.pop()
            if i == n:
                return True
            for g in gens:
                lg = len(g)
                if i + lg <= n:
                    if w[i : i + lg] == g and (i + lg) not in seen:
                        seen.add(i + lg)
                        queue.append(i + lg)
                elif g[: n - i] == w[i:]:
                    return True
        return False

    return lambda w: _valid(k, w) and (len(w) == 0 or member(w))


def reference_star_counts(gens, n_max):
    """Number of distinct concatenations of each length, by listing them."""
    levels = [{()}]
    for n in range(1, n_max + 1):
        levels.append({g + v for g in gens if len(g) <= n for v in levels[n - len(g)]})
    return [len(words) for words in levels]


@st.composite
def coded_instances(draw):
    k = draw(st.integers(2, 3))
    gens = draw(st.lists(
        st.lists(st.integers(0, k - 1), min_size=1, max_size=4).map(tuple),
        min_size=1, max_size=4, unique=True,
    ))
    return k, tuple(sorted(gens)), draw(_drawn_words(k))


@settings(max_examples=60, deadline=None)
@given(coded_instances())
def test_coded_membership_matches_reference(instance):
    k, gens, drawn = instance
    oracle = sl.coded_shift(sl.CodedSpec(gens, sl.Alphabet.of_size(k)))
    _assert_agree(oracle, reference_coded_contains(k, gens), drawn)


@settings(max_examples=40, deadline=None)
@given(coded_instances())
def test_distinct_star_counts_match_listing(instance):
    # 12 symbols over two letters; over three the closure can hold 3**12
    # words, so the listing stops at 10
    k, gens, _ = instance
    n_max = 12 if k == 2 else 10
    assert _distinct_star_counts(gens, n_max, k) == reference_star_counts(gens, n_max)


# -- cocyclic shifts -------------------------------------------------------------

@st.composite
def nonnegative_cocyclic_instances(draw):
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    entry = st.sampled_from([0, 0, 1, 2])
    matrix = st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)
    return draw(st.lists(matrix, min_size=k, max_size=k)), draw(_drawn_words(k))


@settings(max_examples=25, deadline=None)
@given(nonnegative_cocyclic_instances())
def test_cocyclic_layer_matches_the_integer_product(instance):
    mats, drawn = instance
    oracle = sl.cocyclic_shift(sl.CocyclicSpec.from_lists(mats))
    d = len(mats[0])
    assert oracle.transitions is not None and len(oracle.transitions) <= 2 ** (d * d)
    _assert_agree(oracle, reference_cocyclic_contains(mats), drawn)
    for n in range(7):
        assert oracle.count(n) == len(oracle.words(n))


def test_signed_cocyclic_keeps_the_product():
    # the supports of A = [[1,-1],[0,0]] and B = [[1,0],[1,0]] multiply to a
    # nonzero Boolean matrix, but AB cancels to zero: the support layer of
    # the nonnegative matrices with the same supports would admit AB
    signed = [[[1, -1], [0, 0]], [[1, 0], [1, 0]]]
    oracle = sl.cocyclic_shift(sl.CocyclicSpec.from_lists(signed))
    assert oracle.transitions is None
    assert not oracle.contains((0, 1)) and oracle.contains((1, 0))
    _assert_agree(oracle, reference_cocyclic_contains(signed), [])
    supports = sl.cocyclic_shift(sl.CocyclicSpec.from_lists([[[1, 1], [0, 0]], [[1, 0], [1, 0]]]))
    assert supports.transitions is not None and supports.contains((0, 1))


def test_dimension_four_keeps_the_product():
    # the product supports of a cyclic permutation, a swap, an elementary
    # matrix and a projection run to 36,415 states; the predicate tabulates
    # nothing, so the shift builds at once
    mats = [[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]]
    oracle = sl.cocyclic_shift(sl.CocyclicSpec.from_lists(mats))
    assert oracle.transitions is None
    _assert_agree(oracle, reference_cocyclic_contains(mats), [])


@pytest.mark.xfail(strict=True, reason="the cocyclic support layer is not pruned to "
                   "bi-infinite paths (ROADMAP finding 13)")
def test_cocyclic_shift_with_no_point_admits_no_symbol():
    # enum_tables.041: every product of two symbols is zero, so the shift
    # is empty; the layer admits both symbols
    mats = [[[0, 1], [0, 0]], [[0, 1], [0, 0]]]
    try:
        oracle = sl.cocyclic_shift(sl.CocyclicSpec.from_lists(mats))
    except EmptyLanguageError:
        return
    assert oracle.words(1) == ()


@pytest.mark.xfail(strict=True, reason="the cocyclic support layer is not pruned to "
                   "bi-infinite paths (ROADMAP finding 13)")
def test_cocyclic_layer_strands_no_word():
    # enum_tables.097: no symbol precedes 1, so the shift is the fixed point
    # 2^infinity; the layer admits 1, 12, 122, ..., which no point contains
    oracle = sl.cocyclic_shift(sl.CocyclicSpec.from_lists([[[0, 1], [0, 0]], [[0, 0], [0, 1]]]))
    assert check_extendable(oracle, 7) == []


# -- beta shifts ------------------------------------------------------------------

@st.composite
def beta_specs(draw):
    """A quasi-greedy z from a drawn base, or an arbitrary z_pre/z_period,
    which need not be shift-maximal, certified to a drawn depth."""
    depth = draw(st.integers(3, 12))
    if draw(st.booleans()):
        try:
            return sl.BetaSpec.from_beta(draw(st.floats(1.05, 3.95)), depth)
        except ExpansionUncertainError:
            reject()
    period = draw(st.one_of(st.none(), st.lists(st.integers(0, 3), min_size=1, max_size=4)))
    pre = draw(st.lists(st.integers(0, 3), min_size=0 if period else 1, max_size=depth))
    return sl.BetaSpec.from_sequence(pre, period, depth)


def _outcome(member, w):
    try:
        return member(w)
    except DepthExceededError:
        return "raises"


@settings(max_examples=60, deadline=None)
@given(beta_specs(), st.booleans())
@example(sl.BetaSpec.from_sequence((2, 1, 2, 0), (1, 2), 8), False)  # not shift-maximal
@example(sl.BetaSpec.from_sequence((1, 0, 1), None), True)  # raises past length 3
def test_beta_tie_automaton_matches_the_suffix_scan(spec, longest_first):
    # every word up to length 10 (fewer on larger alphabets), shortest or
    # longest first, so that the rows grow in either order: the same
    # verdicts, and DepthExceededError at the same lengths
    oracle = sl.beta_shift(spec)
    words = list(_all_words(oracle.alphabet.size))
    for w in reversed(words) if longest_first else words:
        assert _outcome(oracle.contains, w) == _outcome(lambda u: beta_suffix_scan(spec, u), w), w


# -- count DPs -------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.one_of(
    sft_instances().map(lambda i: (sl.sft_from_forbidden, sl.SftSpec(sl.Alphabet.of_size(i[0]), i[1]))),
    sgap_instances().map(lambda i: (sl.s_gap_shift, i[0])),
    coded_instances().map(lambda i: (sl.coded_shift, sl.CodedSpec(i[1], sl.Alphabet.of_size(i[0])))),
))
def test_sft_count_hook_matches_enumeration(instance):
    build, spec = instance
    try:
        oracle = build(spec, enumeration_limit=6)
    except EmptyLanguageError:
        return
    symbol = oracle.alphabet.symbols[0]
    avoid = sl.avoid_symbol_set(oracle, symbol)
    for n in range(7):
        words = oracle.words(n)
        assert oracle.count(n) == len(words)
        assert avoid.count(n) == sum(1 for w in words if 0 not in w)


def _count_rows_read(n_max):
    """Transition rows read by count(1), ..., count(n_max) on a fresh layer."""
    oracle = sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["111", "0101"]))
    reads = [0]

    class Rows(list):
        def __getitem__(self, q):
            reads[0] += 1
            return super().__getitem__(q)

    oracle.transitions = Rows(oracle.transitions)
    for n in range(1, n_max + 1):
        oracle.count(n)
    return reads[0]


def test_count_extends_one_dp(forbid111):
    # each length is counted once, so the work grows linearly in n_max; a
    # DP rerun from step 0 on every call would read about 4x the rows here
    assert _count_rows_read(200) <= 2.2 * _count_rows_read(100)
    # counts kept from a longer run answer shorter lengths too
    assert forbid111.count(12) == len(forbid111.words(12))
    assert [forbid111.count(n) for n in range(6, -1, -1)] == [
        len(forbid111.words(n)) for n in range(6, -1, -1)]


# -- enumeration against membership, every family ----------------------------------

def _built(build, *args):
    return lambda: build(*args)


@st.composite
def beta_instances(draw):
    if draw(st.booleans()):
        beta = draw(st.floats(1.1, 3.9))
        # built in the test, which skips a base whose expansion is uncertain
        return lambda: sl.beta_shift(sl.BetaSpec.from_beta(beta))
    pre = draw(st.lists(st.integers(0, 2), min_size=1, max_size=7))
    period = draw(st.one_of(st.none(), st.lists(st.integers(0, 2), min_size=1, max_size=3)))
    return _built(sl.beta_shift, sl.BetaSpec.from_sequence(pre, period))


@st.composite
def cocyclic_instances(draw):
    # signed entries keep the product predicate; nonnegative ones build the layer
    d = draw(st.integers(1, 2))
    matrix = st.lists(st.lists(st.integers(-1, 1), min_size=d, max_size=d), min_size=d, max_size=d)
    return _built(sl.cocyclic_shift,
                  sl.CocyclicSpec.from_lists(draw(st.lists(matrix, min_size=1, max_size=3))))


@settings(max_examples=120, deadline=None)
@given(st.one_of(
    sft_instances().map(lambda i: _built(
        sl.sft_from_forbidden, sl.SftSpec(sl.Alphabet.of_size(i[0]), i[1]))),
    st.integers(1, 4).map(lambda k: _built(sl.full_shift, k)),
    st.integers(4, 6).map(lambda k: _built(sl.cycle_sft, k)),
    beta_instances(),
    sgap_instances().map(lambda i: _built(sl.s_gap_shift, i[0])),
    coded_instances().map(lambda i: _built(
        sl.coded_shift, sl.CodedSpec(i[1], sl.Alphabet.of_size(i[0])))),
    cocyclic_instances(),
))
def test_words_are_the_sorted_members(build):
    # words(n) is the lexicographic filter of all k**n words by contains,
    # for n <= 6 (fewer where k**n passes 4096), without duplicates, and
    # its words pass the factoriality check
    try:
        oracle = build()
    except (EmptyLanguageError, ExpansionUncertainError):
        return
    k = oracle.alphabet.size
    n_max = min(6, oracle.enumeration_limit)
    while k ** n_max > 4096:
        n_max -= 1
    for n in range(n_max + 1):
        words = oracle.words(n)
        assert list(words) == [w for w in itertools.product(range(k), repeat=n)
                               if oracle.contains(w)]
        assert len(set(words)) == len(words)
    assert check_factorial(oracle, n_max) == []


# -- periodic points on finite layers ------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.one_of(
    sft_instances().map(lambda i: _built(
        sl.sft_from_forbidden, sl.SftSpec(sl.Alphabet.of_size(i[0]), i[1]))),
    st.integers(1, 3).map(lambda k: _built(sl.full_shift, k)),
    st.integers(4, 6).map(lambda k: _built(sl.cycle_sft, k)),
    coded_instances().map(lambda i: _built(
        sl.coded_shift, sl.CodedSpec(i[1], sl.Alphabet.of_size(i[0])))),
    nonnegative_cocyclic_instances().map(lambda i: _built(
        sl.cocyclic_shift, sl.CocyclicSpec.from_lists(i[0]))),
))
# 0^7 is a word and 0^8 is not, so at limit 6 (7 repetitions of a 1-word)
# the depth-certified answer holds the period-1 point 0 only if the
# repetition count is kept exactly
@example(_built(sl.coded_shift, sl.CodedSpec((((1,) + (0,) * 7 + (1,)),), sl.Alphabet.of_size(2)), 6))
def test_periodic_points_match_the_listing(build):
    # the orbit of layer states against contains(p * reps) on a fresh
    # oracle, for every period up to 8 (fewer where k**n passes 1024): the
    # same words and the same exact flag
    try:
        oracle, listed = build(), build()
    except EmptyLanguageError:
        return
    assert oracle.transitions is not None
    n_max = min(8, oracle.enumeration_limit)
    while oracle.alphabet.size ** n_max > 1024:
        n_max -= 1
    for n in range(1, n_max + 1):
        assert sl.periodic_points(oracle, n) == periodic_points_listing(listed, n)


@settings(max_examples=60, deadline=None)
@given(sgap_instances())
def test_sgap_periodic_points_match_the_cyclic_gaps(instance):
    # the orbit of the start, read until it repeats, against the cyclic gaps
    # of each word, bounded and tailed, for every period up to 12; longest
    # first, so that the element ids restart from the empty word
    spec = instance[0]
    oracle, listed = sl.s_gap_shift(spec), sl.s_gap_shift(spec)
    check = functools.partial(s_gap_cyclic_gaps_ok, spec)
    for n in range(12, 0, -1):
        got = sl.periodic_points(oracle, n)
        assert got == periodic_points_listing(listed, n, check) and got.exact


def _layer(build):
    """A finite-layer family as (constructor, spec, S-gap periodic check)."""
    return lambda spec: (build, spec, None)


_PERIODIC_LAYERS = st.one_of(
    sft_instances().map(lambda i: (sl.sft_from_forbidden,
                                   sl.SftSpec(sl.Alphabet.of_size(i[0]), i[1]), None)),
    st.integers(1, 3).map(_layer(sl.full_shift)),
    st.integers(4, 6).map(_layer(sl.cycle_sft)),
    sgap_instances().map(lambda i: (sl.s_gap_shift, i[0],
                                    functools.partial(s_gap_cyclic_gaps_ok, i[0]))),
    coded_instances().map(lambda i: (sl.coded_shift,
                                     sl.CodedSpec(i[1], sl.Alphabet.of_size(i[0])), None)),
    nonnegative_cocyclic_instances().map(lambda i: (sl.cocyclic_shift,
                                                    sl.CocyclicSpec.from_lists(i[0]), None)),
)

#: mixed exponents (2**-1049 to 2**19), a negative zero and inexact decimals
_TABLE_VALUES = st.sampled_from([0.0, -0.0, 0.1, -0.3, 2.5, 1 / 3, 1e-300, 1e6, -5.0])


def _drawn_potential(data, alphabet):
    """Zero, an indicator, or a range 1-3 table, which may lack one window."""
    kind = data.draw(st.sampled_from(["zero", "indicator", "table"]))
    if kind == "zero":
        return sl.Potential.zero(alphabet)
    r = data.draw(st.integers(1, 3 if alphabet.size <= 3 else 2))
    if kind == "indicator":
        pattern = data.draw(st.lists(st.integers(0, alphabet.size - 1), min_size=r, max_size=r))
        return sl.Potential.indicator(alphabet, alphabet.text(tuple(pattern)),
                                      data.draw(_TABLE_VALUES))
    windows = list(itertools.product(range(alphabet.size), repeat=r))
    values = data.draw(st.lists(_TABLE_VALUES, min_size=len(windows), max_size=len(windows)))
    table = dict(zip(windows, values))
    if data.draw(st.sampled_from([False, False, True])):
        del table[data.draw(st.sampled_from(windows))]
    return sl.Potential(r, table)


def _measure_outcome(measure):
    try:
        mu = measure()
    except ShiftLabError as exc:
        return "raises", type(exc), str(exc)
    return "value", list(mu.cylinder_weights.items()), mu.exact_periods


def _weighs_atoms(oracle, potential, horizon):
    """Whether the measure weighs the listing's atoms: on a stepped layer,
    and on a finite one whose table holds a value that is not finite or
    whose horizon times its largest |value| reaches 1e300."""
    values = [float(v) for v in potential.table.values()]
    return (oracle.transitions is None or not all(map(math.isfinite, values))
            or horizon * max(map(abs, values), default=0.0) >= 1e300)


def _assert_measure_matches(build, spec, check, potential, horizon, depth):
    """The library's measure against the listing's, each on a fresh oracle:
    the same error (class and message), or the same keys in the same order
    and the same exact flag.  Where it sums classes, each weight is within
    1e-12 relative of the exact reference (1e-300 absolute where it
    underflows); where it weighs the listing's atoms (``_weighs_atoms``),
    each weight is the listing's float, bit for bit."""
    oracle, listed = build(*spec), build(*spec)
    got = _measure_outcome(lambda: sl.periodic_orbit_measure(oracle, potential, horizon, depth))
    want = _measure_outcome(lambda: periodic_orbit_measure_listing(
        listed, potential, horizon, depth, check))
    if _weighs_atoms(oracle, potential, horizon) or got[0] == "raises" or want[0] == "raises":
        assert got == want
        return
    assert [u for u, _ in got[1]] == [u for u, _ in want[1]] and got[2] == want[2]
    exact = periodic_orbit_measure_exact(listed, potential, horizon, depth, check)
    assert list(exact.cylinder_weights) == [u for u, _ in got[1]]
    for u, weight in got[1]:
        assert math.isclose(weight, exact.cylinder_weights[u], rel_tol=1e-12,
                            abs_tol=1e-300), (u, weight, exact.cylinder_weights[u])


@settings(max_examples=100, deadline=None)
@given(_PERIODIC_LAYERS, st.sampled_from([None, 3, 5]), st.data())
def test_periodic_orbit_measure_matches_the_listing(layer, limit, data):
    # the class DP against the listing and the exact reference, on a fresh
    # oracle: the same keys in the same order and exact flag, weights to
    # 1e-12 relative, or the same error at the same atom (a missing window,
    # a period past the limit).  Horizons run to 7 (fewer where k**n
    # passes 1024), so periods below r - 1 and depths above a period both
    # occur
    build, spec, check = layer
    try:
        alphabet = build(spec, limit).alphabet
    except EmptyLanguageError:
        return
    potential = _drawn_potential(data, alphabet)
    horizon = data.draw(st.integers(1, 7))
    while alphabet.size ** horizon > 1024:
        horizon -= 1
    depth = data.draw(st.integers(1, horizon))
    _assert_measure_matches(build, (spec, limit), check, potential, horizon, depth)


_GOLDEN_SPEC = sl.SftSpec.from_strings("01", ["11"])
_SGAP_SPEC = sl.SGapSpec((1,), tail_start=3, tail_period=2)


@pytest.mark.parametrize("build, check, window, table, horizon, depth", [
    # exponents from 2**-1049 to 2**19 in one table, and a -0.0
    (lambda: sl.full_shift(2), None, 2, {"00": 1e-300, "01": 1e6, "10": -0.0, "11": 0.1}, 8, 3),
    # 11 is missing but lies on no periodic orbit of the golden-mean shift
    (lambda: sl.sft_from_forbidden(_GOLDEN_SPEC), None, 2, {"00": 0.5, "01": -0.25, "10": 1e6},
     9, 2),
    # 110 is missing: period 3 raises at 011, whose cyclic windows hold it
    (lambda: sl.full_shift(2), None, 3,
     {w: 0.1 * i for i, w in enumerate(["000", "001", "010", "011", "100", "101", "111"])}, 5, 4),
    (lambda: sl.s_gap_shift(_SGAP_SPEC), functools.partial(s_gap_cyclic_gaps_ok, _SGAP_SPEC), 3,
     {f"{i:03b}": 1.0 / (1 + i) for i in range(8)}, 12, 5),
    # a period past the limit raises at that period, after periods 1-6
    (lambda: sl.full_shift(2, 6), None, 1, {"0": 0.25, "1": -1e6}, 8, 2),
    # stepped layers, which keep one atom per periodic word: an eventually
    # periodic z, and signed matrices
    (lambda: sl.beta_shift(sl.BetaSpec.from_sequence((2, 1, 0, 2), (1, 1, 0), depth=14)), None,
     2, {f"{a}{b}": 0.5 * a - 0.25 * b + 1e6 * (a == b == 2) for a in range(3) for b in range(3)},
     7, 2),
    (lambda: sl.cocyclic_shift(sl.CocyclicSpec.from_lists(
        [[[1, -1], [0, 0]], [[1, 0], [1, 0]], [[0, 1], [1, 1]]]), 8), None,
     1, {"1": 0.1, "2": 1 / 3, "3": -2.5}, 8, 3),
    # finite layers whose tables allow no exact integer sums, which also
    # keep one atom per periodic word: 10 windows of 1e299 reach 1e300
    (lambda: sl.full_shift(2), None, 2, {"00": 0.1, "01": 1e299, "10": -2.5, "11": 1 / 3}, 10, 3),
    # the same with 110 missing: period 3 raises at 011
    (lambda: sl.full_shift(2), None, 3,
     {w: 1e299 * i for i, w in enumerate(["000", "001", "010", "011", "100", "101", "111"])},
     5, 4),
    # an infinite value, on 11, which lies on no periodic orbit
    (lambda: sl.sft_from_forbidden(_GOLDEN_SPEC), None, 2,
     {"00": 0.5, "01": -0.25, "10": 1e6, "11": math.inf}, 9, 2),
    # -inf gives every orbit through 0 the weight 0
    (lambda: sl.full_shift(2), None, 1, {"0": -math.inf, "1": 0.5}, 6, 2),
])
def test_periodic_measure_matches_the_listing_on_chosen_tables(
        build, check, window, table, horizon, depth):
    # the exact reference's weights to 1e-12 relative (the listing's,
    # rounding each Birkhoff sum of about 1e7, is further off), the stepped
    # layers' and the refused tables' bit for bit, and a missing window
    # raises the listing's error at the same atom
    potential = sl.Potential.from_strings(build().alphabet, window, table)
    _assert_measure_matches(build, (), check, potential, horizon, depth)


# -- memoised predicate word sets ------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(modulus=st.integers(2, 4), residue=st.integers(0, 3))
def test_memoised_predicate_agrees_with_raw_predicate(golden, modulus, residue):
    def predicate(w):
        return sum(w) % modulus == residue % modulus

    ws = sl.WordSet.from_predicate(golden, predicate)
    both = ws.union(sl.WordSet.from_words(golden, [(0, 1, 0)]))
    for w in _all_words(2):
        if len(w) > 8:
            break
        expect = golden.contains(w) and predicate(w)
        for _ in range(2):  # the second query is answered from the memo
            assert ws.contains(w) == expect
            assert both.contains(w) == (expect or w == (0, 1, 0))


def test_predicate_error_is_not_memoised(golden):
    calls = []

    def predicate(w):
        calls.append(w)
        if len(calls) == 1:
            raise DepthExceededError("not certified yet")
        return True

    ws = sl.WordSet.from_predicate(golden, predicate)
    with pytest.raises(DepthExceededError):
        ws.contains((0, 1))
    assert ws.contains((0, 1))
    assert ws.contains((0, 1))
    assert calls == [(0, 1), (0, 1)]


# -- connector searches ------------------------------------------------------------

@st.composite
def finite_layers(draw):
    """A generated SFT, S-gap, coded or nonnegative cocyclic shift with a
    small enumeration limit, so that searched lengths can pass it."""
    limit = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["sft", "s_gap", "coded", "cocyclic"]))
    if kind == "sft":
        k, forbidden, _ = draw(sft_instances())
        try:
            oracle = sl.sft_from_forbidden(sl.SftSpec(sl.Alphabet.of_size(k), forbidden), limit)
        except EmptyLanguageError:
            reject()
    elif kind == "s_gap":
        oracle = sl.s_gap_shift(draw(sgap_instances())[0], limit)
    elif kind == "coded":
        k, gens, _ = draw(coded_instances())
        oracle = sl.coded_shift(sl.CodedSpec(gens, sl.Alphabet.of_size(k)), limit)
    else:
        mats, _ = draw(nonnegative_cocyclic_instances())
        oracle = sl.cocyclic_shift(sl.CocyclicSpec.from_lists(mats), limit)
    assert oracle.transitions is not None
    return oracle


def _searched(search):
    """The words a connector search yields, and the message of the
    DepthExceededError that ends it (None when it runs out)."""
    out = []
    try:
        for c in search:
            out.append(c)
    except DepthExceededError as exc:
        return out, str(exc)
    return out, None


def _assert_walk_matches_word_loop(oracle, left, right, lengths):
    # a predicate accept is answered by the word loop, the reference
    reference = _searched(oracle.connectors(left, right, lengths, lambda x: oracle.contains(x)))
    for accept in (None, sl.WordSet.language(oracle).contains):
        assert _searched(oracle.connectors(left, right, lengths, accept)) == reference


@settings(max_examples=80, deadline=None)
@given(finite_layers(), st.data())
def test_connector_walk_matches_word_loop(oracle, data):
    # left and right may be empty or outside the language, and the lengths
    # may pass the enumeration limit
    side = st.lists(st.integers(0, oracle.alphabet.size - 1), max_size=4).map(tuple)
    left, right = data.draw(side), data.draw(side)
    stop = data.draw(st.integers(0, oracle.enumeration_limit + 2))
    _assert_walk_matches_word_loop(oracle, left, right, range(stop))
    _assert_walk_matches_word_loop(oracle, left, right, [stop, 0])


def test_connector_walk_edge_cases():
    golden = sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["11"]), 4)
    for left, right in [((), ()), ((1,), ()), ((), (1,)), ((1, 1), ()), ((0,), (1, 1))]:
        _assert_walk_matches_word_loop(golden, left, right, range(7))
    # a left outside the language yields nothing, and still raises past the limit
    assert _searched(golden.connectors((1, 1), (), range(7))) == (
        [], "length 5 exceeds enumeration limit 4 of sft(11)")
    assert _searched(golden.connectors((1,), (1,), range(4))) == (
        [(0,), (0, 0), (0, 0, 0), (0, 1, 0)], None)


def test_connector_predicate_is_asked_word_by_word(golden):
    asked = []

    def ends_in_zero(x):
        asked.append(x)
        return golden.contains(x) and x[-1:] == (0,)

    got = list(golden.connectors((1,), (), range(3), ends_in_zero))
    assert got == [(0,), (0, 0)]
    assert asked == [(1,) + c for n in range(3) for c in golden.words(n)]


def _recorded(oracle, kind):
    """A fresh predicate word set of the given kind over the oracle, and the
    list of words its predicate is asked, in order."""
    asked = []
    tests = {"even": lambda w: sum(w) % 2 == 0, "ends_low": lambda w: w[-1:] != (1,),
             "avoid": lambda w: (0, 1) not in zip(w, w[1:])}

    def predicate(w):
        asked.append(w)
        return tests[kind](w)

    if kind == "avoid":  # a pattern set, as WordSet.avoiding builds
        ws = sl.WordSet(oracle, predicate=predicate, pattern=sl.WordSet.avoiding(
            oracle, (0, 1)).pattern)
    else:
        ws = sl.WordSet.from_predicate(oracle, predicate)
    if kind == "ends_low":  # a union asks its parts
        ws = ws.union(sl.WordSet.from_words(oracle, [(1,), (1, 1)]))
    return ws, asked


@settings(max_examples=60, deadline=None)
@given(finite_layers(), st.data())
def test_predicate_set_walk_matches_word_loop(oracle, data):
    # a predicate set's contains is walked over the layer's followers; the
    # word loop asks it of every word, through a lambda.  Both yield the
    # same connectors, end with the same error, and ask the predicate of
    # the same words in the same order
    side = st.lists(st.integers(0, oracle.alphabet.size - 1), max_size=3).map(tuple)
    left, right = data.draw(side), data.draw(side)
    stop = data.draw(st.integers(0, oracle.enumeration_limit + 2))
    kind = data.draw(st.sampled_from(["even", "ends_low", "avoid"]))
    walked, asked_walked = _recorded(oracle, kind)
    looped, asked_looped = _recorded(oracle, kind)
    for lengths in (range(stop), [stop, 0]):
        assert _searched(oracle.connectors(left, right, lengths, walked.contains)) == _searched(
            oracle.connectors(left, right, lengths, lambda x: looped.contains(x)))
    assert asked_walked == asked_looped


def test_explicit_set_stays_on_the_word_loop():
    # an explicit list may hold non-words (ROADMAP finding 14): its
    # contains is asked of every word, as before
    golden = sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["11"]), 4)
    listed = sl.WordSet.from_words(golden, [(1, 1), (1, 0, 1)])
    assert list(golden.connectors((1,), (1,), range(3), listed.contains)) == [(), (0,)]


def _listed(ws, predicate, oracle, n):
    """What at(n) gave when it filtered the language's words: the set's
    depth, then the oracle's limit, as error messages."""
    if n > ws.depth:
        return f"length {n} exceeds word-set depth {ws.depth}"
    try:
        return tuple(filter(predicate, oracle.words(n)))
    except DepthExceededError as exc:
        return str(exc)


def _at(ws, n):
    try:
        return ws.at(n)
    except DepthExceededError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(finite_layers(), st.data())
def test_pattern_set_lists_its_layer_words_as_the_language_filter(oracle, data):
    # every pattern set in the package: the symbol and word avoiders, the
    # zero runs of cgc's obstructions and the cylinder positions (whose
    # depth may pass the oracle's limit), each against the filter of the
    # language's words by a plain predicate, errors included
    k = oracle.alphabet.size
    word = st.lists(st.integers(0, k - 1), min_size=1, max_size=3).map(tuple)
    symbol, s, v = data.draw(st.integers(0, k - 1)), data.draw(word), data.draw(word)
    i = data.draw(st.integers(1, 4))
    depth = i + len(v) - 1 + data.draw(st.integers(0, 3))
    sets = [
        (sl.avoid_symbol_set(oracle, oracle.alphabet.symbols[symbol]), lambda w: symbol not in w),
        (sl.WordSet.avoiding(oracle, s), lambda w: all(
            w[j : j + len(s)] != s for j in range(len(w) - len(s) + 1))),
        (position_set(oracle, v, i, depth), lambda w: w[i - 1 : i - 1 + len(v)] == v),
    ]
    if "0" in oracle.alphabet.symbols:
        zero = oracle.alphabet.index("0")
        sets.append((cli._obstruction_pair(oracle, {"obstructions": "zero_runs"}).cplus,
                     lambda w: len(w) >= 1 and set(w) == {zero}))
    for ws, predicate in sets:
        assert ws.layer is not None
        for n in range(max(ws.depth, oracle.enumeration_limit) + 2):
            assert _at(ws, n) == _listed(ws, predicate, oracle, n)


# -- stepped oracles against the word as its own state ----------------------------------
#
# Beta shifts step their tie-automaton state with the length read, signed
# and d >= 4 cocyclic shifts their integer matrix product.  The reference
# reads every word from its first symbol (``reference.WordStateOracle``,
# over the suffix scan and the whole product), and every outcome must be
# the same: words, counts, pattern-set counts and phi_hat bit for bit, and
# errors by class and message; partition sums, which the transfer DP sums,
# agree within 1e-12 with the exact sums over the reference's words.

@st.composite
def stepped_instances(draw):
    """(stepped oracle, its reference): a beta shift from a drawn z_pre and
    z_period, or a cocyclic shift with signed matrices of dimension 2-3 or
    any of dimension 4, with a drawn enumeration limit."""
    limit = draw(st.integers(3, 6))
    if draw(st.booleans()):
        period = draw(st.one_of(st.none(), st.lists(st.integers(0, 2), min_size=1, max_size=4)))
        # a z_pre about as long as the limit, so that phi_hat's extensions
        # of the longest words pass the certified depth of a z with no period
        pre = draw(st.lists(st.integers(0, 2), min_size=1, max_size=limit + 1))
        spec = sl.BetaSpec.from_sequence(pre, period, depth=limit)
        oracle = sl.beta_shift(spec)
        member = functools.partial(beta_suffix_scan, spec)
    else:
        d = draw(st.integers(2, 4))
        entries = st.integers(-1, 2) if d == 4 else st.sampled_from([-1, 0, 1])
        matrix = st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d)
        mats = draw(st.lists(matrix, min_size=2, max_size=3))
        if d < 4:
            assume(any(x < 0 for m in mats for row in m for x in row))
        oracle = sl.cocyclic_shift(sl.CocyclicSpec.from_lists(mats), limit)
        member = reference_cocyclic_contains(mats)
    assert oracle.transitions is None
    return oracle, WordStateOracle(oracle.alphabet, member, oracle.enumeration_limit,
                                   name=oracle.name, certified_depth=oracle.certified_depth)


def _either(fn, *args):
    """fn's value, or its error's class and message."""
    try:
        return "value", fn(*args)
    except ShiftLabError as exc:
        return "raises", type(exc).__name__, str(exc)


def _bits(outcome):
    """An outcome with each float as its hex form, so that == is bit for bit."""
    if outcome[0] == "raises":
        return outcome
    value = outcome[1]
    if isinstance(value, tuple):
        return "value", tuple(v.hex() if isinstance(v, float) else v for v in value)
    return "value", value.hex() if isinstance(value, float) else value


@st.composite
def stepped_tables(draw, alphabet):
    """A range 1-3 table over every window, of values whose float sums
    round (exponents from about 2**-997 to 2**19, -0.0 among them), one window
    missing in a third of them."""
    k = alphabet.size
    r = draw(st.sampled_from([1, 2, 3] if k <= 2 else [1, 2]))
    values = st.sampled_from([0.0, -0.0, 0.1, -0.3, 2.5, 1 / 3, 1e-300, 1e6, -5.0]) | st.floats(
        -3.0, 3.0, allow_nan=False)
    table = {w: draw(values) for w in itertools.product(range(k), repeat=r)}
    if len(table) > 1 and draw(st.integers(0, 2)) == 0:
        table.pop(draw(st.sampled_from(sorted(table))))
    return sl.Potential(r, table)


@settings(max_examples=80, deadline=None)
@given(stepped_instances(), st.booleans())
def test_stepped_oracles_list_and_count_as_the_word_state(instance, longest_first):
    # words(n) and count(n) to one past the limit, and contains of every
    # word to that length (at most 6), longest first or shortest first, so
    # that the rows grow either way
    oracle, ref = instance
    top = oracle.enumeration_limit + 1
    lengths = range(top, -1, -1) if longest_first else range(top + 1)
    for n in lengths:
        assert _either(oracle.words, n) == _either(ref.words, n), n
        assert _either(oracle.count, n) == _either(lambda m: len(ref.words(m)), n), n
    k = oracle.alphabet.size
    words = [w for n in range(min(top, 6) + 1) for w in itertools.product(range(k), repeat=n)]
    for w in reversed(words) if longest_first else words:
        assert _either(oracle.contains, w) == _either(ref.contains, w), w


@settings(max_examples=60, deadline=None)
@given(stepped_instances(), st.data())
def test_stepped_pattern_sets_count_as_their_listing(instance, data):
    # the avoid-symbol and cylinder-position sets count paths over (pattern
    # state, oracle state); the reference lists the filtered words, behind
    # the same word-set depth and enumeration limit
    oracle, ref = instance
    a = data.draw(st.integers(0, oracle.alphabet.size - 1))
    symbol = oracle.alphabet.symbols[a]
    fast, slow = sl.avoid_symbol_set(oracle, symbol), sl.WordSet.from_predicate(
        ref, lambda w: a not in w)
    for n in range(oracle.enumeration_limit + 2):
        assert _either(fast.count, n) == _either(slow.count, n), n
    v = data.draw(st.sampled_from([w for m in range(1, min(2, oracle.enumeration_limit) + 1)
                                   for w in oracle.words(m)] or [(0,)]))
    n = data.draw(st.integers(len(v), oracle.enumeration_limit + 1))
    i = data.draw(st.integers(1, n - len(v) + 1))
    hits = position_set(oracle, v, i, n)
    listed = sl.WordSet(ref, predicate=lambda w: w[i - 1:i - 1 + len(v)] == v, depth=n)
    assert _either(hits.count, n) == _either(listed.count, n)
    assert _either(hits.count, n + 1) == _either(listed.count, n + 1)


@settings(max_examples=50, deadline=None)
@given(stepped_instances(), st.data())
def test_stepped_phi_hat_matches_the_word_state_and_sums_the_exact_reference(instance, data):
    # phi_hat of every listed word bit for bit, against phi_hat by listed
    # extensions over the reference, word by word in order, so that a
    # missing window raises NotInLanguageError at the same word; and the
    # partition sum and sup of the language, the avoid-symbol set and a
    # cylinder position's set, which sum the transfer DP of their paths,
    # within 1e-12 of the exact sums over the reference's words
    oracle, ref = instance
    potential = data.draw(stepped_tables(oracle.alphabet))
    assume(not potential.is_zero)  # zero potentials count, as the tests above check
    a = data.draw(st.integers(0, oracle.alphabet.size - 1))
    for n in range(1, oracle.enumeration_limit + 2):
        got = _either(oracle.words, n)
        if got[0] == "raises":
            assert got == _either(ref.words, n)
            continue
        for w in got[1]:
            assert _bits(_either(sl.phi_hat, potential, oracle, w)) == _bits(
                _either(phi_hat_by_extensions, potential, ref, w)), w
        sets = [(sl.WordSet.language(oracle), ref.words(n)),
                (sl.avoid_symbol_set(oracle, oracle.alphabet.symbols[a]),
                 [w for w in ref.words(n) if a not in w]),
                (position_set(oracle, (a,), n, n),
                 [w for w in ref.words(n) if w[n - 1] == a])]
        for words, expect in sets:
            got = _either(thermo._log_sum_and_sup, words, potential, n)
            exact = _either(log_sum_and_sup_exact, potential, ref, expect)
            assert got[0] == exact[0] and (got == exact if got[0] == "raises" else all(
                x == y or math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12)
                for x, y in zip(got[1], exact[1]))), (words, n, got, exact)


def test_beta_words_step_each_listed_word_once():
    # words(n) extends each word of length n - 1 by at most k steps, and a
    # state met again reads its row from the first time
    oracle = sl.beta_shift(sl.BetaSpec.from_sequence((2, 1, 0, 2), (1, 1, 0), depth=14))
    k, steps = oracle.alphabet.size, [0]
    step = oracle._rows.step

    def counted(q, a):
        steps[0] += 1
        return step(q, a)

    oracle._rows.step = counted
    for n in range(1, 15):
        steps[0] = 0
        oracle.words(n)
        assert 0 < steps[0] <= k * len(oracle.words(n - 1)), n
    assert steps[0] < len(oracle.words(13))


# -- cylinder tables against one word set per start position ----------------------
#
# ``thermo.cylinder_count_table`` reads every row from one forward and one
# backward pass over the oracle's layer; the reference builds each start
# position's word set (``reference.position_set``) and sums it on its own.
# Counts must be equal, log sums, pressures and Gibbs ratios agree within
# 1e-12, and errors have the same class and message.  The rows are also
# compared on their own (``thermo._cylinder_sums``), without the table's
# pressure estimate, which would raise first, so that the row-ordered
# listing that answers a row meeting a missing window or a word with no
# extension is compared with the per-position sets too.

def _cylinder_potential(data, alphabet):
    """Zero, an indicator, or a range 1-3 table of moderate values (so that
    1e-12 bounds the difference of two summation orders in the ratios),
    lacking one window in a third of the tables."""
    kind = data.draw(st.sampled_from(["zero", "indicator", "table", "table"]))
    if kind == "zero":
        return sl.Potential.zero(alphabet)
    r = data.draw(st.integers(1, 3 if alphabet.size <= 3 else 2))
    value = st.floats(-2.0, 2.0, allow_nan=False, width=32)
    if kind == "indicator":
        pattern = data.draw(st.lists(st.integers(0, alphabet.size - 1), min_size=r, max_size=r))
        return sl.Potential.indicator(alphabet, alphabet.text(tuple(pattern)), data.draw(value))
    windows = list(itertools.product(range(alphabet.size), repeat=r))
    table = {w: data.draw(value) for w in windows}
    if data.draw(st.sampled_from([False, False, True])):
        del table[data.draw(st.sampled_from(windows))]
    return sl.Potential(r, table)


def _close_outcomes(got, expect):
    """The same error, or equal values but for floats within 1e-12."""
    if got[0] != expect[0] or got[0] == "raises":
        return got == expect

    def close(x, y):
        if isinstance(x, float) and isinstance(y, float):
            return x == y or math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12)
        if isinstance(x, (tuple, list)):
            return len(x) == len(y) and all(map(close, x, y))
        return type(x) is type(y) and x == y

    return close(got[1], expect[1])


def _table(build, oracle, potential, v, n):
    """The table's values, or its error's class and message (an n below 4
    is the pressure estimate's ValueError)."""
    try:
        tab = build(oracle, potential, v, n)
    except (ShiftLabError, ValueError) as exc:
        return "raises", type(exc).__name__, str(exc)
    return "value", (tab.pressure_used,
                     [(r.position, r.log_sum, r.count, r.gibbs_ratio) for r in tab.rows])


@settings(max_examples=40, deadline=None)
@given(st.one_of(finite_layers().map(lambda o: (o, 3 * o.enumeration_limit)),
                 stepped_instances().map(lambda i: (i[0], i[0].enumeration_limit + 1))),
       st.data())
def test_cylinder_rows_match_one_set_per_position(instance, data):
    oracle, top = instance
    potential = _cylinder_potential(data, oracle.alphabet)
    short = [w for m in (1, 2) if m <= oracle.enumeration_limit for w in oracle.words(m)]
    v = data.draw(st.sampled_from(short or [(0,)]))
    for n in range(len(v), top + 1):
        rows = _either(thermo._cylinder_sums, oracle, potential, v, n)
        assert _close_outcomes(rows, _either(cylinder_sums_by_positions, oracle, potential, v, n)), n
        assert _close_outcomes(_table(sl.cylinder_count_table, oracle, potential, v, n),
                               _table(cylinder_table_by_positions, oracle, potential, v, n)), n


_STRANDING = sl.CocyclicSpec.from_lists([[[0, 1], [0, 0]], [[1, 0], [0, 0]]])


@pytest.mark.parametrize("build, window, table, v, errors", [
    # 21 is stranded and 2^k 1 is a word for every k: each row that holds
    # one raises for the first such word, past the limit the limit
    (lambda: sl.cocyclic_shift(_STRANDING, 6), 2,
     {"11": 0.25, "12": -0.5, "21": 1.0, "22": 0.125}, "2",
     {"no admissible 1-symbol extension", "exceeds enumeration limit 6"}),
    # the same shift with the window 1 missing: a word holding 1 before its
    # end dies there, so every row is -inf, past the limit too
    (lambda: sl.cocyclic_shift(_STRANDING, 6), 1, {"2": 0.5}, "1", set()),
    # 00 is missing: every row of length >= 4 holds a word with it; past
    # the limit the finite layer lists nothing and reports the limit
    (lambda: sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["11"]), 4), 2,
     {"01": 0.3, "10": -0.7, "11": 0.0}, "1",
     {"no entry for window (0, 0)", "exceeds enumeration limit 4"}),
    # the words are 0^a 2 1^b, 0^a and 1^b, and 02 is missing: rows 1 and 2
    # have sums, and from row 3 on the window lies in the words' prefixes
    (lambda: sl.sft_from_forbidden(sl.SftSpec.from_strings("012", ["01", "10", "12", "20", "22"])),
     2, {"00": 0.1, "11": 0.2, "21": 0.3}, "1", {"no entry for window (0, 2)"}),
    # 01 and 10 are missing: row 1's first word 10.. raises on 10, while
    # every later row's first word 0..01.. raises on 01
    (lambda: sl.full_shift(2), 2, {"00": 0.5, "11": -0.5}, "1", {"no entry for window (1, 0)"}),
    # 1 is missing at range 1, where phi_tail reads no window: row 1 meets
    # it only after v, in the backward pass
    (lambda: sl.full_shift(2), 1, {"0": 0.5}, "0", {"no entry for window (1,)"}),
    # z = 1011 has no period, so a word of length 4 has no certified
    # extension: listing raises for row 1's first word, 1000, on 00
    (lambda: sl.beta_shift(sl.BetaSpec.from_sequence((1, 0, 1, 1), None, depth=4)), 2,
     {"01": 0.1, "10": 0.2, "11": 0.3}, "1",
     {"no entry for window (0, 0)", "exceeds enumeration limit 4"}),
])
def test_cylinder_rows_match_one_set_per_position_on_chosen_tables(build, window, table, v,
                                                                  errors):
    # each names the errors its rows must meet
    oracle = build()
    potential = sl.Potential.from_strings(oracle.alphabet, window, table)
    v = oracle.alphabet.word(v)
    seen = set()
    for n in range(1, 10):
        rows = _either(thermo._cylinder_sums, oracle, potential, v, n)
        assert _close_outcomes(rows, _either(cylinder_sums_by_positions, oracle, potential, v, n)), n
        seen.update(e for e in errors if rows[0] == "raises" and e in rows[2])
    assert seen == errors
