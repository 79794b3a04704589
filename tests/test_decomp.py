from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import example, given, reject, settings, strategies as st

import shiftlab as sl
from shiftlab import cli
from shiftlab.core import WordSet
from shiftlab.decomp import (
    Decomposition,
    _constraint_bound,
    _is_left_constraint,
    _is_right_constraint,
    make_decomposer,
    qft_obstruction_pair,
    star_closure,
)
from shiftlab.tower import SyncTriple, obstruction_fraction_table
from shiftlab.errors import (
    DepthExceededError,
    EmptyLanguageError,
    NotSynchronisingError,
    NoValidParametersError,
)

from reference import obstruction_complement, sync_times


def zero(oracle):
    return sl.Potential.zero(oracle.alphabet)


def lang_triple(oracle, tau, L=None):
    eps = WordSet.empty_word_only(oracle)
    return sl.TripleCollections(eps, WordSet.language(oracle), eps, tau=tau, L_param=L)


def zero_runs_pair(oracle):
    z = oracle.alphabet.index("0")
    runs = WordSet.from_predicate(
        oracle, lambda w: len(w) >= 1 and all(c == z for c in w), name="0^k"
    )
    return sl.ObstructionPair(runs, runs)


# -- condition [I] -----------------------------------------------------------------

def test_spec_I_golden_tau1(golden):
    v = sl.check_spec_I(lang_triple(golden, 1), golden, 6)
    assert v.passed
    # a connector of length 1 is needed: "0" glues 1-ending to 1-starting
    assert not sl.check_spec_I(lang_triple(golden, 0), golden, 6).passed


def test_spec_I_full_shift_tau0(full2):
    assert sl.check_spec_I(lang_triple(full2, 0), full2, 5).passed


def test_spec_I_golden_tau0_fails_with_witness(golden):
    v = sl.check_spec_I(lang_triple(golden, 0), golden, 5)
    assert not v.passed
    one = golden.alphabet.word("1")
    assert (one, one) in v.witnesses


def test_spec_I_verdict_serialization(golden):
    v = sl.check_spec_I(lang_triple(golden, 0), golden, 4)
    doc = cli._verdict(v, golden.alphabet)
    assert doc["condition"] == "[I]"
    assert doc["pass"] is False
    assert ["1", "1"] in doc["witnesses"]
    assert doc["parameters"]["tau"] == 0


# -- condition [III] ----------------------------------------------------------------

def test_stay_good_whole_language(golden):
    assert sl.check_stay_good_III(lang_triple(golden, 1, L=1), golden, 8).passed


def test_stay_good_zero_bracketed(golden):
    z = golden.alphabet.index("0")
    g0 = WordSet.from_predicate(
        golden, lambda w: len(w) >= 1 and w[0] == z and w[-1] == z, name="0L&L0"
    )
    eps = WordSet.empty_word_only(golden)
    tc = sl.TripleCollections(eps, g0, eps, tau=0, L_param=1)
    assert sl.check_stay_good_III(tc, golden, 8).passed


def test_stay_good_sync_collection(golden):
    sd = sl.sync_decomposition(golden, golden.alphabet.word("0"), depth=6)
    assert sd.L_param == 1  # |s|
    assert sl.check_stay_good_III(sd, golden, 8).passed


def test_stay_good_needs_L():
    oracle = sl.full_shift(2)
    with pytest.raises(ValueError):
        sl.check_stay_good_III(lang_triple(oracle, 0), oracle, 4)


def test_stay_good_detects_violation(golden):
    # good words = words of even length: gluing overlaps break it
    even = WordSet.from_predicate(golden, lambda w: len(w) >= 2 and len(w) % 2 == 0)
    eps = WordSet.empty_word_only(golden)
    tc = sl.TripleCollections(eps, even, eps, tau=0, L_param=2)
    v = sl.check_stay_good_III(tc, golden, 7)
    assert not v.passed


# -- decompositions ------------------------------------------------------------------

def test_decomposition_trivial(golden):
    tc = lang_triple(golden, 0)
    complement, decompose = obstruction_complement(tc, golden, 6)
    for n in range(0, 7):
        assert complement.at(n) == ()
    w = golden.alphabet.word("01010")
    assert decompose(w) == Decomposition(0, 5)


def test_decomposition_sync_golden(golden):
    sd = sl.sync_decomposition(golden, golden.alphabet.word("0"), depth=6)
    complement, decompose = obstruction_complement(sd, golden, 8)
    leftovers = [golden.alphabet.text(w) for n in range(9) for w in complement.at(n)]
    assert leftovers == ["1"]  # only the word avoiding s entirely has no split


def test_decomposition_tie_rule(golden):
    # Cp and Cs are both all words; smallest prefix end, then largest good end
    lang = WordSet.language(golden)
    tc = sl.TripleCollections(lang, lang, lang, tau=0)
    decompose = make_decomposer(tc)
    assert decompose(golden.alphabet.word("0101")) == Decomposition(0, 4)


def test_decomposition_soundness(golden):
    sd = sl.sync_decomposition(golden, golden.alphabet.word("0"), depth=6)
    _, decompose = obstruction_complement(sd, golden, 8)
    for n in range(1, 9):
        for w in golden.words(n):
            d = decompose(w)
            if d is None:
                continue
            assert sd.cp.contains(w[: d.prefix_end])
            assert sd.good.contains(w[d.prefix_end : d.good_end])
            assert sd.cs.contains(w[d.good_end :])


# -- pressure gap [II] ------------------------------------------------------------------

def test_gap_trivial_collections(golden):
    rep = sl.pressure_gap_II(lang_triple(golden, 0), golden, zero(golden), 12)
    assert rep.passed
    assert rep.obstruction_report.rate_at(12) == float("-inf")


def test_gap_sync_golden(golden):
    sd = sl.sync_decomposition(golden, golden.alphabet.word("0"), depth=6)
    rep = sl.pressure_gap_II(sd, golden, zero(golden), 12)
    assert rep.passed
    # Y = words avoiding "0" is {1} and dies at length 2 ("11" is forbidden)
    assert rep.obstruction_report.rate_at(1) == 0.0
    assert rep.obstruction_report.rate_at(2) == float("-inf")


def test_gap_margin_rule_fails_when_no_gap(golden):
    # taking the whole language as obstructions leaves no gap
    lang = WordSet.language(golden)
    tc = sl.TripleCollections(lang, WordSet.empty_word_only(golden), lang, tau=0)
    rep = sl.pressure_gap_II(tc, golden, zero(golden), 10)
    assert not rep.passed


def test_cycle_avoid_symbol_complement_rate():
    # the obstruction collection of any free family on the cycle SFT contains
    # the words avoiding one symbol, whose rate stays above (1-4/k) log 2
    c8 = sl.cycle_sft(8)
    ws = sl.avoid_symbol_set(c8, "1")
    rep = sl.pressure_estimate(ws, zero(c8), 18)
    assert rep.point_estimate >= 0.34


# -- obstruction pairs ---------------------------------------------------------------

def test_good_words_empty_obstructions(golden):
    pair = sl.ObstructionPair(WordSet.empty(golden), WordSet.empty(golden))
    g = sl.good_words_from_obstructions(pair, golden, 1)
    for n in range(1, 7):
        assert g.at(n) == golden.words(n)


def test_good_words_sgap(sgap12):
    pair = zero_runs_pair(sgap12)
    g = sl.good_words_from_obstructions(pair, sgap12, 2)
    a = sgap12.alphabet
    assert g.contains(a.word("0101"))
    assert not g.contains(a.word("00101"))  # starts with a length-2 zero run
    assert not g.contains(a.word("10100"))  # ends with one
    assert g.contains(a.word("0"))  # short words are unconstrained


def test_good_words_beta_prefixes():
    spec = sl.BetaSpec.from_beta((1 + math.sqrt(5)) / 2, 24)
    b = sl.beta_shift(spec, 16)
    prefixes = WordSet.from_predicate(
        b, lambda w: len(w) >= 1 and w == tuple(map(spec.digit, range(1, len(w) + 1))),
        name="z-prefixes",
    )
    pair = sl.ObstructionPair(WordSet.empty(b), prefixes)
    g = sl.good_words_from_obstructions(pair, b, 2)
    a = b.alphabet
    assert not g.contains(a.word("0010"))  # ends with the length-2 prefix 10
    assert g.contains(a.word("0100"))
    assert sl.check_persistence(pair, b, 10).passed  # prefix of a prefix


def test_persistence_zero_runs(sgap12):
    assert sl.check_persistence(zero_runs_pair(sgap12), sgap12, 10).passed


def test_persistence_failure_witness(full2):
    a = full2.alphabet
    bad = sl.ObstructionPair(
        WordSet.empty(full2),
        WordSet.from_words(full2, [a.word("01")], depth=10),
    )
    v = sl.check_persistence(bad, full2, 6)
    assert not v.passed
    assert (a.word("0"), a.word("01")) in v.witnesses


# -- [I*] --------------------------------------------------------------------------

def test_istar_sgap_tau_bound(sgap12):
    pair = zero_runs_pair(sgap12)
    v = sl.check_complete_list_Istar(pair, sgap12, [1, 2], 8)
    assert v.passed
    # 2*min{s in S : s >= 2} = 4 always suffices; the measured minimum can be less
    assert v.parameters["tau_of_M"][2] <= 4


def test_istar_full_shift_zero(full2):
    pair = sl.ObstructionPair(WordSet.empty(full2), WordSet.empty(full2))
    v = sl.check_complete_list_Istar(pair, full2, [1, 2, 3], 6)
    assert v.passed
    assert all(t == 0 for t in v.parameters["tau_of_M"].values())


def test_istar_golden_tau1(golden):
    pair = sl.ObstructionPair(WordSet.empty(golden), WordSet.empty(golden))
    v = sl.check_complete_list_Istar(pair, golden, [1], 6)
    assert v.passed
    assert v.parameters["tau_of_M"][1] == 1


def test_istar_monotone_under_enlargement(golden):
    # enlarging the obstruction lists cannot turn a pass into a fail
    a = golden.alphabet
    small = sl.ObstructionPair(WordSet.empty(golden), WordSet.empty(golden))
    big = sl.ObstructionPair(
        WordSet.from_predicate(golden, lambda w: len(w) >= 1 and all(c == 0 for c in w)),
        WordSet.from_predicate(golden, lambda w: len(w) >= 1 and all(c == 0 for c in w)),
    )
    for M in (1, 2):
        v_small = sl.check_complete_list_Istar(small, golden, [M], 6)
        v_big = sl.check_complete_list_Istar(big, golden, [M], 6)
        assert v_small.passed
        assert v_big.passed
        assert v_big.parameters["tau_of_M"][M] <= v_small.parameters["tau_of_M"][M]


# -- star closures and the good-collection construction -----------------------------

def test_star_closure_membership(golden):
    a = golden.alphabet
    base = WordSet.from_words(golden, [a.word("0"), a.word("01")], depth=12)
    star = star_closure(base, golden)
    assert star.contains(())
    assert star.contains(a.word("00101"))
    assert not star.contains(a.word("10"))


def test_cgc_trivial_obstructions(golden):
    pair = sl.ObstructionPair(WordSet.empty(golden), WordSet.empty(golden))
    res = sl.cgc_construct(pair, golden, zero(golden), 0.05, depth=10)
    tc = res.collections
    # all obstruction collections empty: the good set is the whole language
    for n in range(1, 8):
        assert tc.good.at(n) == golden.words(n)
    assert tc.cp.contains(())
    assert sl.check_spec_I(tc, golden, 4).passed
    assert sl.check_stay_good_III(tc, golden, 6).passed


def test_cgc_tail_surrogates_read_admissible_words(golden):
    # an explicit C^- of inadmissible words (all starting with 11): its rate
    # counts every listed word, log(33/32) from lengths 7 and 8, while the
    # tail sup reads only the admissible ones, of which there are none, so
    # the surrogates pass; summing the listed words would give a sup of
    # log(32)/7, past the rate plus eps at every M
    a = golden.alphabet
    listed = [a.word("11") + w for w in itertools.product((0, 1), repeat=5)]
    listed += [a.word("11") + w for w in itertools.product((0, 1), repeat=6)][:33]
    pair = sl.ObstructionPair(WordSet.from_words(golden, listed, depth=golden.enumeration_limit),
                              WordSet.empty(golden))
    res = sl.cgc_construct(pair, golden, zero(golden), 0.05, depth=8)
    assert (res.parameters["M"], res.parameters["N"]) == (2, 2)
    assert res.gap_report.passed


def test_cgc_sgap_construction(sgap12):
    pair = zero_runs_pair(sgap12)
    res = sl.cgc_construct(pair, sgap12, zero(sgap12), 0.08, depth=10)
    assert sl.check_spec_I(res.collections, sgap12, 4).passed
    assert sl.check_stay_good_III(res.collections, sgap12, 6).passed
    assert res.gap_report.passed


def test_cgc_beta_excludes_long_prefix_tails():
    spec = sl.BetaSpec.from_beta((1 + math.sqrt(5)) / 2, 24)
    b = sl.beta_shift(spec, 14)
    prefixes = WordSet.from_predicate(
        b, lambda w: len(w) >= 1 and w == tuple(map(spec.digit, range(1, len(w) + 1))),
        name="z-prefixes",
    )
    pair = sl.ObstructionPair(WordSet.empty(b), prefixes)
    res = sl.cgc_construct(pair, b, zero(b), 0.1, depth=10)
    M = res.parameters["M"]
    long_prefix_tail = (0,) + tuple(map(spec.digit, range(1, M + 3)))
    assert b.contains(long_prefix_tail)
    assert not res.collections.good.contains(long_prefix_tail)


def test_cgc_no_valid_parameters(golden):
    # the whole language as obstructions can never satisfy the margin rule
    lang = WordSet.from_predicate(golden, lambda w: len(w) >= 1)
    pair = sl.ObstructionPair(lang, lang)
    with pytest.raises(NoValidParametersError):
        sl.cgc_construct(pair, golden, zero(golden), 0.05, depth=8)


# -- QFT constraints ---------------------------------------------------------------

def test_qft_full_shift_empty(full2):
    rep = sl.qft_constraints(full2, 4)
    assert all(not ws for ws in rep.left.values())
    assert all(not ws for ws in rep.right.values())


def test_qft_one_step_sft_no_long_constraints(golden):
    # dropping the first symbol never changes legality for a 1-step SFT once
    # the word already contains its last symbol, so no constraints of
    # length >= 2 exist (the length-1 words are degenerate boundary cases)
    rep = sl.qft_constraints(golden, 5)
    for n in range(2, 6):
        assert rep.left[n] == ()
        assert rep.right[n] == ()
    assert rep.exact


def test_qft_forbid111_constraint(forbid111):
    rep = sl.qft_constraints(forbid111, 3)
    a = forbid111.alphabet
    assert a.word("11") in rep.left[2]
    assert a.word("11") in rep.right[2]


def test_qft_persistence_halves(forbid111):
    pair = qft_obstruction_pair(forbid111)
    # left constraints fill the C^+ role, right constraints the C^- role
    v = sl.check_persistence(pair, forbid111, 8)
    assert v.passed


def test_qft_pair_is_complete_list(forbid111):
    pair = qft_obstruction_pair(forbid111)
    v = sl.check_complete_list_Istar(pair, forbid111, [1, 2], 7)
    assert v.passed


# -- synchronised decompositions ------------------------------------------------------

def test_sync_golden_zero(golden):
    sd = sl.sync_decomposition(golden, golden.alphabet.word("0"), depth=8)
    assert sd.tau == 0
    a = golden.alphabet
    assert sd.good.contains(a.word("010"))
    assert not sd.good.contains(a.word("01"))
    assert sd.cp.contains(a.word("1"))


def test_sync_full_shift_any_symbol(full2):
    sd = sl.sync_decomposition(full2, full2.alphabet.word("1"), depth=5)
    assert sd.tau == 0


def test_sync_golden_one_certified(golden):
    # "1" also synchronises the golden mean: vs and sw admissible force the
    # neighbours of s to be 0, so vsw is admissible; connector needs one 0
    sd = sl.sync_decomposition(golden, golden.alphabet.word("1"), depth=5)
    assert sd.tau == 1


def test_sync_rejects_non_synchronising():
    # in the even shift, runs of 1s between 0s have even length; s = "1"
    # fails: v = "01", w = "10" give vs, sw admissible but vsw has a lone
    # pair... use forbid-111 with s = "1": v = "01", w = "10" break it
    f3 = sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["111"]))
    with pytest.raises(NotSynchronisingError) as exc:
        sl.sync_decomposition(f3, f3.alphabet.word("1"), depth=4)
    assert exc.value.witness is not None


# -- search order against brute force --------------------------------------------------

def _by_length(k, lengths):
    """Every string over k symbols with its length in ``lengths``, by length
    and then lexicographically."""
    return (u for n in lengths for u in itertools.product(range(k), repeat=n))


@st.composite
def small_shifts(draw):
    """A generated SFT (2-3 symbols, up to three forbidden words of length 2
    or 3), S-gap shift (finite S, or S with an arithmetic tail) or coded
    shift (2-3 symbols, up to three generators of length 1-3)."""
    kind = draw(st.sampled_from(["sft", "s_gap", "coded"]))
    if kind == "sft":
        k = draw(st.integers(2, 3))
        forbidden = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=2, max_size=3)
                                  .map(tuple), max_size=3, unique=True))
        try:
            return sl.sft_from_forbidden(sl.SftSpec(sl.Alphabet.of_size(k), tuple(forbidden)))
        except EmptyLanguageError:
            reject()
    if kind == "coded":
        k = draw(st.integers(2, 3))
        gens = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=1, max_size=3)
                             .map(tuple), min_size=1, max_size=3, unique=True))
        return sl.coded_shift(sl.CodedSpec(tuple(sorted(gens)), sl.Alphabet.of_size(k)))
    values = tuple(sorted(draw(st.sets(st.integers(0, 4), min_size=1, max_size=3))))
    tail = draw(st.sampled_from([(None, None), (3, 2), (5, 1)]))
    return sl.s_gap_shift(sl.SGapSpec(values, *tail))


@settings(max_examples=40, deadline=None)
@given(small_shifts(), st.data())
def test_sync_decomposition_matches_brute_force(oracle, data):
    # s synchronises to depth d iff no v, w (|v|, |w| <= d) have vs and sw
    # words and vsw not; the witness is the least such pair, v first, each
    # by length and then lexicographically; tau is the least |c| with scs a
    # word
    k, word = oracle.alphabet.size, oracle.contains
    s = data.draw(st.sampled_from(oracle.words(1) + oracle.words(2)))
    d = data.draw(st.integers(1, 4))
    strings = list(_by_length(k, range(d + 1)))
    bad = next(((v, w) for v in strings if word(v + s) for w in strings
                if word(s + w) and not word(v + s + w)), None)
    tau = next((len(c) for c in strings if word(s + c + s)), None)
    try:
        got = sl.sync_decomposition(oracle, s, depth=d)
    except NotSynchronisingError as exc:
        assert exc.witness == bad  # None when only the connector is missing
        assert bad is not None or tau is None
    else:
        assert bad is None and got.tau == tau


@settings(max_examples=40, deadline=None)
@given(small_shifts(), st.integers(2, 4), st.lists(st.integers(1, 3), min_size=1, max_size=2))
@example(sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["01"])), 2, [1, 2])  # 10.c.1 fails
def test_istar_tau_table_matches_brute_force(oracle, n, M_list):
    # zero-run obstructions: the good words of threshold M are the words
    # neither starting nor ending with 0^M; tau(M) is the largest, over good
    # v, w with |v|, |w| <= n, of the least |c| <= n with vcw a word, and
    # the witness of a failing M is the first pair with no such c
    k, word = oracle.alphabet.size, oracle.contains
    zero = oracle.alphabet.index("0")
    table, witnesses = {}, []
    for M in M_list:
        good = [w for w in _by_length(k, range(1, n + 1)) if word(w)
                and w[:M] != (zero,) * M and w[len(w) - M:] != (zero,) * M]
        needs = ((v, w, next((len(c) for c in _by_length(k, range(n + 1))
                              if word(v + c + w)), None))
                 for v in good for w in good)
        worst = 0
        for v, w, need in needs:
            if need is None:
                witnesses.append((M, (v, w)))
                break
            worst = max(worst, need)
        else:
            table[M] = worst
    got = sl.check_complete_list_Istar(zero_runs_pair(oracle), oracle, M_list, n)
    assert got.parameters["tau_of_M"] == dict(sorted(table.items()))
    assert got.witnesses == witnesses


# -- the words avoiding a word, against the split search and the listing -------------

def _avoids(s):
    return lambda w: all(w[i : i + len(s)] != s for i in range(len(w) - len(s) + 1))


@settings(max_examples=30, deadline=None)
@given(small_shifts(), st.data())
def test_avoid_word_set_is_the_obstruction_complement(oracle, data):
    # with Cp and Cs the words avoiding s and G those that start and end
    # with s, the words with no Cp.G.Cs split are the words avoiding s:
    # listed and counted, for sync_decomposition's collections where s
    # synchronises and for the same collections built here otherwise
    s = data.draw(st.sampled_from(oracle.words(1) + oracle.words(2) + oracle.words(3)))
    n = min(7, oracle.enumeration_limit)
    try:
        collections = sl.sync_decomposition(oracle, s, depth=2)
    except NotSynchronisingError:
        ls = len(s)
        edge = WordSet.from_predicate(oracle, _avoids(s))
        good = WordSet.from_predicate(
            oracle, lambda w: len(w) >= ls and w[:ls] == s == w[len(w) - ls:])
        collections = sl.TripleCollections(edge, good, edge, tau=0,
                                           obstructions=WordSet.avoiding(oracle, s, name="C"))
    complement, _ = obstruction_complement(collections, oracle, n)
    for ws in (collections.obstructions, WordSet.avoiding(oracle, s)):
        for m in range(1, n + 1):
            assert ws.at(m) == complement.at(m)
            assert ws.count(m) == len(complement.at(m))
    assert collections.obstructions.name == "C"


def test_empty_sync_word_leaves_every_word_an_obstruction(full2):
    # no word avoids the empty word, so Cp and Cs are empty and no word splits
    sd = sl.sync_decomposition(full2, (), depth=3)
    complement, _ = obstruction_complement(sd, full2, 5)
    for m in range(1, 6):
        assert sd.obstructions.at(m) == complement.at(m) == full2.words(m)
        assert sd.obstructions.count(m) == 2 ** m
    assert sd.cp.at(2) == sd.cs.at(2) == ()


def _fraction_rows(oracle, triple, n_range):
    """The fraction table by listing: the words of each length with no
    synchronising time over the whole language."""
    lang, rows = WordSet.language(oracle), []
    for n in n_range:
        words = oracle.words(n)
        bad = sum(1 for w in words if sync_times(w, triple, lang, oracle).in_obstruction_set)
        rows.append((n, bad, len(words), bad / len(words) if words else 0.0))
    return rows


@settings(max_examples=30, deadline=None)
@given(small_shifts(), st.data())
def test_obstruction_fraction_table_matches_the_sync_times_listing(oracle, data):
    # r, c and s need not form a synchronising triple for the count
    side = st.lists(st.integers(0, oracle.alphabet.size - 1), max_size=2).map(tuple)
    triple = SyncTriple(data.draw(side), data.draw(side), data.draw(side), 4)
    n_range = range(0, min(7, oracle.enumeration_limit) + 1)
    assert obstruction_fraction_table(oracle, triple, n_range) == _fraction_rows(
        oracle, triple, n_range)


def test_obstruction_fraction_table_raises_past_the_limit_as_the_listing():
    golden = sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["11"]), 4)
    triple = SyncTriple((1,), (), (0,), 4)
    for table in (obstruction_fraction_table, _fraction_rows):
        with pytest.raises(DepthExceededError, match="^length 5 exceeds enumeration limit 4 of"):
            table(golden, triple, range(3, 7))


# -- qft constraints against the word search -------------------------------------

def _word_left_constraint(oracle, w, bound):
    """Some v, 1 <= |v| <= bound, has w[1:].v a word and w.v not, asked of
    every word v by the connector search's word loop."""
    def splits(x):
        return oracle.contains(x) and not oracle.contains(w[:1] + x)

    return len(w) > 0 and next(oracle.connectors(w[1:], (), range(1, bound + 1), splits),
                               None) is not None


def _word_right_constraint(oracle, w, bound):
    """Some v, 1 <= |v| <= bound, has v.w[:-1] a word and v.w not, asked of
    every word v."""
    def splits(x):
        return oracle.contains(x) and not oracle.contains(x + w[-1:])

    return len(w) > 0 and next(oracle.connectors((), w[:-1], range(1, bound + 1), splits),
                               None) is not None


def _outcome(check, *args):
    try:
        return check(*args)
    except DepthExceededError as exc:
        return str(exc)


@settings(max_examples=25, deadline=None)
@given(small_shifts())
def test_qft_state_walks_match_word_search(oracle):
    # every word to length 6, and every string to length 3 (members or not)
    strings = set(_by_length(oracle.alphabet.size, range(4)))
    strings.update(w for n in range(7) for w in oracle.words(n))
    for w in sorted(strings, key=lambda u: (len(u), u)):
        for bound in range(5):
            assert _is_left_constraint(oracle, w, bound) == _word_left_constraint(oracle, w, bound)
            assert _is_right_constraint(oracle, w, bound) == _word_right_constraint(oracle, w, bound)
    bound, exact = _constraint_bound(oracle)
    assert exact == (oracle.locality is not None)
    rep = sl.qft_constraints(oracle, 5)
    assert rep.exact == exact
    for n in range(1, 6):
        words = oracle.words(n)
        assert rep.left[n] == tuple(w for w in words if _word_left_constraint(oracle, w, bound))
        assert rep.right[n] == tuple(w for w in words if _word_right_constraint(oracle, w, bound))


def test_qft_state_walks_raise_past_the_enumeration_limit_as_the_word_search():
    # no constraint within the limit: both forms read on to length 3 and raise
    golden = sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["11"]), 2)
    for w in _by_length(2, range(4)):
        for bound in range(5):
            for fast, slow in ((_is_left_constraint, _word_left_constraint),
                               (_is_right_constraint, _word_right_constraint)):
                assert _outcome(fast, golden, w, bound) == _outcome(slow, golden, w, bound)
    assert _outcome(_is_left_constraint, golden, (0, 0), 4) == (
        "length 3 exceeds enumeration limit 2 of sft(11)")
