from __future__ import annotations

import collections
import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

import shiftlab as sl
from shiftlab import tower
from shiftlab.core import WordSet
from shiftlab.errors import (
    InconsistentDecipherabilityError,
    NotInLanguageError,
    NotSpecifiedError,
    PeriodicFamilyError,
)
from shiftlab.tower import (
    FreeFamily,
    TowerGraph,
    _block_graph,
    _finish_family,
    _logaddexp,
    _loop_logs,
    check_free_concatenation,
    loop_sums,
    obstruction_fraction_table,
    overlap_violations,
)

from reference import factorisation_count, reference_star_counts, sync_times, union_closure

LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)


def zero(oracle):
    return sl.Potential.zero(oracle.alphabet)


def lang(oracle):
    return WordSet.language(oracle)


# -- synchronising triples ------------------------------------------------------

def test_find_triple_golden(golden):
    a = golden.alphabet
    t = sl.find_sync_triple(golden, lang(golden), 0, a.word("0"), a.word("0"), 10)
    assert (t.r, t.c, t.s) == (a.word("0"), (), a.word("0"))
    assert t.cert_depth == 10


def test_find_triple_full_shift(full2):
    a = full2.alphabet
    t = sl.find_sync_triple(full2, lang(full2), 0, a.word("0"), a.word("1"), 6)
    assert t.c == ()
    assert len(t.r) == 1 and len(t.s) == 1


def test_find_triple_forbid111(forbid111):
    a = forbid111.alphabet
    t = sl.find_sync_triple(forbid111, lang(forbid111), 0, a.word("0"), a.word("0"), 10)
    assert (t.r, t.c, t.s) == (a.word("0"), (), a.word("0"))


def test_find_triple_rejects_unglueable(golden):
    # good words of the form 1..1 cannot be glued at tau = 0
    one = golden.alphabet.index("1")
    ones = WordSet.from_predicate(golden, lambda w: len(w) == 1 and w[0] == one)
    with pytest.raises(NotSpecifiedError):
        sl.find_sync_triple(golden, ones, 0, (one,), (one,), 6)


# -- overlap condition -----------------------------------------------------------

def test_overlap_violation_golden(golden):
    a = golden.alphabet
    t = sl.SyncTriple(a.word("0"), (), a.word("0"), 10)
    bad = overlap_violations(t, golden)
    assert (1, a.word("000")) in bad


def test_ensure_no_long_overlaps_extends(golden):
    a = golden.alphabet
    t = sl.SyncTriple(a.word("0"), (), a.word("0"), 10)
    fixed = sl.ensure_no_long_overlaps(t, golden, lang(golden), 10)
    assert fixed.no_long_overlaps
    assert overlap_violations(fixed, golden) == []
    # the extension keeps the defining shape: r ends with the old r, s starts
    # with the old s
    assert fixed.r[-1:] == a.word("0")
    assert fixed.s[:1] == a.word("0")


def test_ensure_no_long_overlaps_periodic_error():
    orbit = sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["1"]))
    a = orbit.alphabet
    t = sl.SyncTriple(a.word("0"), (), a.word("0"), 6)
    with pytest.raises(PeriodicFamilyError):
        sl.ensure_no_long_overlaps(t, orbit, lang(orbit), 6)


def test_ensure_passes_through_clean_triple(golden):
    a = golden.alphabet
    t = sl.SyncTriple(a.word("10"), (), a.word("00"), 10)
    fixed = sl.ensure_no_long_overlaps(t, golden, lang(golden), 10)
    assert (fixed.r, fixed.c, fixed.s) == (t.r, t.c, t.s)
    assert fixed.no_long_overlaps


# -- free families ----------------------------------------------------------------

def test_free_family_golden_irreducibles(golden):
    a = golden.alphabet
    t = sl.SyncTriple(a.word("0"), (), a.word("0"), 10)
    fam = sl.build_free_family(t, golden, lang(golden), 13)
    texts = [a.text(w) for w in fam.irreducible_words()]
    assert texts == ["0", "010", "01010", "0101010", "010101010",
                     "01010101010", "0101010101010"]
    assert fam.gcd_lengths == 1
    assert check_free_concatenation(fam) == []


def test_free_family_members_start_end_zero(golden):
    a = golden.alphabet
    t = sl.SyncTriple(a.word("0"), (), a.word("0"), 10)
    fam = sl.build_free_family(t, golden, lang(golden), 10)
    for n, words in fam.members.items():
        for w in words:
            assert w[0] == a.index("0") and w[-1] == a.index("0")


def test_free_family_full_shift_alphabet(full2):
    fam = sl.free_family_from_irreducibles(full2, [(0,), (1,)], 8)
    assert fam.irreducible_words() == [(0,), (1,)]
    for n in range(1, 9):
        assert len(fam.members[n]) == 2 ** n
    # the family stops at its depth, and the empty word is no member
    assert fam.contains((1,) * 8) and not fam.contains((1,) * 9) and not fam.contains(())


def test_free_family_rejects_reducible_supply(full2):
    with pytest.raises(ValueError):
        sl.free_family_from_irreducibles(full2, [(0,), (0, 0)], 6)


def test_free_family_rejects_language_escape(golden):
    one = golden.alphabet.word("1")
    with pytest.raises(NotInLanguageError, match=r"concatenation \(1, 1\) leaves the language"):
        sl.free_family_from_irreducibles(golden, [one], 4)  # 11 leaves L
    # the tabulated code automaton reads symbols 0, 1, ... only, so a
    # negative symbol is refused before the search could miss it
    with pytest.raises(ValueError, match="symbol indices"):
        sl.free_family_from_irreducibles(golden, [(0,), (-1, 0)], 4)


def test_gibbs_equivalence_hook(golden):
    # every family word extends into the good set by prefixing r, and every
    # good word embeds into the family with bounded padding
    a = golden.alphabet
    t = sl.SyncTriple(a.word("0"), (), a.word("0"), 10)
    good = lang(golden)
    fam = sl.build_free_family(t, golden, good, 10)
    tau = 1
    for n, words in fam.members.items():
        if n > 8:
            continue
        for w in words:
            assert good.contains(t.r + w)
    connectors = [u for ell in range(tau + 1) for u in golden.words(ell)]
    for n in range(1, 6):
        for w in golden.words(n):
            embedded = False
            for u in connectors:
                for v in connectors:
                    cand = t.c + t.s + u + w + v + t.r
                    if fam.contains(cand):
                        embedded = True
                        break
                if embedded:
                    break
            assert embedded, f"no bounded embedding for {a.text(w)}"


# -- unique decipherability ---------------------------------------------------------

def test_ud_rejects_with_witness(full2):
    a = full2.alphabet
    v = sl.is_uniquely_decipherable([a.word("0"), a.word("01"), a.word("10")])
    assert not v.passed
    assert a.text(v.witness) == "010"
    parses = {tuple(a.text(x) for x in p) for p in v.parses}
    assert parses == {("0", "10"), ("01", "0")}


def test_ud_accepts(full2):
    a = full2.alphabet
    assert sl.is_uniquely_decipherable([a.word("0"), a.word("01")]).passed
    assert sl.is_uniquely_decipherable([a.word("10"), a.word("100")]).passed


def test_ud_matches_factorisation_counts(golden, full2):
    # cross-oracle equality: SP passes iff every family word parses once
    a = full2.alphabet
    good_family = sl.free_family_from_irreducibles(full2, [a.word("0"), a.word("01")], 12)
    assert sl.is_uniquely_decipherable(good_family).passed
    assert all(
        factorisation_count(good_family.irreducible_words(), w) == 1
        for n, ws in good_family.members.items()
        for w in ws
    )
    bad_family = sl.free_family_from_irreducibles(
        full2, [a.word("0"), a.word("01"), a.word("10")], 10
    )
    assert not sl.is_uniquely_decipherable(bad_family).passed
    assert any(
        factorisation_count(bad_family.irreducible_words(), w) > 1
        for n, ws in bad_family.members.items()
        for w in ws
    )


#: the longest word whose factorisations the brute force counts
UD_BRUTE_LENGTH = 10


def _parse_counts(code: set, n_max: int) -> dict:
    """The number of factorisations into codewords of every word up to
    length ``n_max`` that has one, by extending each parse by a codeword."""
    by_length = [collections.Counter() for _ in range(n_max + 1)]
    by_length[0][()] = 1
    for n in range(n_max + 1):  # shorter words are complete before they extend
        for w, ways in by_length[n].items():
            for u in code:
                if n + len(u) <= n_max:
                    by_length[n + len(u)][w + u] += ways
    return {w: ways for counts in by_length[1:] for w, ways in counts.items()}


@settings(max_examples=60, deadline=None)
@given(st.sets(st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
               min_size=1, max_size=4))
def test_ud_verdict_matches_brute_force_factorisation(code):
    # a failure's witness has two distinct parses into codewords; a pass
    # leaves no word up to UD_BRUTE_LENGTH with two parses
    verdict = sl.is_uniquely_decipherable(code)
    if not verdict.passed:
        first, second = verdict.parses
        assert first != second
        for parse in verdict.parses:
            assert all(w in code for w in parse)
            assert tuple(itertools.chain.from_iterable(parse)) == verdict.witness
    else:
        twice = [w for w, ways in _parse_counts(code, UD_BRUTE_LENGTH).items() if ways > 1]
        assert not twice, twice[:3]


# -- tower graphs ----------------------------------------------------------------

def test_tower_small(full2):
    a = full2.alphabet
    tw = sl.build_tower_over(full2, [a.word("0"), a.word("01")], 2, a.word("0"))
    assert len(tw.vertices) == 3
    assert tw.edge_count() == 5
    succ = tw.successors((a.word("01"), 1))
    assert succ == [(a.word("01"), 2)]


def test_tower_single_loop(full2):
    a = full2.alphabet
    tw = sl.build_tower_over(full2, [a.word("0")], 1, a.word("0"))
    assert len(tw.vertices) == 1
    assert tw.successors((a.word("0"), 1)) == [(a.word("0"), 1)]


def test_tower_vertex_count_golden_family(golden):
    a = golden.alphabet
    irr = [a.word("0"), a.word("010"), a.word("01010")]
    tw = sl.build_tower_over(golden, irr, 5, a.word("0"))
    assert len(tw.vertices) == 1 + 3 + 5


# -- loop sums --------------------------------------------------------------------

def test_loops_full_shift_alphabet(full2):
    a = full2.alphabet
    tw = sl.build_tower_over(full2, [a.word("0"), a.word("1")], 1, a.word("0"))
    table = loop_sums(tw, zero(full2), 12)
    for row in table.rows:
        assert row.z_count == 2 ** (row.n - 1)


def test_loops_fibonacci_compositions(full2):
    a = full2.alphabet
    tw = sl.build_tower_over(full2, [a.word("0"), a.word("01")], 2, a.word("0"))
    table = loop_sums(tw, zero(full2), 16)
    fib = [1, 1]
    while len(fib) < 17:
        fib.append(fib[-1] + fib[-2])
    for row in table.rows:
        assert row.z_count == fib[row.n - 1]
    stars = [row.z_star_count for row in table.rows]
    assert stars == [1 if (n - 1) % 2 == 0 else 0 for n in range(1, 17)]


@st.composite
def _codes(draw):
    k = draw(st.integers(2, 3))
    code = sorted(draw(st.lists(st.lists(st.integers(0, k - 1), min_size=1, max_size=4).map(tuple),
                                min_size=1, max_size=4, unique=True)))
    return k, code, draw(st.sampled_from(code))


@settings(max_examples=60, deadline=None)
@given(_codes())
@example((2, [(0,), (0, 1), (1, 0)], (0, 1)))
@example((2, [(0,), (0, 1)], (0,)))
def test_loops_cross_check_at_zero_matches_the_distinct_closure_words(instance):
    # a table that passes the check counts distinct words: Z_n is the
    # number of words of length n - |b| in the closure of the code, and
    # Z*_n that of the code less b, by listing them (12 symbols over two
    # letters, 10 over three).  A code that fails it has a witness with two
    # parses, by the reference parse count
    k, code, base = instance
    oracle = sl.full_shift(k)
    n_max = 12 if k == 2 else 10
    tw = sl.build_tower_over(oracle, code, 4, base)
    verdict = sl.is_uniquely_decipherable(code)
    if not verdict.passed:
        assert factorisation_count(code, verdict.witness) >= 2
        with pytest.raises(InconsistentDecipherabilityError,
                           match=f": {oracle.alphabet.text(verdict.witness)} parses as "):
            loop_sums(tw, zero(oracle), n_max)
        return
    table = loop_sums(tw, zero(oracle), n_max)
    g = reference_star_counts(code, n_max)
    g_star = reference_star_counts([w for w in code if w != base], n_max)
    m = len(base)
    assert [(r.z_count, r.z_star_count) for r in table.rows] == \
        [(g[n - m], g_star[n - m]) if n >= m else (0, 0) for n in range(1, n_max + 1)]


def test_loops_one_word_tower(full2):
    # the code less its base word is empty, and its closure holds the empty
    # word alone
    a = full2.alphabet
    table = loop_sums(sl.build_tower_over(full2, [a.word("0")], 1, a.word("0")), zero(full2), 6)
    assert [(r.z_count, r.z_star_count) for r in table.rows] == [(1, 1)] + [(1, 0)] * 5


def test_loops_cross_check_sees_a_witness_past_the_table(full2):
    # 010 = 01.0 = 0.10, but a table to n_max = 4 at base 01 ends before
    # the two parses part: its counts [0, 1, 1, 3] are those of distinct
    # words, and only the decision on the whole code sees the witness
    a = full2.alphabet
    code = [a.word("0"), a.word("01"), a.word("10")]
    tw = sl.build_tower_over(full2, code, 2, a.word("01"))
    rows = loop_sums(tw, zero(full2), 4, cross_check=False).rows
    assert [r.z_count for r in rows] == [0, 1, 1, 3]
    with pytest.raises(InconsistentDecipherabilityError,
                       match=r": 010 parses as 0\|10 and as 01\|0$"):
        loop_sums(tw, zero(full2), 4)


def test_loops_cross_check_detects_non_ud(forbid111):
    a = forbid111.alphabet
    irr = [a.word("0"), a.word("01"), a.word("10")]
    tw = sl.build_tower_over(forbid111, irr, 2, a.word("0"))
    with pytest.raises(InconsistentDecipherabilityError):
        loop_sums(tw, zero(forbid111), 12, cross_check=True)


@pytest.mark.xfail(strict=True, reason="known defect: at a non-zero potential both sides of "
                   "the cross-check sum over parses, so a code that is not uniquely "
                   "decipherable passes; the integer counts would catch it")
def test_loops_cross_check_detects_non_ud_at_nonzero_potential(full2):
    a = full2.alphabet
    irr = [a.word("0"), a.word("01"), a.word("10")]
    tw = sl.build_tower_over(full2, irr, 2, a.word("0"))
    with pytest.raises(InconsistentDecipherabilityError):
        loop_sums(tw, zero(full2), 12, cross_check=True)
    pot = sl.Potential.from_strings(a, 1, {"0": 0.0, "1": 0.1})
    with pytest.raises(InconsistentDecipherabilityError):
        loop_sums(tw, pot, 12, cross_check=True)


def test_loops_with_potential_match_brute_force(full2):
    # graph DP against direct loop enumeration, for a range-2 potential
    a = full2.alphabet
    tw = sl.build_tower_over(full2, [a.word("0"), a.word("01")], 2, a.word("0"))
    pot = sl.Potential.from_strings(a, 2, {"00": 0.3, "01": -0.4, "10": 0.2, "11": 0.7})
    table = loop_sums(tw, pot, 9, cross_check=False)
    for n in range(1, 10):
        z = _enumerated_loop_logs(tw, pot, n, False)
        assert table.rows[n - 1].z == pytest.approx(z, abs=1e-10)
        zs = table.rows[n - 1].z_star
        b = _enumerated_loop_logs(tw, pot, n, True)
        if b == float("-inf"):
            assert zs == float("-inf")
        else:
            assert zs == pytest.approx(b, abs=1e-10)


def test_loops_with_potential_word_side_envelope(full2):
    a = full2.alphabet
    tw = sl.build_tower_over(full2, [a.word("0"), a.word("01")], 2, a.word("0"))
    pot = sl.Potential.from_strings(a, 2, {"00": 0.3, "01": -0.4, "10": 0.2, "11": 0.7})
    # {0, 01} is uniquely decipherable, so the checked call returns the
    # table of the unchecked one
    table = loop_sums(tw, pot, 14, cross_check=True)
    assert table.rows == loop_sums(tw, pot, 14, cross_check=False).rows


def test_loops_range3_star_multi_code_brute(full2):
    # three irreducibles, first-return and full loops, window-3 potential
    a = full2.alphabet
    tw = sl.build_tower_over(full2, [a.word("0"), a.word("01"), a.word("1")], 2, a.word("0"))
    table3 = {w: 0.07 * i - 0.1 for i, w in enumerate(full2.words(3))}
    pot = sl.Potential(3, table3)
    for star in (False, True):
        logs = _indexed_loop_logs(tw, pot, 8, star)
        for n in range(1, 9):
            brute = _enumerated_loop_logs(tw, pot, n, star)
            dp = logs[n]
            if brute == float("-inf"):
                assert dp == float("-inf")
            else:
                assert dp == pytest.approx(brute, abs=1e-10)


def test_loops_range3_potential_brute(full2):
    a = full2.alphabet
    tw = sl.build_tower_over(full2, [a.word("0"), a.word("01")], 2, a.word("0"))
    table3 = {w: 0.1 * i for i, w in enumerate(full2.words(3))}
    pot = sl.Potential(3, table3)
    table = loop_sums(tw, pot, 8, cross_check=False)
    for n in range(1, 9):
        z = _enumerated_loop_logs(tw, pot, n, False)
        assert table.rows[n - 1].z == pytest.approx(z, abs=1e-10)


# -- all-n loop DP and the generator split test against references -----------------

def _enumerated_loop_counts(tw, n_max, star):
    """Loops at the base of each length <= n_max, by listing every path."""
    out = [0] * (n_max + 1)
    stack = [(tw.base, 1)]
    while stack:
        v, n = stack.pop()
        if tw.base in tw.successors(v):
            out[n] += 1
        if n < n_max:
            stack.extend((u, n + 1) for u in tw.successors(v) if not (star and u == tw.base))
    return out


def _zero_loop_counts(tw, n_max, star):
    """The integer loop counts of the zero-potential loop_sums rows, indexed by n."""
    rows = loop_sums(tw, zero(tw.oracle), n_max, cross_check=False).rows
    return [0] + [r.z_star_count if star else r.z_count for r in rows]


def _enumerated_loop_logs(tw, potential, n, star):
    """log of the phi-weighted sum over the loops of length n at the base,
    by listing every path; the Birkhoff sum runs along the periodic word."""
    r = potential.window
    total = float("-inf")
    stack = [(tw.base,)]
    while stack:
        path = stack.pop()
        if len(path) == n:
            if tw.base in tw.successors(path[-1]):
                word = tuple(tw.symbol(v) for v in path)
                ext = word * (1 + -(-r // n))
                total = _logaddexp(total, potential.window_sum(ext, 0, n))
            continue
        stack.extend(path + (u,) for u in tw.successors(path[-1]) if not (star and u == tw.base))
    return total


def _indexed_loop_logs(tw, potential, n_max, star):
    """The weighted loop DP of loop_sums, over the indexed block graph."""
    return _loop_logs(*_block_graph(tw, potential, n_max), n_max, star)


def _reference_loop_logs(tw, potential, n_max, star):
    """The weighted loop DP over dict tables keyed by the tuple blocks
    themselves, sorted on every step: the same walks as the indexed DP,
    relaxed in the same order, so its floats are bit-identical."""
    r, base = potential.window, tw.base
    value, sym = potential.value, tw.symbol
    edges = {}

    def out_edges(block):
        if block not in edges:
            edges[block] = [(block[1:] + (u,), value(tuple(sym(x) for x in (block + (u,))[:r])))
                            for u in tw.successors(block[-1])]
        return edges[block]

    starts = [(base,)]
    for _ in range(r - 2):
        starts = [b + (u,) for b in starts for u in tw.successors(b[-1])]
    out = [float("-inf")] * (n_max + 1)
    for start in sorted(starts):
        table = {start: 0.0}
        for n in range(1, n_max + 1):
            nxt = {}
            for block, acc in sorted(table.items()):
                for block2, weight in out_edges(block):
                    nxt[block2] = _logaddexp(nxt.get(block2, float("-inf")), acc + weight)
            out[n] = _logaddexp(out[n], nxt.get(start, float("-inf")))
            table = {b: v for b, v in nxt.items() if b[0] != base} if star else nxt
    return out


def _reference_free_family(oracle, supply, depth):
    """free_family_from_irreducibles by listing the star closure, testing
    each member for membership (the least failing word of the shortest
    failing length is reported) and the generic split scan of every member
    (_finish_family)."""
    irr = sorted(set(supply), key=lambda w: (len(w), w))
    if any(len(w) == 0 for w in irr):
        raise ValueError("irreducible words must be nonempty")
    members = {0: [()]}
    for n in range(1, depth + 1):
        seen = {u + t for u in irr if len(u) <= n for t in members[n - len(u)]}
        for w in sorted(seen):
            if not oracle.contains(w):
                raise NotInLanguageError(
                    f"concatenation {w} leaves the language; not a free family")
        members[n] = sorted(seen)
    fam = {n: tuple(ws) for n, ws in members.items() if n > 0}
    out = _finish_family(oracle, depth, fam)
    supplied = {w for w in irr if len(w) <= depth}
    computed = {w for ws in out.irreducibles.values() for w in ws}
    if supplied != computed:
        raise ValueError(
            f"supplied set is not the irreducible set of its star closure: "
            f"extra {supplied - computed}, missing {computed - supplied}"
        )
    return out


@st.composite
def tower_instances(draw):
    k = draw(st.integers(2, 3))
    word = st.lists(st.integers(0, k - 1), min_size=1, max_size=4).map(tuple)
    code = draw(st.lists(word, min_size=1, max_size=4, unique=True))
    r = draw(st.integers(1, 4))
    values = draw(st.lists(st.integers(-4, 4), min_size=k**r, max_size=k**r))
    table = {w: v / 4 for w, v in zip(itertools.product(range(k), repeat=r), values)}
    return k, code, sl.Potential(r, table)


@settings(max_examples=30, deadline=None)
@given(tower_instances())
def test_all_n_loop_dp_matches_enumeration(instance):
    # every code word in turn is the base, so one-letter bases (whose wrap
    # windows depend on which word follows) come up often
    k, code, pot = instance
    for base, star in itertools.product(code, (False, True)):
        tw = sl.build_tower_over(sl.full_shift(k), code, 4, base)
        assert _zero_loop_counts(tw, 10, star) == _enumerated_loop_counts(tw, 10, star)
        logs = _indexed_loop_logs(tw, pot, 8, star)
        for n in range(1, 9):
            brute = _enumerated_loop_logs(tw, pot, n, star)
            if brute == float("-inf"):
                assert logs[n] == brute
            else:
                assert logs[n] == pytest.approx(brute, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(tower_instances(), st.integers(1, 5),
       st.lists(st.lists(st.integers(-1, 3), max_size=9).map(tuple), max_size=10))
# symbol 1 is in no codeword; 3 and -1 lie outside the alphabet
@example((2, [(0,), (0, 0, 0)], sl.Potential(1, {(0,): 0.0, (1,): 0.0})), 2,
         [(1,), (0, 1), (3,), (-1, 0), (0, 0, 0)])
def test_tabulated_code_automaton_matches_parse_counts(instance, depth, drawn):
    # contains runs the tabulated automaton; a member is a parseable word of
    # length 1..depth, so the empty word and longer words are not members
    k, code, _ = instance
    irreducibles = {}
    for w in sorted(code, key=lambda w: (len(w), w)):
        irreducibles.setdefault(len(w), []).append(w)
    fam = FreeFamily(sl.full_shift(k), depth, None,
                     {n: tuple(ws) for n, ws in irreducibles.items()}, math.gcd(*irreducibles))
    listed = [w for n in range(depth + 3) for w in itertools.product(range(k), repeat=n)]
    for w in listed + drawn:
        assert fam.contains(w) == (0 < len(w) <= depth and factorisation_count(code, w) > 0), w
    assert fam.members == {n: tuple(w for w in itertools.product(range(k), repeat=n)
                                    if factorisation_count(code, w) > 0)
                           for n in range(1, depth + 1)}


@settings(max_examples=25, deadline=None)
@given(tower_instances())
def test_indexed_loop_dp_is_bit_identical_to_reference(instance):
    # not approx: the indexed DP must add the same floats in the same order
    k, code, pot = instance
    for base, star in itertools.product(code, (False, True)):
        tw = sl.build_tower_over(sl.full_shift(k), code, 4, base)
        for n_max in (1, 12):
            assert _indexed_loop_logs(tw, pot, n_max, star) == \
                _reference_loop_logs(tw, pot, n_max, star)


@settings(max_examples=60, deadline=None)
@given(
    tower_instances(),
    st.lists(st.lists(st.integers(0, 2), max_size=4).map(tuple), max_size=2),
    st.integers(0, 9),
    st.sampled_from(["full", "golden", "beta"]),
)
# 011 and 110 both leave the golden-mean language at length 3: the least is named
@example((2, [(0, 1, 1), (1, 1, 0)], sl.Potential(1, {(0,): 0.0, (1,): 0.0})), [], 6, "golden")
def test_free_family_split_test_matches_reference(instance, extra, depth, shift):
    # extra words (possibly empty, reducible or outside the alphabet) and the
    # golden-mean and beta = 1.8 shifts, where concatenations can leave the
    # language, exercise every ValueError and the NotInLanguageError of a
    # concatenation that leaves the language; the beta shift has no finite
    # layer, so the product search runs its word-state step
    k, code, _ = instance
    oracle = {
        "full": lambda: sl.full_shift(k),
        "golden": lambda: sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["11"])),
        "beta": lambda: sl.beta_shift(sl.BetaSpec.from_beta(1.8)),
    }[shift]()
    supply = code + extra

    def outcome(build):
        try:
            fam = build(oracle, supply, depth)
        except (ValueError, NotInLanguageError) as exc:
            return type(exc).__name__, str(exc)
        return fam.members, list(fam.irreducibles.items()), fam.gcd_lengths

    assert outcome(sl.free_family_from_irreducibles) == outcome(_reference_free_family)


def test_loop_sums_work_grows_linearly(full2, monkeypatch):
    # one DP pass for all n: doubling n_max about doubles the steps, where a
    # separate pass per n would quadruple them.  The weighted DP computes
    # each block's out-edges once, so its log-sum-exp calls are counted too.
    # (At zero potential the counts come from a recurrence over lengths that
    # reads no tower vertex.)
    calls = [0]
    successors = TowerGraph.successors

    def counted(self, vertex):
        calls[0] += 1
        return successors(self, vertex)

    def counted_logaddexp(a, b):
        calls[0] += 1
        return _logaddexp(a, b)

    monkeypatch.setattr(TowerGraph, "successors", counted)
    monkeypatch.setattr(tower, "_logaddexp", counted_logaddexp)
    a = full2.alphabet
    tw = sl.build_tower_over(full2, [a.word("0"), a.word("01"), a.word("011")], 3, a.word("0"))
    table3 = {w: 0.05 * i for i, w in enumerate(full2.words(3))}
    work = []
    for n_max in (20, 40):
        calls[0] = 0
        loop_sums(tw, sl.Potential(3, table3), n_max)
        work.append(calls[0])
    assert work[1] <= 2.5 * work[0]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_loops_with_constant_potential_are_weighted_counts(full2, r):
    # phi = c on every window adds n*c to every loop of length n, so both
    # tables are the exact counts shifted, at every n, short loops included
    a = full2.alphabet
    c = 0.25
    pot = sl.Potential(r, {w: c for w in itertools.product((0, 1), repeat=r)})
    for base in ("0", "01", "110"):
        tw = sl.build_tower_over(full2, [a.word("0"), a.word("01"), a.word("110")], 3, a.word(base))
        for star in (False, True):
            counts = _zero_loop_counts(tw, 80, star)
            logs = _indexed_loop_logs(tw, pot, 80, star)
            for n in range(1, 81):
                if counts[n] == 0:
                    assert logs[n] == float("-inf")
                else:
                    assert logs[n] == pytest.approx(math.log(counts[n]) + n * c, rel=1e-12)


# -- SPR diagnostic ------------------------------------------------------------------

def test_spr_gap_for_fibonacci_code(full2):
    a = full2.alphabet
    tw = sl.build_tower_over(full2, [a.word("0"), a.word("01")], 2, a.word("0"))
    rep = sl.spr_diagnostic(tw, zero(full2), 40)
    assert rep.verdict == "spr-at-depth"
    assert rep.z_rate == pytest.approx(LOG_GOLDEN, abs=1e-2)
    assert rep.z_star_rate == 0.0
    assert rep.gap >= 0.45


def test_spr_generator_rate_reads_every_length(full2):
    # the generators 0, 10, 11: (1/n) log(count) is 0 at n = 1 and
    # log(2)/2 at n = 2, the last length of the table
    a = full2.alphabet
    tw = sl.build_tower_over(full2, [a.word(s) for s in ("0", "10", "11")], 2, a.word("0"))
    assert sl.spr_diagnostic(tw, zero(full2), 2).generator_rate == math.log(2) / 2


def test_spr_degenerate_single_loop(full2):
    a = full2.alphabet
    tw = sl.build_tower_over(full2, [a.word("0")], 1, a.word("0"))
    rep = sl.spr_diagnostic(tw, zero(full2), 12)
    assert rep.verdict == "degenerate"
    assert rep.flags["single_loop"]


def test_spr_golden_family(golden):
    a = golden.alphabet
    irr = [a.word("0"), a.word("010"), a.word("01010"), a.word("0101010")]
    tw = sl.build_tower_over(golden, irr, 7, a.word("0"))
    rep = sl.spr_diagnostic(tw, zero(golden), 30)
    assert rep.verdict == "spr-at-depth"
    # first-return loops exclude the "0" generator and grow strictly slower
    # (the truncation at depth 7 keeps the star rate below the full odd-block
    # code's plastic-number rate, log 1.3247...)
    assert 0.0 < rep.z_star_rate < rep.z_rate
    assert rep.z_star_rate < math.log(1.3247179572447460) + 1e-9
    assert rep.gap > 0.2


def test_gcd_consistency(golden, full2):
    a = full2.alphabet
    tw = sl.build_tower_over(full2, [a.word("0"), a.word("01")], 2, a.word("0"))
    table = loop_sums(tw, zero(full2), 12)
    fam = sl.free_family_from_irreducibles(full2, [a.word("0"), a.word("01")], 12)
    assert table.loop_length_gcd() == fam.gcd_lengths == 1
    # an even code: loops through the base all have even length
    tw2 = sl.build_tower_over(full2, [a.word("00"), a.word("01")], 2, a.word("00"))
    fam2 = sl.free_family_from_irreducibles(full2, [a.word("00"), a.word("01")], 12)
    table2 = loop_sums(tw2, zero(full2), 12)
    assert table2.loop_length_gcd() == fam2.gcd_lengths == 2


# -- marking sets ---------------------------------------------------------------------

def test_marking_unique_on_zero_block(golden):
    a = golden.alphabet
    t = sl.SyncTriple(a.word("0"), (), a.word("0"), 10)
    fam = sl.build_free_family(t, golden, lang(golden), 13)
    rep = sl.marking_analysis(a.word("00000000"), fam)
    assert rep.maximal_sets == [tuple(range(1, 10))]
    assert rep.injective_at_window


def test_marking_non_injective_witness(full2):
    a = full2.alphabet
    fam = sl.free_family_from_irreducibles(
        full2, [a.word("0"), a.word("01"), a.word("10")], 14
    )
    rep = sl.marking_analysis(a.word("010010010010"), fam)
    assert len(rep.maximal_sets) >= 2
    assert not rep.injective_at_window


def test_marking_empty_window(golden):
    a = golden.alphabet
    t = sl.SyncTriple(a.word("0"), (), a.word("0"), 10)
    fam = sl.build_free_family(t, golden, lang(golden), 8)
    rep = sl.marking_analysis((), fam)
    assert rep.maximal_sets == [(1,)]


def test_marking_unique_for_overlap_free_family(golden):
    # the overlap condition forces a unique maximal marking set on every
    # window assembled from family words
    a = golden.alphabet
    t = sl.SyncTriple(a.word("10"), (), a.word("00"), 10, True)
    fam = sl.build_free_family(t, golden, lang(golden), 13)
    fwords = [w for n in sorted(fam.members) for w in fam.members[n] if n <= 6]
    for u in fwords[:6]:
        for v in fwords[:6]:
            rep = sl.marking_analysis(u + v, fam)
            assert rep.injective_at_window
            assert union_closure(rep.maximal_sets, u + v, fam.contains) is not False


def test_marking_union_closure_fails_without_overlap_condition(full2):
    # the non-decipherable code has several maximal sets, and their unions
    # fail to mark: the finite witness that the overlap condition is needed
    a = full2.alphabet
    fam = sl.free_family_from_irreducibles(
        full2, [a.word("0"), a.word("01"), a.word("10")], 14
    )
    window = a.word("010010010010")
    rep = sl.marking_analysis(window, fam)
    assert len(rep.maximal_sets) >= 2
    assert union_closure(rep.maximal_sets, window, fam.contains) is False


# -- generator obstructions and synchronising times ------------------------------------

def test_generator_obstruction_gap_golden(golden):
    # D(I), every subword of a generator, has a pressure gap to the language
    a = golden.alphabet
    irr = [a.word("0"), a.word("010"), a.word("01010")]
    subwords = {w[i:j] for w in irr for i in range(len(w)) for j in range(i + 1, len(w) + 1)}
    d = WordSet.from_words(golden, subwords, depth=14)
    rep_d = sl.pressure_estimate(d, zero(golden), 14)
    rep_l = sl.pressure_estimate(lang(golden), zero(golden), 14)
    from shiftlab.decomp import margin_rule

    assert margin_rule(rep_d, rep_l, 0.05)


def test_sync_times_defining_occurrence(golden):
    a = golden.alphabet
    t = sl.SyncTriple(a.word("10"), (), a.word("00"), 10, True)
    st = sync_times(t.pattern, t, lang(golden), golden)
    assert st.times == (len(t.r),)
    assert not st.in_obstruction_set


def test_sync_times_avoider(golden):
    a = golden.alphabet
    t = sl.SyncTriple(a.word("10"), (), a.word("00"), 10, True)
    st = sync_times(a.word("01010101"), t, lang(golden), golden)
    assert st.times == ()
    assert st.in_obstruction_set


def test_sync_times_nonuniform_mode(golden):
    a = golden.alphabet
    t = sl.SyncTriple(a.word("10"), (), a.word("00"), 10, True)
    z = a.index("0")
    g0 = WordSet.from_predicate(
        golden, lambda w: len(w) >= 1 and w[0] == z and w[-1] == z, name="0L&L0"
    )
    w = a.word("0100010")
    uniform = sync_times(w, t, lang(golden), golden)
    restricted = sync_times(w, t, g0, golden)
    assert set(restricted.times) <= set(uniform.times)


def test_obstruction_fraction_decays(golden):
    a = golden.alphabet
    t = sl.SyncTriple(a.word("10"), (), a.word("00"), 10, True)
    rows = obstruction_fraction_table(golden, t, range(10, 21))
    fracs = [r[3] for r in rows]
    assert all(b < a_ for a_, b in zip(fracs, fracs[1:]))
