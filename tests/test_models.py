from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

import shiftlab as sl
from shiftlab.errors import DepthExceededError, EmptyLanguageError, ExpansionUncertainError
from shiftlab.models import _quasi_greedy_digits

from reference import check_extendable, check_factorial, quasi_greedy_digits_mpmath

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2
LOG_GOLDEN = math.log(GOLDEN_RATIO)
TRIBONACCI = 1.8392867552141612


# -- SFTs ---------------------------------------------------------------------

def test_full_shift_counts(full2):
    assert [full2.count(n) for n in range(1, 6)] == [2, 4, 8, 16, 32]


def test_golden_fibonacci_counts(golden):
    assert [golden.count(n) for n in range(1, 5)] == [2, 3, 5, 8]


def test_forbid_20_21_keeps_two_as_sink():
    # the three-letter SFT where the coded core is strictly smaller than X
    x = sl.sft_from_forbidden(sl.SftSpec.from_strings("012", ["20", "21"]))
    a = x.alphabet
    assert x.contains(a.word("22"))
    assert x.contains(a.word("012"))
    assert not x.contains(a.word("210"))
    assert check_extendable(x, 6) == []


def test_stranded_symbol_pruned():
    # 0 has no right continuation once 00 and 01 are forbidden
    x = sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["00", "01"]))
    a = x.alphabet
    assert not x.contains(a.word("0"))
    assert x.contains(a.word("111"))
    assert check_extendable(x, 6) == []


def test_empty_language_raises():
    with pytest.raises(EmptyLanguageError):
        sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["00", "01", "10", "11"]))


def test_memory_zero_sft_drops_forbidden_symbol():
    # forbidding a single symbol leaves the full shift on the other two
    x = sl.sft_from_forbidden(sl.SftSpec.from_strings("012", ["2"]))
    assert x.count(3) == len(x.words(3)) == 8
    assert sl.sft_entropy_exact(x) == pytest.approx(math.log(2), abs=1e-11)
    rep = sl.pressure_estimate(sl.WordSet.language(x), sl.Potential.zero(x.alphabet), 6)
    assert [r.count for r in rep.rows] == [2 ** n for n in range(1, 7)]
    assert rep.point_estimate == pytest.approx(math.log(2), abs=1e-12)


def test_memory_zero_sft_forbidding_every_symbol_is_empty():
    with pytest.raises(EmptyLanguageError):
        sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["0", "1"]))
    with pytest.raises(EmptyLanguageError):
        sl.sft_entropy_exact(sl.SftSpec.from_strings("01", ["0", "1"]))


def test_entropy_exact_with_no_recurrent_state_raises_empty_language():
    # M * M = 0, so no word is longer than one symbol: the layer has no state
    # on a bi-infinite path, and so no transition matrix to take a radius of
    from shiftlab import cli

    matrices = [[[0, 1], [0, 0]], [[0, 1], [0, 0]]]
    with pytest.raises(EmptyLanguageError):
        sl.sft_entropy_exact(sl.cocyclic_shift(sl.CocyclicSpec.from_lists(matrices)))
    report = cli.run({"shift": {"family": "cocyclic", "matrices": matrices},
                      "analyses": [{"op": "entropy_exact"}]})
    assert report["analyses"][0]["error"].startswith("EmptyLanguageError: ")


def test_entropy_oracles(golden, forbid111):
    assert sl.sft_entropy_exact(sl.full_shift(3)) == pytest.approx(math.log(3), abs=1e-11)
    assert sl.sft_entropy_exact(golden) == pytest.approx(LOG_GOLDEN, abs=1e-11)
    assert sl.sft_entropy_exact(forbid111) == pytest.approx(math.log(TRIBONACCI), abs=1e-11)


def test_entropy_of_a_jordan_block_is_exact():
    # forbidding 10 leaves 0^a 1^b: the transition matrix [[1, 1], [0, 1]]
    # has the double eigenvalue 1, where power iteration converges slowly
    x = sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["10"]))
    assert sl.sft_entropy_exact(x) == 0.0


def test_entropy_cross_check_against_counts(golden):
    # (1/n) log #L_n approaches the Perron value from above
    h = sl.sft_entropy_exact(golden)
    rate = math.log(golden.count(22)) / 22
    assert h <= rate <= h + 2e-2


# -- cycle SFT ----------------------------------------------------------------

def test_cycle_sft_follower_counts():
    c4 = sl.cycle_sft(4)
    assert c4.count(2) == 8  # each symbol has exactly two followers


def test_cycle_sft_entropy_log2(cycle5):
    assert sl.sft_entropy_exact(cycle5) == pytest.approx(math.log(2), abs=1e-11)


def test_cycle_sft_needs_k_at_least_4():
    with pytest.raises(ValueError):
        sl.cycle_sft(3)


def test_cycle_avoid_symbol_rate_bound():
    c8 = sl.cycle_sft(8)
    ws = sl.avoid_symbol_set(c8, "1")
    rep = sl.pressure_estimate(ws, sl.Potential.zero(c8.alphabet), 18)
    assert rep.point_estimate >= (1 - 4 / 8) * math.log(2) - 0.02


def test_avoid_symbol_count_hook_matches_enumeration(cycle5):
    ws = sl.avoid_symbol_set(cycle5, "3")
    for n in range(1, 7):
        assert ws.count(n) == len(ws.at(n))


# -- beta shifts ----------------------------------------------------------------

def _z(spec, n):
    """The first n digits of the driving sequence."""
    return tuple(spec.digit(i) for i in range(1, n + 1))


def test_quasi_greedy_golden():
    z = _z(sl.BetaSpec.from_beta(GOLDEN_RATIO, 6), 6)
    assert z == (1, 0, 1, 0, 1, 0)


def test_quasi_greedy_base_two():
    assert _z(sl.BetaSpec.from_beta(2.0, 4), 4) == (1, 1, 1, 1)


def test_quasi_greedy_first_digit_small_beta():
    z = _z(sl.BetaSpec.from_beta(1.1, 8), 8)
    assert z[0] == 1


def test_quasi_greedy_uncertain_near_boundary():
    # perturb the golden ratio into the unresolvable zone between the snap
    # tolerance and the guard
    with pytest.raises(ExpansionUncertainError):
        _z(sl.BetaSpec.from_beta(GOLDEN_RATIO + 1e-11, 8), 8)


def _expansion(digits, beta, n):
    try:
        return digits(beta, n)
    except ExpansionUncertainError as exc:
        return "raises", str(exc)


#: snapped bases (integers, the golden mean, an integer plus a step inside
#: the snap zone) and bases whose first or second step lands in the guard
#: zone, between the snap tolerance and the guard
_SNAPPED = [(2.0, (1,)), (3.0, (2,)), (8.0, (7,)), (GOLDEN_RATIO, (1, 0)),
            (2 + 1e-13, (1,)), (TRIBONACCI, None)]
_GUARDED = [(2 + 5e-10, 1), (3 - 2e-10, 1), (GOLDEN_RATIO + 1e-11, 2), (GOLDEN_RATIO - 3e-11, 2)]


@pytest.mark.parametrize("beta, period", _SNAPPED)
def test_quasi_greedy_snaps_as_the_reference(beta, period):
    for n in (1, 2, 3, 24, 80):
        got = _expansion(_quasi_greedy_digits, beta, n)
        assert got == _expansion(quasi_greedy_digits_mpmath, beta, n), n
        if period is not None and n >= len(period):
            assert got == ((), period), n


@pytest.mark.parametrize("beta, k", _GUARDED)
def test_quasi_greedy_guard_raises_as_the_reference(beta, k):
    for n in (k, k + 1, 80):
        got = _expansion(_quasi_greedy_digits, beta, n)
        assert got[0] == "raises" and got[1].startswith(f"digit {k} of the expansion"), n
        assert got == _expansion(quasi_greedy_digits_mpmath, beta, n), n
    assert _expansion(_quasi_greedy_digits, beta, k - 1)[0] != "raises"


@settings(max_examples=300, deadline=None)
@given(st.floats(1.0, 8.0, exclude_min=True), st.integers(1, 80))
def test_quasi_greedy_digits_match_the_mpmath_expansion(beta, n):
    # digits, period and error, class and message, as the 50-digit mpmath
    # greedy map gives them; every digit lies in the digit alphabet, so the
    # reference's alphabet and near-zero errors, which the integer map no
    # longer checks, never fire
    got = _expansion(_quasi_greedy_digits, beta, n)
    assert got == _expansion(quasi_greedy_digits_mpmath, beta, n)
    if got[0] != "raises":
        pre, period = got
        top = math.ceil(beta) - 1
        assert all(0 <= d <= top for d in pre + (period or ()))
        assert len(pre) == n if period is None else not pre and len(period) <= n


def test_beta_spec_sum_check():
    spec = sl.BetaSpec.from_beta(GOLDEN_RATIO, 20)
    assert spec.z_period == (1, 0)
    # sum z_k beta^-k = 1: the first 60 digits, and a tail below beta^-60
    head = math.fsum(d * GOLDEN_RATIO ** -(i + 1) for i, d in enumerate(_z(spec, 60)))
    assert head == pytest.approx(1.0, abs=1e-12)


def test_beta_golden_equals_golden_sft(golden):
    spec = sl.BetaSpec.from_beta(GOLDEN_RATIO, 24)
    b = sl.beta_shift(spec, 20)
    for n in range(1, 21):
        assert b.words(n) == golden.words(n)


def test_beta_two_is_full_shift():
    spec = sl.BetaSpec.from_beta(2.0, 24)
    b = sl.beta_shift(spec, 12)
    assert all(b.count(n) == 2 ** n for n in range(1, 10))


def test_beta_driving_sequence_admissible():
    for beta in (GOLDEN_RATIO, 1.8, 2.5, math.pi):
        spec = sl.BetaSpec.from_beta(beta, 24)
        b = sl.beta_shift(spec, 20)
        for n in (5, 12, 20):
            assert b.contains(_z(spec, n))


def test_beta_without_period_raises_past_certified_depth_every_time():
    # the membership rule tabulates one automaton row per digit of z; a
    # length past the certified depth has no row to add and must raise each
    # time, whether or not the word would be rejected earlier
    spec = sl.BetaSpec.from_sequence((1, 0, 1), None)
    b = sl.beta_shift(spec)
    assert b.enumeration_limit == 3
    for _ in range(3):
        with pytest.raises(DepthExceededError):
            b.contains((0, 0, 0, 0))
        assert b.contains((1, 0, 1)) and not b.contains((1, 1, 0))
        with pytest.raises(DepthExceededError):
            b.contains((1, 0, 1, 0, 0))
        with pytest.raises(DepthExceededError):
            b.contains((1, 1, 0, 0))
    with pytest.raises(DepthExceededError):
        b.words(4)


def test_beta_factorial_extendable():
    spec = sl.BetaSpec.from_beta(1.8, 24)
    b = sl.beta_shift(spec, 16)
    assert check_factorial(b, 6) == []
    assert check_extendable(b, 6) == []


# -- S-gap shifts ---------------------------------------------------------------

def test_sgap_membership_examples(sgap12):
    a = sgap12.alphabet
    assert sgap12.contains(a.word("101001"))
    assert not sgap12.contains(a.word("11"))  # gap 0 not in S


def test_sgap_naturals_allows_adjacent_ones():
    s = sl.s_gap_shift(sl.SGapSpec((), tail_start=0, tail_period=1))
    assert s.contains(s.alphabet.word("11"))


def test_sgap_entropy_root(sgap12):
    # x^{-2} + x^{-3} = 1 has root x^3 = x + 1
    root = 1.3247179572447460
    rep = sl.pressure_estimate(sl.WordSet.language(sgap12), sl.Potential.zero(sgap12.alphabet), 22)
    assert rep.point_estimate == pytest.approx(math.log(root), abs=1e-2)


def test_sgap_boundary_runs(sgap12):
    a = sgap12.alphabet
    assert sgap12.contains(a.word("00"))      # inside a gap of length 2
    assert not sgap12.contains(a.word("000"))  # no gap of length >= 3


# -- coded shifts ----------------------------------------------------------------

def test_coded_full_shift():
    c = sl.coded_shift(sl.CodedSpec.from_strings("01", ["0", "1"]))
    assert all(c.count(n) == 2 ** n for n in range(1, 8))


def test_coded_matches_sgap(sgap12):
    c = sl.coded_shift(sl.CodedSpec.from_strings("01", ["10", "100"]))
    for n in range(1, 17):
        assert c.words(n) == sgap12.words(n)


def test_coded_balanced_blocks():
    gens = ["01", "0011", "000111", "00001111", "0000011111", "000000111111"]
    c = sl.coded_shift(sl.CodedSpec.from_strings("01", gens))
    assert c.contains(c.alphabet.word("000111"))


# -- cocyclic shifts ---------------------------------------------------------------

def test_cocyclic_identity_full_shift():
    c = sl.cocyclic_shift(sl.CocyclicSpec.from_lists([[[1, 0], [0, 1]], [[1, 0], [0, 1]]]))
    assert all(c.count(n) == 2 ** n for n in range(1, 8))


def test_cocyclic_dimension_one():
    c = sl.cocyclic_shift(sl.CocyclicSpec.from_lists([[[1]], [[1]]]))
    assert c.count(4) == 16


def test_cocyclic_projection_example():
    c = sl.cocyclic_shift(sl.CocyclicSpec.from_lists(
        [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]
    ))
    a = c.alphabet
    assert not c.contains(a.word("22"))
    assert c.contains(a.word("12"))


def test_cocyclic_commuting_projections_reproduce_sft(cocyclic_runs):
    sft = sl.sft_from_forbidden(sl.SftSpec.from_strings("12", ["12", "21"]))
    for n in range(1, 11):
        assert [cocyclic_runs.alphabet.text(w) for w in cocyclic_runs.words(n)] == [
            sft.alphabet.text(w) for w in sft.words(n)
        ]


def test_cocyclic_swap_is_not_window_local(cocyclic_swap):
    a = cocyclic_swap.alphabet
    # a single swap symbol flips which projection can follow
    assert not cocyclic_swap.contains(a.word("131"))
    assert cocyclic_swap.contains(a.word("1331"))
    assert check_factorial(cocyclic_swap, 6) == []
    assert check_extendable(cocyclic_swap, 6) == []
