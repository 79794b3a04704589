from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

import shiftlab as sl
from shiftlab.core import WordSet
from shiftlab.errors import DepthExceededError, NotInLanguageError

from reference import check_extendable, check_factorial


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        sl.Alphabet(("0", "0"))


def test_alphabet_roundtrip_multichar():
    a = sl.Alphabet(("10", "11", "12"))
    w = a.word("10,12,11")
    assert w == (0, 2, 1)
    assert a.text(w) == "10,12,11"


# -- enumeration ------------------------------------------------------------

def test_enumerate_full_shift(full2):
    ws = sl.WordSet.from_words(full2, full2.words(3))
    assert len(ws.at(3)) == 8


def test_enumerate_golden(golden):
    ws = sl.WordSet.from_words(golden, golden.words(3))
    texts = [golden.alphabet.text(w) for w in ws.at(3)]
    assert texts == ["000", "001", "010", "100", "101"]


def test_enumerate_forbid111(forbid111):
    assert len(forbid111.words(3)) == 7
    assert forbid111.alphabet.word("111") not in forbid111.words(3)


def test_depth_guard(golden):
    with pytest.raises(DepthExceededError):
        golden.words(golden.enumeration_limit + 1)


def test_enumeration_sorted_and_bounded(golden):
    k = golden.alphabet.size
    prev = 1
    for n in range(1, 10):
        ws = golden.words(n)
        assert list(ws) == sorted(set(ws))
        assert len(ws) <= k * prev
        prev = len(ws)


def test_membership_enumeration_agree(golden):
    import itertools

    for n in range(1, 8):
        brute = {w for w in itertools.product(range(2), repeat=n) if golden.contains(w)}
        assert brute == set(golden.words(n))


@pytest.mark.parametrize("fixture", ["golden", "forbid111", "cycle5", "sgap12"])
def test_factorial_and_extendable(fixture, request):
    oracle = request.getfixturevalue(fixture)
    assert check_factorial(oracle, 7) == []
    assert check_extendable(oracle, 7) == []


# -- phi hat ----------------------------------------------------------------

def test_phi_hat_zero_potential(golden):
    pot = sl.Potential.zero(golden.alphabet)
    for w in golden.words(4):
        assert sl.phi_hat(pot, golden, w) == 0.0


def test_phi_hat_range_one_is_a_plain_sum(full2):
    pot = sl.Potential.from_strings(full2.alphabet, 1, {"0": 2.5, "1": -1.0})
    w = full2.alphabet.word("01")
    assert sl.phi_hat(pot, full2, w) == pytest.approx(1.5)


def test_phi_hat_window_indicator(golden):
    pot = sl.Potential.indicator(golden.alphabet, "00")
    assert sl.phi_hat(pot, golden, golden.alphabet.word("0")) == 1.0


def test_phi_hat_rejects_inadmissible(golden):
    pot = sl.Potential.zero(golden.alphabet)
    with pytest.raises(NotInLanguageError):
        sl.phi_hat(pot, golden, golden.alphabet.word("11"))


def test_phi_hat_empty_word(golden):
    pot = sl.Potential.indicator(golden.alphabet, "00")
    assert sl.phi_hat(pot, golden, ()) == 0.0


def test_distortion_bound_examples(golden):
    assert sl.distortion_bound(sl.Potential.zero(golden.alphabet)) == 0.0
    assert sl.distortion_bound(sl.Potential.indicator(golden.alphabet, "00")) == 1.0
    const = sl.Potential.from_strings(golden.alphabet, 2,
                                      {"00": 3.0, "01": 3.0, "10": 3.0})
    assert sl.distortion_bound(const) == 0.0


@pytest.mark.parametrize("scale", [1.5, -2.0, 0.0])
def test_indicator_potential_agrees_with_its_explicit_table(full2, scale):
    # an indicator's table answers values() as the scale and 0.0
    a = full2.alphabet
    ind = sl.Potential.indicator(a, "01", scale)
    explicit = sl.Potential.from_strings(
        a, 2, {w: (scale if w == "01" else 0.0) for w in ("00", "01", "10", "11")})
    assert ind.is_zero == explicit.is_zero == (scale == 0.0)
    assert ind.sup_norm() == explicit.sup_norm() == abs(scale)
    assert ind.table_spread() == explicit.table_spread() == abs(scale)


def test_distortion_dominates_exhaustive_pairs(golden):
    # compare against the true sup-difference of Birkhoff sums in a cylinder
    pot = sl.Potential.indicator(golden.alphabet, "00")
    bound = sl.distortion_bound(pot)
    r = pot.window
    for n in range(1, 7):
        for w in golden.words(n):
            sums = []
            for ext in golden.words(n + r - 1):
                if ext[:n] != w:
                    continue
                sums.append(math.fsum(pot.value(ext[j : j + r]) for j in range(n)))
            assert max(sums) - min(sums) <= bound + 1e-12


@settings(max_examples=30, deadline=None)
@given(
    t00=st.floats(-2, 2, allow_nan=False),
    t01=st.floats(-2, 2, allow_nan=False),
    t10=st.floats(-2, 2, allow_nan=False),
)
def test_phi_hat_sub_super_additive(t00, t01, t10):
    golden = sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["11"]))
    pot = sl.Potential.from_strings(golden.alphabet, 2,
                                    {"00": t00, "01": t01, "10": t10})
    d = sl.distortion_bound(pot)
    for nv in range(1, 4):
        for v in golden.words(nv):
            for w in golden.words(3):
                if not golden.contains(v + w):
                    continue
                lhs = sl.phi_hat(pot, golden, v + w)
                parts = sl.phi_hat(pot, golden, v) + sl.phi_hat(pot, golden, w)
                assert lhs <= parts + 1e-9
                assert lhs >= parts - d - 1e-9


# -- word sets ----------------------------------------------------------------

def test_word_set_explicit_sorted_dedup(golden):
    a = golden.alphabet
    ws = WordSet.from_words(golden, [a.word("01"), a.word("00"), a.word("01")])
    assert ws.at(2) == (a.word("00"), a.word("01"))


def test_word_set_union(golden):
    a = golden.alphabet
    s1 = WordSet.from_predicate(golden, lambda w: len(w) > 0 and w[0] == 0)
    s2 = WordSet.from_predicate(golden, lambda w: len(w) > 0 and w[-1] == 0)
    u = s1.union(s2)
    assert u.contains(a.word("01"))
    assert u.contains(a.word("10"))
    assert not u.contains(a.word("1"))


def test_word_set_members_admissible(golden):
    ws = WordSet.from_predicate(golden, lambda w: True)
    for n in range(1, 6):
        for w in ws.at(n):
            assert golden.contains(w)


@pytest.mark.xfail(strict=True, reason="explicit word sets keep words outside the language "
                   "(ROADMAP finding 14)")
def test_explicit_word_set_holds_only_words_of_the_language():
    # sync_search.022: cplus ["00", "11"] on the SFT forbidding {011, 11},
    # where 11 is no word; a member of a word set is admissible
    oracle = sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["011", "11"]))
    cplus = WordSet.from_words(oracle, [(0, 0), (1, 1)], depth=oracle.enumeration_limit)
    assert not oracle.contains((1, 1))
    assert not cplus.contains((1, 1))
    assert cplus.at(2) == ((0, 0),)
