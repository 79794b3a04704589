"""Cross-system property suites: factoriality/extendability, Birkhoff-sum
sub/super-additivity, partition-sum submultiplicativity, persistence of the
constraint collections, the good-collection construction, and the
decipherability/factorisation equivalence, each run over a spread of shift
families at small depth."""

from __future__ import annotations

import math

import pytest

import shiftlab as sl
from shiftlab.core import WordSet
from shiftlab.decomp import qft_obstruction_pair
from shiftlab.thermo import log_partition_sum

from reference import (
    binomial_entropy_bound_holds,
    check_extendable,
    check_factorial,
    factorisation_count,
)

SYSTEM_DEPTH = 12


def systems(request):
    return [
        request.getfixturevalue(name)
        for name in ("golden", "forbid111", "cycle5", "sgap12", "cocyclic_swap")
    ]


@pytest.fixture(
    params=["golden", "forbid111", "cycle5", "sgap12", "cocyclic_swap"],
    scope="module",
)
def system(request):
    return request.getfixturevalue(request.param)


def small_potential(oracle):
    """A nonconstant range-2 potential defined on all admissible windows."""
    table = {}
    for i, w in enumerate(oracle.words(2)):
        table[w] = 0.25 * math.sin(1.0 + i)
    return sl.Potential(2, table)


def test_factorial_extendable(system):
    assert check_factorial(system, 7) == []
    assert check_extendable(system, 7) == []


def test_phi_hat_additivity_envelope(system):
    pot = small_potential(system)
    d = sl.distortion_bound(pot)
    for nv in (1, 2, 3):
        for v in system.words(nv)[:12]:
            for w in system.words(3)[:12]:
                if not system.contains(v + w):
                    continue
                whole = sl.phi_hat(pot, system, v + w)
                parts = sl.phi_hat(pot, system, v) + sl.phi_hat(pot, system, w)
                assert whole <= parts + 1e-9
                assert whole >= parts - d - 1e-9


def test_lambda_submultiplicative(system):
    pot = small_potential(system)
    lang = WordSet.language(system)
    top = min(SYSTEM_DEPTH, 10)
    logs = {n: log_partition_sum(lang, pot, n) for n in range(1, top + 1)}
    for m in range(1, top):
        for n in range(1, top + 1 - m):
            assert logs[m + n] <= logs[m] + logs[n] + 1e-12 * max(1.0, abs(logs[m + n]))


def test_binomial_entropy_bound():
    assert all(
        binomial_entropy_bound_holds(n, ell)
        for n in range(1, 61)
        for ell in range(1, n + 1)
    )


def test_qft_persistence(system):
    pair = qft_obstruction_pair(system)
    assert sl.check_persistence(pair, system, 7).passed


def test_cgc_output_satisfies_conditions(system):
    z = "0" if "0" in system.alphabet.symbols else system.alphabet.symbols[0]
    zi = system.alphabet.index(z)
    if system.name.startswith("s_gap"):
        runs = WordSet.from_predicate(
            system, lambda w: len(w) >= 1 and all(c == zi for c in w)
        )
        pair = sl.ObstructionPair(runs, runs)
    else:
        pair = sl.ObstructionPair(WordSet.empty(system), WordSet.empty(system))
    pot = sl.Potential.zero(system.alphabet)
    res = sl.cgc_construct(pair, system, pot, 0.08, depth=8)
    assert sl.check_spec_I(res.collections, system, 3).passed
    assert sl.check_stay_good_III(res.collections, system, 5).passed


def test_ud_iff_unique_factorisation(full2):
    a = full2.alphabet
    cases = [
        ([a.word("0"), a.word("01")], True),
        ([a.word("10"), a.word("100")], True),
        ([a.word("0"), a.word("01"), a.word("10")], False),
    ]
    for irr, expected in cases:
        fam = sl.free_family_from_irreducibles(full2, irr, 10)
        verdict = sl.is_uniquely_decipherable(fam)
        assert verdict.passed is expected
        unique = all(
            factorisation_count(fam.irreducible_words(), w) == 1
            for ws in fam.members.values()
            for w in ws
        )
        assert unique is expected
