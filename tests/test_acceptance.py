"""Acceptance suite: one test per exit criterion, at the stated tolerances.

The terminal summary prints one PASS/FAIL line per criterion (see
conftest).  Everything here runs on exact small instances; reference
values come from Perron eigenvalue oracles, closed-form roots, and
brute-force enumeration."""

from __future__ import annotations

import math
import time

import pytest

import shiftlab as sl
from shiftlab import cli
from shiftlab.core import WordSet
from shiftlab.decomp import qft_obstruction_pair
from shiftlab.thermo import log_partition_sum
from shiftlab.tower import check_free_concatenation, obstruction_fraction_table, overlap_violations

from reference import (
    binomial_entropy_bound_holds,
    check_extendable,
    check_factorial,
    factorisation_count,
)

LOG2 = math.log(2.0)
LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)
LOG_TRIBONACCI = math.log(1.8392867552141612)
LOG_PLASTIC = math.log(1.3247179572447460)  # root of x^3 = x + 1


def test_criterion_1_entropy_oracles():
    """Pressure point estimates at n_max = 30 match the Perron oracles
    within 1e-3; per-row Fekete bounds dominate (runtime < 30 s each)."""
    cases = [
        (sl.full_shift(2), LOG2),
        (sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["11"])), LOG_GOLDEN),
        (sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["111"])), LOG_TRIBONACCI),
    ]
    for oracle, expected in cases:
        pot = sl.Potential.zero(oracle.alphabet)
        started = time.perf_counter()
        rep = sl.pressure_estimate(WordSet.language(oracle), pot, 30)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0
        assert sl.sft_entropy_exact(oracle) == pytest.approx(expected, abs=1e-9)
        assert abs(rep.point_estimate - expected) < 1e-3
        for row in rep.rows:
            assert row.upper_bound >= row.rate  # exact inequality
            assert row.upper_bound >= expected - 1e-9
        assert rep.fekete_upper >= rep.point_estimate - 1e-6


@pytest.mark.parametrize("k", [6, 8, 12])
def test_criterion_2_cycle_sft_collection_entropy(k):
    """h(X) = log 2 exactly; the avoid-symbol collection's rate at depth 18
    stays above (1 - 4/k) log 2 - 0.02."""
    oracle = sl.cycle_sft(k)
    assert sl.sft_entropy_exact(oracle) == pytest.approx(LOG2, abs=1e-9)
    ws = sl.avoid_symbol_set(oracle, "1")
    rep = sl.pressure_estimate(ws, sl.Potential.zero(oracle.alphabet), 18)
    assert rep.point_estimate >= (1 - 4 / k) * LOG2 - 0.02


def test_criterion_3_not_one_one_pipeline():
    """The {0, 01, 10} code is rejected with witness 010, the window
    (010)^4 has several maximal marking sets, and the tower's loop rate at
    depth 20 exceeds the shift's entropy by at least 0.05."""
    oracle = sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["111"]))
    a = oracle.alphabet
    irr = [a.word("0"), a.word("01"), a.word("10")]

    verdict = sl.is_uniquely_decipherable(irr)
    assert not verdict.passed
    assert a.text(verdict.witness) == "010"

    family = sl.free_family_from_irreducibles(oracle, irr, 14)
    marking = sl.marking_analysis(a.word("010010010010"), family)
    assert len(marking.maximal_sets) >= 2

    tower = sl.build_tower_over(oracle, irr, 2, a.word("0"))
    table = sl.loop_sums(tower, sl.Potential.zero(a), 20, cross_check=False)
    h = sl.sft_entropy_exact(oracle)
    assert table.z_rate_estimate() - h >= 0.05


def test_criterion_4_beta_golden_equals_sft():
    """The golden-ratio beta shift and the forbid-11 SFT have identical
    languages at every length up to 20 (exact set equality)."""
    golden = sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["11"]))
    spec = sl.BetaSpec.from_beta((1 + math.sqrt(5)) / 2, 24)
    beta = sl.beta_shift(spec, 20)
    for n in range(1, 21):
        assert beta.words(n) == golden.words(n)


def test_criterion_5_s_gap_checks():
    """tau(M=2) <= 4 for S = {1, 2}; entropy within 1e-2 of the closed-form
    root at depth 22; persistence of the zero-run obstructions is exact."""
    oracle = sl.s_gap_shift(sl.SGapSpec((1, 2)))
    zero_sym = oracle.alphabet.index("0")
    runs = WordSet.from_predicate(
        oracle, lambda w: len(w) >= 1 and all(c == zero_sym for c in w), name="0^k"
    )
    pair = sl.ObstructionPair(runs, runs)

    istar = sl.check_complete_list_Istar(pair, oracle, [2], 8)
    assert istar.passed
    assert istar.parameters["tau_of_M"][2] <= 4

    rep = sl.pressure_estimate(WordSet.language(oracle),
                               sl.Potential.zero(oracle.alphabet), 22)
    assert abs(rep.point_estimate - LOG_PLASTIC) < 1e-2

    assert sl.check_persistence(pair, oracle, 10).passed


def test_criterion_6_synchronising_pipeline():
    """Golden mean: a certified triple is found; the bare triple fails the
    overlap scan at shift 1 and is extended to a passing one; the family is
    freely concatenable to depth 13; the no-synchronising-time fraction
    decreases monotonically on [10, 20]."""
    oracle = sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["11"]))
    a = oracle.alphabet
    lang = WordSet.language(oracle)

    triple = sl.find_sync_triple(oracle, lang, 0, a.word("0"), a.word("0"), 10)
    assert (triple.r, triple.c, triple.s) == (a.word("0"), (), a.word("0"))
    assert [k for k, _ in overlap_violations(triple, oracle)] == [1]

    fixed = sl.ensure_no_long_overlaps(triple, oracle, lang, 10)
    assert fixed.no_long_overlaps
    assert overlap_violations(fixed, oracle) == []

    family = sl.build_free_family(fixed, oracle, lang, 13)
    assert check_free_concatenation(family) == []

    rows = obstruction_fraction_table(oracle, fixed, range(10, 21))
    fractions = [r[3] for r in rows]
    assert all(b < a_ for a_, b in zip(fractions, fractions[1:]))


def test_criterion_7_spr_diagnostic():
    """For the code {0, 01}: loop rate within 1e-2 of log golden, first
    return rate exactly 0 at n_max = 40, gap >= 0.45, and the loop DP
    agrees exactly with the word-side counts at zero potential."""
    oracle = sl.full_shift(2, 42)
    a = oracle.alphabet
    tower = sl.build_tower_over(oracle, [a.word("0"), a.word("01")], 2, a.word("0"))
    pot = sl.Potential.zero(a)
    rep = sl.spr_diagnostic(tower, pot, 40)
    table = rep.table
    assert abs(rep.z_rate - LOG_GOLDEN) < 1e-2
    assert rep.z_star_rate == 0.0
    assert rep.gap >= 0.45
    for row in table.rows:
        assert table.word_side[row.n] == row.z  # exact at zero potential


def _property_systems():
    return [
        sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["11"])),
        sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["111"])),
        sl.cycle_sft(5),
        sl.s_gap_shift(sl.SGapSpec((1, 2))),
        sl.cocyclic_shift(sl.CocyclicSpec.from_lists(
            [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]]]
        )),
    ]


def test_criterion_8_property_suites():
    """Factoriality/extendability, Birkhoff-sum additivity envelopes,
    partition-sum submultiplicativity, the binomial-entropy bound,
    persistence of the constraint collections, the good-collection
    construction, and the decipherability equivalence: zero failures."""
    for oracle in _property_systems():
        assert check_factorial(oracle, 6) == []
        assert check_extendable(oracle, 6) == []

        table = {w: 0.2 * ((i % 3) - 1) for i, w in enumerate(oracle.words(2))}
        pot = sl.Potential(2, table)
        d = sl.distortion_bound(pot)
        lang = WordSet.language(oracle)
        logs = {n: log_partition_sum(lang, pot, n) for n in range(1, 9)}
        for m in range(1, 8):
            for n in range(1, 9 - m):
                assert logs[m + n] <= logs[m] + logs[n] + 1e-12 * max(1.0, abs(logs[m + n]))
        for v in oracle.words(2)[:8]:
            for w in oracle.words(2)[:8]:
                if oracle.contains(v + w):
                    whole = sl.phi_hat(pot, oracle, v + w)
                    parts = sl.phi_hat(pot, oracle, v) + sl.phi_hat(pot, oracle, w)
                    assert parts - d - 1e-9 <= whole <= parts + 1e-9

        pair = qft_obstruction_pair(oracle)
        assert sl.check_persistence(pair, oracle, 6).passed

        if oracle.name.startswith("s_gap"):
            zi = oracle.alphabet.index("0")
            runs = WordSet.from_predicate(
                oracle, lambda w: len(w) >= 1 and all(c == zi for c in w)
            )
            cgc_pair = sl.ObstructionPair(runs, runs)
        else:
            cgc_pair = sl.ObstructionPair(WordSet.empty(oracle), WordSet.empty(oracle))
        res = sl.cgc_construct(cgc_pair, oracle, sl.Potential.zero(oracle.alphabet),
                               0.08, depth=8)
        assert sl.check_spec_I(res.collections, oracle, 3).passed
        assert sl.check_stay_good_III(res.collections, oracle, 5).passed

    assert all(
        binomial_entropy_bound_holds(n, ell)
        for n in range(1, 61)
        for ell in range(1, n + 1)
    )

    full = sl.full_shift(2)
    a = full.alphabet
    for irr, expected in [
        ([a.word("0"), a.word("01")], True),
        ([a.word("0"), a.word("01"), a.word("10")], False),
    ]:
        fam = sl.free_family_from_irreducibles(full, irr, 10)
        assert sl.is_uniquely_decipherable(fam).passed is expected
        assert all(
            factorisation_count(fam.irreducible_words(), w) == 1
            for ws in fam.members.values() for w in ws
        ) is expected


def test_criterion_9_deterministic_reports(tmp_path):
    """Identical reports whether analyses run on 1 or 8 threads."""
    config = {
        "shift": {"family": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]},
        "potential": "zero",
        "analyses": [
            {"op": "entropy_exact"},
            {"op": "pressure_estimate", "n_max": 24},
            {"op": "sync_pipeline", "tau": 1, "seed": "0", "cert_depth": 10,
             "family_depth": 13},
            {"op": "periodic_measure", "horizon": 12, "depth": 2},
        ],
    }
    out1 = tmp_path / "threads1"
    out8 = tmp_path / "threads8"
    cli.run(config, out1, threads=1)
    cli.run(config, out8, threads=8)
    names = sorted(p.name for p in out1.iterdir() if p.name != "timing.json")
    assert names == sorted(p.name for p in out8.iterdir() if p.name != "timing.json")
    for name in names:
        assert (out1 / name).read_bytes() == (out8 / name).read_bytes(), name
