from __future__ import annotations

import math

import pytest

import shiftlab as sl
from shiftlab import cli, thermo
from shiftlab.core import WordSet
from shiftlab.errors import DepthExceededError, NoPeriodicPointsError, NotInLanguageError
from shiftlab.thermo import log_partition_sum

from reference import binomial_entropy_bound_holds, entropy_function

LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)


def zero(oracle):
    return sl.Potential.zero(oracle.alphabet)


# -- partition sums ------------------------------------------------------------

def test_partition_sum_counts_at_zero_potential(golden):
    lang = WordSet.language(golden)
    assert log_partition_sum(lang, zero(golden), 3) == math.log(5)
    assert lang.count(3) == 5


def test_partition_sum_full_shift(full2):
    lang = WordSet.language(full2)
    assert log_partition_sum(lang, zero(full2), 10) == math.log(2.0 ** 10)


def test_partition_sum_constant_potential(golden):
    # a constant range-1 potential shifts every phi-hat by c*n
    c = 0.7
    pot = sl.Potential.from_strings(golden.alphabet, 1, {"0": c, "1": c})
    lang = WordSet.language(golden)
    for n in range(1, 8):
        expected = golden.count(n) * math.exp(c * n)
        assert math.exp(log_partition_sum(lang, pot, n)) == pytest.approx(expected, rel=1e-12)


def test_submultiplicativity(golden):
    # log Lambda_{m+n} <= log Lambda_m + log Lambda_n, exact up to 1e-12 rel
    pot = sl.Potential.indicator(golden.alphabet, "00", 0.3)
    lang = WordSet.language(golden)
    logs = {n: log_partition_sum(lang, pot, n) for n in range(1, 13)}
    for m in range(1, 12):
        for n in range(1, 13 - m):
            assert logs[m + n] <= logs[m] + logs[n] + 1e-12 * abs(logs[m + n])


def test_union_partition_bounds(golden):
    # max of the parts <= union <= sum of the parts, at every length
    a = golden.alphabet
    c = WordSet.from_predicate(golden, lambda w: len(w) > 0 and w[0] == 0, name="0L")
    d = WordSet.from_predicate(golden, lambda w: len(w) > 0 and w[-1] == 0, name="L0")
    u = c.union(d)
    pot = sl.Potential.indicator(a, "00", -0.2)
    for n in range(1, 9):
        lc, ld, lu = (math.exp(log_partition_sum(x, pot, n)) for x in (c, d, u))
        assert max(lc, ld) <= lu + 1e-12
        assert lu <= lc + ld + 1e-12


# -- pressure reports ------------------------------------------------------------

def test_pressure_full_2_shift_exact(full2):
    rep = sl.pressure_estimate(WordSet.language(full2), zero(full2), 12)
    for row in rep.rows:
        assert row.rate == pytest.approx(math.log(2), abs=1e-12)
    assert rep.point_estimate == pytest.approx(math.log(2), abs=1e-12)


def test_pressure_golden_converges(golden):
    rep = sl.pressure_estimate(WordSet.language(golden), zero(golden), 30)
    assert rep.point_estimate == pytest.approx(LOG_GOLDEN, abs=1e-3)


def test_pressure_forbid111(forbid111):
    rep = sl.pressure_estimate(WordSet.language(forbid111), zero(forbid111), 30)
    assert rep.point_estimate == pytest.approx(math.log(1.8392867552141612), abs=1e-3)


def test_fekete_rows_dominate_rates_and_truth(golden):
    rep = sl.pressure_estimate(WordSet.language(golden), zero(golden), 20)
    truth = sl.sft_entropy_exact(golden)
    for row in rep.rows:
        assert row.upper_bound >= row.rate  # exact inequality at zero distortion
        assert row.upper_bound >= truth - 1e-12
    assert rep.fekete_upper >= rep.point_estimate - 1e-6


def test_fekete_with_distortion(golden):
    pot = sl.Potential.indicator(golden.alphabet, "00", 0.5)
    rep = sl.pressure_estimate(WordSet.language(golden), pot, 14)
    d = sl.distortion_bound(pot)
    for row in rep.rows:
        assert row.upper_bound == pytest.approx((row.log_sum + d) / row.n)
        assert rep.fekete_upper >= row.rate - d / row.n - 1e-12
    assert rep.gap_flags["fekete_consistent"]


def test_pressure_requires_depth():
    with pytest.raises(ValueError):
        oracle = sl.full_shift(2)
        sl.pressure_estimate(WordSet.language(oracle), zero(oracle), 3)


def test_report_serialization_roundtrip(golden):
    rep = sl.pressure_estimate(WordSet.language(golden), zero(golden), 8)
    doc = cli._render(rep)
    assert doc["rows"][0]["count"] == 2
    assert float(doc["point_estimate"]) == pytest.approx(rep.point_estimate)
    csv = cli._pressure_csv(rep)
    assert csv.splitlines()[0] == "n,count_or_sum,rate,upper_bound"
    assert len(csv.splitlines()) == 9


# -- cylinder tables ------------------------------------------------------------

def test_cylinder_full_shift_free_coordinates(full2):
    tab = sl.cylinder_count_table(full2, zero(full2), full2.alphabet.word("0"), 6)
    assert all(r.count == 32 for r in tab.rows)


def test_cylinder_golden_counts(golden):
    # frozen by brute-force enumeration of L_5 (13 words; 10 have w_2 = 0)
    tab = sl.cylinder_count_table(golden, zero(golden), golden.alphabet.word("0"), 5)
    counts = {r.position: r.count for r in tab.rows}
    assert counts == {1: 8, 2: 10, 3: 9, 4: 10}


def test_cylinder_ratios_bounded(golden):
    # empirical two-sided Gibbs constants for the always-extendable word "1"
    v = golden.alphabet.word("1")
    ratios = []
    for n in (10, 12, 14):
        tab = sl.cylinder_count_table(golden, zero(golden), v, n)
        ratios.extend(r.gibbs_ratio for r in tab.rows)
    assert 0.1 <= min(ratios) and max(ratios) <= 10.0


def test_cylinder_rejects_inadmissible(golden):
    with pytest.raises(NotInLanguageError):
        sl.cylinder_count_table(golden, zero(golden), golden.alphabet.word("11"), 6)


# -- periodic points and measures ---------------------------------------------

def test_periodic_points_full_shift(full2):
    assert len(sl.periodic_points(full2, 4).words) == 16


def test_periodic_points_golden_trace(golden):
    pp = sl.periodic_points(golden, 2)
    assert [golden.alphabet.text(w) for w in pp.words] == ["00", "01", "10"]
    assert pp.exact


def test_periodic_points_forbid111(forbid111):
    pp = sl.periodic_points(forbid111, 1)
    assert [forbid111.alphabet.text(w) for w in pp.words] == ["0"]


def test_periodic_points_sgap_exact(sgap12):
    pp = sl.periodic_points(sgap12, 3)
    # only the rotations of 001 close up with all cyclic gaps in S = {1, 2}:
    # 000 needs an unbounded gap, and any word with adjacent 1s (cyclically)
    # has gap 0
    texts = {sgap12.alphabet.text(w) for w in pp.words}
    assert texts == {"001", "010", "100"}
    assert pp.exact


def test_periodic_points_beta_flagged():
    spec = sl.BetaSpec.from_beta((1 + math.sqrt(5)) / 2, 24)
    b = sl.beta_shift(spec, 16)
    pp = sl.periodic_points(b, 2)
    assert not pp.exact
    assert [b.alphabet.text(w) for w in pp.words] == ["00", "01", "10"]


def test_periodic_measure_full_shift_symmetry(full2):
    mu = sl.periodic_orbit_measure(full2, zero(full2), 10, 1)
    assert mu.cylinder_weights[(0,)] == pytest.approx(0.5, abs=1e-12)
    assert mu.cylinder_weights[(1,)] == pytest.approx(0.5, abs=1e-12)


def test_periodic_measure_golden_parry(golden):
    mu = sl.periodic_orbit_measure(golden, zero(golden), 20, 1)
    parry = (5 + math.sqrt(5)) / 10
    assert mu.cylinder_weights[(0,)] == pytest.approx(parry, abs=2e-2)


def test_periodic_measure_suppression(full2):
    pot = sl.Potential.from_strings(full2.alphabet, 1, {"0": 0.0, "1": -5.0})
    mu0 = sl.periodic_orbit_measure(full2, zero(full2), 12, 1)
    mu = sl.periodic_orbit_measure(full2, pot, 12, 1)
    assert mu.cylinder_weights[(1,)] < 0.01
    assert mu.cylinder_weights[(1,)] < mu0.cylinder_weights[(1,)]


def test_periodic_measure_large_potential_does_not_overflow(full2):
    # the period-10 orbit of 0 has Birkhoff sum 2000, past math.exp's range
    pot = sl.Potential.indicator(full2.alphabet, "0", scale=200.0)
    mu = sl.periodic_orbit_measure(full2, pot, 10, 1)
    assert math.fsum(mu.cylinder_weights.values()) == pytest.approx(1.0, abs=1e-12)
    assert mu.cylinder_weights[(0,)] == pytest.approx(1.0, abs=1e-12)


def test_periodic_measure_normalized_and_shift_invariant(golden):
    mu = sl.periodic_orbit_measure(golden, zero(golden), 14, 3)
    assert math.fsum(mu.cylinder_weights.values()) == pytest.approx(1.0, abs=1e-9)
    # the weights of [u] and of [*u] for |u| = 2, summed from the stored depth 3
    left, right = {}, {}
    for u, wt in sorted(mu.cylinder_weights.items()):
        left[u[:2]] = left.get(u[:2], 0.0) + wt
        right[u[1:]] = right.get(u[1:], 0.0) + wt
    for u in set(left) | set(right):
        assert left.get(u, 0.0) == pytest.approx(right.get(u, 0.0), abs=1e-9)


def test_periodic_measure_no_points():
    # forbidding both fixed-point words leaves no period-1 orbits
    x = sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["00", "11"]))
    with pytest.raises(NoPeriodicPointsError):
        sl.periodic_orbit_measure(x, zero(x), 1, 1)


def test_periodic_points_walk_one_orbit_per_monoid_element(monkeypatch):
    # the orbit of the start is walked once per (element q -> q.p, reps),
    # not once per word: the full 2-shift's words all act as the identity
    walks = [0]
    orbit_lives = thermo._orbit_lives

    def counted(*args):
        walks[0] += 1
        return orbit_lives(*args)

    monkeypatch.setattr(thermo, "_orbit_lives", counted)
    full = sl.full_shift(2)
    assert len(sl.periodic_points(full, 12).words) == 4096
    assert walks[0] == 1
    sgap = sl.s_gap_shift(sl.SGapSpec((1, 2), tail_start=5, tail_period=2))
    rows = sgap.transitions

    def element(p):
        images = []
        for q in range(len(rows)):
            for a in p:
                q = None if q is None else rows[q].get(a)
            images.append(q)
        return tuple(images)

    walks[0], elements, words = 0, set(), 0
    for n in range(1, 15):
        sl.periodic_points(sgap, n)
        elements.update(map(element, sgap.words(n)))
        words += len(sgap.words(n))
    assert walks[0] <= len(elements) and 10 * len(elements) < words



def test_periodic_measure_lists_no_word_on_a_finite_layer(monkeypatch):
    # 2**40 periodic words at period 40, summed as two classes per length
    # (the one element, first symbol 0 or 1), so the horizon costs linear
    # time and no length past 1 is listed; past the enumeration limit
    # period 65 still raises what listing raises there
    full = sl.full_shift(2, 64)
    message = pytest.raises(DepthExceededError, sl.full_shift(2, 64).words, 65).value.args
    listed, steps = [], []
    words, classes = sl.LanguageOracle.words, thermo._classes

    def listing(oracle, n):
        listed.append(n)
        return words(oracle, n)

    def counted(*args):
        for level in classes(*args):
            steps[-1] += len(level)
            yield level

    monkeypatch.setattr(sl.LanguageOracle, "words", listing)
    monkeypatch.setattr(thermo, "_classes", counted)
    for horizon in (10, 20, 40):
        steps.append(0)
        mu = sl.periodic_orbit_measure(full, zero(full), horizon, 1)
        assert list(mu.cylinder_weights) == [(0,), (1,)]
        assert all(abs(w - 0.5) <= 1e-15 for w in mu.cylinder_weights.values())
    assert [n for n in listed if n >= 2] == []
    assert steps[1] <= 2.2 * steps[0] and steps[2] <= 2.2 * steps[1]
    with pytest.raises(DepthExceededError) as exc:
        sl.periodic_orbit_measure(full, zero(full), 65, 1)
    assert exc.value.args == message

# -- hyperbolicity ------------------------------------------------------------# -- hyperbolicity ------------------------------------------------------------

def test_hyperbolic_zero_potential(golden):
    rep = sl.hyperbolicity_diagnostic(golden, zero(golden), 14)
    assert rep.verdict == "hyperbolic-at-depth"


def test_hyperbolicity_counts_words_at_zero_potential():
    # the layer's count DP reads past the enumeration limit (12 here)
    full = sl.full_shift(2, 12)
    rep = sl.hyperbolicity_diagnostic(full, zero(full), 30)
    assert [r.n for r in rep.rows] == list(range(1, 31))
    for row in rep.rows:
        assert row.rate == pytest.approx(math.log(2), rel=1e-12, abs=0)


def test_hyperbolicity_rows_with_a_range_one_potential(full2):
    # sup phi_hat(w)/n is the larger value, and log Lambda_1 and every
    # increment of log Lambda_n are log(e^0.5 + e^-0.5)
    pot = sl.Potential.from_strings(full2.alphabet, 1, {"0": 0.5, "1": -0.5})
    rep = sl.hyperbolicity_diagnostic(full2, pot, 8)
    step = math.log(math.exp(0.5) + math.exp(-0.5))
    for row in rep.rows:
        assert row.sup_rate == pytest.approx(0.5, rel=1e-12)
        assert row.rate == pytest.approx(step, rel=1e-12)
        assert row.gap == row.rate - row.sup_rate


def test_an_empty_length_has_no_sup_at_any_potential():
    # the zero potential gave the sup 0.0 of an empty D_n, where every
    # other potential gives -inf: the avoid-symbol set of the one-symbol
    # shift is empty at n = 3
    one = sl.full_shift(1)
    empty = sl.avoid_symbol_set(one, "0")
    for potential in (zero(one), sl.Potential.from_strings(one.alphabet, 1, {"0": 0.5})):
        assert thermo._log_sum_and_sup(empty, potential, 3) == (-math.inf, -math.inf)
    # the cocyclic shift with both matrices [[0,1],[0,0]] has words of
    # length 1 only (finding 13's stranded words): from n = 2 the sup rate
    # is -inf at the zero potential as at a non-zero table, and the gap NaN
    shift = sl.cocyclic_shift(sl.CocyclicSpec.from_lists([[[0, 1], [0, 0]]] * 2))
    tables = (zero(shift), sl.Potential.from_strings(shift.alphabet, 1, {"1": 0.5, "2": -1.0}))
    for potential in tables:
        rep = sl.hyperbolicity_diagnostic(shift, potential, 5)
        assert rep.rows[0].sup_rate > -math.inf
        for row in rep.rows[1:]:
            assert row.sup_rate == row.rate == -math.inf and math.isnan(row.gap)


def test_not_hyperbolic_single_orbit():
    orbit = sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["1"]))
    rep = sl.hyperbolicity_diagnostic(orbit, zero(orbit), 8)
    assert rep.verdict == "not-hyperbolic-at-depth"


def test_not_hyperbolic_balanced_coded():
    gens = ["01", "0011", "000111", "00001111", "0000011111", "000000111111"]
    c = sl.coded_shift(sl.CodedSpec.from_strings("01", gens), 20)
    pot = sl.Potential.from_strings(c.alphabet, 1, {"0": 3.0, "1": 0.0})
    rep = sl.hyperbolicity_diagnostic(c, pot, 20)
    assert rep.verdict == "not-hyperbolic-at-depth"


# -- combinatorial bounds --------------------------------------------------------

def test_entropy_function_endpoints():
    assert entropy_function(0.0) == 0.0
    assert entropy_function(1.0) == 0.0
    assert entropy_function(0.5) == pytest.approx(math.log(2))


def test_binomial_entropy_bound_to_60():
    for n in range(1, 61):
        for ell in range(1, n + 1):
            assert binomial_entropy_bound_holds(n, ell)
