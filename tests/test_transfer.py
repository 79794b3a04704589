"""The transfer-DP partition sums of finite and stepped layers against
listing words.

On a finite layer, ``log_partition_sum``, the hyperbolicity sup and the
cylinder tables sum over (layer state, last r-1 symbols) instead of over
the listed words, with no enumeration limit.  The references list the
words over a twin oracle with the same membership and name, no finite
layer, and a limit above every compared length:

* for a word set, the same predicate without a pattern, which
  ``log_partition_sum`` sums as e^{phi_hat(w)} over ``at(n)``;
* for ``hyperbolicity_diagnostic`` and ``cylinder_count_table``, the
  twin itself.

Log sums and sups must agree within 1e-12 (relative, or absolute near 0)
for every n <= 10 (7 over three symbols), zero-potential counts must be
equal, and an error must have the same class and message.  The one
exception is a length past the tested oracle's limit that the DP cannot
answer (some word raises): it falls back to listing, which reports the
limit, where the deeper reference reports the word's error.

Beta and signed or 4 x 4 cocyclic layers step, and their language and
avoid-symbol sets are summed by the same DP over their stepped rows; they
are compared with exact ``Fraction`` sums over the words of a word-state
twin (``reference.log_sum_and_sup_exact``), to one past the limit and
past z's certified depth, and a beta pressure table is read to length
40 with ``LanguageOracle.words`` made to fail.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
import re
import weakref

import pytest
from hypothesis import assume, given, settings, strategies as st

import shiftlab as sl
from shiftlab import thermo
from shiftlab.core import WordSet
from shiftlab.errors import (
    DepthExceededError,
    EmptyLanguageError,
    ExpansionUncertainError,
    NotInLanguageError,
    ShiftLabError,
)

import reference
from reference import WordStateOracle, beta_suffix_scan, reference_cocyclic_contains

TOL = 1e-12


def _close(x, y):
    return x == y or math.isclose(x, y, rel_tol=TOL, abs_tol=TOL)


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (ShiftLabError, ValueError) as exc:
        return "raises", type(exc).__name__, str(exc)


def _same(got, expect, past_limit=False):
    """Outcomes agree: the same error, or values whose floats are close and
    whose other fields are equal.  Past the tested oracle's limit, its
    DepthExceededError agrees with the word's NotInLanguageError that the
    reference lists."""
    if past_limit and got[:2] == ("raises", "DepthExceededError"):
        return expect[:2] == ("raises", "NotInLanguageError")
    if got[0] != expect[0] or got[0] == "raises":
        return got == expect
    return _same_value(got[1], expect[1])


def _same_value(x, y):
    if isinstance(x, float) and isinstance(y, float):
        return _close(x, y)
    if isinstance(x, (tuple, list)):
        return len(x) == len(y) and all(_same_value(a, b) for a, b in zip(x, y))
    return type(x) is type(y) and x == y


def twin(oracle, limit=None):
    """The oracle's language with no finite layer, each word its own state
    (``reference.WordStateOracle``), so that words are listed, to the
    oracle's enumeration limit or to ``limit``."""
    return WordStateOracle(oracle.alphabet, oracle.contains,
                           oracle.enumeration_limit if limit is None else limit, name=oracle.name)


# -- instances ------------------------------------------------------------------------

def _words(k, max_size):
    return st.lists(st.integers(0, k - 1), min_size=1, max_size=max_size).map(tuple)


@st.composite
def finite_layers(draw):
    """SFT, full, cycle, S-gap (with and without a tail), coded and
    nonnegative cocyclic shifts, with an enumeration limit that is sometimes
    inside the compared lengths."""
    family = draw(st.sampled_from(["sft", "full", "cycle", "s_gap", "s_gap_tail", "coded",
                                   "cocyclic"]))
    limit = draw(st.integers(6, 12))
    if family == "cocyclic":
        d, k = draw(st.integers(1, 3)), draw(st.integers(2, 3))
        matrix = st.lists(st.lists(st.sampled_from([0, 0, 1, 2]), min_size=d, max_size=d),
                          min_size=d, max_size=d)
        oracle = sl.cocyclic_shift(sl.CocyclicSpec.from_lists(
            draw(st.lists(matrix, min_size=k, max_size=k))), limit)
        assume(oracle.words(3))  # instances draws a word of length up to 3
        return oracle
    if family == "full":
        return sl.full_shift(draw(st.integers(2, 3)), limit)
    if family == "sft":
        k = draw(st.integers(2, 3))
        forbidden = draw(st.lists(_words(k, 3), max_size=4, unique=True))
        return sl.sft_from_forbidden(sl.SftSpec(sl.Alphabet.of_size(k), tuple(sorted(forbidden))),
                                     limit)
    if family == "cycle":
        return sl.cycle_sft(draw(st.integers(4, 5)), limit)
    if family.startswith("s_gap"):
        values = tuple(sorted(draw(st.sets(st.integers(0, 5), min_size=1, max_size=3))))
        if family == "s_gap_tail":
            spec = sl.SGapSpec(values, tail_start=draw(st.integers(0, 6)),
                               tail_period=draw(st.sampled_from([1, 2, 3])))
        else:
            spec = sl.SGapSpec(values)
        return sl.s_gap_shift(spec, limit)
    k = draw(st.integers(2, 3))
    gens = draw(st.lists(_words(k, 4), min_size=1, max_size=3, unique=True))
    return sl.coded_shift(sl.CodedSpec(tuple(sorted(gens)), sl.Alphabet.of_size(k)), limit)


@st.composite
def potentials(draw, alphabet):
    """Zero, indicator, or a range 1-4 table (1-3 over three symbols),
    sometimes with missing windows."""
    k = alphabet.size
    kind = draw(st.sampled_from(["zero", "indicator", "table", "table"]))
    if kind == "zero":
        return sl.Potential.zero(alphabet)
    if kind == "indicator":
        pattern = draw(_words(k, 3))
        return sl.Potential.indicator(alphabet, alphabet.text(pattern),
                                      draw(st.sampled_from([-1.5, 0.25, 2.0])))
    r = draw(st.integers(1, 4 if k == 2 else 3))
    values = st.floats(-2.0, 2.0, allow_nan=False, width=32)
    table = {}
    for i in range(k ** r):
        table[tuple((i // k ** j) % k for j in reversed(range(r)))] = draw(values)
    if draw(st.integers(0, 3)) == 0:
        for w in draw(st.lists(st.sampled_from(sorted(table)), min_size=1, max_size=3)):
            table.pop(w, None)
    return sl.Potential(r, table)


@st.composite
def instances(draw):
    try:
        oracle = draw(finite_layers())
    except EmptyLanguageError:
        assume(False)
    potential = draw(potentials(oracle.alphabet))
    v = draw(st.sampled_from(oracle.words(draw(st.integers(1, 3)))))
    symbol = draw(st.sampled_from(oracle.alphabet.symbols))
    return oracle, potential, v, symbol


def _n_top(oracle):
    return 10 if oracle.alphabet.size == 2 else 7


# -- the transfer DP against listing ---------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(instances())
def test_transfer_sums_match_listing(instance):
    oracle, potential, v, symbol = instance
    a = oracle.alphabet.index(symbol)
    top = _n_top(oracle)
    listed = twin(oracle, top)
    sets = [
        (WordSet.language(oracle), WordSet.from_predicate(listed, lambda w: True)),
        (sl.avoid_symbol_set(oracle, symbol), WordSet.from_predicate(listed, lambda w: a not in w)),
    ]
    for fast, slow in sets:
        assert fast.layer is not None and slow.layer is None
        for n in range(1, top + 1):
            got = _outcome(thermo._log_sum_and_sup, fast, potential, n)
            expect = _outcome(thermo._log_sum_and_sup, slow, potential, n)
            assert _same(got, expect, n > oracle.enumeration_limit), (fast.name, n)
            if potential.is_zero:
                assert fast.count(n) == slow.count(n) == len(slow.at(n))


def _avoiding(u):
    """The words without the factor u, by the suffix-match automaton of u:
    the state is the longest suffix of the word read that is a proper
    prefix of u (Knuth, Morris & Pratt)."""
    def step(p, a):
        t = u[:p] + (a,)
        while t != u[: len(t)]:
            t = t[1:]
        return None if len(t) == len(u) else len(t)

    return (0, step), lambda w: all(w[i : i + len(u)] != u for i in range(len(w) - len(u) + 1))


def _at_most(b, m):
    """The words with at most m occurrences of the symbol b."""
    return (0, lambda p, a: p if a != b else (p + 1 if p < m else None)), lambda w: w.count(b) <= m


def _forced_at(b, j):
    """The words that have the symbol b at 0-based position j, if that long;
    the state is the position, up to j + 1."""
    return ((0, lambda p, a: p if p > j else (None if p == j and a != b else p + 1)),
            lambda w: len(w) <= j or w[j] == b)


@settings(max_examples=80, deadline=None)
@given(instances(), st.integers(0, 2), st.integers(0, 9))
def test_pattern_sets_match_their_predicates(instance, m, j):
    # patterns whose state is more than a counter: a suffix match, a
    # bounded count and a position, each against its predicate listed
    oracle, potential, v, symbol = instance
    b = oracle.alphabet.index(symbol)
    top = _n_top(oracle)
    listed = twin(oracle, top)
    for pattern, predicate in (_avoiding(v), _at_most(b, m), _forced_at(b, j % top)):
        fast = WordSet(oracle, predicate=predicate, pattern=pattern)
        slow = WordSet.from_predicate(listed, predicate)
        assert fast.layer is not None and slow.layer is None
        for n in range(top + 1):
            assert fast.count(n) == slow.count(n), n
        for n in range(1, top + 1):
            got = _outcome(thermo._log_sum_and_sup, fast, potential, n)
            expect = _outcome(thermo._log_sum_and_sup, slow, potential, n)
            assert _same(got, expect, n > oracle.enumeration_limit), n


@settings(max_examples=60, deadline=None)
@given(instances())
def test_cylinder_tables_and_hyperbolicity_match_listing(instance):
    oracle, potential, v, _ = instance
    top = _n_top(oracle)
    listed = twin(oracle, top)
    past = top > oracle.enumeration_limit

    def cylinder(o, n):
        tab = sl.cylinder_count_table(o, potential, v, n)
        return tab.pressure_used, [(r.position, r.log_sum, r.count, r.gibbs_ratio)
                                   for r in tab.rows]

    def hyperbolicity(o):
        rep = sl.hyperbolicity_diagnostic(o, potential, top)
        return rep.point_estimate, [(r.n, r.sup_rate, r.rate, r.gap) for r in rep.rows]

    for n in range(max(4, len(v)), top + 1):
        got, expect = _outcome(cylinder, oracle, n), _outcome(cylinder, listed, n)
        assert _same(got, expect, n > oracle.enumeration_limit), n
    assert _same(_outcome(hyperbolicity, oracle), _outcome(hyperbolicity, listed), past)


def _rows_read(n_max, run):
    """Layer rows that ``run(oracle, potential, n_max)`` reads on a fresh
    oracle (the SFT forbidding 111 and 0101, the range-3 table 0.1 i), the
    oracle's own and those of any product built from it."""
    oracle = sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["111", "0101"]), n_max)
    pot = sl.Potential.from_strings(oracle.alphabet, 3, {
        w: 0.1 * i for i, w in enumerate(["000", "001", "010", "011", "100", "101", "110", "111"])})
    reads = [0]

    class Rows(list):
        def __getitem__(self, q):
            reads[0] += 1
            return super().__getitem__(q)

    oracle.transitions = oracle._rows = Rows(oracle.transitions)
    run(oracle, pot, n_max)
    return reads[0]


def _partition_sums(oracle, pot, n_max):
    lang = WordSet.language(oracle)
    for n in range(1, n_max + 1):
        sl.log_partition_sum(lang, pot, n)


def test_transfer_extends_one_dp():
    # each length is one more DP step, so the work grows linearly in n_max;
    # a DP rerun from step 0 for every length would read about 4x the rows
    assert _rows_read(200, _partition_sums) <= 2.2 * _rows_read(100, _partition_sums)


def test_cylinder_table_reads_linear_work():
    # one forward and one backward pass, and v read from each forward
    # state of each row: linear in n; one product and one DP per start
    # position would read about 4x the rows
    def table(oracle, pot, n):
        sl.cylinder_count_table(oracle, pot, (0,), n)

    assert _rows_read(200, table) <= 2.2 * _rows_read(100, table)


def test_a_summed_language_frees_its_oracle():
    # the transfer DPs of the language and of a pattern set hold no
    # reference back to their set or oracle, so with the cyclic collector
    # off the oracle dies with its last reference
    gc.disable()
    try:
        oracle = sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["111", "0101"]))
        pot = sl.Potential.from_strings(oracle.alphabet, 2, {"00": 0.1, "01": 0.2, "10": -0.3,
                                                             "11": 0.4})
        for words in (WordSet.language(oracle), sl.avoid_symbol_set(oracle, "1")):
            assert math.isfinite(sl.log_partition_sum(words, pot, 12))
        ref = weakref.ref(oracle)
        del oracle, words
        assert ref() is None
    finally:
        gc.enable()


# -- what the DP reads -------------------------------------------------------------------

def test_avoid_set_tail_extends_into_the_shift():
    # phi_hat(0) on the full shift is 0 + max(phi(00), phi(01)) = 5, an
    # extension through the avoided symbol 1; the avoid set's own rows
    # would give phi(00) = 0
    full = sl.full_shift(2)
    pot = sl.Potential.from_strings(full.alphabet, 2, {"00": 0.0, "01": 5.0, "10": 0.0, "11": 0.0})
    avoid = sl.avoid_symbol_set(full, "1")
    assert sl.log_partition_sum(avoid, pot, 1) == 5.0
    assert sl.log_partition_sum(avoid, pot, 3) == 5.0


def test_transfer_keeps_the_listing_errors(golden):
    pot = sl.Potential.from_strings(golden.alphabet, 2, {"00": 0.1, "01": 0.2, "10": 0.3})
    limit = golden.enumeration_limit
    # the finite layer lists no word, so its limit does not bind
    assert math.isfinite(sl.log_partition_sum(WordSet.language(golden), pot, limit + 1))
    assert len(sl.hyperbolicity_diagnostic(golden, pot, limit + 1).rows) == limit + 1
    # a beta shift lists its words: both report its oracle's limit
    beta = sl.beta_shift(sl.BetaSpec.from_beta(1.8, 12), 8)
    full = sl.Potential.from_strings(beta.alphabet, 2, {"00": 0.1, "01": 0.2, "10": 0.3, "11": 0.4})
    message = f"^length 9 exceeds enumeration limit 8 of {re.escape(beta.name)}$"
    with pytest.raises(DepthExceededError, match=message):
        sl.log_partition_sum(WordSet.language(beta), full, 9)
    with pytest.raises(DepthExceededError, match=message):
        sl.hyperbolicity_diagnostic(beta, full, 9)
    partial = sl.Potential.from_strings(golden.alphabet, 2, {"00": 0.1, "01": 0.2})
    with pytest.raises(NotInLanguageError, match=r"no entry for window \(1, 0\)"):
        sl.log_partition_sum(WordSet.language(golden), partial, 2)


def test_a_missing_window_raises_at_every_longer_length():
    # the windows are 00, 02, 21 and 11, so 2 occurs at most once in a word;
    # every word of the cylinder [02] crosses the missing window 02 at its
    # start and never again, and must still raise at every length
    once = sl.sft_from_forbidden(sl.SftSpec.from_strings("012", ["01", "10", "12", "20", "22"]))
    pot = sl.Potential.from_strings(once.alphabet, 2, {"00": 0.1, "11": 0.2, "21": 0.3})
    hits = WordSet(once, predicate=lambda w: w[:2] == (0, 2),
                   pattern=(0, lambda p, a: p if p == 2 else (p + 1 if a == (0, 2)[p] else None)))
    for n in range(2, 6):
        with pytest.raises(NotInLanguageError, match=r"no entry for window \(0, 2\)"):
            sl.log_partition_sum(hits, pot, n)


def test_a_set_that_dies_out_past_the_limit_has_no_sum():
    # the words of the coded shift of 001 that avoid 1 are 0 and 00: both
    # meet the missing window 0, so lengths 1 and 2 raise, but from length 3
    # the set is empty, also past the enumeration limit where nothing lists
    coded = sl.coded_shift(sl.CodedSpec.from_strings(["0", "1"], ["001"]), 6)
    pot = sl.Potential.from_strings(coded.alphabet, 1, {"1": 1.0})
    avoid = sl.avoid_symbol_set(coded, "1")
    for n in (1, 2):
        with pytest.raises(NotInLanguageError, match=r"no entry for window \(0,\)"):
            sl.log_partition_sum(avoid, pot, n)
    assert [sl.log_partition_sum(avoid, pot, n) for n in range(3, 10)] == [-math.inf] * 7


# -- the hyperbolicity verdict ---------------------------------------------------------

@pytest.mark.parametrize("listing", [False, True])
@pytest.mark.parametrize("oracle, potential, n_max", [
    # both shifts are the single point 1^infinity, so log Lambda_n is the
    # Birkhoff sum of 1^n, every row's rate equals its sup and the exact
    # gap is 0
    (sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["00", "10"])),
     {"range": 2, "table": {"00": -0.06, "01": 0.13, "10": 0.126, "11": -0.674}}, 19),
    (sl.s_gap_shift(sl.SGapSpec((0,))), {"range": 1, "table": {"0": 0.758, "1": -0.895}}, 24),
])
def test_hyperbolicity_reads_no_gap_in_rounding_noise(oracle, potential, n_max, listing):
    pot = sl.Potential.from_strings(oracle.alphabet, potential["range"], potential["table"])
    rep = sl.hyperbolicity_diagnostic(twin(oracle) if listing else oracle, pot, n_max)
    assert all(abs(r.gap) < 1e-9 for r in rep.rows)
    assert rep.verdict == "not-hyperbolic-at-depth"


def test_hyperbolicity_lists_no_beta_word(monkeypatch):
    # a beta shift's sum and sup come from the transfer DP over its stepped
    # layer, as a finite layer's do: no word is listed and none is read by
    # phi_hat, and each row's sup is within 1e-12 of the max of phi_hat
    # over the words
    beta = sl.beta_shift(sl.BetaSpec.from_beta(1.8, 12))
    pot = sl.Potential.from_strings(beta.alphabet, 2, {"00": 0.3, "01": -0.2, "10": 0.5, "11": 0.1})
    calls = []
    monkeypatch.setattr(thermo, "phi_hat", lambda p, o, w: calls.append(w) or sl.phi_hat(p, o, w))
    with monkeypatch.context() as m:
        m.setattr(sl.LanguageOracle, "words", _no_listing)
        rep = sl.hyperbolicity_diagnostic(beta, pot, 10)
    assert calls == []
    for n, row in enumerate(rep.rows, 1):
        assert _close(row.sup_rate, max(sl.phi_hat(pot, beta, w) for w in beta.words(n)) / n)


def _no_listing(oracle, n):
    raise AssertionError(f"words({n}) listed")


# -- stepped layers: the DP against the exact listing -----------------------------------
#
# Beta and signed or d = 4 cocyclic layers are not finite, but their
# language and pattern sets have stepped paths, and the same transfer DP
# sums them.  The reference lists the words over the layer's
# ``WordStateOracle`` (the suffix scan or the whole product), with the
# same limit, name and certified depth, and sums exact ``Fraction``
# phi_hats at 50 digits (``reference.log_sum_and_sup_exact``).  Sums and
# sups must agree within 1e-12, and errors (past the limit or the set's
# depth, past z's certified depth, a missing window, a stranded word) by
# class and message.

@st.composite
def stepped_layers(draw):
    """(stepped oracle, its word-state reference): a beta shift from a
    periodic or aperiodic z or from a base, a signed 2 x 2 cocyclic shift
    or a 4 x 4 one, with an enumeration limit of 3-6."""
    limit = draw(st.integers(3, 6))
    kind = draw(st.sampled_from(["periodic", "aperiodic", "base", "signed", "d4"]))
    digits = st.lists(st.integers(0, 2), min_size=1, max_size=limit + 1)
    if kind in ("periodic", "aperiodic", "base"):
        if kind == "base":
            try:
                spec = sl.BetaSpec.from_beta(draw(st.floats(1.05, 3.5)), limit)
            except ExpansionUncertainError:
                assume(False)
        else:
            period = draw(digits) if kind == "periodic" else None
            spec = sl.BetaSpec.from_sequence(draw(digits), period, depth=limit)
        oracle = sl.beta_shift(spec)
        member = functools.partial(beta_suffix_scan, spec)
    else:
        d = 2 if kind == "signed" else 4
        entries = st.sampled_from([-1, 0, 1]) if d == 2 else st.integers(-1, 2)
        matrix = st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d)
        mats = draw(st.lists(matrix, min_size=2, max_size=3))
        if d == 2:
            assume(any(x < 0 for m in mats for row in m for x in row))
        oracle = sl.cocyclic_shift(sl.CocyclicSpec.from_lists(mats), limit)
        member = reference_cocyclic_contains(mats)
    assert oracle.transitions is None
    return oracle, WordStateOracle(oracle.alphabet, member, oracle.enumeration_limit,
                                   name=oracle.name, certified_depth=oracle.certified_depth)


@st.composite
def stepped_potentials(draw, alphabet):
    """A range 1-3 table of values of mixed size (all zero in some, which
    count), one window missing in a quarter of them."""
    k = alphabet.size
    r = draw(st.integers(1, 3))
    values = st.sampled_from([0.0, -0.0, 0.1, -0.3, 2.5, 1 / 3, 1e-300, 1e6, -5.0]) | st.floats(
        -3.0, 3.0, allow_nan=False)
    table = {w: draw(values) for w in itertools.product(range(k), repeat=r)}
    if len(table) > 1 and draw(st.integers(0, 3)) == 0:
        table.pop(draw(st.sampled_from(sorted(table))))
    return sl.Potential(r, table)


def _assert_stepped_sums_match(oracle, ref, potential, a):
    sets = [(WordSet.language(oracle), WordSet.language(ref)),
            (sl.avoid_symbol_set(oracle, oracle.alphabet.symbols[a]),
             WordSet.from_predicate(ref, lambda w: a not in w))]
    for fast, slow in sets:
        assert fast.paths is not None and fast.layer is None
        for n in range(1, oracle.enumeration_limit + 3):
            got = _outcome(thermo._log_sum_and_sup, fast, potential, n)
            expect = _outcome(lambda: reference.log_sum_and_sup_exact(potential, ref, slow.at(n)))
            if potential.is_zero and expect[0] == "value" and expect[1][0] > -math.inf:
                expect = "value", (expect[1][0], 0.0)  # no word is weighed: the sup is 0
            assert _same(got, expect), (fast.name, n, got, expect)


@settings(max_examples=80, deadline=None)
@given(stepped_layers(), st.data())
def test_stepped_sums_match_the_exact_listing(instance, data):
    oracle, ref = instance
    potential = data.draw(stepped_potentials(oracle.alphabet))
    _assert_stepped_sums_match(oracle, ref, potential, data.draw(
        st.integers(0, oracle.alphabet.size - 1)))


def test_stepped_sums_raise_the_stranded_word_error():
    # M_a M_b = 0 for every pair, so no word of length 1 has an extension:
    # every length raises the first word's NotInLanguageError, as listing
    # does (ROADMAP finding 13's signed case)
    mats = [[[0, -1], [0, 0]], [[0, 1], [0, 0]]]
    oracle = sl.cocyclic_shift(sl.CocyclicSpec.from_lists(mats), 4)
    ref = WordStateOracle(oracle.alphabet, reference_cocyclic_contains(mats), 4, name=oracle.name)
    pot = sl.Potential(2, {w: 0.5 * w[0] - 0.25 for w in itertools.product(range(2), repeat=2)})
    with pytest.raises(NotInLanguageError, match="no admissible 1-symbol extension"):
        thermo.log_partition_sum(WordSet.language(oracle), pot, 1)
    _assert_stepped_sums_match(oracle, ref, pot, 0)


def _no_listing_past_one(words):
    def listing(oracle, n):
        if n >= 2:
            raise AssertionError(f"words({n}) listed")
        return words(oracle, n)
    return listing


def test_beta_pressure_lists_no_word(monkeypatch):
    # the 1.8^40 or so words of length 40 could not be listed: the DP over
    # the layer state (m, n) and the last r-1 symbols holds at most
    # (n + 1) k^(r-1) entries per length, for the language and for the
    # product of an avoid-symbol set
    beta = sl.beta_shift(sl.BetaSpec.from_beta(1.8, 60), 60)
    k = beta.alphabet.size
    pot = sl.Potential(3, {w: 0.1 * sum(w) - 0.05 * w[0] * w[2]
                           for w in itertools.product(range(k), repeat=3)})
    monkeypatch.setattr(sl.LanguageOracle, "words", _no_listing_past_one(sl.LanguageOracle.words))
    lang, avoid = WordSet.language(beta), sl.avoid_symbol_set(beta, "1")
    rep = sl.pressure_estimate(lang, pot, 40)
    assert rep.gap_flags["support_full"]
    # only 0^40, whose windows are 0 and whose best extension, 11, adds
    # the windows 001 and 011
    assert _close(sl.pressure_estimate(avoid, pot, 40).rows[-1].log_sum, 0.1 + 0.2)
    for memo in (beta._transfer, avoid.transfer_memo):
        vectors = memo[pot].vectors
        assert len(vectors) == 41
        for n, vec in enumerate(vectors):
            assert len(vec) <= (n + 1) * k ** (pot.window - 1), n
    # the table's values lie in [0, 0.25], so the pressure lies in
    # [log beta, log beta + 0.25]
    assert math.log(1.8) - 0.01 <= rep.point_estimate <= math.log(1.8) + 0.26
    # at length 59 phi_tail's extensions read digit 61, past z's certified
    # depth: the DP raises that error itself, as listing would, listing none
    with pytest.raises(DepthExceededError, match="certified only to depth 60"):
        sl.log_partition_sum(lang, pot, 59)


# -- no enumeration limit on a finite layer ---------------------------------------------

LIMIT = 4


@pytest.mark.parametrize("oracle", [
    sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["111", "0101"]), LIMIT),
    sl.full_shift(2, LIMIT),
    sl.cycle_sft(4, LIMIT),
    sl.s_gap_shift(sl.SGapSpec((1, 3), tail_start=5, tail_period=2), LIMIT),
    sl.coded_shift(sl.CodedSpec.from_strings(["0", "1"], ["0", "011"]), LIMIT),
    # two projections and a swap: sofic, not of finite type
    sl.cocyclic_shift(sl.CocyclicSpec.from_lists(
        [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]]]), LIMIT),
], ids=["sft", "full", "cycle", "s_gap", "coded", "cocyclic"])
def test_finite_layers_run_past_the_enumeration_limit(oracle):
    # every table reaches 3x the limit on the layer and agrees with listing
    # the same language to that length
    n = 3 * LIMIT
    listed = twin(oracle, n)
    a = oracle.alphabet
    pot = sl.Potential(3, {w: 0.4 * math.sin(i + 1) for i, w in
                           enumerate(itertools.product(range(a.size), repeat=3))})
    v = oracle.words(2)[-1]

    def tables(o):
        press = sl.pressure_estimate(WordSet.language(o), pot, n)
        avoid = sl.pressure_estimate(sl.avoid_symbol_set(o, a.symbols[0]), pot, n)
        hyp = sl.hyperbolicity_diagnostic(o, pot, n)
        cyl = sl.cylinder_count_table(o, pot, v, n)
        return ([(r.n, r.log_sum, r.rate) for r in press.rows + avoid.rows]
                + [press.point_estimate, avoid.point_estimate, hyp.point_estimate, hyp.verdict]
                + [(r.n, r.sup_rate, r.rate) for r in hyp.rows]
                + [cyl.pressure_used] + [(r.position, r.log_sum, r.gibbs_ratio) for r in cyl.rows])

    got, expect = tables(oracle), tables(listed)
    assert len(got) == len(expect) and all(
        _same_value(x, y) for x, y in zip(got, expect)), oracle.name
