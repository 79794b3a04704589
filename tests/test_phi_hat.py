"""The memoised phi_hat against the original unmemoised search, the one
pass of the hyperbolicity diagnostic, and a count of evaluations per run.

The reference is the original phi_hat: a fixed fsum over the complete
windows, then a depth-first max over admissible (r-1)-symbol extensions.
Every admissible word up to a small length is compared, plus drawn words
that may be inadmissible, longer than the certified depth, or use symbols
outside the alphabet.  Floats must agree bit for bit, and an evaluation
that raises must raise the same error again on the next call.
"""

from __future__ import annotations

import collections
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

import shiftlab as sl
from shiftlab import cli, core
from shiftlab.errors import (
    ConfigError,
    EmptyLanguageError,
    ExpansionUncertainError,
    NotInLanguageError,
    ShiftLabError,
)
from shiftlab.thermo import pressure_estimate

MAX_LEN = 5


# -- reference ------------------------------------------------------------------

def reference_phi_hat(potential, oracle, w):
    if len(w) == 0:
        return 0.0
    if not oracle.contains(w):
        raise NotInLanguageError(f"word {w} not in language of {oracle.name}")
    if potential.is_zero:
        return 0.0
    r = potential.window
    value = potential.value
    fixed = 0.0
    if len(w) >= r:
        fixed = math.fsum(value(w[j : j + r]) for j in range(len(w) - r + 1))
    need = r - 1
    if need == 0:
        return fixed
    k = oracle.alphabet.size
    best = None
    stack = [()]
    while stack:
        ext = stack.pop()
        if len(ext) == need:
            full = w + ext
            tail = math.fsum(
                value(full[j : j + r]) for j in range(max(0, len(w) - r + 1), len(w))
            )
            if best is None or tail > best:
                best = tail
            continue
        for a in range(k - 1, -1, -1):
            cand = w + ext + (a,)
            if oracle.contains(cand):
                stack.append(ext + (a,))
    if best is None:
        raise NotInLanguageError(
            f"word {w} has no admissible {need}-symbol extension (oracle not extendable)"
        )
    return fixed + best


def _outcome(fn, *args):
    try:
        return ("value", fn(*args).hex())
    except ShiftLabError as exc:
        return ("raises", type(exc).__name__, str(exc))


# -- instances of every family ------------------------------------------------------

def _words(k, max_size):
    return st.lists(st.integers(0, k - 1), min_size=1, max_size=max_size).map(tuple)


@st.composite
def oracles(draw):
    family = draw(st.sampled_from(
        ["full", "sft", "cycle", "s_gap", "beta", "coded", "cocyclic"]))
    if family == "full":
        return sl.full_shift(draw(st.integers(2, 3)))
    if family == "sft":
        k = draw(st.integers(2, 3))
        forbidden = draw(st.lists(_words(k, 3), max_size=4, unique=True))
        return sl.sft_from_forbidden(sl.SftSpec(sl.Alphabet.of_size(k), tuple(sorted(forbidden))))
    if family == "cycle":
        return sl.cycle_sft(draw(st.integers(4, 6)))
    if family == "s_gap":
        values = tuple(sorted(draw(st.sets(st.integers(0, 5), min_size=1, max_size=3))))
        if draw(st.booleans()):
            return sl.s_gap_shift(sl.SGapSpec(values, tail_start=draw(st.integers(0, 6)),
                                              tail_period=draw(st.sampled_from([1, 2, 3]))))
        return sl.s_gap_shift(sl.SGapSpec(values))
    if family == "beta":
        if draw(st.booleans()):
            # a finite driving sequence: certified only to its own length
            pre = draw(st.sampled_from([(1, 0, 1), (1, 1, 0, 1), (2, 0, 1, 1), (1, 0, 0, 1, 0)]))
            return sl.beta_shift(sl.BetaSpec.from_sequence(pre, None))
        beta = draw(st.floats(1.1, 3.4))
        try:
            return sl.beta_shift(sl.BetaSpec.from_beta(beta, 12))
        except ExpansionUncertainError:
            assume(False)
    if family == "coded":
        k = draw(st.integers(2, 3))
        gens = draw(st.lists(_words(k, 3), min_size=1, max_size=3, unique=True))
        symbols = [str(i) for i in range(k)]
        return sl.coded_shift(sl.CodedSpec.from_strings(
            symbols, ["".join(symbols[i] for i in g) for g in gens]))
    mats = draw(st.lists(
        st.lists(st.lists(st.integers(0, 1), min_size=2, max_size=2), min_size=2, max_size=2),
        min_size=2, max_size=3))
    return sl.cocyclic_shift(sl.CocyclicSpec.from_lists(mats))


@st.composite
def potentials(draw, alphabet):
    k = alphabet.size
    if draw(st.booleans()):
        pattern = draw(_words(k, 3))
        return sl.Potential.indicator(alphabet, alphabet.text(pattern),
                                      draw(st.sampled_from([-1.5, 0.0, 0.25, 2.0])))
    r = draw(st.integers(1, 3))
    values = st.floats(-2.0, 2.0, allow_nan=False, width=32)
    table = {}
    for i in range(k ** r):
        w = tuple((i // k ** j) % k for j in reversed(range(r)))
        table[w] = draw(values)
    if draw(st.integers(0, 3)) == 0:
        # a partial table: some windows have no value
        for w in draw(st.lists(st.sampled_from(sorted(table)), max_size=3)):
            table.pop(w, None)
    return sl.Potential(r, table)


@st.composite
def instances(draw):
    try:
        oracle = draw(oracles())
    except EmptyLanguageError:
        assume(False)
    potential = draw(potentials(oracle.alphabet))
    k = oracle.alphabet.size
    drawn = draw(st.lists(
        st.lists(st.integers(-1, k), max_size=MAX_LEN + 3).map(tuple), max_size=20))
    return oracle, potential, drawn


@settings(max_examples=120, deadline=None)
@given(instances())
def test_memoised_phi_hat_matches_reference(instance):
    oracle, potential, drawn = instance
    n_max = min(MAX_LEN, oracle.enumeration_limit)
    admissible = [w for n in range(n_max + 1) for w in oracle.words(n)]
    for w in admissible + drawn:
        expect = _outcome(reference_phi_hat, potential, oracle, w)
        # the second call is answered from the memo, or raises again
        assert _outcome(core.phi_hat, potential, oracle, w) == expect, w
        assert _outcome(core.phi_hat, potential, oracle, w) == expect, w


def test_memo_is_per_potential(golden):
    # equal tables in two potentials, then a different table: each potential
    # gets its own values
    a = sl.Potential.from_strings(golden.alphabet, 1, {"0": 0.5, "1": -1.0})
    b = sl.Potential.from_strings(golden.alphabet, 1, {"0": 0.5, "1": -1.0})
    c = sl.Potential.from_strings(golden.alphabet, 1, {"0": 2.0, "1": 3.0})
    w = (0, 1, 0)
    assert core.phi_hat(a, golden, w) == core.phi_hat(b, golden, w) == 0.0
    assert core.phi_hat(c, golden, w) == 7.0
    assert core.phi_hat(a, golden, w) == 0.0


# -- one evaluation per word and run ----------------------------------------------------

def test_run_evaluates_each_word_once(monkeypatch, tmp_path):
    evaluated = collections.Counter()
    original = core._phi_hat

    def counting(potential, oracle, w):
        evaluated[(id(oracle), id(potential), w)] += 1
        return original(potential, oracle, w)

    monkeypatch.setattr(core, "_phi_hat", counting)
    cfg = {
        "shift": {"family": "sft", "alphabet": ["0", "1", "2"], "forbidden": ["22", "01"]},
        "potential": {"range": 2, "table": {
            "00": 0.3, "02": -0.2, "10": 0.7, "11": -0.4, "12": 0.1, "20": 0.9, "21": -0.6}},
        "analyses": [
            {"op": "pressure_estimate", "n_max": 8},
            {"op": "hyperbolicity", "n_max": 8},
            {"op": "cylinder_table", "word": "0", "n": 7},
            {"op": "avoid_symbol_rate", "symbol": "1", "depth": 8},
        ],
    }
    report = cli.run(cfg, tmp_path)
    assert [b["status"] for b in report["analyses"]] == ["ok"] * 4
    assert evaluated and max(evaluated.values()) == 1


# -- hyperbolicity in one pass -----------------------------------------------------------

@pytest.mark.parametrize("name", ["golden", "forbid111", "cycle5", "sgap12", "cocyclic_swap"])
@pytest.mark.parametrize("range_", [0, 1, 2])
def test_hyperbolicity_point_is_the_pressure_point(request, name, range_):
    oracle = request.getfixturevalue(name)
    if range_ == 0:
        pot = sl.Potential.zero(oracle.alphabet)
    else:
        pot = sl.Potential(range_, {w: 0.3 * math.cos(i) for i, w in
                                    enumerate(oracle.words(range_))})
    rep = sl.hyperbolicity_diagnostic(oracle, pot, 10)
    lang = sl.WordSet.language(oracle)
    assert rep.point_estimate.hex() == pressure_estimate(lang, pot, 10).point_estimate.hex()


def test_hyperbolicity_needs_n_max_4(golden):
    pot = sl.Potential.zero(golden.alphabet)
    with pytest.raises(ValueError, match="n_max must be >= 4"):
        sl.hyperbolicity_diagnostic(golden, pot, 3)
    cfg = {"shift": {"family": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]},
           "analyses": [{"op": "hyperbolicity", "n_max": 3}]}
    # validate declares the bound, so run never reaches the library
    assert [(d["level"], d["field"]) for d in cli.validate(cfg)] == [
        ("error", "analyses[0].n_max")]
    with pytest.raises(ConfigError):
        cli.run(cfg)
