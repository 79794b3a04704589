from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from shiftlab import cli, errors
from shiftlab import tower as tower_module
from shiftlab.core import LanguageOracle
from shiftlab.errors import ConfigError, EmptyLanguageError, ShiftLabError

GOLDEN_CONFIG = {
    "shift": {"family": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]},
    "potential": "zero",
    "analyses": [
        {"op": "entropy_exact"},
        {"op": "pressure_estimate", "n_max": 30},
    ],
    "output": {"dir": "out"},
}

#: four 4x4 generators (a cyclic permutation, a swap, an elementary matrix
#: and a projection) whose product supports run to tens of thousands
CYCLIC_SWAP_ELEMENTARY_PROJECTION_4 = [
    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
]


# -- validate -------------------------------------------------------------------

def test_validate_missing_alphabet():
    cfg = {"shift": {"family": "sft"}, "analyses": [{"op": "entropy_exact"}]}
    diags = cli.validate(cfg)
    assert any(d["level"] == "error" and d["field"] == "shift.alphabet" for d in diags)


def test_validate_guard_warning():
    cfg = {
        "shift": {"family": "sft", "alphabet": ["0", "1"], "forbidden": []},
        "analyses": [{"op": "pressure_estimate", "n_max": 99}],
        "depth_guard": 40,
    }
    diags = cli.validate(cfg)
    assert any(d["level"] == "warning" and "99" in d["message"] for d in diags)


def test_validate_guard_is_the_oracle_limit():
    # without a depth_guard key the guard is the enumeration limit the run's
    # oracle gets: the shift's depth, else the family default (24 for binary)
    pot = {"range": 1, "table": {"0": 0.5, "1": -0.5}}
    shallow = {"family": "beta", "beta": 1.8, "depth": 10}
    cfg = {"shift": shallow, "potential": pot,
           "analyses": [{"op": "pressure_estimate", "n_max": 12}]}
    assert [(d["level"], d["field"]) for d in cli.validate(cfg)] == [
        ("warning", "analyses[0].n_max")]
    assert "depth guard 10" in cli.validate(cfg)[0]["message"]
    # the warning predicts the run's failure
    report = cli.run(cfg)
    assert report["analyses"][0]["error"].startswith("DepthExceededError")
    assert cli.validate(dict(cfg, analyses=[{"op": "pressure_estimate", "n_max": 10}])) == []

    beta = {"family": "beta", "beta": 1.8}
    cfg = {"shift": beta, "potential": pot, "analyses": [{"op": "hyperbolicity", "n_max": 30}]}
    diags = cli.validate(cfg)
    assert [d["level"] for d in diags] == ["warning"]
    assert "depth guard 24" in diags[0]["message"]
    # a finite layer lists no word for either, so neither is past its guard
    for shift in ({"family": "sft", "alphabet": ["0", "1"], "forbidden": ["11"], "depth": 10},
                  {"family": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]}):
        cfg = {"shift": shift, "potential": pot,
               "analyses": [{"op": "pressure_estimate", "n_max": 12},
                            {"op": "hyperbolicity", "n_max": 30}]}
        assert cli.validate(cfg) == []
        assert [b["status"] for b in cli.run(cfg)["analyses"]] == ["ok", "ok"]
    cfg = {"shift": {"family": "full", "k": 3}, "analyses": [{"op": "qft", "depth": 16}]}
    assert "depth guard 15" in cli.validate(cfg)[0]["message"]


@pytest.mark.parametrize("shift", [
    {"family": "full", "k": 2},
    {"family": "full", "k": 3},
    {"family": "full", "alphabet": "abcd"},
    {"family": "sft", "alphabet": ["0", "1", "2"], "forbidden": ["00"]},
    {"family": "sft", "alphabet": ["0", "1"], "forbidden": ["11"], "depth": 12},
    {"family": "cycle", "k": 5},
    {"family": "cycle", "k": 40},
    {"family": "beta", "beta": 1.8},
    {"family": "beta", "beta": 1.8, "depth": 14},
    {"family": "beta", "z_pre": [1, 0, 1]},
    {"family": "beta", "z_pre": [1], "z_period": [0, 1]},
    {"family": "s_gap", "values": [1, 2]},
    {"family": "coded", "alphabet": ["0", "1", "2"], "generators": ["01", "2"]},
    {"family": "cocyclic", "matrices": [[[1]], [[1]], [[1]]]},
    {"family": "cocyclic", "matrices": [[[1]], [[1]]], "symbols": ["a", "b"]},
])
def test_validate_guard_equals_built_oracle_limit(shift):
    cfg = {"shift": shift, "analyses": [{"op": "qft", "depth": 1000}]}
    limit = cli._checked(cfg, None)[1].enumeration_limit  # the oracle run builds
    assert [d["message"] for d in cli.validate(cfg)] == [f"1000 exceeds the depth guard {limit}"]


@pytest.mark.parametrize("shift, potential, field", [
    ({"family": "cycle", "k": 3}, "zero", "shift.k"),
    ({"family": "beta", "beta": 0.5}, "zero", "shift"),
    ({"family": "sft", "alphabet": ["0", "1"], "forbidden": ["2"]}, "zero", "shift"),
    ({"family": "coded", "alphabet": ["0", "1"], "generators": ["2"]}, "zero", "shift"),
    ({"family": "cocyclic", "matrices": [[[1, 2]]]}, "zero", "shift"),
    ({"family": "full", "k": 2}, {"indicator": "2"}, "potential.indicator"),
    ({"family": "full", "k": 2}, {"range": 1, "table": ["0"]}, "potential.table"),
])
def test_validate_rejects_what_run_cannot_build(shift, potential, field, tmp_path):
    # each passed validate and made run raise a non-ShiftLab error (exit 2)
    cfg = {"shift": shift, "potential": potential,
           "analyses": [{"op": "pressure_estimate", "n_max": 6}]}
    assert [(d["level"], d["field"]) for d in cli.validate(cfg)] == [("error", field)]
    with pytest.raises(ConfigError):
        cli.run(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["validate", str(cfg_path)]) == 1
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("shift", [
    # a non-integer entry, which int() truncated to a zero matrix
    {"family": "cocyclic", "matrices": [[[0.5]], [[1]]]},
    # more symbols than matrices: run recorded an internal IndexError
    {"family": "cocyclic", "matrices": [[[1]], [[1]]], "symbols": ["a", "b", "c"]},
    # fewer symbols than matrices, which dropped the second matrix
    {"family": "cocyclic", "matrices": [[[1]], [[0]]], "symbols": ["a"]},
    # a 0x0 matrix, which ran ok
    {"family": "cocyclic", "matrices": [[]]},
])
def test_validate_rejects_malformed_cocyclic_matrices(shift):
    cfg = {"shift": shift, "analyses": [{"op": "pressure_estimate", "n_max": 6}]}
    diags = cli.validate(cfg)
    assert [(d["level"], d["field"]) for d in diags] == [("error", "shift")]
    assert diags[0]["message"].startswith("ValueError: ")
    with pytest.raises(ConfigError):
        cli.run(cfg)


@pytest.mark.parametrize("shift, field", [
    ({"family": "beta", "beta": 1e5}, "shift.beta"),
    ({"family": "beta", "z_pre": [70, 0, 1]}, "shift.z_pre"),
    ({"family": "full", "k": 1000}, "shift.k"),
    ({"family": "cycle", "k": 100}, "shift.k"),
    ({"family": "sft", "alphabet": [str(i) for i in range(65)], "forbidden": ["0"]}, "shift.alphabet"),
    ({"family": "coded", "alphabet": [str(i) for i in range(65)], "generators": ["0"]},
     "shift.alphabet"),
])
def test_validate_rejects_an_alphabet_past_the_limit(shift, field):
    # constructors build per-symbol tables, so a huge alphabet (a beta of
    # 1e308) exhausts memory; these sizes stay small enough to build
    cfg = {"shift": shift, "analyses": [{"op": "pressure_estimate", "n_max": 6}]}
    assert cli.validate(cfg) == [{"level": "error", "field": field,
                                  "message": f"the alphabet has more than {cli.MAX_ALPHABET} symbols"}]
    with pytest.raises(ConfigError):
        cli.run(cfg)
    assert cli.validate(dict(cfg, shift={"family": "full", "k": cli.MAX_ALPHABET})) == []


@pytest.mark.parametrize("op", ["tower_loops", "spr"])
def test_validate_tower_n_max_is_not_guarded(op):
    # the loop DP enumerates no words, so a long table is no guard breach
    cfg = {"shift": {"family": "full", "k": 2},
           "analyses": [{"op": op, "irreducibles": ["0", "01"], "base": "0", "n_max": 80}]}
    assert cli.validate(cfg) == []


@pytest.mark.parametrize("shift", [
    {"family": "full", "k": "x"},
    {"family": "sft", "alphabet": 7},
    {"family": "cycle", "k": 5, "depth": "deep"},
    {"family": "beta", "z_pre": 3},
    {"family": "cocyclic", "matrices": 5},
])
def test_validate_guard_survives_malformed_shift(shift):
    cfg = {"shift": shift, "analyses": [{"op": "hyperbolicity", "n_max": 30}]}
    assert all(d["level"] in ("error", "warning") for d in cli.validate(cfg))


def test_validate_clean_config():
    assert cli.validate(GOLDEN_CONFIG) == []


def test_validate_unknown_op():
    cfg = dict(GOLDEN_CONFIG, analyses=[{"op": "nonsense"}])
    diags = cli.validate(cfg)
    assert any(d["field"].endswith(".op") for d in diags)


@pytest.mark.parametrize("guard", ["abc", "40", 4.5, None, True])
def test_validate_non_integer_depth_guard(guard, tmp_path):
    cfg = dict(GOLDEN_CONFIG, depth_guard=guard)
    diags = cli.validate(cfg)
    assert any(d["level"] == "error" and d["field"] == "depth_guard" for d in diags)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["validate", str(cfg_path)]) == 1
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("key, analysis", [
    ("n_max", {"op": "sync_gap", "word": "0"}),
    ("depth", {"op": "qft"}),
    ("horizon", {"op": "periodic_measure"}),
    ("cert_depth", {"op": "sync_gap", "word": "0"}),
], ids=["n_max", "depth", "horizon", "cert_depth"])
def test_validate_non_integer_analysis_depth(key, analysis):
    cfg = dict(GOLDEN_CONFIG, analyses=[{**analysis, key: "abc"}])
    diags = cli.validate(cfg)
    assert [d["field"] for d in diags if d["level"] == "error"] == [f"analyses[0].{key}"]
    with pytest.raises(ConfigError):
        cli.run(cfg)


@pytest.mark.parametrize("analysis, field", [
    ({"op": "sync_pipeline", "tau": "x"}, "tau"),
    ({"op": "sync_pipeline", "family_depth": "x"}, "family_depth"),
    ({"op": "sync_pipeline", "fraction_hi": "y"}, "fraction_hi"),
    ({"op": "cgc", "obstructions": "zero_runs", "depth": 4, "check_depth": "x"}, "check_depth"),
    ({"op": "cgc", "obstructions": "zero_runs", "depth": 4, "eps": "x"}, "eps"),
    ({"op": "spr", "irreducibles": ["0", "01"], "base": "0", "margin": "x"}, "margin"),
    ({"op": "sync_gap", "word": "0", "margin": "x"}, "margin"),
    # a numeric string, which float() used to accept
    ({"op": "sync_gap", "word": "0", "margin": "0.2"}, "margin"),
    ({"op": "istar", "obstructions": "zero_runs", "M_list": "ab", "depth": 4}, "M_list"),
    # an entry below 1, which the [I*] check raised on
    ({"op": "istar", "obstructions": "zero_runs", "M_list": [1, 0], "depth": 4}, "M_list"),
    # any nonempty string was truthy and ran the cross-check
    ({"op": "tower_loops", "irreducibles": ["0", "01"], "base": "0", "cross_check": "no"},
     "cross_check"),
    # a string ran as a list of one-symbol words
    ({"op": "ud_check", "irreducibles": "0110"}, "irreducibles"),
    ({"op": "persistence", "cminus": "00", "depth": 4}, "cminus"),
    # a list of symbols ran as a word and was echoed back as a list
    ({"op": "cylinder_table", "word": ["0", "1"], "n": 6}, "word"),
    # a negative length, which ran
    ({"op": "qft", "depth": -1}, "depth"),
])
def test_validate_rejects_malformed_analysis_fields(analysis, field):
    # each passed validate; run recorded an internal ValueError or misread it
    cfg = {"shift": {"family": "full", "k": 2}, "analyses": [analysis]}
    assert [(d["level"], d["field"]) for d in cli.validate(cfg)] == [
        ("error", f"analyses[0].{field}")]
    with pytest.raises(ConfigError):
        cli.run(cfg)


@pytest.mark.parametrize("analysis, field, least", [
    ({"op": "pressure_estimate"}, "n_max", 4),
    ({"op": "hyperbolicity"}, "n_max", 4),
    ({"op": "sync_gap", "word": "0"}, "n_max", 4),
    ({"op": "avoid_symbol_rate", "symbol": "0"}, "depth", 4),
    ({"op": "periodic_measure", "horizon": 4}, "depth", 1),
    ({"op": "cylinder_table", "word": "0"}, "n", 1),
    ({"op": "cgc", "obstructions": "zero_runs"}, "depth", 4),
])
def test_validate_rejects_lengths_below_the_library_minimum(analysis, field, least):
    # below its minimum each was recorded as an internal ValueError
    cfg = {"shift": {"family": "full", "k": 2}, "analyses": [{**analysis, field: least - 1}]}
    assert [(d["level"], d["field"]) for d in cli.validate(cfg)] == [
        ("error", f"analyses[0].{field}")]
    with pytest.raises(ConfigError):
        cli.run(cfg)
    # from 4 on each runs; a cylinder_table n of 1 to 3 still fails in the
    # table's pressure estimate (ROADMAP)
    cfg = dict(cfg, analyses=[{**analysis, field: max(least, 4)}])
    assert cli.validate(cfg) == []
    assert cli.run(cfg)["analyses"][0]["status"] == "ok"


@pytest.mark.parametrize("shift, potential, field", [
    # a string ran as a list of one-symbol words: "11" forbade the symbol 1
    # twice (entropy 0), and "011" ran as three one-symbol generators
    ({"family": "sft", "alphabet": ["0", "1"], "forbidden": "11"}, "zero", "shift.forbidden"),
    ({"family": "coded", "alphabet": ["0", "1"], "generators": "011"}, "zero", "shift.generators"),
    # a bool ran as an integer: the 1-symbol shift
    ({"family": "full", "k": True}, "zero", "shift.k"),
    # int() ran a period of 0 as 1 and truncated 2.5 and 1.5
    ({"family": "s_gap", "values": [1], "tail": {"start": 3, "period": 0}}, "zero", "shift.tail"),
    ({"family": "s_gap", "values": [1], "tail": {"start": 3, "period": 2.5}}, "zero", "shift.tail"),
    ({"family": "s_gap", "values": [1], "tail": {"start": 1.5, "period": 2}}, "zero", "shift.tail"),
    # a negative period built an unbounded layer inside validate
    ({"family": "s_gap", "values": [1], "tail": {"start": 3, "period": -1}}, "zero", "shift.tail"),
    # float() read a numeric string as a number, and int() truncated 1.7
    ({"family": "beta", "beta": "1.5"}, "zero", "shift.beta"),
    ({"family": "full", "k": 2}, {"indicator": "0", "scale": "2"}, "potential.scale"),
    ({"family": "full", "k": 2}, {"range": 1, "table": {"0": "0.5", "1": 0.1}}, "potential.table"),
    ({"family": "full", "k": 2}, {"range": 1.7, "table": {"0": 0.5, "1": 0.1}}, "potential.range"),
])
def test_validate_rejects_malformed_shift_and_potential_fields(shift, potential, field):
    # each passed validate, and run misread it (or, for the negative
    # period, exhausted memory)
    cfg = {"shift": shift, "potential": potential,
           "analyses": [{"op": "pressure_estimate", "n_max": 6}]}
    assert [(d["level"], d["field"]) for d in cli.validate(cfg)] == [("error", field)]
    with pytest.raises(ConfigError):
        cli.run(cfg)


@pytest.mark.parametrize("analysis, fields, fix", [
    ({"op": "periodic_measure", "horizon": 3, "depth": 4}, ["horizon"], {"horizon": 4}),
    ({"op": "cylinder_table", "word": "", "n": 6}, ["word"], {"word": "0"}),
    ({"op": "cylinder_table", "word": "01010", "n": 4}, ["word"], {"word": "0101"}),
    ({"op": "tower_loops", "irreducibles": ["0", "01"], "base": "1"}, ["base"], {"base": "0"}),
    ({"op": "spr", "irreducibles": ["0", "011"], "base": "011", "depth": 2}, ["base"], {"depth": 3}),
    # below the shortest irreducible no base is within depth either
    ({"op": "tower_loops", "irreducibles": ["01", "011"], "base": "01", "depth": 1},
     ["depth", "base"], {"depth": 2}),
])
def test_validate_rejects_values_that_break_a_bound_between_fields(analysis, fields, fix):
    # each passed validate, and run recorded an internal ValueError
    cfg = {"shift": {"family": "full", "k": 2}, "analyses": [analysis]}
    assert [(d["level"], d["field"]) for d in cli.validate(cfg)] == [
        ("error", f"analyses[0].{field}") for field in fields]
    with pytest.raises(ConfigError):
        cli.run(cfg)
    # at the bound each runs
    cfg = dict(cfg, analyses=[{**analysis, **fix}])
    assert cli.validate(cfg) == []
    assert cli.run(cfg)["analyses"][0]["status"] == "ok"


def test_validate_rejects_cgc_default_depth_below_four():
    # cgc's default depth, min(12, the enumeration limit), was 3 here, and
    # run recorded an internal ValueError from the pressure estimate
    cgc = {"op": "cgc", "obstructions": "zero_runs", "check_depth": 2}
    cfg = {"shift": {"family": "full", "k": 2, "depth": 3}, "analyses": [cgc]}
    assert [(d["level"], d["field"]) for d in cli.validate(cfg)] == [
        ("error", "analyses[0].depth")]
    with pytest.raises(ConfigError):
        cli.run(cfg)
    # at a limit of 4 the default runs
    cfg = {"shift": {"family": "full", "k": 2, "depth": 4}, "analyses": [cgc]}
    assert cli.validate(cfg) == []
    assert cli.run(cfg)["analyses"][0]["status"] == "ok"


def test_validate_rejects_marking_irreducibles_that_split():
    # "01" is "0" + "1", so the set is not the irreducible set of its star
    # closure, and run recorded an internal ValueError for it
    marking = {"op": "marking", "irreducibles": ["0", "1", "01"], "window": "0"}
    cfg = {"shift": {"family": "full", "k": 2}, "analyses": [marking]}
    assert [(d["level"], d["field"]) for d in cli.validate(cfg)] == [
        ("error", "analyses[0].irreducibles")]
    with pytest.raises(ConfigError):
        cli.run(cfg)
    # a split into words past depth is not one: those words are dropped
    for fields in ({"depth": 1}, {"irreducibles": ["0", "1", "001"], "depth": 2},
                   {"irreducibles": ["1", "01", "001"]}):
        cfg = {"shift": {"family": "full", "k": 2}, "analyses": [{**marking, **fields}]}
        assert cli.validate(cfg) == [], fields
        assert cli.run(cfg)["analyses"][0]["status"] == "ok", fields
    # a split into three words, one of them repeated
    cfg = {"shift": {"family": "full", "k": 2},
           "analyses": [{**marking, "irreducibles": ["00", "1", "00100"]}]}
    assert [d["field"] for d in cli.validate(cfg)] == ["analyses[0].irreducibles"]


def test_run_records_a_concatenation_outside_the_language_as_a_domain_error():
    # ROADMAP finding 1's example: the irreducibles 0 and 1 concatenate to
    # 11, which leaves the golden-mean language.  run recorded an internal
    # ValueError; that is a finding about the shift, a NotInLanguageError
    cfg = {"shift": {"family": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]},
           "analyses": [{"op": "marking", "irreducibles": ["0", "1"], "window": "0"}]}
    assert cli.validate(cfg) == []
    entry = cli.run(cfg)["analyses"][0]
    assert (entry["status"], entry["error"]) == (
        "error", "NotInLanguageError: concatenation (1, 1) leaves the language; not a free family")


@pytest.mark.parametrize("analysis", [
    {"op": "marking", "irreducibles": ["", "0", "1"], "window": "0"},
    {"op": "ud_check", "irreducibles": ["", "0"]},
    {"op": "tower_loops", "irreducibles": ["0", "", "01"], "base": "0"},
    {"op": "spr", "irreducibles": [""], "base": "0"},
])
def test_validate_rejects_an_empty_irreducible_word(analysis):
    # marking recorded an internal ValueError, and ud_check returned ok with
    # the parse ["", "0"]: the empty word is no codeword
    cfg = {"shift": {"family": "full", "k": 2}, "analyses": [analysis]}
    assert [(d["level"], d["field"]) for d in cli.validate(cfg)] == [
        ("error", "analyses[0].irreducibles")]
    with pytest.raises(ConfigError):
        cli.run(cfg)


@pytest.mark.parametrize("depth", ["deep", 12.5, None, True])
def test_validate_non_integer_shift_depth(depth, tmp_path):
    # run would raise ValueError from int() while building the oracle (exit 2)
    cfg = {"shift": {"family": "full", "k": 2, "depth": depth},
           "analyses": [{"op": "pressure_estimate", "n_max": 6}]}
    diags = cli.validate(cfg)
    assert [d["field"] for d in diags if d["level"] == "error"] == ["shift.depth"]
    with pytest.raises(ConfigError):
        cli.run(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("n", ["x", 6.0, None])
def test_validate_non_integer_cylinder_n(n):
    cfg = dict(GOLDEN_CONFIG, analyses=[{"op": "cylinder_table", "word": "0", "n": n}])
    diags = cli.validate(cfg)
    assert [d["field"] for d in diags if d["level"] == "error"] == ["analyses[0].n"]
    with pytest.raises(ConfigError):
        cli.run(cfg)


def test_validate_missing_cylinder_n():
    cfg = dict(GOLDEN_CONFIG, analyses=[{"op": "cylinder_table", "word": "0"}])
    assert [d["field"] for d in cli.validate(cfg) if d["level"] == "error"] == ["analyses[0].n"]


def test_validate_warns_cylinder_n_past_guard():
    # without a finite layer the table enumerates words of length n, so the
    # guard binds n even at zero potential
    cfg = {"shift": {"family": "beta", "beta": 1.8, "depth": 10},
           "analyses": [{"op": "cylinder_table", "word": "0", "n": 40}]}
    diags = cli.validate(cfg)
    assert [(d["level"], d["field"]) for d in diags] == [("warning", "analyses[0].n")]
    assert "depth guard 10" in diags[0]["message"]
    report = cli.run(cfg)
    assert report["analyses"][0]["error"].startswith("DepthExceededError")
    assert cli.validate(dict(cfg, analyses=[{"op": "cylinder_table", "word": "0", "n": 8}])) == []
    # on a finite layer the table lists no word, at any potential
    for pot in ("zero", {"range": 2, "table": {"00": 0.1, "01": -0.2, "10": 0.3, "11": 0.0}}):
        full = dict(cfg, shift={"family": "full", "k": 2}, potential=pot)
        assert cli.validate(full) == []
        assert [b["status"] for b in cli.run(full)["analyses"]] == ["ok"]
    # other ops read no n, so an n there is neither checked nor guarded
    assert cli.validate(dict(cfg, analyses=[{"op": "qft", "depth": 5, "n": "x"}])) == []


@pytest.mark.parametrize("analysis, field", [
    ({"op": "cylinder_table", "word": "07", "n": 6}, "word"),
    ({"op": "cylinder_table", "word": 5, "n": 6}, "word"),
    ({"op": "cylinder_table", "n": 6}, "word"),
    ({"op": "avoid_symbol_rate", "symbol": "7"}, "symbol"),
    ({"op": "avoid_symbol_rate"}, "symbol"),
    ({"op": "ud_check", "irreducibles": ["0", "17"]}, "irreducibles"),
    ({"op": "ud_check", "irreducibles": []}, "irreducibles"),
    ({"op": "tower_loops", "irreducibles": [], "base": "0"}, "irreducibles"),
    ({"op": "tower_loops", "irreducibles": ["0", "1"], "base": "7"}, "base"),
    ({"op": "tower_loops", "irreducibles": ["0", "1"]}, "base"),
    ({"op": "spr", "irreducibles": ["01", "1"], "base": "2"}, "base"),
    ({"op": "marking", "irreducibles": ["0", "1"], "window": "7"}, "window"),
    ({"op": "sync_pipeline", "seed": "7"}, "seed"),
    ({"op": "sync_gap", "word": "7"}, "word"),
    ({"op": "persistence", "cminus": ["7"]}, "cminus"),
    ({"op": "istar", "cplus": ["07"]}, "cplus"),
    ({"op": "cgc", "cminus": ["7"]}, "cminus"),
])
def test_validate_rejects_words_outside_the_alphabet(analysis, field):
    # run would record each as an internal KeyError, ValueError or TypeError
    cfg = {"shift": {"family": "full", "k": 2}, "analyses": [analysis]}
    assert [(d["level"], d["field"]) for d in cli.validate(cfg)] == [
        ("error", f"analyses[0].{field}")]
    with pytest.raises(ConfigError):
        cli.run(cfg)


def test_validate_reads_word_fields_only_where_run_does():
    # zero_runs and qft obstructions read no cminus/cplus; qft reads no word
    cfg = {"shift": {"family": "full", "k": 2}, "analyses": [
        {"op": "persistence", "obstructions": "zero_runs", "cminus": ["7"], "depth": 4},
        {"op": "qft", "depth": 4, "word": "7"},
        {"op": "sync_gap", "word": "01", "n_max": 6},
    ]}
    assert cli.validate(cfg) == []
    assert [b["status"] for b in cli.run(cfg)["analyses"]] == ["ok"] * 3


@pytest.mark.parametrize("family", [["sft"], {"name": "x"}, None])
def test_validate_rejects_an_unhashable_family(family):
    # a list raised TypeError (unhashable) from the family lookup
    cfg = {"shift": {"family": family, "k": 2}, "analyses": [{"op": "pressure_estimate"}]}
    assert [(d["level"], d["field"]) for d in cli.validate(cfg)] == [("error", "shift.family")]
    with pytest.raises(ConfigError):
        cli.run(cfg)


@pytest.mark.parametrize("op", [["x"], {"name": "x"}, ["pressure_estimate"]])
def test_validate_rejects_an_unhashable_op(op):
    # an op that is not a string cannot name an analysis; it must not raise
    cfg = {"shift": {"family": "full", "k": 2}, "analyses": [{"op": op, "n_max": 99}]}
    assert [(d["level"], d["field"]) for d in cli.validate(cfg)] == [("error", "analyses[0].op")]
    with pytest.raises(ConfigError):
        cli.run(cfg)


@pytest.mark.parametrize("op", ["persistence", "istar", "cgc"])
@pytest.mark.parametrize("shift, obstructions", [
    # cycle shifts have the symbols 1..k, so there is no run of 0s to read
    ({"family": "cycle", "k": 4}, "zero_runs"),
    ({"family": "full", "k": 2}, "bogus"),
    ({"family": "full", "k": 2}, ["qft"]),
    ({"family": "full", "k": 2}, None),
])
def test_validate_rejects_obstructions_that_run_cannot_build(shift, obstructions, op):
    cfg = {"shift": shift, "analyses": [{"op": op, "obstructions": obstructions, "depth": 4}]}
    assert [(d["level"], d["field"]) for d in cli.validate(cfg)] == [
        ("error", "analyses[0].obstructions")]
    with pytest.raises(ConfigError):
        cli.run(cfg)


def test_validate_reads_obstructions_only_where_run_does():
    # an op that builds no obstruction pair ignores the field, as run does
    cfg = {"shift": {"family": "cycle", "k": 4}, "analyses": [
        {"op": "pressure_estimate", "n_max": 6, "obstructions": "zero_runs"},
        {"op": "persistence", "obstructions": "qft", "depth": 4},
    ]}
    assert cli.validate(cfg) == []
    assert [b["status"] for b in cli.run(cfg)["analyses"]] == ["ok"] * 2


def test_run_rejects_invalid():
    with pytest.raises(ConfigError):
        cli.run({"shift": {"family": "sft"}, "analyses": []})


# -- run ------------------------------------------------------------------------

def test_run_golden_pressure(tmp_path):
    report = cli.run(GOLDEN_CONFIG, tmp_path)
    assert all(b["status"] == "ok" for b in report["analyses"])
    h = float(report["analyses"][0]["result"]["entropy"])
    point = float(report["analyses"][1]["result"]["point_estimate"])
    assert abs(point - h) < 1e-3
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "01_pressure_estimate.csv").exists()
    assert (tmp_path / "01_pressure_estimate.dat").exists()
    dat = (tmp_path / "01_pressure_estimate.dat").read_text().splitlines()
    assert len(dat) == 30 and all(len(line.split()) == 2 for line in dat)


def test_run_config_echo_roundtrip(tmp_path):
    report = cli.run(GOLDEN_CONFIG, tmp_path)
    assert report["config"] == json.loads(json.dumps(GOLDEN_CONFIG))


def test_run_records_analysis_errors(tmp_path):
    cfg = {
        "shift": {"family": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]},
        "analyses": [
            {"op": "cylinder_table", "word": "11", "n": 6},  # inadmissible word
            {"op": "entropy_exact"},
        ],
    }
    report = cli.run(cfg, tmp_path)
    assert report["analyses"][0]["status"] == "error"
    assert "NotInLanguage" in report["analyses"][0]["error"]
    assert report["analyses"][1]["status"] == "ok"  # later analyses still run


def test_run_memory_zero_sft(tmp_path):
    cfg = {
        "shift": {"family": "sft", "alphabet": ["0", "1", "2"], "forbidden": ["2"]},
        "analyses": [{"op": "entropy_exact"}, {"op": "pressure_estimate", "n_max": 6}],
    }
    report = cli.run(cfg, tmp_path)
    assert float(report["analyses"][0]["result"]["entropy"]) == pytest.approx(math.log(2))
    rows = report["analyses"][1]["result"]["rows"]
    assert [r["count"] for r in rows] == [2 ** n for n in range(1, 7)]


def test_run_reports_empty_memory_zero_sft(tmp_path):
    cfg = {
        "shift": {"family": "sft", "alphabet": ["0", "1"], "forbidden": ["0", "1"]},
        "analyses": [{"op": "entropy_exact"}],
    }
    # an unbuildable shift is a warning, so that run raises the domain error
    assert [(d["level"], d["field"]) for d in cli.validate(cfg)] == [("warning", "shift")]
    with pytest.raises(EmptyLanguageError):
        cli.run(cfg, tmp_path)
    cfg_path = tmp_path / "empty.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1


def test_run_frees_the_oracles_of_a_failed_build():
    # the build made an automaton oracle before it found the language empty
    # (as enum_tables.014, 056 and 105 do); once run's error is handled,
    # and once validate returns, reference counting alone must free it and
    # the error, so no cycle may hold the traceback, whose frames hold both
    cfg = {
        "shift": {"family": "sft", "alphabet": ["0", "1"], "forbidden": ["00", "1", "10"]},
        "analyses": [{"op": "periodic_measure", "horizon": 2, "depth": 2}],
    }

    def alive():
        return sum(isinstance(o, (LanguageOracle, EmptyLanguageError)) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = alive()
        try:
            cli.run(cfg)
        except EmptyLanguageError:
            pass
        else:
            pytest.fail("the build did not raise")
        cli.validate(cfg)
        after = alive()
    finally:
        gc.enable()
    assert after == before


@pytest.mark.parametrize("shift, entropy", [
    # odd gaps: sum of z**(s+1) over odd s is 1 at z**2 = 1/2
    ({"family": "s_gap", "values": [1, 3], "tail": {"start": 5, "period": 2}},
     0.34657359027997264),
    # the prefix code {0, 011}: -log of the real root of x**3 + x - 1
    ({"family": "coded", "alphabet": ["0", "1"], "generators": ["0", "011"]},
     0.3822450858400354),
    # invertible nonnegative matrices: no product is zero, so the full 2-shift
    ({"family": "cocyclic", "matrices": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]},
     0.6931471805599453),
])
def test_run_entropy_exact_on_finite_state_families(shift, entropy):
    cfg = {"shift": shift, "analyses": [{"op": "entropy_exact"}]}
    assert cli.validate(cfg) == []
    block = cli.run(cfg)["analyses"][0]
    assert block["status"] == "ok", block
    assert float(block["result"]["entropy"]) == pytest.approx(entropy, abs=1e-12)


@pytest.mark.parametrize("shift", [
    {"family": "beta", "beta": 1.8},
    # signed matrices keep the product predicate, and so does d >= 4
    {"family": "cocyclic", "matrices": [[[1, -1], [0, 0]], [[1, 0], [1, 0]]]},
    {"family": "cocyclic", "matrices": CYCLIC_SWAP_ELEMENTARY_PROJECTION_4},
])
def test_validate_rejects_entropy_exact_without_a_finite_layer(shift):
    cfg = {"shift": shift, "analyses": [{"op": "pressure_estimate"}, {"op": "entropy_exact"}]}
    diags = cli.validate(cfg)
    assert [(d["level"], d["field"]) for d in diags] == [("error", "analyses[1].op")]
    with pytest.raises(ConfigError):
        cli.run(cfg)


@pytest.mark.parametrize("shift", [
    {"family": "s_gap", "values": [1, 2]},
    {"family": "coded", "alphabet": ["0", "1"], "generators": ["0", "011"]},
])
def test_validate_counts_zero_potential_depths_on_finite_state_families(shift):
    # the layer's count DP reads no words, so these depths pass the guard
    cfg = {"shift": shift, "analyses": [{"op": "pressure_estimate", "n_max": 40},
                                        {"op": "avoid_symbol_rate", "symbol": "1", "depth": 40}]}
    assert cli.validate(cfg) == []
    blocks = cli.run(cfg)["analyses"]
    assert [b["status"] for b in blocks] == ["ok", "ok"]


def test_validate_counts_sync_gap_n_max_on_a_finite_layer():
    # both sides of [II] are path counts on the layer (the obstructions
    # avoid the word), so n_max passes the guard and the table reaches it
    shift = {"family": "sft", "alphabet": ["0", "1"], "forbidden": ["11"], "depth": 10}
    cfg = {"shift": shift,
           "analyses": [{"op": "sync_gap", "word": "0", "n_max": 30, "cert_depth": 4}]}
    assert cli.validate(cfg) == []
    block = cli.run(cfg)["analyses"][0]
    assert block["status"] == "ok"
    obstructions, language = block["result"]["obstructions"], block["result"]["language"]
    assert [r["n"] for r in obstructions["rows"]] == list(range(1, 31))
    # only 1 avoids 0, and 11 is forbidden
    assert [r["count"] for r in obstructions["rows"]] == [1] + [0] * 29
    assert language["rows"][-1]["count"] == 2178309  # Fibonacci F(32)


def test_validate_still_guards_sync_gap_n_max_on_a_beta_shift():
    # no finite layer: the obstructions are listed, so n_max warns past the
    # limit and the run raises at the first length past it
    cfg = {"shift": {"family": "beta", "beta": 1.8, "depth": 10},
           "analyses": [{"op": "sync_gap", "word": "00", "n_max": 12, "cert_depth": 2}]}
    assert [(d["level"], d["field"], d["message"]) for d in cli.validate(cfg)] == [
        ("warning", "analyses[0].n_max", "12 exceeds the depth guard 10")]
    assert cli.run(cfg)["analyses"][0]["error"] == (
        "DepthExceededError: length 11 exceeds word-set depth 10")


@pytest.mark.parametrize("analysis, field", [
    ({"op": "sync_pipeline", "cert_depth": 4, "family_depth": 9, "fraction_lo": 4,
      "fraction_hi": 8}, "family_depth"),
    # the fraction table counts paths, but keeps the oracle's depth check
    ({"op": "sync_pipeline", "cert_depth": 4, "family_depth": 8, "fraction_lo": 4,
      "fraction_hi": 9}, "fraction_hi"),
    ({"op": "cgc", "obstructions": "zero_runs", "depth": 6, "check_depth": 9}, "check_depth"),
])
def test_validate_guards_the_listed_pipeline_and_cgc_lengths(analysis, field):
    # each field lists words (or checks the depth) to its length, so past
    # the limit validate warns and the run raises
    cfg = {"shift": {"family": "sft", "alphabet": ["0", "1"], "forbidden": ["11"], "depth": 8},
           "analyses": [analysis]}
    assert [(d["level"], d["field"], d["message"]) for d in cli.validate(cfg)] == [
        ("warning", f"analyses[0].{field}", "9 exceeds the depth guard 8")]
    assert cli.run(cfg)["analyses"][0]["error"].startswith("DepthExceededError: length 9 exceeds")


def test_validate_guards_defaulted_lengths():
    # a default is guarded as a given value is: horizon 10 and persistence
    # depth 10 pass the limit 8 unless given, and family_depth 13 the limit
    # 10; each warns, and each raises at run
    cfg = {"shift": {"family": "full", "k": 2, "depth": 8},
           "analyses": [{"op": "periodic_measure"},
                        {"op": "persistence", "obstructions": "zero_runs"}]}
    assert [(d["level"], d["field"], d["message"]) for d in cli.validate(cfg)] == [
        ("warning", "analyses[0].horizon", "10 exceeds the depth guard 8"),
        ("warning", "analyses[1].depth", "10 exceeds the depth guard 8")]
    assert [b["error"] for b in cli.run(cfg)["analyses"]] == [
        "DepthExceededError: length 9 exceeds enumeration limit 8 of sft(full)",
        "DepthExceededError: length 9 exceeds word-set depth 8"]
    cfg = {"shift": {"family": "full", "k": 2, "depth": 10}, "analyses": [{"op": "sync_pipeline"}]}
    assert [(d["level"], d["field"], d["message"]) for d in cli.validate(cfg)] == [
        ("warning", "analyses[0].family_depth", "13 exceeds the depth guard 10")]
    assert cli.run(cfg)["analyses"][0]["error"].startswith("DepthExceededError: length 11 exceeds")


def test_validate_warns_on_a_beta_periodic_measure_past_the_certified_depth():
    # z of beta 1.8 has no period, so membership is certified to depth 10,
    # which is also the limit: period 1 reads 0^11 and the run raises
    cfg = {"shift": {"family": "beta", "beta": 1.8, "depth": 10},
           "analyses": [{"op": "periodic_measure", "horizon": 3}]}
    assert [(d["level"], d["field"], d["message"]) for d in cli.validate(cfg)] == [
        ("warning", "analyses[0].horizon",
         "period 1 reads words of length 11, past the certified depth 10 of beta(1.8)")]
    assert cli.run(cfg)["analyses"][0]["error"] == (
        "DepthExceededError: driving sequence certified only to depth 10")
    # an eventually periodic z is certified at every depth
    cfg["shift"] = {"family": "beta", "z_pre": [1], "z_period": [1, 0], "depth": 10}
    assert cli.validate(cfg) == []
    assert cli.run(cfg)["analyses"][0]["status"] == "ok"


def test_validate_counts_zero_potential_hyperbolicity():
    # at zero potential the diagnostic counts words, so its n_max passes the guard
    cfg = {"shift": {"family": "full", "k": 2, "depth": 12},
           "analyses": [{"op": "hyperbolicity", "n_max": 30}]}
    assert cli.validate(cfg) == []
    assert [b["status"] for b in cli.run(cfg)["analyses"]] == ["ok"]


@pytest.mark.parametrize("potential", ["zero", {"range": 1, "table": {"0": 0.3, "1": -0.2}}])
def test_tower_loops_and_spr_share_one_loop_table(potential, monkeypatch):
    # the same tower, n_max and cross-check build one table per run; another
    # n_max or no cross-check builds its own, and every block is as it is
    # when its analysis runs alone
    tower = {"irreducibles": ["0", "01", "011"], "base": "0", "n_max": 24}
    analyses = [{"op": "tower_loops", **tower}, {"op": "spr", **tower},
                {"op": "spr", **tower, "margin": 0.2}, {"op": "spr", **tower, "n_max": 20},
                {"op": "tower_loops", **tower, "cross_check": False}]
    cfg = {"shift": {"family": "full", "k": 2}, "potential": potential, "analyses": analyses}
    built = []
    loop_sums = tower_module.loop_sums  # the runners import tower on first use
    monkeypatch.setattr(tower_module, "loop_sums", lambda *a, **k: built.append(a[2]) or loop_sums(*a, **k))
    blocks = cli.run(cfg)["analyses"]
    assert built == [24, 20, 24]
    alone = [cli.run(dict(cfg, analyses=[a]))["analyses"][0] for a in analyses]
    assert [b["status"] for b in blocks] == ["ok"] * 5
    assert [b["result"] for b in blocks] == [b["result"] for b in alone]


def test_run_not_one_one_pipeline(tmp_path):
    cfg = {
        "shift": {"family": "sft", "alphabet": ["0", "1"], "forbidden": ["111"]},
        "analyses": [
            {"op": "entropy_exact"},
            {"op": "ud_check", "irreducibles": ["0", "01", "10"]},
            {"op": "marking", "irreducibles": ["0", "01", "10"], "window": "010010010010"},
            {"op": "tower_loops", "irreducibles": ["0", "01", "10"], "base": "0",
             "n_max": 20, "cross_check": False},
        ],
    }
    report = cli.run(cfg, tmp_path)
    blocks = {b["op"]: b["result"] for b in report["analyses"] if b["status"] == "ok"}
    assert blocks["ud_check"]["pass"] is False
    assert blocks["ud_check"]["witness"] == "010"
    assert blocks["marking"]["count"] >= 2
    z_rate = float(blocks["tower_loops"]["z_rate"])
    h = float(blocks["entropy_exact"]["entropy"])
    assert z_rate - h >= 0.05
    assert z_rate == pytest.approx(math.log(2), abs=1e-3)


def test_run_cycle_avoid_symbol(tmp_path):
    cfg = {
        "shift": {"family": "cycle", "k": 8},
        "analyses": [
            {"op": "entropy_exact"},
            {"op": "avoid_symbol_rate", "symbol": "1", "depth": 18},
        ],
    }
    report = cli.run(cfg, tmp_path)
    h = float(report["analyses"][0]["result"]["entropy"])
    assert h == pytest.approx(math.log(2), abs=1e-9)
    rate = float(report["analyses"][1]["result"]["point_estimate"])
    assert rate >= 0.5 * math.log(2) - 0.02


def test_run_deterministic_across_threads(tmp_path):
    d1 = tmp_path / "t1"
    d8 = tmp_path / "t8"
    cli.run(GOLDEN_CONFIG, d1, threads=1)
    cli.run(GOLDEN_CONFIG, d8, threads=8)
    for name in ("report.json", "01_pressure_estimate.csv", "01_pressure_estimate.dat"):
        assert (d1 / name).read_bytes() == (d8 / name).read_bytes()


# -- command line ----------------------------------------------------------------

def test_run_kitchen_sink_ops(tmp_path):
    cfg = {
        "shift": {"family": "s_gap", "values": [1, 2]},
        "analyses": [
            {"op": "pressure_estimate", "n_max": 12},
            {"op": "persistence", "obstructions": "zero_runs", "depth": 8},
            {"op": "istar", "obstructions": "zero_runs", "M_list": [1, 2], "depth": 8},
            {"op": "cgc", "obstructions": "zero_runs", "eps": 0.08, "depth": 8,
             "check_depth": 4},
            {"op": "qft", "depth": 5},
            {"op": "hyperbolicity", "n_max": 10},
            {"op": "periodic_measure", "horizon": 8, "depth": 1},
            {"op": "cylinder_table", "word": "1", "n": 8},
        ],
    }
    report = cli.run(cfg, tmp_path)
    status = {b["op"]: b["status"] for b in report["analyses"]}
    assert all(v == "ok" for v in status.values()), status
    blocks = {b["op"]: b["result"] for b in report["analyses"]}
    assert blocks["persistence"]["pass"] is True
    assert blocks["istar"]["pass"] is True
    assert blocks["cgc"]["spec_I"]["pass"] is True
    assert blocks["cgc"]["stay_good_III"]["pass"] is True
    assert (tmp_path / "06_periodic_measure.csv").exists()


def test_run_returns_the_report_it_writes(tmp_path):
    # istar's tau_of_M is keyed by M; run returned int keys while
    # report.json holds strings
    cfg = {"shift": {"family": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]},
           "analyses": [{"op": "istar", "obstructions": "zero_runs", "M_list": [1, 2],
                         "depth": 6}]}
    report = cli.run(cfg, tmp_path)
    assert report["analyses"][0]["status"] == "ok"
    assert report == json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report == cli.run(cfg)


def test_timing_lists_each_analysis_and_leaves_the_report_alone(tmp_path):
    # the digest of report.json is that of the run before timing.json held
    # per-analysis times; a failing analysis is timed too
    cfg = {"shift": {"family": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]},
           "analyses": [{"op": "entropy_exact"}, {"op": "qft", "depth": 4},
                        {"op": "sync_gap", "word": "11", "n_max": 6},
                        {"op": "sync_gap", "word": "1", "n_max": 6}]}
    report = cli.run(cfg, tmp_path)
    assert [b["status"] for b in report["analyses"]] == ["ok", "ok", "error", "ok"]
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == "2974acafd4143213830a175e473451abaaba5daa4ff8a37f7954d40f3d324936"
    timing = json.loads((tmp_path / "timing.json").read_text(encoding="utf-8"))
    assert sorted(timing) == ["analyses", "wall_seconds"]
    assert [(t["index"], t["op"]) for t in timing["analyses"]] == [
        (i, a["op"]) for i, a in enumerate(cfg["analyses"])]
    assert all(sorted(t) == ["index", "op", "wall_seconds"] for t in timing["analyses"])
    spent = [t["wall_seconds"] for t in timing["analyses"]]
    assert all(s >= 0.0 for s in spent) and sum(spent) <= timing["wall_seconds"]


def test_csv_headers_name_their_columns(tmp_path):
    # each table gets its own header instead of the pressure header
    cfg = {
        "shift": {"family": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]},
        "analyses": [
            {"op": "cylinder_table", "word": "0", "n": 6},
            {"op": "hyperbolicity", "n_max": 8},
            {"op": "sync_pipeline", "tau": 1, "seed": "0", "cert_depth": 6,
             "family_depth": 8, "fraction_lo": 6, "fraction_hi": 9},
        ],
    }
    report = cli.run(cfg, tmp_path)
    assert all(b["status"] == "ok" for b in report["analyses"])
    blocks = {b["op"]: b for b in report["analyses"]}

    def table(op):
        lines = (tmp_path / blocks[op]["csv"]).read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert all(len(row) == len(lines[0].split(",")) for row in rows)
        return lines[0], rows

    header, rows = table("cylinder_table")
    assert header == "i,count_or_log_sum,gibbs_ratio"
    assert rows == [[str(r["i"]), str(r["count"]), r["gibbs_ratio"]]
                    for r in blocks["cylinder_table"]["result"]["rows"]]
    header, rows = table("hyperbolicity")
    assert header == "n,sup_rate,rate,gap"
    assert rows == [[str(r["n"]), r["sup_rate"], r["rate"], r["gap"]]
                    for r in blocks["hyperbolicity"]["result"]["rows"]]
    header, rows = table("sync_pipeline")
    assert header == "n,obstructed,fraction,total"
    dat = (tmp_path / blocks["sync_pipeline"]["dat"]).read_text().split()
    assert [row[0] for row in rows] == dat[0::2] == ["6", "7", "8", "9"]
    assert [row[2] for row in rows] == dat[1::2]
    assert all(0 <= int(row[1]) <= int(row[3]) for row in rows)


def test_run_sync_gap_op(tmp_path):
    cfg = {
        "shift": {"family": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]},
        "analyses": [{"op": "sync_gap", "word": "0", "n_max": 12, "cert_depth": 6}],
    }
    report = cli.run(cfg, tmp_path)
    assert report["analyses"][0]["status"] == "ok"
    assert report["analyses"][0]["result"]["pass"] is True


def test_run_beta_and_cocyclic_families(tmp_path):
    cfg = {
        "shift": {"family": "beta", "beta": 1.6180339887498949, "depth": 18},
        "analyses": [{"op": "pressure_estimate", "n_max": 12}],
    }
    rep = cli.run(cfg, tmp_path / "b")
    assert rep["analyses"][0]["status"] == "ok"
    cfg2 = {
        "shift": {"family": "cocyclic",
                  "matrices": [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]]]},
        "analyses": [{"op": "pressure_estimate", "n_max": 10}],
    }
    rep2 = cli.run(cfg2, tmp_path / "c")
    assert rep2["analyses"][0]["status"] == "ok"


def test_main_run_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(GOLDEN_CONFIG))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "report.json").exists()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"shift": {"family": "sft"}, "analyses": []}))
    assert cli.main(["run", str(bad), "--out", str(out)]) == 1


def test_main_validate(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(GOLDEN_CONFIG))
    assert cli.main(["validate", str(cfg_path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_main_missing_file(tmp_path):
    assert cli.main(["validate", str(tmp_path / "absent.json")]) == 1


def test_floats_serialized_as_17_digit_strings(tmp_path):
    report = cli.run(GOLDEN_CONFIG, tmp_path)
    entry = report["analyses"][1]["result"]["rows"][0]["rate"]
    assert isinstance(entry, str)
    assert float(entry) == math.log(2)


# -- the field table ---------------------------------------------------------------

def _readme_table(header: str) -> dict[str, set]:
    """The README table under ``header``: its first column -> the fields
    its second column lists."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    assert header in lines, f"README has no table {header}"
    table: dict[str, set] = {}
    for line in itertools.takewhile(lambda s: s.startswith("|"), lines[lines.index(header) + 2:]):
        first, field = (cell.strip().strip("`") for cell in line.split("|")[1:3])
        table.setdefault(first, set()).update([] if field == "—" else [field])
    return table


def test_readme_field_table_matches_the_cli_table():
    assert _readme_table("| op | field | type | default | guard |") == {
        op: set(fields) for op, (fields, _) in cli._OPS.items()}


def test_readme_shift_table_matches_the_cli_table():
    assert _readme_table("| family | field | type | default | bound |") == {
        **{family: set(fields) for family, (fields, _) in cli._SHIFTS.items()},
        "potential": set(cli._POTENTIAL[0])}


#: small, catalog-like values that meet every cross-field bound together on
#: both fuzzed shifts: horizon >= depth, n >= |word|, base among the
#: irreducibles, irreducibles that are the irreducible set of a free family,
#: and a tower depth past the longest irreducible
VALID = {
    "n_max": [4, 6], "depth": [4, 5], "horizon": [5, 6], "n": [4, 5], "cert_depth": [3, 4],
    "word": ["0", "01"], "symbol": ["0", "1"], "seed": ["0", "1"], "window": ["0101", "0010"],
    "irreducibles": [["0", "01"], ["0", "10"]], "base": ["0"], "cross_check": [True, False],
    "margin": [0.05, 0.2], "eps": [0.05, 0.1], "tau": [1, 2], "family_depth": [5, 6],
    "fraction_lo": [3, 4], "fraction_hi": [4, 5], "obstructions": ["explicit", "zero_runs", "qft"],
    "cminus": [["00"], []], "cplus": [["10"], ["0"]], "M_list": [[1, 2], [2]],
    "check_depth": [2, 3],
}
WRONG = ["x", 0.5, True, [1], None]
FUZZ_SHIFTS = [{"family": "full", "k": 2, "depth": 10},
               {"family": "sft", "alphabet": ["0", "1"], "forbidden": ["11"], "depth": 10}]


@st.composite
def fuzzed_configs(draw):
    """One analysis per op, each declared field drawn from the valid pool,
    or, in a broken analysis, from the valid or the wrong-type pool.  No
    field is left out: several defaults are deep enough to take seconds."""
    analyses = []
    for op, (fields, _) in cli._OPS.items():
        broken = draw(st.booleans())
        analysis = {"op": op}
        for key in fields:
            pool = st.sampled_from(VALID[key])
            analysis[key] = draw(pool | st.sampled_from(WRONG) if broken else pool)
        analyses.append(analysis)
    return {"shift": draw(st.sampled_from(FUZZ_SHIFTS)), "analyses": analyses}


@settings(max_examples=50, deadline=None)
@given(fuzzed_configs())
def test_fuzz_validate_and_run(cfg):
    # validate never raises; an analysis it passes runs to ok or a domain error
    diags = cli.validate(cfg)
    bad = {int(m.group(1)) for d in diags if d["level"] == "error"
           for m in [re.match(r"analyses\[(\d+)\]", d["field"])] if m}
    assert all(d["field"].startswith("analyses[") for d in diags)
    clean = dict(cfg, analyses=[a for i, a in enumerate(cfg["analyses"]) if i not in bad])
    assert [d for d in cli.validate(clean) if d["level"] == "error"] == []
    for block in cli.run(clean)["analyses"]:
        if block["status"] == "error":
            cls = getattr(errors, block["error"].split(":")[0], None)
            assert isinstance(cls, type) and issubclass(cls, ShiftLabError), block


#: a field left out of its section
ABSENT = object()
#: the wrong-type pool, with negative numbers for the lengths and counts
WRONG_SHIFT = st.sampled_from(WRONG + [-1, -4])
#: small values of each shift and potential field.  Words and symbols are
#: binary, so on other alphabets a drawn value may still be rejected
SHIFT_POOLS = {
    "k": st.sampled_from([2, 4, 5]), "depth": st.sampled_from([6, 10]),
    "alphabet": st.sampled_from([["0", "1"], "012"]),
    "forbidden": st.sampled_from([["11"], ["00", "111"]]),
    "beta": st.sampled_from([1.5, 2.5]), "z_pre": st.sampled_from([[1, 0, 1], [2, 0]]),
    "z_period": st.sampled_from([[0, 1], []]), "values": st.sampled_from([[1, 2], [0, 3]]),
    # a tail's start and period are drawn the same way
    "tail": st.fixed_dictionaries({"start": st.sampled_from([2, 3]) | WRONG_SHIFT},
                                  optional={"period": st.sampled_from([1, 2]) | WRONG_SHIFT}),
    "generators": st.sampled_from([["0", "011"], ["01", "1"]]),
    "matrices": st.sampled_from([[[[1, 1], [0, 1]], [[1, 0], [1, 1]]], [[[1]], [[0]]]]),
    "symbols": st.sampled_from([["a", "b"], "01"]),
    "indicator": st.sampled_from(["0", "01"]), "scale": st.sampled_from([0.5, -1.0]),
    "range": st.sampled_from([1, 2]),
    "table": st.sampled_from([{"0": 0.5, "1": -0.2}, {"00": 0.1, "01": 0.0, "10": -0.3, "11": 0.2}]),
}


@st.composite
def fuzzed_shift_configs(draw):
    """A shift of a drawn family and a potential: each field their tables
    declare is left out or drawn from its valid pool, or, in a broken
    section, also from the wrong-type pool.  The analyses are valid and
    cheap."""
    def section(fields):
        wrong = WRONG_SHIFT if draw(st.booleans()) else st.nothing()
        drawn = {key: draw(st.just(ABSENT) | SHIFT_POOLS[key] | wrong) for key in fields}
        return {key: value for key, value in drawn.items() if value is not ABSENT}

    family = draw(st.sampled_from(sorted(cli._SHIFTS)))
    potential = "zero" if draw(st.booleans()) else section(cli._POTENTIAL[0])
    return {"shift": {"family": family, **section(cli._SHIFTS[family][0])},
            "potential": potential,
            "analyses": [{"op": "pressure_estimate", "n_max": 6},
                         {"op": "periodic_measure", "horizon": 4}]}


@settings(max_examples=100, deadline=None)
@given(fuzzed_shift_configs())
def test_fuzz_validate_and_run_shifts_and_potentials(cfg):
    # validate never raises and stays quick (a negative tail period built an
    # unbounded layer); the analyses are valid, so every error is on the
    # shift or the potential, and a config it passes runs to ok or a
    # domain error
    started = time.perf_counter()
    diags = cli.validate(cfg)
    assert time.perf_counter() - started < 5
    rejected = [d for d in diags if d["level"] == "error"]
    assert all(d["field"].split(".")[0] in ("shift", "potential") for d in rejected), rejected
    if rejected:
        with pytest.raises(ConfigError):
            cli.run(cfg)
        return
    try:
        blocks = cli.run(cfg)["analyses"]
    except ShiftLabError:  # a shift that cannot be built, such as an empty language
        return
    for block in blocks:
        if block["status"] == "error":
            cls = getattr(errors, block["error"].split(":")[0], None)
            assert isinstance(cls, type) and issubclass(cls, ShiftLabError), block


# -- the report writer ------------------------------------------------------------------

_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-10**20, 10**20)
                | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8))
_JSON_KEYS = st.integers(-50, 50) | st.text(max_size=4)
_JSON_VALUES = st.recursive(_JSON_LEAVES, lambda inner: (
    st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | st.dictionaries(st.integers(-50, 50), inner, max_size=4)
    | st.dictionaries(_JSON_KEYS | st.booleans() | st.none() | st.floats(), inner, max_size=3)),
    max_leaves=24)


def _json_outcome(write, value):
    try:
        return "text", write(value)
    except TypeError:
        return "raises", TypeError


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_json_text_writes_what_json_dumps_writes(value):
    # int and str keys, nested empty containers, bools, None, nan and
    # infinities and non-ASCII strings; keys that do not sort raise
    # TypeError on both sides
    assert _json_outcome(cli.json_text, value) == _json_outcome(
        lambda v: json.dumps(v, sort_keys=True, indent=2), value)


def test_json_text_rejects_what_json_dumps_rejects():
    for value in ({(1, 2): 0}, {1: object()}, [b"bytes"]):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            cli.json_text(value)
    assert cli.json_text(["ü\n", {}, []]) == '[\n  "\\u00fc\\n",\n  {},\n  []\n]'
