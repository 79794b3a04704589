"""Tests of the benchmark harness itself, on the smoke catalogs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_checks_outputs(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end" if trace == "0" else "per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench("--workload", "tower_dp", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_selection_depends_only_on_seed():
    a = workloads.select("enum_tables", 7)
    b = workloads.select("enum_tables", 7)
    c = workloads.select("enum_tables", 8)
    assert workloads.config_digest(a) == workloads.config_digest(b)
    assert workloads.config_digest(a) != workloads.config_digest(c)
    assert len({e["id"] for e in a}) == len(a) >= workloads.MIN_TAIL_SAMPLES / 2


def test_known_defects_stay_out_of_timed_batches():
    for workload in workloads.WORKLOADS:
        for seed in range(1, 21):
            assert not [e["id"] for e in workloads.select(workload, seed) if "known_defect" in e]
    defects = [e["id"] for e in workloads.load_catalog("sync_search") if "known_defect" in e]
    assert defects, "no sync_search entry records the memory-0 SFT defect"


def test_every_catalog_config_validates():
    from shiftlab import cli

    for workload in workloads.WORKLOADS:
        for smoke in (False, True):
            for entry in workloads.load_catalog(workload, smoke):
                assert not [d for d in cli.validate(entry["config"]) if d["level"] == "error"]


def test_check_float_tolerance_and_exact_fields():
    base = {"op": "pressure_estimate", "status": "ok",
            "result": {"point_estimate": "0.48121182505960319", "count": 3,
                       "witness": "010", "pass": True}}

    def variant(**changes):
        return {**base, "result": {**base["result"], **changes}}

    assert check.analysis_matches(base, variant(point_estimate="0.4812118250596032"))
    assert not check.analysis_matches(base, variant(point_estimate="0.48121183"))
    assert not check.analysis_matches(base, variant(count=4))
    assert not check.analysis_matches(base, variant(witness="10"))
    assert not check.analysis_matches(base, variant(**{"pass": False}))


def test_check_compares_error_class_and_raises():
    err = {"op": "qft", "status": "error", "error": "DepthExceededError: too deep"}
    assert check.analysis_matches(err, dict(err, error="DepthExceededError: other text"))
    assert not check.analysis_matches(err, dict(err, error="KeyError: 3"))
    expected = {"raises": "EmptyLanguageError", "n_analyses": 2}
    assert check.check_entry(expected, {"raises": "EmptyLanguageError"}) == [True, True]
    assert check.check_entry(expected, {"analyses": [err, err]}) == [False, False]


def test_swallowed_internal_error_fails_even_when_recorded():
    err = {"index": 0, "op": "cylinder_table", "status": "error",
           "error": "ValueError: n_max must be >= 4"}
    assert check.is_internal_error(err)
    assert not check.is_internal_error(dict(err, error="DepthExceededError: too deep"))
    assert not check.analysis_matches(err, err)
    assert check.check_entry({"analyses": [err]}, {"analyses": [err]}) == [False]


def test_catalog_records_internal_error_as_known_defect():
    import build_catalog

    config = {"shift": {"family": "full", "k": 2}, "potential": "zero",
              "analyses": [{"op": "cylinder_table", "word": "0", "n": 3},
                           {"op": "entropy_exact"}]}
    entry = build_catalog.record(config)
    assert entry["known_defect"]["analyses"] == [0]
    assert entry["known_defect"]["why"] == build_catalog.INTERNAL_DEFECT
    assert entry["expected"]["analyses"][0]["status"] == "unrecorded"
    assert entry["expected"]["analyses"][1]["status"] == "ok"


def test_reference_work_leaves_the_collector_as_it_was():
    import gc

    from worker import reference_work

    assert gc.isenabled()
    assert reference_work() > 0
    assert gc.isenabled()


def test_tail_quantile_leaves_ten_beyond():
    samples = [float(i) for i in range(100)]
    q = run.tail_quantile(samples)
    assert sum(s > q for s in samples) == 10


def test_tracer_counts_and_restores():
    from shiftlab import cli, thermo
    from shiftlab.core import LanguageOracle
    from tracer import Tracer

    original = (LanguageOracle.contains, thermo.pressure_estimate, cli.pressure_estimate)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.config_id = "golden"
        cli.run({"shift": {"family": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]},
                 "potential": {"range": 2, "table": {"00": 0.1, "01": 0.2, "10": 0.3, "11": 0.4}},
                 "analyses": [{"op": "pressure_estimate", "n_max": 6}]})
    finally:
        tracer.uninstall()
    assert (LanguageOracle.contains, thermo.pressure_estimate, cli.pressure_estimate) == original
    totals = tracer.totals()
    assert totals["core.contains"][0] > 0
    assert totals["thermo.pressure_estimate"][0] == 1
    assert totals["core.phi_hat"][0] == sum(
        calls for (cfg, fn, parent), (calls, _, _) in tracer.aggregates.items()
        if fn == "core.phi_hat" and parent == "thermo.log_partition_sum")
    assert {s[3] for s in tracer.spans} >= {"cli.run", "thermo.pressure_estimate"}
    assert all(s[2] == "golden" for s in tracer.spans)
    assert tracer.notes["core.words.materialised"] > 0
