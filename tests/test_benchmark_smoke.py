"""The benchmark harness's smoke mode, run as part of the test suite so that
the harness cannot silently stop working: one tiny enum_tables batch, every
report checked against the catalog's expected output, no timing asserts.
Every entry of the three smoke catalogs also runs in process through
``cli.run``, checked by the harness's own ``check_entry``, and so do the
cocyclic entries of the full enum_tables catalog, which no smoke catalog
holds, and its beta and ``periodic_measure`` entries, which the one beta
smoke config (no cylinder table, no periodic measure) leaves unexercised."""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from shiftlab import cli

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("enum_tables", "sync_search", "tower_dp")


_spec = importlib.util.spec_from_file_location("perfbench_check", ROOT / "perfbench" / "check.py")
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)


def _catalog(name):
    path = ROOT / "perfbench" / "catalog" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))["entries"]


def _smoke_entries():
    for workload in WORKLOADS:
        for entry in _catalog(f"{workload}.smoke"):
            yield pytest.param(entry, id=entry["id"])


def _cocyclic_entries():
    for entry in _catalog("enum_tables"):
        if entry["config"]["shift"]["family"] == "cocyclic":
            yield pytest.param(entry, id=entry["id"])


def _beta_and_periodic_entries():
    # the cocyclic ones among them run in _cocyclic_entries
    for entry in _catalog("enum_tables"):
        config = entry["config"]
        if config["shift"]["family"] != "cocyclic" and (
                config["shift"]["family"] == "beta"
                or any(a["op"] == "periodic_measure" for a in config["analyses"])):
            yield pytest.param(entry, id=entry["id"])


def test_every_catalog_config_validates_as_before():
    # stricter parsing must not reject benchmark traffic: no catalog config
    # has an error.  The 16 whose SFT prunes to nothing warn on shift; the 9
    # beta periodic measures, whose z has no period and which record a
    # DepthExceededError, warn on horizon; and sync_pipeline family_depth
    # and fraction_hi values past the guard warn, in configs whose pipeline
    # stops before it reaches them
    paths = sorted((ROOT / "perfbench" / "catalog").glob("*.json"))
    configs = [entry["config"] for path in paths
               for entry in json.loads(path.read_text(encoding="utf-8"))["entries"]]
    assert (len(paths), len(configs)) == (6, 450)
    diags = [d for config in configs for d in cli.validate(config)]
    assert {d["level"] for d in diags} == {"warning"}
    fields = Counter(d["field"].split(".")[-1] for d in diags)
    assert fields == {"shift": 16, "horizon": 9, "family_depth": 19, "fraction_hi": 16}
    guard = r"\d+ exceeds the depth guard \d+"
    messages = {"shift": r"EmptyLanguageError: .*", "family_depth": guard, "fraction_hi": guard,
                "horizon": r"period 1 reads words of length 25, past the certified depth 24 "
                           r"of beta\(.*\)"}
    for d in diags:
        assert re.fullmatch(messages[d["field"].split(".")[-1]], d["message"]), d


def test_benchmark_smoke_run_is_correct():
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "enum_tables", "--seed", "1",
         "--seconds", "1", "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=300)
    finally:
        proc.kill()
        proc.wait()
        # the harness names its result file after its own process id
        for path in (ROOT / "perfbench" / "results").glob(f"enum_tables-seed1-*-{proc.pid}.json"):
            path.unlink()
    assert proc.returncode == 0, stderr
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def _assert_matches(entry, out_dir):
    # as the harness reads it: report.json from disk, or the raised class;
    # run returns the report it wrote
    try:
        returned = cli.run(entry["config"], out_dir, threads=1)
    except Exception as exc:
        outcome = {"raises": type(exc).__name__}
    else:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert returned == report
        outcome = {"analyses": report["analyses"]}
    ok = check.check_entry(entry["expected"], outcome)
    assert ok and all(ok), ok


@pytest.mark.parametrize("entry", _smoke_entries())
def test_smoke_catalog_entry_matches_its_expected_output(entry, tmp_path):
    _assert_matches(entry, tmp_path)


@pytest.mark.parametrize("entry", _cocyclic_entries())
def test_cocyclic_catalog_entry_matches_its_expected_output(entry, tmp_path):
    _assert_matches(entry, tmp_path)


@pytest.mark.parametrize("entry", _beta_and_periodic_entries())
def test_beta_and_periodic_catalog_entry_matches_its_expected_output(entry, tmp_path):
    _assert_matches(entry, tmp_path)


_digest_spec = importlib.util.spec_from_file_location("report_digests",
                                                      ROOT / "scripts" / "report_digests.py")
report_digests = importlib.util.module_from_spec(_digest_spec)
_digest_spec.loader.exec_module(report_digests)


def test_report_digests_of_one_smoke_catalog(capsys):
    catalog = ROOT / "perfbench" / "catalog"
    before = {path.name: path.read_bytes() for path in catalog.iterdir()}
    assert report_digests.main(["tower_dp.smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # one report.json per config, and only that catalog's configs
    ids = [entry["id"] for entry in _catalog("tower_dp.smoke")]
    assert sorted(line.split("/")[0] for line in lines if "/report.json " in line) == sorted(ids)
    assert all(line.split("/")[0] in ids and len(line.split()[-1]) == 64 for line in lines)
    assert not any("timing.json" in line for line in lines)
    assert report_digests.main(["tower_dp.smoke"]) == 0
    assert capsys.readouterr().out.splitlines() == lines
    assert {path.name: path.read_bytes() for path in catalog.iterdir()} == before


def test_report_digests_rejects_an_unknown_catalog(capsys):
    assert report_digests.main(["tower_dp.smoke", "no_such_catalog"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no_such_catalog" in captured.err


_diff_spec = importlib.util.spec_from_file_location("report_diff", ROOT / "scripts" / "report_diff.py")
report_diff = importlib.util.module_from_spec(_diff_spec)
_diff_spec.loader.exec_module(report_diff)


def _dump(log_sum="0.69314718055994529", zero="0", word="01", status="ok"):
    return {"x.000": [{"op": "pressure_estimate", "status": status,
                       "result": {"rows": [{"log_sum": log_sum, "n": 3}], "sup": zero,
                                  "word": word}}],
            "x.001": {"raised": "ConfigError: config invalid"}}


def test_report_diff_prints_moved_floats_and_exits_zero(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_dump()))
    b.write_text(json.dumps(_dump(log_sum="0.69314718055994573", zero="1e-300")))
    assert report_diff.main([str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("x.000 [0].result.rows[0].log_sum 6.4")
    # "0" is how format17 writes 0.0: a float, since the other side has an exponent
    assert lines[1:] == ["x.000 [0].result.sup 1", "x.000 max 1", "1 configs differ"]
    assert report_diff.main([str(a), str(a)]) == 0
    assert capsys.readouterr().out == "0 configs differ\n"


@pytest.mark.parametrize("changed, line", [
    (_dump(word="10"), 'x.000 [0].result.word "01" -> "10"'),
    (_dump(status="error"), 'x.000 [0].status "ok" -> "error"'),
    ({"x.000": [], "x.001": _dump()["x.001"]}, "x.000 length 1 -> 0"),
    ({"x.000": _dump()["x.000"]}, "x.001 only in A"),
])
def test_report_diff_exits_one_when_another_value_moves(tmp_path, capsys, changed, line):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_dump()))
    b.write_text(json.dumps(changed))
    assert report_diff.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert line in out.splitlines() and out.endswith("a value other than a float moved\n")


def test_report_diff_dumps_one_smoke_catalog(tmp_path, capsys):
    path = tmp_path / "dump.json"
    assert report_diff.main(["--dump", str(path), "tower_dp.smoke"]) == 0
    dumped = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(dumped) == sorted(entry["id"] for entry in _catalog("tower_dp.smoke"))
    assert all(isinstance(v, list) and all("status" in a for a in v) or "raised" in v
               for v in dumped.values())
    assert report_diff.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out == "0 configs differ\n"
    assert report_diff.main(["--dump"]) == 2
