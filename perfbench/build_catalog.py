"""Builds the committed workload catalogs and their expected outputs.

    PYTHONPATH=src python3 perfbench/build_catalog.py [workload ...]

For each workload it draws candidate configs from bounded parameter ranges
(``workloads.DRAW``, fixed catalog seed), fits each analysis's depth knob to
the per-analysis cost target by timing ``cli.run`` on this machine, runs the
finished config, and records its expected output and its calibrated time.
Run it only when the workloads themselves change: a catalog is the
benchmark's input set, and the expected outputs in it are the truth the
benchmark checks against.

A calibrated time is the median over ``CALIB_REPEATS`` runs of the run's
wall time scaled like the benchmark's timings, by the reference work timed
before and after it, so that the host's speed drift does not sort configs
into the wrong strata.

Expected outputs are the program's reports at the commit that built the
catalog, except where ROADMAP lists a defect of that program:

* Memory-0 SFTs (every forbidden word has length 1).  Their count hook and
  exact entropy describe the full shift.  The expected report comes from the
  same language with one redundant length-2 forbidden word added, after its
  counts were checked against enumerating the original oracle's words; a
  language with no symbol left is expected to raise EmptyLanguageError.
* Internal errors: an analysis entry whose error is not a ShiftLabError is a
  bug that ``cli.run`` swallowed into ``status: "error"``.  Its expected
  entry is ``status: "unrecorded"``, which no report matches, until a
  rebuild of the catalog records the fixed program's output.

Where the recorded program differs from the expected output, the entry lists
the analyses under ``known_defect``.  ``workloads.select`` leaves such
entries out of timed batches, so that no timed analysis fails; in a smoke
run the failure shows in ``failed_ratio`` without making the run incorrect.
"""

from __future__ import annotations

import copy
import json
import math
import random
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

from check import check_entry, is_internal_error
from run import REFERENCE_NOMINAL_S
from worker import reference_work
from workloads import CATALOG_DIR, DRAW, WORKLOADS, canonical, materialise

from shiftlab import cli
from shiftlab import errors as sl_errors
from shiftlab.models import SftSpec, sft_from_forbidden

CANDIDATES = 144
SMOKE_CANDIDATES = 6
#: seconds one analysis should take, so that a batch of 76 configs takes a
#: few seconds
TARGET_S = 0.035
KNOB_CAP = 24
TRY_TIMEOUT_S = 5.0
#: a config slower than this stays in the catalog, with its expected output,
#: but out of timed runs: one such config would outweigh a whole batch
TIMED_CEILING_S = 1.0
CALIB_REPEATS = 5
MEMORY0_DEFECT = "memory-0 SFT: count hook and exact entropy describe the full shift (ROADMAP Defects)"
INTERNAL_DEFECT = "internal error swallowed into status error (ROADMAP Defects)"


class _TryTimeout(BaseException):
    """Raised by the alarm; a BaseException so cli.run's per-analysis
    ``except Exception`` does not swallow it."""


def _alarm(signum, frame):
    raise _TryTimeout


def _timed(config: dict, out_dir: str | None = None,
           timeout: float = TRY_TIMEOUT_S) -> tuple[float, dict | None]:
    signal.setitimer(signal.ITIMER_REAL, timeout)
    t0 = time.perf_counter()
    try:
        report = cli.run(config, out_dir, threads=1)
    except sl_errors.ShiftLabError:
        report = None
    except _TryTimeout:
        return math.inf, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - t0, report


def fit_knob(shift: dict, potential, analysis: dict, target: float) -> int | None:
    """The knob value whose single-analysis run time is closest to target
    (in log), scanning upward from the analysis's lower limit."""
    if "knob" not in analysis:
        return None
    lo, hi = analysis["lo"], analysis.get("hi", KNOB_CAP)
    best, best_err = lo, math.inf
    for value in range(lo, hi + 1):
        cfg = {"shift": shift, "potential": potential, "analyses": [materialise(analysis, value)]}
        t, report = _timed(cfg)
        if 0.5 * target <= t < math.inf:
            t = min(t, _timed(cfg)[0])
        if report is None and t != math.inf:
            return lo  # the oracle itself cannot be built; the knob is moot
        entry = report["analyses"][0] if report else None
        if entry and entry["status"] == "error" and "DepthExceeded" in entry["error"]:
            break
        err = abs(math.log(max(t, 1e-6) / target))
        if err < best_err:
            best, best_err = value, err
        if t >= target:
            break
    return best


def _run_report(config: dict) -> dict:
    """The report.json content of one run, or {"raises": class} when run raises."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            cli.run(config, tmp, threads=1)
        except sl_errors.ShiftLabError as exc:
            return {"raises": type(exc).__name__, "n_analyses": len(config["analyses"])}
        report = json.loads((Path(tmp) / "report.json").read_text(encoding="utf-8"))
    return {"analyses": report["analyses"]}


def _is_memory0_sft(shift: dict) -> bool:
    return (shift["family"] == "sft" and bool(shift.get("forbidden"))
            and all(len(f) == 1 for f in shift["forbidden"]))


def _memory0_expected(config: dict) -> dict:
    shift = config["shift"]
    allowed = [s for s in shift["alphabet"] if s not in shift["forbidden"]]
    if not allowed:
        return {"raises": "EmptyLanguageError", "n_analyses": len(config["analyses"])}
    doubled = shift["forbidden"][0] * 2
    fixed = copy.deepcopy(config)
    fixed["shift"]["forbidden"] = sorted(shift["forbidden"] + [doubled])
    original = sft_from_forbidden(SftSpec.from_strings(shift["alphabet"], shift["forbidden"]))
    equivalent = sft_from_forbidden(SftSpec.from_strings(shift["alphabet"], fixed["shift"]["forbidden"]))
    for n in range(0, 11):
        words = original.words(n)
        if equivalent.count(n) != len(words) or equivalent.words(n) != words:
            raise AssertionError(f"equivalent SFT differs from {shift} at length {n}")
    expected = _run_report(fixed)
    text = canonical(expected).replace(
        f"sft({','.join(fixed['shift']['forbidden'])})", f"sft({','.join(shift['forbidden'])})")
    return json.loads(text)


def calibrate(config: dict) -> dict:
    """calib_s and timed fields of a catalog entry."""
    times = []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(CALIB_REPEATS):
            before = reference_work()
            t = _timed(config, tmp, timeout=0)[0]
            times.append(t * REFERENCE_NOMINAL_S * 2 / (before + reference_work()))
    seconds = statistics.median(times)
    return {"calib_s": round(seconds, 4), "timed": seconds <= TIMED_CEILING_S}


def record(config: dict) -> dict:
    """Catalog entry fields for a finished config: expected output, what the
    recorded program produced where that differs, and its calibrated time."""
    observed = _run_report(config)
    out = {"config": config, **calibrate(config)}
    defects: dict[int, str] = {}
    if _is_memory0_sft(config["shift"]):
        expected = _memory0_expected(config)
        if canonical(expected) != canonical(observed):
            defects.update((i, MEMORY0_DEFECT)
                           for i, ok in enumerate(check_entry(expected, observed)) if not ok)
    else:
        expected = copy.deepcopy(observed)
    for i, entry in enumerate(expected.get("analyses", [])):
        if is_internal_error(entry):
            expected["analyses"][i] = {"index": entry["index"], "op": entry["op"],
                                       "status": "unrecorded"}
            defects[i] = INTERNAL_DEFECT
    if defects:
        out["known_defect"] = {"analyses": sorted(defects),
                               "why": "; ".join(sorted(set(defects.values())))}
    out["expected"] = expected
    return out


def build(workload: str) -> None:
    rng = random.Random(f"shiftlab-bench-catalog:{workload}")
    entries, smoke = [], []
    for index in range(CANDIDATES):
        cand = DRAW[workload](rng, index)
        if index < SMOKE_CANDIDATES:
            tiny = dict(cand, analyses=[materialise(a, a.get("lo")) for a in cand["analyses"]])
            smoke.append(dict(record(tiny), id=f"{workload}.smoke.{index:03d}"))
        analyses = [materialise(a, fit_knob(cand["shift"], cand["potential"], a, TARGET_S))
                    for a in cand["analyses"]]
        config = {"shift": cand["shift"], "potential": cand["potential"], "analyses": analyses}
        entry = dict(record(config), id=f"{workload}.{index:03d}")
        entries.append(entry)
        print(f"{entry['id']} {entry['calib_s']:.3f}s {canonical(config)[:110]}", flush=True)
    _write(workload, workload, entries)
    _write(workload, f"{workload}.smoke", smoke)


def _write(workload: str, name: str, entries: list[dict]) -> None:
    # one entry per line keeps the file small and its diffs readable
    lines = ",\n".join(canonical(e) for e in entries)
    (CATALOG_DIR / f"{name}.json").write_text(
        f'{{"target_s_per_analysis": {TARGET_S}, "workload": "{workload}", '
        f'"entries": [\n{lines}\n]}}\n', encoding="utf-8")


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGALRM, _alarm)
    CATALOG_DIR.mkdir(exist_ok=True)
    for workload in argv or WORKLOADS:
        build(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
