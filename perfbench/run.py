"""Benchmark of ``shiftlab run`` on three seeded workloads.

    python3 perfbench/run.py --workload enum_tables --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload sync_search --seed 1 --seconds 5 --smoke

Run from the repository root; the package is imported from ``src/``.  The
seed picks a batch of configs from the workload's catalog (see
``workloads.py``).  One client runs them closed-loop in a fresh
single-threaded process (``worker.py``), batch after batch, for ``--seconds``;
the first batch only warms up and is not timed.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
``SETUP_PROCESSES`` fresh processes), ``batch_s`` (time per timed batch,
report files included: the throughput metric), ``config_s.p50`` and
``config_s.p90`` (per-config time over every config run; a run has at least
100 of them, so ten or more lie beyond the p90) and ``peak_rss_mb`` (the
worker's ``ru_maxrss``).
``--trace 1`` runs the warm-up batch, one untraced batch and then traced
batches, and prints the per-layer metrics of ``tracer.py``, per traced
batch, plus the tracing overhead.

End-to-end timings are scaled to the host's current speed: each is reported
as measured x ``REFERENCE_NOMINAL_S`` / the time of ``worker.reference_work``
taken alongside it (see README.md).  The wall times are printed next to them,
and the median reference time is printed and stored, so that a run whose
wall/scaled ratio moved away from its parent's shows a skewed reference.

Every report is checked against the catalog's expected output outside the
timed region.  ``attempted`` and ``failed`` count analyses; ``failed_ratio``
is their quotient.  Timed batches hold no config that hits a known defect of
the recorded program, so ``failed`` is 0 there; smoke runs may pick one.
``correct`` is false when any analysis fails that the catalog does not list
as a known defect, or when a batch (traced or not) writes report.json bytes
that differ from the first batch's.  The last line of standard output is the JSON result; a copy with
provenance goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from check import check_entry, domain_errors, error_class  # noqa: E402

SETUP_PROCESSES = 11
#: the reference work's time on a quiet host; timings are reported as
#: measured time x REFERENCE_NOMINAL_S / reference time measured alongside
REFERENCE_NOMINAL_S = 0.005
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30

END_TO_END_UNITS = {"setup_s": "s", "batch_s": "s", "config_s.p50": "s",
                    "config_s.p90": "s", "peak_rss_mb": "MB"}

_SELF_S = [
    "models.sft_entropy_exact", "thermo.log_partition_sum", "thermo.pressure_estimate",
    "thermo.hyperbolicity_diagnostic", "thermo.cylinder_count_table", "thermo.periodic_points",
    "decomp.check_spec_I", "decomp.check_stay_good_III", "decomp.check_complete_list_Istar",
    "decomp.cgc_construct", "decomp.pressure_gap_II", "decomp.qft_constraints",
    "decomp.sync_decomposition", "decomp.check_persistence", "tower.find_sync_triple",
    "tower.ensure_no_long_overlaps", "tower.build_free_family", "tower.obstruction_fraction_table",
    "tower.free_family_from_irreducibles", "tower.is_uniquely_decipherable", "tower.loop_sums",
    "tower.spr_diagnostic", "tower.marking_analysis", "cli.run",
]
_CALLS = ["thermo.log_partition_sum", "tower.verify_sync_triple", "tower.overlap_violations",
          "tower.loop_sums"]


def per_layer_metrics(trace: dict, domain_count: int, internal_count: int,
                      overhead_s: float) -> dict[str, tuple[float, str]]:
    fns = trace["functions"]
    notes = trace["notes"]

    def calls(fn):
        return fns.get(fn, [0, 0, 0])[0]

    def own(fn):
        return fns.get(fn, [0, 0, 0])[2]

    words_calls = calls("core.words")
    out: dict[str, tuple[float, str]] = {}
    for fn in ("core.contains", "core.wordset_contains", "core.words", "core.phi_hat"):
        out[f"{fn}.calls"] = (calls(fn), "count")
        out[f"{fn}.self_s"] = (own(fn), "s")
    out["core.contains.true_ratio"] = (
        notes["core.contains.true"] / calls("core.contains") if calls("core.contains") else 0.0, "ratio")
    out["core.words.materialised"] = (notes["core.words.materialised"], "count")
    out["core.words.cache_hit_ratio"] = (
        notes["core.words.hits"] / words_calls if words_calls else 0.0, "ratio")
    out["models.build_s"] = (trace["models.build_s"], "s")
    for fn in _SELF_S:
        out[f"{fn}.self_s"] = (own(fn), "s")
    for fn in _CALLS:
        out[f"{fn}.calls"] = (calls(fn), "count")
    out["cli.analyses.domain_errors"] = (domain_count, "count")
    out["cli.analyses.internal_errors"] = (internal_count, "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def predicted_split(trace: dict) -> dict[str, float]:
    """Shares of traced self time that the workload predictions name."""
    fns = trace["functions"]
    total = sum(rec[2] for rec in fns.values()) or 1.0

    def share(names):
        return sum(fns.get(n, [0, 0, 0])[2] for n in names) / total

    thermo = [n for n in fns if n.startswith("thermo.")]
    return {
        "core.contains+core.wordset_contains": share(["core.contains", "core.wordset_contains"]),
        "core.words+core.phi_hat+thermo": share(["core.words", "core.phi_hat"] + thermo),
        "tower.loop_sums": share(["tower.loop_sums"]),
        "core.contains": share(["core.contains"]),
    }


def tail_quantile(samples: list[float], q: float = 0.9) -> float:
    """The sample at rank ceil(q*N): N - ceil(q*N) samples lie beyond it."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def provenance(args, digest: str) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = got.stdout.strip() if got.returncode == 0 else None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "shiftlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha, "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "mpmath": version("mpmath"), "nproc": os.cpu_count(),
        "workload": args.workload, "seed": args.seed, "config_digest": digest,
        "threads": 1, "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
    }


def _spawn(args, work: Path, tag: str, extra: list[str], timeout: float) -> dict:
    result = work / f"{tag}.json"
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work-dir", str(work / "out"), "--result", str(result), *extra]
    if args.smoke:
        cmd.append("--smoke")
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def check_outputs(entries: list[dict], out_dir: Path, raised: dict) -> dict:
    """Per-batch check of every report against the catalog."""
    failed, unexpected, failures = 0, [], []
    error_classes: list[str] = []
    attempted = 0
    for i, entry in enumerate(entries):
        if str(i) in raised:
            outcome = {"raises": raised[str(i)]}
        else:
            report = json.loads((out_dir / f"{i:02d}" / "report.json").read_text(encoding="utf-8"))
            outcome = {"analyses": report["analyses"]}
            error_classes += [error_class(a["error"]) for a in report["analyses"]
                              if a["status"] == "error"]
        ok = check_entry(entry["expected"], outcome)
        attempted += len(ok)
        known = set(entry.get("known_defect", {}).get("analyses", []))
        for j, good in enumerate(ok):
            if not good:
                failed += 1
                failures.append(f"{entry['id']}[{j}]")
                if j not in known:
                    unexpected.append(f"{entry['id']}[{j}]")
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "unexpected": unexpected, "error_classes": error_classes}


def _classify(error_classes: list[str]) -> tuple[int, int]:
    domain = sum(1 for c in error_classes if c in domain_errors())
    return domain, len(error_classes) - domain


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny configs from the smoke catalog; same checks, no sample floor")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "shiftlab" / "__init__.py").exists():
        print(f"error: no shiftlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    entries = workloads.select(args.workload, args.seed, args.smoke)
    digest = workloads.config_digest(entries)
    results = HERE / "results"
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    work = results / f"work-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    # one untimed warm-up batch, then enough batches for the p90's sample floor
    min_batches = 2 if args.smoke else 1 + math.ceil(workloads.MIN_TAIL_SAMPLES / len(entries))
    try:
        if args.trace:
            main_run = _spawn(args, work, "main", ["--trace", "--min-batches", "3"],
                              WORKER_TIMEOUT_S)
            setups = []
        else:
            probes = [_spawn(args, work, f"setup{i}", ["--setup-only"], SETUP_TIMEOUT_S)
                      for i in range(SETUP_PROCESSES - 1)]
            main_run = _spawn(args, work, "main", ["--min-batches", str(min_batches)],
                              WORKER_TIMEOUT_S)
            setups = [(p["setup_s"], p["setup_ref_s"]) for p in probes + [main_run]]
        outcome = check_outputs(entries, work / "out", main_run["raised"])
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        trace_file = work / "main.trace.json"
        if trace_file.exists():
            trace_file.replace(results / f"{stem}.trace.json")
        shutil.rmtree(work, ignore_errors=True)

    batches = main_run["batches"]
    correct = (main_run["deterministic"] and main_run["config_digest"] == digest
               and not outcome["unexpected"])
    attempted = outcome["attempted"] * batches
    failed = outcome["failed"] * batches
    samples = [t for per in main_run["config_s"] for t in per]
    scaled = [[t * REFERENCE_NOMINAL_S / r for t, r in zip(per, refs)]
              for per, refs in zip(main_run["config_s"], main_run["config_ref_s"])]
    scaled_samples = [t for per in scaled for t in per]
    # wall / scaled = reference / nominal: compare it with the parent's run to
    # see whether a change skewed the reference rather than the host
    reference_s = statistics.median(r for refs in main_run["config_ref_s"] for r in refs)
    if args.trace:
        domain, internal = _classify(outcome["error_classes"])
        overhead = statistics.median(main_run["traced_batch_s"]) - statistics.median(main_run["batch_s"])
        named = per_layer_metrics(main_run["trace"], domain, internal, overhead)
        split = predicted_split(main_run["trace"])
        wall = {}
    else:
        values = {
            "setup_s": statistics.median(s * REFERENCE_NOMINAL_S / r for s, r in setups),
            "batch_s": sum(map(sum, scaled)) / len(main_run["batch_s"]),
            "config_s.p50": statistics.median(scaled_samples),
            "config_s.p90": tail_quantile(scaled_samples),
            "peak_rss_mb": main_run["peak_rss_mb"],
        }
        wall = {
            "setup_s": statistics.median(s for s, _ in setups),
            "batch_s": statistics.mean(main_run["batch_s"]),
            "config_s.p50": statistics.median(samples),
            "config_s.p90": tail_quantile(samples),
        }
        named = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        split = None
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}

    prov = provenance(args, digest)
    print(f"workload {args.workload} seed {args.seed}: {len(entries)} configs, "
          f"config digest {digest}")
    print(f"batches {batches} (the first untimed), per-config samples {len(samples)}")
    print(f"reference work: median {reference_s * 1e3:.4g} ms "
          f"(nominal {REFERENCE_NOMINAL_S * 1e3:g} ms, so wall = scaled x "
          f"{reference_s / REFERENCE_NOMINAL_S:.4g})")
    for name, (value, unit) in named.items():
        raw = f"   (wall {wall[name]:.6g} {unit})" if name in wall else ""
        print(f"  {name:42s} {value:.6g} {unit}{raw}")
    print(f"  {'failed_ratio':42s} {failed / attempted if attempted else 0.0:.6g} ratio "
          f"({outcome['failed']} of {outcome['attempted']} analyses per batch)")
    if outcome["failures"]:
        print(f"  failed analyses: {' '.join(outcome['failures'])}")
    if outcome["unexpected"]:
        print(f"  not a known defect: {' '.join(outcome['unexpected'])}")
    if not main_run["deterministic"]:
        print("  report.json bytes differ between batches")
    if split is not None:
        print("  shares of traced self time: " +
              ", ".join(f"{k} {v:.1%}" for k, v in split.items()))

    record = {"provenance": prov, "correct": correct, "attempted": attempted, "failed": failed,
              "failures": outcome["failures"], "metrics": metrics, "wall": wall, "split": split,
              "reference_s": reference_s,
              "setup_s": setups, "batch_s": main_run["batch_s"],
              "traced_batch_s": main_run.get("traced_batch_s"),
              "config_s": {e["id"]: per for e, per in zip(entries, main_run["config_s"])},
              "config_ref_s": {e["id"]: per for e, per in zip(entries, main_run["config_ref_s"])}}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
