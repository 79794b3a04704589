"""One fresh benchmark process: set-up, then timed batches of ``cli.run``.

Started by ``run.py``; not meant to be run by hand.  ``--spawned-at`` is the
parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` covers interpreter start, ``import shiftlab``, config selection
and ``cli.validate``, up to the first timed call.  With ``--setup-only`` the
process stops there.

A batch runs every selected config once, back to back, with
``cli.run(config, out_dir, threads=1)``.  Batches repeat, the first one
untimed, for about ``--seconds`` and at least ``--min-batches`` batches.
With ``--trace`` the batches after the first timed one run under
``tracer.Tracer``.  Report bytes are read back outside the timed region;
every batch must reproduce the first batch's report.json bytes.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--min-batches", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    from shiftlab import cli
    import workloads

    entries = workloads.select(args.workload, args.seed, args.smoke)
    for entry in entries:
        if any(d["level"] == "error" for d in cli.validate(entry["config"])):
            print(f"config {entry['id']} does not validate", file=sys.stderr)
            return 3
    setup_s = time.monotonic() - args.spawned_at
    result: dict = {"setup_s": setup_s,
                    "setup_ref_s": statistics.median(reference_work() for _ in range(11)),
                    "config_digest": workloads.config_digest(entries)}
    if not args.setup_only:
        result.update(_run_batches(cli, entries, args))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def reference_work() -> float:
    """Seconds taken by a fixed piece of pure-Python work shaped like
    shiftlab's inner loops: tuples, slices, set and dict probes, generator
    sums and float math.  It does not touch the program under test, and it
    runs with the cyclic collector off, so that no collection pass walks the
    objects the program keeps alive: its time follows only the speed the
    host currently gives this process."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        acc = 0.0
        for i in range(5000):
            w = ((i * 7) & 3, (i >> 2) & 3, (i >> 4) & 1, i & 1)
            key = w[1:]
            if key in table:
                acc += table[key]
            else:
                table[key] = math.exp(-(i & 15))
            acc += sum(x for x in w if x)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _run_batches(cli, entries: list[dict], args) -> dict:
    """Batch 0 warms caches and lazy imports and is not timed; with
    ``--trace``, batch 1 is the untraced reference and later batches run
    traced.  Stops before a batch that would end past ``--seconds``."""
    dirs = [Path(args.work_dir) / f"{i:02d}" for i in range(len(entries))]
    tracer = None
    batch_s: list[float] = []
    traced_batch_s: list[float] = []
    config_s: list[list[float]] = [[] for _ in entries]
    raised: dict[str, str] = {}
    first_bytes: list[bytes | None] = []
    deterministic = True
    #: per config and timed batch, the mean of the reference times before and
    #: after it
    config_ref_s: list[list[float]] = [[] for _ in entries]
    started = time.perf_counter()
    batch = 0
    while True:
        if args.trace and batch == 2:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        times, refs = [], [reference_work()]
        for i, entry in enumerate(entries):
            if tracer is not None:
                tracer.config_id = entry["id"]
            t0 = time.perf_counter()
            try:
                cli.run(entry["config"], dirs[i], threads=1)
            except Exception as exc:  # the check counts a raise as a failure
                raised[str(i)] = type(exc).__name__
            times.append(time.perf_counter() - t0)
            refs.append(reference_work())
        elapsed = sum(times)
        if tracer is not None:
            traced_batch_s.append(elapsed)
        elif batch > 0:
            batch_s.append(elapsed)
            for i, t in enumerate(times):
                config_s[i].append(t)
                config_ref_s[i].append((refs[i] + refs[i + 1]) / 2)
        # outside the timed region: every batch must write the same reports
        for i, d in enumerate(dirs):
            path = d / "report.json"
            data = path.read_bytes() if path.exists() else None
            if batch == 0:
                first_bytes.append(data)
            elif data != first_bytes[i]:
                deterministic = False
            if data is not None:
                path.unlink()
        batch += 1
        spent = time.perf_counter() - started
        if batch >= args.min_batches and spent + elapsed > args.seconds:
            break
    out = {"batch_s": batch_s, "config_s": config_s, "raised": raised,
           "deterministic": deterministic, "batches": batch, "config_ref_s": config_ref_s}
    if tracer is not None:
        tracer.uninstall()
        out["traced_batch_s"] = traced_batch_s
        out["trace"] = _trace_summary(tracer, len(traced_batch_s))
        tracer.dump(Path(args.result).with_suffix(".trace.json"))
    for d, data in zip(dirs, first_bytes):
        if data is not None:
            (d / "report.json").write_bytes(data)
    return out


def _trace_summary(tracer, batches: int) -> dict:
    """Per-batch means of the traced aggregates."""
    per = max(batches, 1)
    totals = tracer.totals()
    return {
        "functions": {fn: [calls / per, total / per, own / per]
                      for fn, (calls, total, own) in totals.items()},
        "notes": {k: v / per for k, v in tracer.notes.items()},
        "models.build_s": tracer.model_build_s() / per,
    }


if __name__ == "__main__":
    sys.exit(main())
