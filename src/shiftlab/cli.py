"""Batch front end: declarative experiment configs in, reproducible reports
out.

A config is a single JSON document selecting one shift family, one
potential, and an ordered list of analyses.  Reports are deterministic
given the config: every float is serialized as a 17-significant-digit
decimal string, reductions are canonical-order, and wall-clock timing goes
to a separate sidecar so report bytes are identical across runs.

Exit codes: 0 = all analyses executed (failed verdicts included), 1 =
invalid config or a shift that cannot be built (such as an empty
language), 2 = internal error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path
from typing import Any

from . import __version__
from .core import (
    LanguageOracle,
    Potential,
    WordSet,
)
from .errors import ConfigError, ShiftLabError
from .models import (
    BetaSpec,
    CocyclicSpec,
    CodedSpec,
    SGapSpec,
    SftSpec,
    avoid_symbol_set,
    beta_shift,
    cocyclic_shift,
    coded_shift,
    cycle_sft,
    full_shift,
    s_gap_shift,
    sft_entropy_exact,
    sft_from_forbidden,
)
from .thermo import (
    csv_text,
    cylinder_count_table,
    format17,
    hyperbolicity_diagnostic,
    periodic_orbit_measure,
    pressure_estimate,
)
from . import decomp, tower


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

_FAMILIES = {"sft", "full", "cycle", "beta", "s_gap", "coded", "cocyclic"}

_ANALYSES = {
    "entropy_exact",
    "pressure_estimate",
    "avoid_symbol_rate",
    "cylinder_table",
    "periodic_measure",
    "hyperbolicity",
    "ud_check",
    "tower_loops",
    "spr",
    "marking",
    "sync_pipeline",
    "qft",
    "persistence",
    "istar",
    "cgc",
    "sync_gap",
}


def validate(config: dict) -> list[dict]:
    """Schema and guard-limit diagnostics.  The shift and the potential are
    built as run builds them; no analysis runs."""
    return _checked(config, None)[0]


def _checked(config: Any, depth_guard: int | None) -> tuple[
        list[dict], LanguageOracle | None, Potential | None, ShiftLabError | None]:
    """validate's diagnostics, the oracle and potential that run uses (None
    where they were not built) and the domain error that stopped the
    shift's build, reported as a warning."""
    diags: list[dict] = []
    oracle = potential = failure = None

    def err(field: str, message: str) -> None:
        diags.append({"level": "error", "field": field, "message": message})

    def warn(field: str, message: str) -> None:
        diags.append({"level": "warning", "field": field, "message": message})

    if not isinstance(config, dict):
        err("", "config must be a JSON object")
        return diags, oracle, potential, failure
    shift = config.get("shift")
    if not isinstance(shift, dict):
        err("shift", "missing shift section")
    else:
        fam = shift.get("family")
        if fam not in _FAMILIES:
            err("shift.family", f"unknown family {fam!r}; expected one of {sorted(_FAMILIES)}")
        elif fam == "sft" and "alphabet" not in shift:
            err("shift.alphabet", "sft shifts need an alphabet")
        elif fam == "cycle" and not isinstance(shift.get("k"), int):
            err("shift.k", "cycle shifts need integer k")
        elif fam == "beta" and "beta" not in shift and "z_pre" not in shift:
            err("shift.beta", "beta shifts need beta or an explicit sequence")
        elif fam == "s_gap" and "values" not in shift and "tail" not in shift:
            err("shift.values", "s_gap shifts need gap values or a tail rule")
        elif fam == "coded" and not shift.get("generators"):
            err("shift.generators", "coded shifts need generators")
        elif fam == "cocyclic" and not shift.get("matrices"):
            err("shift.matrices", "cocyclic shifts need matrices")
        if "depth" in shift and not _is_int(shift["depth"]):
            err("shift.depth", f"must be an integer, got {shift['depth']!r}")
        if not diags and _alphabet_size(shift) > MAX_ALPHABET:
            err("shift", f"the alphabet has more than {MAX_ALPHABET} symbols")
        if not diags:
            try:
                oracle = _build_oracle(shift, depth_guard)
            except ShiftLabError as exc:  # such as an empty language: run raises it
                failure = exc
                warn("shift", f"{type(exc).__name__}: {exc}")
            except _MALFORMED as exc:
                err("shift", f"{type(exc).__name__}: {exc}")
    pot = config.get("potential", "zero")
    if pot != "zero" and not isinstance(pot, dict):
        err("potential", "potential must be \"zero\" or an object")
    elif oracle is not None:
        try:
            potential = _build_potential(pot, oracle)
        except _MALFORMED as exc:
            err("potential", f"{type(exc).__name__}: {exc}")
    # an explicit depth_guard bounds every word length asked for; the default,
    # the oracle's enumeration limit, binds only lengths that are enumerated
    guard, counted = None, False
    if "depth_guard" in config:
        guard = config["depth_guard"]
        if not _is_int(guard):
            err("depth_guard", f"must be an integer, got {guard!r}")
            guard = None
    elif not diags and oracle is not None:
        guard = oracle.enumeration_limit
        counted = oracle.transitions is not None
    analyses = config.get("analyses")
    if not isinstance(analyses, list) or not analyses:
        err("analyses", "need a nonempty list of analyses")
    else:
        for i, a in enumerate(analyses):
            if not isinstance(a, dict) or "op" not in a:
                err(f"analyses[{i}]", "each analysis needs an op field")
                continue
            if not isinstance(a["op"], str) or a["op"] not in _ANALYSES:
                # which fields an unknown op reads is unknown, so none is checked
                err(f"analyses[{i}].op", f"unknown op {a['op']!r}")
                continue
            if a["op"] == "entropy_exact" and oracle is not None and oracle.transitions is None:
                err(f"analyses[{i}].op",
                    f"entropy_exact needs a finite-state family; {oracle.name} has no finite layer")
            kind = a.get("obstructions", "explicit")
            if a["op"] in _OBSTRUCTED and (kind not in ("explicit", "zero_runs", "qft") or (
                    kind == "zero_runs" and oracle is not None and "0" not in oracle.alphabet.symbols)):
                err(f"analyses[{i}].obstructions", "must be explicit, qft or zero_runs (on an "
                    f"alphabet with the symbol 0), got {kind!r}")
            keys = ["n_max", "depth", "horizon", "cert_depth"]
            if a["op"] == "cylinder_table":
                keys.append("n")
                if "n" not in a:
                    err(f"analyses[{i}].n", "cylinder_table needs a word length n")
            for key in keys:
                if key not in a:
                    continue
                if not _is_int(a[key]):
                    err(f"analyses[{i}].{key}", f"must be an integer, got {a[key]!r}")
                elif (guard is not None and a[key] > guard and a["op"] not in _NO_WORDS
                      and not (counted and (a["op"], key) in _COUNTED)):
                    warn(f"analyses[{i}].{key}", f"{a[key]} exceeds the depth guard {guard}")
            if oracle is not None:
                for key in _WORD_FIELDS.get(a["op"], ()):
                    if key in ("cminus", "cplus") and kind in ("zero_runs", "qft"):
                        continue  # these obstructions read neither
                    try:
                        _word_field(oracle.alphabet, a, key)
                    except _MALFORMED as exc:
                        err(f"analyses[{i}].{key}", f"{type(exc).__name__}: {exc}")
    return diags, oracle, potential, failure


#: the most symbols a shift's alphabet may have; constructors build
#: per-symbol tables (a beta of 1e308 asks for 1e308 digits), so a larger
#: alphabet is rejected before anything is built
MAX_ALPHABET = 64


def _alphabet_size(shift: dict) -> float:
    """The number of symbols a shift section asks for, read from its fields
    without building anything; 0 where a field is malformed, which the
    build then reports."""
    fam = shift["family"]
    try:
        if fam == "s_gap":
            return 2
        if fam in ("full", "cycle"):
            k = shift.get("k", len(shift.get("alphabet", "01")))
            return k if _is_int(k) else 0
        if fam == "beta":
            if "beta" in shift:
                beta = float(shift["beta"])
                return math.ceil(beta) if math.isfinite(beta) else math.inf
            return max(int(d) for d in list(shift["z_pre"]) + list(shift.get("z_period") or ())) + 1
        if fam == "cocyclic":
            return len(shift.get("symbols") or shift["matrices"])
        return len(shift["alphabet"])
    except (KeyError, TypeError, ValueError):
        return 0


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: what the constructors raise on a malformed field
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError)
#: analyses that only test code words for membership and enumerate no words
_NO_WORDS = {"ud_check", "tower_loops", "spr", "marking"}
#: knobs that list no word on a finite layer, where counts and partition
#: sums are DPs over the layer
_COUNTED = {("pressure_estimate", "n_max"), ("hyperbolicity", "n_max"),
            ("avoid_symbol_rate", "depth"), ("cylinder_table", "n")}
#: the ops that build an obstruction pair (see _obstruction_pair)
_OBSTRUCTED = ("persistence", "istar", "cgc")
#: the word-valued fields each op reads (see _word_field)
_WORD_FIELDS = {"cylinder_table": ("word",), "sync_gap": ("word",), "avoid_symbol_rate": ("symbol",),
                "sync_pipeline": ("seed",), "ud_check": ("irreducibles",),
                "marking": ("irreducibles", "window"),
                **dict.fromkeys(("tower_loops", "spr"), ("irreducibles", "base")),
                **dict.fromkeys(_OBSTRUCTED, ("cminus", "cplus"))}


def _word_field(alphabet, params: dict, key: str):
    """One word-valued analysis field, parsed as run reads it: ``symbol`` a
    symbol, ``irreducibles`` a nonempty list of words, ``cminus`` and
    ``cplus`` a list of words (none by default), ``seed`` a word (the first
    symbol by default), any other field a word.  A missing field raises
    KeyError, and so does a symbol outside the alphabet."""
    if key == "symbol":
        alphabet.index(params[key])
        return params[key]
    if key == "seed":
        return alphabet.word(params.get(key, alphabet.symbols[0]))
    if key in ("cminus", "cplus"):
        return [alphabet.word(text) for text in params.get(key, [])]
    if key == "irreducibles":
        words = [alphabet.word(text) for text in params[key]]
        if not words:
            raise ValueError("irreducibles must list at least one word")
        return words
    return alphabet.word(params[key])


def _build_oracle(shift: dict, depth_guard: int | None) -> LanguageOracle:
    fam = shift["family"]
    limit = shift.get("depth", depth_guard)
    if fam == "full":
        k = shift.get("k", len(shift.get("alphabet", "01")))
        return full_shift(k, limit)
    if fam == "sft":
        spec = SftSpec.from_strings(shift["alphabet"], shift.get("forbidden", []))
        return sft_from_forbidden(spec, limit)
    if fam == "cycle":
        return cycle_sft(shift["k"], limit)
    if fam == "beta":
        if "beta" in shift:
            spec = BetaSpec.from_beta(float(shift["beta"]), int(shift.get("depth", 24)))
        else:
            spec = BetaSpec.from_sequence(shift["z_pre"], shift.get("z_period"),
                                          int(shift.get("depth", 24)))
        return beta_shift(spec, limit)
    if fam == "s_gap":
        tail = shift.get("tail")
        spec = SGapSpec(
            tuple(shift.get("values", [])),
            tail_start=None if tail is None else int(tail["start"]),
            tail_period=None if tail is None else int(tail.get("period", 1)),
        )
        return s_gap_shift(spec, limit)
    if fam == "coded":
        spec = CodedSpec.from_strings(shift["alphabet"], shift["generators"],
                                      bool(shift.get("truncated", False)))
        return coded_shift(spec, limit)
    if fam == "cocyclic":
        spec = CocyclicSpec.from_lists(shift["matrices"], shift.get("symbols"))
        return cocyclic_shift(spec, limit)
    raise ConfigError(f"unknown shift family {fam!r}")


def _build_potential(pot: Any, oracle: LanguageOracle) -> Potential:
    if pot == "zero" or pot is None:
        return Potential.zero(oracle.alphabet)
    if "indicator" in pot:
        return Potential.indicator(oracle.alphabet, pot["indicator"], float(pot.get("scale", 1.0)))
    return Potential.from_strings(oracle.alphabet, int(pot["range"]), pot["table"])


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------

def _analysis_pressure(oracle, potential, params):
    """pressure_estimate over the language, or, for avoid_symbol_rate, over
    the words that avoid ``symbol``, to ``depth``."""
    if params["op"] == "avoid_symbol_rate":
        words = avoid_symbol_set(oracle, _word_field(oracle.alphabet, params, "symbol"))
        n_max = params.get("depth", 12)
    else:
        words, n_max = WordSet.language(oracle), params.get("n_max", 12)
    rep = pressure_estimate(words, potential, int(n_max))
    return rep.to_json_dict(), rep.to_csv_text(), _rate_dat(rep.rows)


def _rate_dat(rows) -> str:
    """The gnuplot "n rate" text of a table's rows."""
    return "\n".join(f"{r.n} {format17(r.rate)}" for r in rows) + "\n"


def _analysis_entropy_exact(oracle, potential, params):
    h = sft_entropy_exact(oracle)
    return {"entropy": format17(h)}, None, None


def _analysis_cylinder(oracle, potential, params):
    word = _word_field(oracle.alphabet, params, "word")
    n = int(params["n"])
    table = cylinder_count_table(oracle, potential, word, n)
    rows = [
        {"i": r.position, "count": r.count, "log_sum": format17(r.log_sum),
         "gibbs_ratio": format17(r.gibbs_ratio)}
        for r in table.rows
    ]
    csv = csv_text("i,count_or_log_sum,gibbs_ratio", (
        (r.position, r.count if r.count is not None else r.log_sum, r.gibbs_ratio)
        for r in table.rows))
    return {"word": params["word"], "n": n, "pressure_used": format17(table.pressure_used),
            "rows": rows}, csv, None


def _analysis_periodic_measure(oracle, potential, params):
    horizon = int(params.get("horizon", 10))
    depth = int(params.get("depth", 1))
    mu = periodic_orbit_measure(oracle, potential, horizon, depth)
    return mu.to_json_dict(oracle.alphabet), mu.to_csv_text(oracle.alphabet), None


def _analysis_hyperbolicity(oracle, potential, params):
    n_max = int(params.get("n_max", 12))
    rep = hyperbolicity_diagnostic(oracle, potential, n_max)
    rows = [
        {"n": r.n, "sup_rate": format17(r.sup_rate), "rate": format17(r.rate),
         "gap": format17(r.gap)}
        for r in rep.rows
    ]
    csv = csv_text("n,sup_rate,rate,gap", (row.values() for row in rows))
    return {"verdict": rep.verdict, "point_estimate": format17(rep.point_estimate),
            "rows": rows}, csv, None


def _analysis_ud(oracle, potential, params):
    irr = _word_field(oracle.alphabet, params, "irreducibles")
    verdict = tower.is_uniquely_decipherable(irr, params.get("depth"))
    block = {"pass": verdict.passed}
    if verdict.witness is not None:
        block["witness"] = oracle.alphabet.text(verdict.witness)
        block["parses"] = [
            [oracle.alphabet.text(w) for w in parse] for parse in verdict.parses
        ]
    return block, None, None


def _loop_table(oracle, potential, params, tables: dict, cross_check: bool):
    """The tower over ``irreducibles`` at ``depth`` (their longest length by
    default), based at ``base``, its loop table to ``n_max`` and that n_max.
    ``tables`` keeps one run's tables by tower, n_max and cross-check, so
    tower_loops and spr over the same tower build its table once."""
    irr = _word_field(oracle.alphabet, params, "irreducibles")
    depth = int(params.get("depth", max(len(w) for w in irr)))
    base = _word_field(oracle.alphabet, params, "base")
    graph = tower.build_tower_over(oracle, irr, depth, base)
    n_max = int(params.get("n_max", 20))
    key = (graph.irreducibles, graph.base, graph.depth, n_max, cross_check)
    table = tables.get(key)
    if table is None:
        table = tables[key] = tower.loop_sums(graph, potential, n_max, cross_check=cross_check)
    return graph, table, n_max


def _analysis_tower_loops(oracle, potential, params, tables):
    graph, table, _ = _loop_table(oracle, potential, params, tables,
                                  bool(params.get("cross_check", True)))
    block = {
        "base": f"{oracle.alphabet.text(graph.base[0])}:1",
        "vertices": len(graph.vertices),
        "edges": graph.edge_count(),
        "z_rate": format17(table.z_rate_estimate()),
        "z_star_rate": format17(table.z_star_rate_estimate()),
        "loop_gcd": table.loop_length_gcd(),
    }
    return block, table.to_csv_text(), _rate_dat(table.rows)


def _analysis_spr(oracle, potential, params, tables):
    graph, table, n_max = _loop_table(oracle, potential, params, tables, True)
    rep = tower.spr_diagnostic(graph, potential, n_max,
                               margin=float(params.get("margin", 0.05)), table=table)
    return rep.to_json_dict(), rep.table.to_csv_text(), None


def _analysis_marking(oracle, potential, params):
    irr = _word_field(oracle.alphabet, params, "irreducibles")
    depth = int(params.get("depth", 16))
    family = tower.free_family_from_irreducibles(oracle, irr, depth)
    window = _word_field(oracle.alphabet, params, "window")
    rep = tower.marking_analysis(window, family)
    return {
        "window": params["window"],
        "maximal_sets": [list(s) for s in rep.maximal_sets[:50]],
        "count": len(rep.maximal_sets),
        "injective_at_window": rep.injective_at_window,
        "truncated": rep.truncated,
    }, None, None


def _analysis_sync_pipeline(oracle, potential, params):
    good = WordSet.language(oracle)
    tau = int(params.get("tau", 1))
    seed = _word_field(oracle.alphabet, params, "seed")
    cert_depth = int(params.get("cert_depth", 10))
    triple = tower.find_sync_triple(oracle, good, tau, seed, seed, cert_depth)
    block: dict[str, Any] = {"triple": triple.text(oracle.alphabet),
                             "no_long_overlaps": triple.no_long_overlaps}
    fixed = tower.ensure_no_long_overlaps(triple, oracle, good, cert_depth, tau=tau)
    block["overlap_free_triple"] = fixed.text(oracle.alphabet)
    fam_depth = int(params.get("family_depth", 13))
    family = tower.build_free_family(fixed, oracle, good, fam_depth)
    block["free_violations"] = len(tower.check_free_concatenation(family))
    block["gcd_lengths"] = family.gcd_lengths
    lo = int(params.get("fraction_lo", 10))
    hi = int(params.get("fraction_hi", min(20, oracle.enumeration_limit)))
    rows = tower.obstruction_fraction_table(oracle, fixed, good, range(lo, hi + 1))
    block["fraction_monotone"] = all(
        b[3] <= a[3] + 1e-12 for a, b in zip(rows, rows[1:])
    )
    csv = csv_text("n,obstructed,fraction,total",
                   ((n, bad, frac, total) for n, bad, total, frac in rows))
    dat = "\n".join(f"{n} {format17(frac)}" for n, bad, total, frac in rows) + "\n"
    return block, csv, dat


def _analysis_qft(oracle, potential, params):
    depth = int(params.get("depth", 8))
    rep = decomp.qft_constraints(oracle, depth)
    return {
        "exact": rep.exact,
        "left_counts": {str(n): len(ws) for n, ws in rep.left.items()},
        "right_counts": {str(n): len(ws) for n, ws in rep.right.items()},
    }, None, None


def _obstruction_pair(oracle, params) -> decomp.ObstructionPair:
    kind = params.get("obstructions", "explicit")
    if kind == "zero_runs":
        zero = oracle.alphabet.index("0")
        runs = WordSet.from_predicate(
            oracle, lambda w: len(w) >= 1 and all(c == zero for c in w), name="0^k"
        )
        return decomp.ObstructionPair(runs, runs)
    if kind == "qft":
        return decomp.qft_obstruction_pair(oracle)
    cminus, cplus = (WordSet.from_words(oracle, _word_field(oracle.alphabet, params, key),
                                        depth=oracle.enumeration_limit)
                     for key in ("cminus", "cplus"))
    return decomp.ObstructionPair(cminus, cplus)


def _analysis_persistence(oracle, potential, params):
    pair = _obstruction_pair(oracle, params)
    verdict = decomp.check_persistence(pair, oracle, int(params.get("depth", 10)))
    return verdict.to_json_dict(oracle.alphabet), None, None


def _analysis_istar(oracle, potential, params):
    pair = _obstruction_pair(oracle, params)
    verdict = decomp.check_complete_list_Istar(
        pair, oracle, [int(m) for m in params.get("M_list", [1, 2])],
        int(params.get("depth", 8)),
    )
    return verdict.to_json_dict(oracle.alphabet), None, None


def _analysis_cgc(oracle, potential, params):
    pair = _obstruction_pair(oracle, params)
    result = decomp.cgc_construct(
        pair, oracle, potential, float(params.get("eps", 0.05)),
        depth=params.get("depth"),
    )
    spec_v = decomp.check_spec_I(result.collections, oracle, int(params.get("check_depth", 5)))
    stay_v = decomp.check_stay_good_III(result.collections, oracle,
                                        int(params.get("check_depth", 5)))
    return {
        "parameters": {k: v for k, v in sorted(result.parameters.items())},
        "gap_pass": result.gap_report.passed,
        "spec_I": spec_v.to_json_dict(oracle.alphabet),
        "stay_good_III": stay_v.to_json_dict(oracle.alphabet),
    }, None, None


def _analysis_sync_gap(oracle, potential, params):
    s = _word_field(oracle.alphabet, params, "word")
    collections = decomp.sync_decomposition(oracle, s, depth=params.get("cert_depth"))
    rep = decomp.pressure_gap_II(collections, oracle, potential,
                                 int(params.get("n_max", 12)),
                                 margin=float(params.get("margin", 0.05)))
    return rep.to_json_dict(), rep.obstruction_report.to_csv_text(), None


_RUNNERS = {
    "pressure_estimate": _analysis_pressure,
    "avoid_symbol_rate": _analysis_pressure,
    "entropy_exact": _analysis_entropy_exact,
    "cylinder_table": _analysis_cylinder,
    "periodic_measure": _analysis_periodic_measure,
    "hyperbolicity": _analysis_hyperbolicity,
    "ud_check": _analysis_ud,
    "tower_loops": _analysis_tower_loops,
    "spr": _analysis_spr,
    "marking": _analysis_marking,
    "sync_pipeline": _analysis_sync_pipeline,
    "qft": _analysis_qft,
    "persistence": _analysis_persistence,
    "istar": _analysis_istar,
    "cgc": _analysis_cgc,
    "sync_gap": _analysis_sync_gap,
}


# ---------------------------------------------------------------------------
# Run and report
# ---------------------------------------------------------------------------

def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def run(config: dict, out_dir: str | Path | None = None, *, threads: int = 1,
        depth_guard: int | None = None) -> dict:
    """Execute the analyses in order; a failure in one analysis is recorded
    as an error block and later analyses still run.  Returns the report
    dict; when out_dir is given, writes report.json, one CSV per analysis,
    gnuplot .dat files, and a timing sidecar.  ``threads`` is accepted for
    compatibility and ignored: every analysis runs serially."""
    started = time.perf_counter()
    diags, oracle, potential, failure = _checked(config, depth_guard)
    if any(d["level"] == "error" for d in diags):
        raise ConfigError("config invalid", diags)
    if failure is not None:
        raise failure

    blocks: list[dict] = []
    artifacts: list[tuple[str, str]] = []
    tables: dict = {}  # the loop tables of this run's towers
    for idx, analysis in enumerate(config["analyses"]):
        op = analysis["op"]
        entry: dict[str, Any] = {"op": op, "index": idx}
        runner = _RUNNERS[op]
        if op in ("tower_loops", "spr"):
            runner = functools.partial(runner, tables=tables)
        try:
            block, csv_text, dat_text = runner(oracle, potential, analysis)
            entry["status"] = "ok"
            entry["result"] = block
            if csv_text is not None:
                name = f"{idx:02d}_{op}.csv"
                artifacts.append((name, csv_text))
                entry["csv"] = name
            if dat_text is not None:
                name = f"{idx:02d}_{op}.dat"
                artifacts.append((name, dat_text))
                entry["dat"] = name
        except Exception as exc:  # neither a finding nor a bug kills the batch
            entry["status"] = "error"
            entry["error"] = f"{type(exc).__name__}: {exc}"
        blocks.append(entry)

    config_text = _canonical_json(config)
    report = {
        "config": json.loads(config_text),
        "analyses": blocks,
        "provenance": {
            "tool_version": __version__,
            "config_hash": hashlib.sha256(config_text.encode()).hexdigest(),
        },
    }
    wall = time.perf_counter() - started
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(
            json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        for name, text in artifacts:
            (out / name).write_text(text, encoding="utf-8")
        # timing is deliberately kept out of report.json so report bytes are
        # deterministic across runs
        (out / "timing.json").write_text(
            json.dumps({"wall_seconds": wall}) + "\n", encoding="utf-8"
        )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="Finite-scale symbolic dynamics and thermodynamic diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="Run the analyses in a config.")
    runp.add_argument("config", metavar="CONFIG_JSON")
    runp.add_argument("--out", default=None, metavar="DIR")
    runp.add_argument("--threads", type=int, default=1,
                      help="accepted for compatibility; analyses run serially")
    runp.add_argument("--depth-guard", type=int, default=None)

    valp = sub.add_parser("validate", help="Validate a config without running it.")
    valp.add_argument("config", metavar="CONFIG_JSON")

    args = parser.parse_args(argv)
    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        diags = validate(config)
        for d in diags:
            print(f"{d['level']}: {d['field']}: {d['message']}")
        if not diags:
            print("ok")
        return 1 if any(d["level"] == "error" for d in diags) else 0

    try:
        out_dir = args.out if args.out is not None else "out"
        report = run(config, out_dir, threads=args.threads, depth_guard=args.depth_guard)
    except ConfigError as exc:
        for d in exc.diagnostics:
            print(f"{d['level']}: {d['field']}: {d['message']}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ShiftLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal error path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    n_err = sum(1 for b in report["analyses"] if b["status"] == "error")
    print(f"ran {len(report['analyses'])} analyses ({n_err} with errors); report in {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
