"""Batch front end: declarative experiment configs in, reproducible reports
out.

A config is a single JSON document selecting one shift family, one
potential, and an ordered list of analyses.  Reports are deterministic
given the config: every float is serialized as a 17-significant-digit
decimal string, reductions are canonical-order, and wall-clock timing goes
to a separate sidecar so report bytes are identical across runs.  The
library returns plain result objects, and this module alone renders them.

``_SHIFTS``, ``_POTENTIAL`` and ``_OPS`` declare, once per shift family,
for the potential and once per analysis, each field read: the parser that
is the only reader of the raw value and the default (or ``REQUIRED``).
``validate`` and ``run`` share one pass over them, which builds the shift
and the potential from the parsed values and hands them to each runner,
and warns on a key that no table declares, since nothing reads it.

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
from typing import TYPE_CHECKING, Any

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
    cylinder_count_table,
    hyperbolicity_diagnostic,
    periodic_orbit_measure,
    periodic_reps,
    pressure_estimate,
)

# decomp and tower are imported by the runners that use them, so that a run
# that never reaches them does not load them
if TYPE_CHECKING:
    from . import decomp, tower


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def validate(config: dict) -> list[dict]:
    """Schema and guard-limit diagnostics.  The shift and the potential are
    built as run builds them; no analysis runs."""
    return _checked(config, None)[0]


def _checked(config: Any, depth_guard: int | None) -> tuple[
        list[dict], LanguageOracle | None, Potential | None, ShiftLabError | None,
        dict[int, dict]]:
    """validate's diagnostics, the oracle and potential that run uses (None
    where they were not built), the domain error that stopped the shift's
    build, reported as a warning, and each analysis's fields by index, as
    _OPS parses them, defaults filled in."""
    diags: list[dict] = []
    fields: dict[int, dict] = {}
    oracle = potential = failure = alphabet = guard = None
    counted = False

    def err(field: str, message: str) -> None:
        diags.append({"level": "error", "field": field, "message": message})

    def warn(field: str, message: str) -> None:
        diags.append({"level": "warning", "field": field, "message": message})

    def unread(section: dict, declared: tuple, where: str, name: str) -> None:
        """A warning on ``where.<key>`` for each key of ``section`` that
        ``declared`` does not hold, which nothing would read."""
        for key in section:
            if key not in declared:
                warn(f"{where}.{key}" if where else str(key),
                     f"{name} does not read it; it reads only {', '.join(declared)}")

    def read(section: dict, table: dict, where: str, name: str, *selector: str) -> dict | None:
        """The fields ``table`` declares, parsed from ``section`` or
        defaulted, or None if one is missing or malformed (an error on
        ``where.<field>``); a guarded length past the guard warns, whether
        given or defaulted, and so does a key that neither ``selector`` nor
        ``table`` declares."""
        unread(section, (*selector, *table), where, name)
        values, mark = {}, len(diags)
        for key, (parse, default, *guarded) in table.items():
            if key in ("cminus", "cplus") and values.get("obstructions") != "explicit":
                continue  # zero_runs and qft obstructions read neither
            if key not in section:
                if isinstance(default, _Required) and not any(k in section for k in default):
                    err(f"{where}.{key}", f"{name} needs {' or '.join((key, *default))}")
                values[key] = value = None if isinstance(default, _Required) else default
            else:
                try:
                    values[key] = value = parse(section[key], alphabet)
                except (ConfigError, *_MALFORMED) as exc:
                    err(f"{where}.{key}", str(exc) if isinstance(exc, ConfigError)
                        else f"{type(exc).__name__}: {exc}")
                    continue
            if (guarded and guard is not None and value is not None and value > guard
                    and not (guarded == [COUNTED] and counted)):
                warn(f"{where}.{key}", f"{value} exceeds the depth guard {guard}")
        return None if any(d["level"] == "error" for d in diags[mark:]) else values

    if not isinstance(config, dict):
        err("", "config must be a JSON object")
        return diags, oracle, potential, failure, fields
    unread(config, ("shift", "potential", "analyses", "depth_guard"), "", "a config")
    shift = config.get("shift")
    if not isinstance(shift, dict):
        err("shift", "missing shift section")
    elif not isinstance(family := shift.get("family"), str) or family not in _SHIFTS:
        err("shift.family", f"unknown family {family!r}; expected one of {sorted(_SHIFTS)}")
    elif (f := read(shift, _SHIFTS[family][0], "shift", family, "family")) is not None:
        try:
            oracle = _SHIFTS[family][1](f, f["depth"] if "depth" in shift else depth_guard)
            alphabet = oracle.alphabet
        except ShiftLabError as exc:  # such as an empty language: run raises it
            # kept without its traceback, whose frames hold this one and the
            # build's oracles, so that no cycle keeps them alive
            failure = exc.with_traceback(None)
            warn("shift", f"{type(exc).__name__}: {exc}")
        except _MALFORMED as exc:
            err("shift", f"{type(exc).__name__}: {exc}")
    pot = config.get("potential", "zero")
    if pot != "zero" and not isinstance(pot, dict):
        err("potential", "potential must be \"zero\" or an object")
    elif ((f := {} if pot == "zero" else read(pot, _POTENTIAL[0], "potential", "potential"))
          is not None and oracle is not None):
        try:
            potential = _POTENTIAL[1](f, alphabet) if f else Potential.zero(alphabet)
        except _MALFORMED as exc:  # such as an empty indicator word
            err("potential", f"{type(exc).__name__}: {exc}")
    # an explicit depth_guard bounds every word length asked for; the default,
    # the oracle's enumeration limit, binds only lengths that are enumerated
    if "depth_guard" in config:
        try:
            guard = _length(-math.inf)(config["depth_guard"], None)
        except TypeError as exc:
            err("depth_guard", str(exc))
    elif oracle is not None and not any(d["level"] == "error" for d in diags):
        guard = oracle.enumeration_limit
        counted = oracle.transitions is not None
    analyses = config.get("analyses")
    if not isinstance(analyses, list) or not analyses:
        err("analyses", "need a nonempty list of analyses")
        analyses = []
    for i, a in enumerate(analyses):
        if not isinstance(a, dict) or "op" not in a:
            err(f"analyses[{i}]", "each analysis needs an op field")
            continue
        op = a["op"]
        if not isinstance(op, str) or op not in _OPS:
            # which fields an unknown op reads is unknown, so none is checked
            err(f"analyses[{i}].op", f"unknown op {op!r}")
            continue
        if op == "entropy_exact" and oracle is not None and oracle.transitions is None:
            err(f"analyses[{i}].op",
                f"entropy_exact needs a finite-state family; {oracle.name} has no finite layer")
        f = fields[i] = read(a, _OPS[op][0], f"analyses[{i}]", op, "op")
        # bounds between fields compare words, so they wait for the shift
        for key, holds, what in _BOUNDS.get(op, ()) if f and alphabet else ():
            if not holds(f):
                err(f"analyses[{i}].{key}", f"must be {what}")
        if (op == "periodic_measure" and f and oracle is not None
                and oracle.certified_depth is not None):
            # period k reads more than k symbols, so the search ends by period top + 1
            top = oracle.certified_depth
            k = next((k for k in range(1, min(f["horizon"], top + 1) + 1)
                      if k * periodic_reps(oracle, k) > top), None)
            if k is not None:
                warn(f"analyses[{i}].horizon", f"period {k} reads words of length "
                     f"{k * periodic_reps(oracle, k)}, past the certified depth {top} "
                     f"of {oracle.name}")
        if (op == "cgc" and f and f["depth"] is None and oracle is not None
                and oracle.enumeration_limit < 4):
            err(f"analyses[{i}].depth", "must be given: the default, the enumeration limit "
                f"{oracle.enumeration_limit}, is below 4")
    return diags, oracle, potential, failure, fields


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------
# A parser reads one raw field value, given the shift's alphabet (None for
# the shift's own fields, and when the shift was not built, so that only the
# value's type is checked), and returns what the build or the runner reads,
# or raises one of _MALFORMED, or ConfigError past MAX_ALPHABET.

def _expect(ok: bool, value: Any, what: str) -> None:
    if not ok:
        raise TypeError(f"must be {what}, got {value!r}")


def _length(least: int = 0):
    """An integer, not a bool, of at least ``least``."""
    def parse(value, alphabet):
        _expect(isinstance(value, int) and not isinstance(value, bool), value, "an integer")
        if value < least:
            raise ValueError(f"must be at least {least}, got {value}")
        return value
    return parse


def _number(value, alphabet):
    """An int or a float: not a bool, and not a numeric string."""
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), value, "a number")
    return float(value)


def _flag(value, alphabet):
    _expect(isinstance(value, bool), value, "true or false")
    return value


def _symbol(value, alphabet):
    _expect(isinstance(value, str), value, "a symbol")
    if alphabet is not None:
        alphabet.index(value)
    return value


def _word(value, alphabet):
    """A word's text, parsed into symbol indices."""
    _expect(isinstance(value, str), value, "a word (a string)")
    return value if alphabet is None else alphabet.word(value)


def _codeword(value, alphabet):
    """A word that is not empty: no code holds the empty word."""
    w = _word(value, alphabet)
    if not w:
        raise ValueError("must not be the empty word")
    return w


def _list_of(item, nonempty: bool = False):
    """A list of what ``item`` parses, of at least one entry if ``nonempty``."""
    def parse(value, alphabet):
        _expect(isinstance(value, list) and (value or not nonempty), value,
                "a nonempty list" if nonempty else "a list")
        return [item(v, alphabet) for v in value]
    return parse


def _obstruction_kind(value, alphabet):
    if value not in ("explicit", "zero_runs", "qft") or (
            value == "zero_runs" and alphabet is not None and "0" not in alphabet.symbols):
        raise ValueError("must be explicit, qft or zero_runs (on an alphabet with the "
                         f"symbol 0), got {value!r}")
    return value


#: the most symbols a shift's alphabet may have; constructors build
#: per-symbol tables (a beta of 1e308 asks for 1e308 digits), so a field
#: that asks for more is rejected before anything is built
MAX_ALPHABET = 64


def _sized(parse, symbols=len):
    """``parse``, for a field whose value sets ``symbols(value)`` symbols."""
    def sized(value, alphabet):
        value = parse(value, alphabet)
        if not symbols(value) <= MAX_ALPHABET:  # a NaN beta fails too
            raise ConfigError(f"the alphabet has more than {MAX_ALPHABET} symbols")
        return value
    return sized


def _symbols(value, alphabet):
    """An alphabet: a list of symbols, or a string of one-character ones."""
    return _list_of(_symbol)(list(value) if isinstance(value, str) else value, alphabet)


def _tail(value, alphabet):
    """An s_gap tail {start, period (default 1)}: the gaps start + j * period."""
    _expect(isinstance(value, dict) and "start" in value, value, "an object with a start")
    return _length()(value["start"], alphabet), _length(1)(value.get("period", 1), alphabet)


def _weights(value, alphabet):
    """A potential's table: an object from window words to numbers."""
    _expect(isinstance(value, dict), value, "an object")
    return {_word(w, alphabet): _number(v, alphabet) for w, v in value.items()}


#: what the parsers and the constructors raise on a malformed field
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError)


class _Required(tuple):
    """The default of a field that must be given, unless a field it names is."""


REQUIRED = _Required()
_DEPTH = {"depth": (_length(), None)}
_DIGIT = _sized(_length(), lambda d: d + 1)
_ALPHABET = _sized(_symbols)
#: family -> ({field: (parser, default or REQUIRED)}, build): the fields each
#: shift family reads, and its oracle from them and the enumeration limit
#: (the shift's depth if given, else run's depth_guard, else the family's
#: default).  A full shift's alphabet gives only its size; beta's depth is
#: also its expansion's, and its ceil(beta) digits exceed MAX_ALPHABET
#: exactly when beta does; CocyclicSpec.from_lists checks each matrix.
_SHIFTS: dict[str, tuple[dict, Any]] = {
    "full": ({**_DEPTH, "k": (_sized(_length(1), int), None), "alphabet": (_ALPHABET, ("0", "1"))},
             lambda f, limit: full_shift(f["k"] or len(f["alphabet"]), limit)),
    "sft": ({**_DEPTH, "alphabet": (_ALPHABET, REQUIRED), "forbidden": (_list_of(_word), ())},
            lambda f, limit: sft_from_forbidden(
                SftSpec.from_strings(f["alphabet"], f["forbidden"]), limit)),
    "cycle": ({**_DEPTH, "k": (_sized(_length(4), int), REQUIRED)},
              lambda f, limit: cycle_sft(f["k"], limit)),
    "beta": ({"depth": (_length(), 24), "beta": (_sized(_number, float), _Required(["z_pre"])),
              "z_pre": (_list_of(_DIGIT, nonempty=True), None),
              "z_period": (_list_of(_DIGIT), None)},
             lambda f, limit: beta_shift(
                 BetaSpec.from_beta(f["beta"], f["depth"]) if f["beta"] is not None
                 else BetaSpec.from_sequence(f["z_pre"], f["z_period"], f["depth"]), limit)),
    "s_gap": ({**_DEPTH, "values": (_list_of(_length()), _Required(["tail"])),
               "tail": (_tail, (None, None))},
              lambda f, limit: s_gap_shift(SGapSpec(tuple(f["values"] or ()), *f["tail"]), limit)),
    "coded": ({**_DEPTH, "alphabet": (_ALPHABET, REQUIRED),
               "generators": (_list_of(_word, nonempty=True), REQUIRED)},
              lambda f, limit: coded_shift(CodedSpec.from_strings(
                  f["alphabet"], f["generators"]), limit)),
    "cocyclic": ({**_DEPTH, "matrices": (_sized(_list_of(lambda m, alphabet: m, nonempty=True)),
                                         REQUIRED), "symbols": (_ALPHABET, None)},
                 lambda f, limit: cocyclic_shift(
                     CocyclicSpec.from_lists(f["matrices"], f["symbols"]), limit)),
}


#: ({field: (parser, default or REQUIRED)}, build) for a potential other than
#: "zero": scale times the indicator of a word, or a table of window values
#: of one range
_POTENTIAL = ({"indicator": (_word, None), "scale": (_number, 1.0),
               "range": (_length(1), _Required(["indicator"])),
               "table": (_weights, _Required(["indicator"]))},
              lambda f, alphabet: Potential(f["range"], f["table"]) if f["indicator"] is None
              else Potential.indicator(alphabet, alphabet.text(f["indicator"]), f["scale"]))


# ---------------------------------------------------------------------------
# Rendering: the only writers of report values, CSV and .dat text
# ---------------------------------------------------------------------------

def format17(x: float) -> str:
    """17-significant-digit decimal rendering of every report float."""
    return str(x) if isinstance(x, int) else f"{x:.17g}"


def _render(x, alphabet=None):
    """A result as report values: a float as its format17 string, a word (a
    tuple of symbol indices) as its text, other tuples and lists as lists,
    dicts key by key, and a result object as its fields (``vars``)."""
    if isinstance(x, float):
        return format17(x)
    if x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, tuple) and all(isinstance(i, int) for i in x):
        return alphabet.text(x)
    if isinstance(x, (tuple, list)):
        return [_render(y, alphabet) for y in x]
    if isinstance(x, dict):
        return {_render(k, alphabet): _render(v, alphabet) for k, v in x.items()}
    return {k: _render(v, alphabet) for k, v in vars(x).items()}


def _verdict(v: decomp.Verdict, alphabet) -> dict:
    """A verdict's report block, where ``passed`` is written as ``pass``."""
    return _render({"condition": v.condition, "depth": v.depth, "pass": v.passed,
                    "witnesses": v.witnesses, "parameters": v.parameters}, alphabet)


def csv_text(header: str, rows) -> str:
    """The one CSV writer: the header line, then a line per row of fields,
    floats rendered by format17 and anything else by str."""
    lines = (",".join(format17(f) if isinstance(f, float) else str(f) for f in row) for row in rows)
    return "".join(f"{line}\n" for line in (header, *lines))


def _dat(points) -> str:
    """The one gnuplot .dat writer: a line "n value" per (n, value)."""
    return "\n".join(f"{n} {format17(v)}" for n, v in points) + "\n"


def json_text(x, newline: str = "\n") -> str:
    """``json.dumps(x, sort_keys=True, indent=2)``, byte for byte, written
    directly: the standard library falls back to its slower pure-Python
    encoder when it indents.  ``newline`` is the line break and indent of
    x's own line.  Strings are escaped by the library's own ASCII escaper,
    floats written as ``float.__repr__`` (NaN, Infinity, -Infinity where
    not finite), and dict keys sorted as given, then written as the
    encoder writes them; what the encoder rejects raises TypeError here
    too."""
    if isinstance(x, str):
        return _escape(x)
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([
            f"{_escape(k if isinstance(k, str) else _json_key(k))}: {json_text(v, inner)}"
            for k, v in sorted(x.items())]) + newline + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([json_text(v, inner) for v in x]) + newline + "]"
    text = _json_scalar(x)
    if text is None:
        raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")
    return text


_escape = json.encoder.encode_basestring_ascii


def _json_scalar(x) -> str | None:
    """The JSON of None, a bool, an int or a float; None for anything
    else."""
    if x is None:
        return "null"
    if x is True or x is False:
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x in (math.inf, -math.inf):
            return "Infinity" if x > 0 else "-Infinity"
        return float.__repr__(x)
    return None


def _json_key(k) -> str:
    """A dict key other than a string as the encoder writes it."""
    text = _json_scalar(k)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
    return text


#: past this a CSV's sum stays in log space (exp would be ~1e130)
_EXP_CAP = 300.0


def capped_exp(x: float) -> float:
    return math.exp(x) if x <= _EXP_CAP else float("inf")


def _pressure_csv(rep) -> str:
    """A pressure table's counts, or its sums where it has no count."""
    return csv_text("n,count_or_sum,rate,upper_bound", (
        (r.n, r.count if r.count is not None else capped_exp(r.log_sum), r.rate,
         "" if r.upper_bound is None else r.upper_bound) for r in rep.rows))


def _loop_csv(table: tower.LoopTable) -> str:
    return csv_text("n,Z_n,Z_n_star,rate,rate_star", (
        (r.n, r.z_count if r.z_count is not None else capped_exp(r.z),
         r.z_star_count if r.z_star_count is not None else capped_exp(r.z_star),
         r.rate, r.rate_star) for r in table.rows))


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------

def _rate_report(words, potential, n_max):
    """pressure_estimate over the language, or the words that avoid a symbol."""
    rep = pressure_estimate(words, potential, n_max)
    return _render(rep), _pressure_csv(rep), _dat((r.n, r.rate) for r in rep.rows)


def _analysis_cylinder(oracle, potential, f):
    table = cylinder_count_table(oracle, potential, f["word"], f["n"])
    rows = [{"i": r.position, "count": r.count, "log_sum": r.log_sum,
             "gibbs_ratio": r.gibbs_ratio} for r in table.rows]
    csv = csv_text("i,count_or_log_sum,gibbs_ratio", (
        (r.position, r.count if r.count is not None else r.log_sum, r.gibbs_ratio)
        for r in table.rows))
    return _render({**vars(table), "rows": rows}, oracle.alphabet), csv, None


def _analysis_periodic_measure(oracle, potential, f):
    mu = periodic_orbit_measure(oracle, potential, f["horizon"], f["depth"])
    csv = csv_text("cylinder,weight", (
        (oracle.alphabet.text(u), wt) for u, wt in sorted(mu.cylinder_weights.items())))
    return _render(mu, oracle.alphabet), csv, None


def _analysis_hyperbolicity(oracle, potential, f):
    rep = hyperbolicity_diagnostic(oracle, potential, f["n_max"])
    csv = csv_text("n,sup_rate,rate,gap", ((r.n, r.sup_rate, r.rate, r.gap) for r in rep.rows))
    return _render(rep), csv, None


def _analysis_ud(oracle, potential, f):
    from . import tower
    verdict = tower.is_uniquely_decipherable(f["irreducibles"], f["depth"])
    block = {"pass": verdict.passed}
    if verdict.witness is not None:
        block["witness"] = oracle.alphabet.text(verdict.witness)
        block["parses"] = [[oracle.alphabet.text(w) for w in parse] for parse in verdict.parses]
    return block, None, None


def _loop_table(oracle, potential, f, tables: dict, cross_check: bool):
    """The tower over ``irreducibles`` at ``depth`` (their longest length by
    default), based at ``base``, and its loop table to ``n_max``.
    ``tables`` keeps one run's tables by tower, n_max and cross-check, so
    tower_loops and spr over the same tower build its table once."""
    from . import tower
    irr = f["irreducibles"]
    depth = max(len(w) for w in irr) if f["depth"] is None else f["depth"]
    graph = tower.build_tower_over(oracle, irr, depth, f["base"])
    key = (graph.irreducibles, graph.base, graph.depth, f["n_max"], cross_check)
    if key not in tables:
        tables[key] = tower.loop_sums(graph, potential, f["n_max"], cross_check=cross_check)
    return graph, tables[key]


def _analysis_tower_loops(oracle, potential, f, tables):
    graph, table = _loop_table(oracle, potential, f, tables, f["cross_check"])
    block = {"base": f"{oracle.alphabet.text(graph.base[0])}:1", "vertices": len(graph.vertices),
             "edges": graph.edge_count(), "z_rate": table.z_rate_estimate(),
             "z_star_rate": table.z_star_rate_estimate(), "loop_gcd": table.loop_length_gcd()}
    return _render(block), _loop_csv(table), _dat((r.n, r.rate) for r in table.rows)


def _analysis_spr(oracle, potential, f, tables):
    from . import tower
    graph, table = _loop_table(oracle, potential, f, tables, True)
    rep = tower.spr_diagnostic(graph, potential, f["n_max"], margin=f["margin"], table=table)
    return _render({k: v for k, v in vars(rep).items() if k != "table"}), _loop_csv(table), None


def _analysis_marking(oracle, potential, f):
    from . import tower
    family = tower.free_family_from_irreducibles(oracle, f["irreducibles"], f["depth"])
    rep = tower.marking_analysis(f["window"], family)
    return {
        "window": oracle.alphabet.text(f["window"]),
        "maximal_sets": [list(s) for s in rep.maximal_sets[:50]],
        "count": len(rep.maximal_sets),
        "injective_at_window": rep.injective_at_window,
        "truncated": rep.truncated,
    }, None, None


def _analysis_sync_pipeline(oracle, potential, f):
    from . import tower
    good = WordSet.language(oracle)
    tau, seed, cert_depth = f["tau"], f["seed"], f["cert_depth"]
    triple = tower.find_sync_triple(oracle, good, tau, seed, seed, cert_depth)

    def text(t: tower.SyncTriple) -> str:
        return f"({','.join(map(oracle.alphabet.text, (t.r, t.c, t.s)))})"

    block: dict[str, Any] = {"triple": text(triple), "no_long_overlaps": triple.no_long_overlaps}
    fixed = tower.ensure_no_long_overlaps(triple, oracle, good, cert_depth, tau=tau)
    block["overlap_free_triple"] = text(fixed)
    family = tower.build_free_family(fixed, oracle, good, f["family_depth"])
    block["free_violations"] = len(tower.check_free_concatenation(family))
    block["gcd_lengths"] = family.gcd_lengths
    hi = min(20, oracle.enumeration_limit) if f["fraction_hi"] is None else f["fraction_hi"]
    rows = tower.obstruction_fraction_table(oracle, fixed, range(f["fraction_lo"], hi + 1))
    block["fraction_monotone"] = all(b[3] <= a[3] + 1e-12 for a, b in zip(rows, rows[1:]))
    csv = csv_text("n,obstructed,fraction,total",
                   ((n, bad, frac, total) for n, bad, total, frac in rows))
    return block, csv, _dat((n, frac) for n, bad, total, frac in rows)


def _analysis_qft(oracle, potential, f):
    from . import decomp
    rep = decomp.qft_constraints(oracle, f["depth"])
    return {
        "exact": rep.exact,
        "left_counts": {str(n): len(ws) for n, ws in rep.left.items()},
        "right_counts": {str(n): len(ws) for n, ws in rep.right.items()},
    }, None, None


def _obstruction_pair(oracle, f) -> decomp.ObstructionPair:
    from . import decomp
    if f["obstructions"] == "zero_runs":
        zero = oracle.alphabet.index("0")
        runs = WordSet(oracle, predicate=lambda w: len(w) >= 1 and all(c == zero for c in w),
                       pattern=(0, lambda p, a: p if a == zero else None), name="0^k")
        return decomp.ObstructionPair(runs, runs)
    if f["obstructions"] == "qft":
        return decomp.qft_obstruction_pair(oracle)
    cminus, cplus = (WordSet.from_words(oracle, f[key], depth=oracle.enumeration_limit)
                     for key in ("cminus", "cplus"))
    return decomp.ObstructionPair(cminus, cplus)


def _analysis_persistence(oracle, potential, f):
    from . import decomp
    verdict = decomp.check_persistence(_obstruction_pair(oracle, f), oracle, f["depth"])
    return _verdict(verdict, oracle.alphabet), None, None


def _analysis_istar(oracle, potential, f):
    from . import decomp
    verdict = decomp.check_complete_list_Istar(_obstruction_pair(oracle, f), oracle,
                                               f["M_list"], f["depth"])
    return _verdict(verdict, oracle.alphabet), None, None


def _analysis_cgc(oracle, potential, f):
    from . import decomp
    result = decomp.cgc_construct(_obstruction_pair(oracle, f), oracle, potential, f["eps"],
                                  depth=f["depth"])
    spec_v = decomp.check_spec_I(result.collections, oracle, f["check_depth"])
    stay_v = decomp.check_stay_good_III(result.collections, oracle, f["check_depth"])
    # parameters stay raw: the recorded outputs hold margin as a JSON number
    return {
        "parameters": result.parameters,
        "gap_pass": result.gap_report.passed,
        "spec_I": _verdict(spec_v, oracle.alphabet),
        "stay_good_III": _verdict(stay_v, oracle.alphabet),
    }, None, None


def _analysis_sync_gap(oracle, potential, f):
    from . import decomp
    collections = decomp.sync_decomposition(oracle, f["word"], depth=f["cert_depth"])
    rep = decomp.pressure_gap_II(collections, oracle, potential, f["n_max"], margin=f["margin"])
    block = {"condition": rep.condition, "margin": rep.margin, "pass": rep.passed,
             "obstructions": rep.obstruction_report, "language": rep.language_report}
    return _render(block), _pressure_csv(rep.obstruction_report), None


#: guard classes: a ``LISTED`` length is enumerated, so it warns past the
#: guard; a ``COUNTED`` one is counted or summed over a finite layer without
#: listing a word, so only an explicit depth_guard binds it there; a field
#: with no guard class is never guarded
LISTED, COUNTED = "listed", "counted"
_IRREDUCIBLES = (_list_of(_codeword, nonempty=True), REQUIRED)
_TOWER = {"irreducibles": _IRREDUCIBLES, "base": (_word, REQUIRED),
          "depth": (_length(), None), "n_max": (_length(), 20)}
_OBSTRUCTION = {"obstructions": (_obstruction_kind, "explicit"),
                "cminus": (_list_of(_word), ()), "cplus": (_list_of(_word), ())}
#: op -> ({field: (parser, default or REQUIRED[, guard class])}, runner): the
#: fields each analysis reads, and the runner that reads them.  Defaults are
#: parsed values; None defers to the library's default or the runner's (a
#: tower's depth is its longest irreducible, fraction_hi min(20, the
#: oracle's enumeration limit)).
_OPS: dict[str, tuple[dict, Any]] = {
    "entropy_exact": ({}, lambda oracle, potential, f: (
        {"entropy": format17(sft_entropy_exact(oracle))}, None, None)),
    "pressure_estimate": ({"n_max": (_length(4), 12, COUNTED)}, lambda oracle, potential, f:
                          _rate_report(WordSet.language(oracle), potential, f["n_max"])),
    "avoid_symbol_rate": ({"symbol": (_symbol, REQUIRED), "depth": (_length(4), 12, COUNTED)},
                          lambda oracle, potential, f: _rate_report(
                              avoid_symbol_set(oracle, f["symbol"]), potential, f["depth"])),
    "cylinder_table": ({"word": (_word, REQUIRED), "n": (_length(1), REQUIRED, COUNTED)},
                       _analysis_cylinder),
    "periodic_measure": ({"horizon": (_length(), 10, LISTED), "depth": (_length(1), 1, LISTED)},
                         _analysis_periodic_measure),
    "hyperbolicity": ({"n_max": (_length(4), 12, COUNTED)}, _analysis_hyperbolicity),
    "ud_check": ({"irreducibles": _IRREDUCIBLES, "depth": (_length(), None)}, _analysis_ud),
    "tower_loops": ({**_TOWER, "cross_check": (_flag, True)}, _analysis_tower_loops),
    "spr": ({**_TOWER, "margin": (_number, 0.05)}, _analysis_spr),
    "marking": ({"irreducibles": _IRREDUCIBLES, "depth": (_length(), 16),
                 "window": (_word, REQUIRED)}, _analysis_marking),
    # seed defaults to the first symbol; the fraction table counts paths but
    # keeps the oracle's depth check, so fraction_hi raises past the limit
    # as a listing would
    "sync_pipeline": ({"tau": (_length(), 1), "seed": (_word, (0,)),
                       "cert_depth": (_length(), 10, LISTED),
                       "family_depth": (_length(), 13, LISTED),
                       "fraction_lo": (_length(), 10), "fraction_hi": (_length(), None, LISTED)},
                      _analysis_sync_pipeline),
    "qft": ({"depth": (_length(), 8, LISTED)}, _analysis_qft),
    "persistence": ({**_OBSTRUCTION, "depth": (_length(), 10, LISTED)}, _analysis_persistence),
    "istar": ({**_OBSTRUCTION, "M_list": (_list_of(_length(1)), (1, 2)),
               "depth": (_length(), 8, LISTED)}, _analysis_istar),
    "cgc": ({**_OBSTRUCTION, "eps": (_number, 0.05), "depth": (_length(4), None, LISTED),
             "check_depth": (_length(), 5, LISTED)}, _analysis_cgc),
    "sync_gap": ({"word": (_word, REQUIRED), "cert_depth": (_length(), None, LISTED),
                  "n_max": (_length(4), 12, COUNTED), "margin": (_number, 0.05)},
                 _analysis_sync_gap),
}


def _irreducible(f) -> bool:
    """No marking irreducible within depth is a concatenation of two or more
    others within depth: the test of tower.free_family_from_irreducibles."""
    kept = {w for w in f["irreducibles"] if len(w) <= f["depth"]}
    for w in kept:
        ends = [0]  # lengths of prefixes of w that concatenate kept words shorter than w
        for j in range(1, len(w) + 1):
            if any(j - i < len(w) and w[i:j] in kept for i in ends):
                ends.append(j)
        if ends[-1] == len(w) > 0:
            return False
    return True


#: op -> ((field, holds(parsed fields), what the field must be)): the bounds
#: between an analysis's fields that the library raises on; a tower's depth
#: of None is its longest irreducible's length
_BOUNDS = {
    "periodic_measure": (("horizon", lambda f: f["horizon"] >= f["depth"], "at least depth"),),
    "cylinder_table": (("word", lambda f: 1 <= len(f["word"]) <= f["n"],
                        "a nonempty word no longer than n"),),
    "marking": (("irreducibles", _irreducible,
                 "words none of which within depth is a concatenation of others within depth"),),
    **dict.fromkeys(("tower_loops", "spr"), (
        ("depth", lambda f: f["depth"] is None or f["depth"] >= min(map(len, f["irreducibles"])),
         "at least the shortest irreducible's length"),
        ("base", lambda f: f["base"] in f["irreducibles"]
         and (f["depth"] is None or len(f["base"]) <= f["depth"]),
         "one of the irreducibles within depth"))),
}


# ---------------------------------------------------------------------------
# Run and report
# ---------------------------------------------------------------------------

def run(config: dict, out_dir: str | Path | None = None, *, threads: int = 1,
        depth_guard: int | None = None) -> dict:
    """Execute the analyses in order; a failure in one analysis is recorded
    as an error block and later analyses still run.  Returns the report
    dict; when out_dir is given, writes report.json, one CSV per analysis,
    gnuplot .dat files, and the sidecar timing.json: the run's wall seconds
    and each analysis's (index, op, wall seconds).  ``threads`` is accepted
    for callers that pass it and ignored: every analysis runs serially."""
    started = time.perf_counter()
    diags, oracle, potential, failure, fields = _checked(config, depth_guard)
    if any(d["level"] == "error" for d in diags):
        raise ConfigError("config invalid", diags)
    if failure is not None:
        try:
            raise failure
        finally:  # its traceback holds this frame, so no local may hold it
            del failure

    blocks: list[dict] = []
    artifacts: list[tuple[str, str]] = []
    timings: list[dict] = []
    tables: dict = {}  # the loop tables of this run's towers
    for idx, analysis in enumerate(config["analyses"]):
        op = analysis["op"]
        entry: dict[str, Any] = {"op": op, "index": idx}
        runner = _OPS[op][1]
        if op in ("tower_loops", "spr"):
            runner = functools.partial(runner, tables=tables)
        begun = time.perf_counter()
        try:
            block, csv, dat = runner(oracle, potential, fields[idx])
            entry["status"] = "ok"
            entry["result"] = block
            for kind, text in (("csv", csv), ("dat", dat)):
                if text is not None:
                    entry[kind] = name = f"{idx:02d}_{op}.{kind}"
                    artifacts.append((name, text))
        except Exception as exc:  # neither a finding nor a bug kills the batch
            entry["status"] = "error"
            entry["error"] = f"{type(exc).__name__}: {exc}"
        blocks.append(entry)
        timings.append({"index": idx, "op": op, "wall_seconds": time.perf_counter() - begun})

    config_text = json.dumps(config, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    report = {
        "config": json.loads(config_text),
        "analyses": blocks,
        "provenance": {
            "tool_version": __version__,
            "config_hash": hashlib.sha256(config_text.encode()).hexdigest(),
        },
    }
    wall = time.perf_counter() - started
    # serialized once, so that the report returned is the one written
    report_text = json_text(report) + "\n"
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(report_text, encoding="utf-8")
        for name, text in artifacts:
            (out / name).write_text(text, encoding="utf-8")
        # timing is deliberately kept out of report.json so report bytes are
        # deterministic across runs
        (out / "timing.json").write_text(
            json.dumps({"wall_seconds": wall, "analyses": timings}) + "\n", encoding="utf-8")
    return json.loads(report_text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="Finite-scale symbolic dynamics and thermodynamic diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="Run the analyses in a config.")
    runp.add_argument("config", metavar="CONFIG_JSON")
    runp.add_argument("--out", default="out", metavar="DIR")
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
        report = run(config, args.out, depth_guard=args.depth_guard)
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
    print(f"ran {len(report['analyses'])} analyses ({n_err} with errors); report in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
