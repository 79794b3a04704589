"""Layer tracing for the benchmark's traced run.

``Tracer.install()`` wraps the public functions of each shiftlab module from
outside the package: the class methods ``LanguageOracle.contains``/``words``
and ``WordSet.contains``/``at``, and every listed function in each module
that imports it by name.  Every call is charged to its (config id, function,
parent function) aggregate: calls, inclusive seconds and self seconds (the
inclusive time minus the time of traced callees).  Calls of functions not in
``HOT`` are also kept as spans with their own id, their parent span and
their config id.  Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import json
from time import perf_counter

#: layer name -> (module, [(name, modules importing it by name)])
TARGETS = {
    "models": ("models", [
        (f, ["models", "cli"]) for f in
        ("full_shift", "sft_from_forbidden", "cycle_sft", "beta_shift", "s_gap_shift",
         "coded_shift", "cocyclic_shift", "sft_entropy_exact")
    ]),
    "thermo": ("thermo", [
        ("log_partition_sum", ["thermo"]),
        ("pressure_estimate", ["thermo", "cli", "decomp"]),
        ("hyperbolicity_diagnostic", ["thermo", "cli"]),
        ("cylinder_count_table", ["thermo", "cli"]),
        ("periodic_points", ["thermo"]),
        ("periodic_orbit_measure", ["thermo", "cli"]),
    ]),
    "decomp": ("decomp", [
        (f, ["decomp"]) for f in
        ("check_spec_I", "check_stay_good_III", "check_complete_list_Istar", "cgc_construct",
         "pressure_gap_II", "qft_constraints", "sync_decomposition", "check_persistence")
    ]),
    "tower": ("tower", [
        (f, ["tower"]) for f in
        ("find_sync_triple", "verify_sync_triple", "overlap_violations",
         "ensure_no_long_overlaps", "build_free_family", "obstruction_fraction_table",
         "free_family_from_irreducibles", "is_uniquely_decipherable", "build_tower_over",
         "loop_sums", "spr_diagnostic", "marking_analysis")
    ]),
    "core": ("core", [("phi_hat", ["core", "thermo", "tower"])]),
    "cli": ("cli", [("run", ["cli"])]),
}

MODEL_BUILDERS = {f"models.{f}" for f in
                  ("full_shift", "sft_from_forbidden", "cycle_sft", "beta_shift",
                   "s_gap_shift", "coded_shift", "cocyclic_shift")}

#: called often enough that only their aggregates are kept
HOT = {"core.contains", "core.words", "core.wordset_contains", "core.wordset_at",
       "core.phi_hat", "thermo.log_partition_sum", "thermo.periodic_points",
       "tower.overlap_violations", "tower.verify_sync_triple"}


class Tracer:
    def __init__(self):
        self.config_id: str | None = None
        #: (config id, function, parent function) -> [calls, total_s, self_s]
        self.aggregates: dict[tuple, list] = {}
        #: (span id, parent span id, config id, function, start, end)
        self.spans: list[tuple] = []
        #: counts that need the call's arguments or result
        self.notes = {"core.contains.true": 0, "core.words.hits": 0,
                      "core.words.materialised": 0}
        self._stack: list[list] = []  # [function, child seconds, span id]
        self._last_span = 0
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        stack, aggregates, notes = self._stack, self.aggregates, self.notes
        keep_span = name not in HOT
        is_contains = name == "core.contains"
        is_words = name == "core.words"

        def traced(*args, **kwargs):
            if is_words:  # words(oracle, n): a cache hit returns the stored tuple
                hit = args[1] in getattr(args[0], "_cache", ())
            span_id = None
            if keep_span:
                self._last_span += 1
                span_id = self._last_span
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                key = (self.config_id, name, parent[0] if parent else None)
                rec = aggregates.get(key)
                if rec is None:
                    rec = aggregates[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if keep_span:
                    parent_span = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                    self.spans.append((span_id, parent_span, self.config_id, name,
                                       start, start + elapsed))
            if is_contains:
                notes["core.contains.true"] += bool(result)
            elif is_words:
                if hit:
                    notes["core.words.hits"] += 1
                else:
                    notes["core.words.materialised"] += len(result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import importlib

        from shiftlab.core import LanguageOracle, WordSet

        for owner, attr, name in ((LanguageOracle, "contains", "core.contains"),
                                  (LanguageOracle, "words", "core.words"),
                                  (WordSet, "contains", "core.wordset_contains"),
                                  (WordSet, "at", "core.wordset_at")):
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
        for layer, (home, functions) in TARGETS.items():
            home_mod = importlib.import_module(f"shiftlab.{home}")
            for fname, importers in functions:
                wrapped = self._wrap(f"{layer}.{fname}", getattr(home_mod, fname))
                for mod_name in importers:
                    self._patch(importlib.import_module(f"shiftlab.{mod_name}"), fname, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- summaries --------------------------------------------------------
    def totals(self) -> dict[str, list]:
        """function -> [calls, total_s, self_s] summed over configs and parents."""
        out: dict[str, list] = {}
        for (_, fn, _), (calls, total, own) in self.aggregates.items():
            rec = out.setdefault(fn, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        return out

    def model_build_s(self) -> float:
        """Inclusive time of oracle constructors not called by another one."""
        return sum(total for (_, fn, parent), (_, total, _) in self.aggregates.items()
                   if fn in MODEL_BUILDERS and parent not in MODEL_BUILDERS)

    def dump(self, path) -> None:
        doc = {
            "aggregates": [[c, f, p, *rec] for (c, f, p), rec in sorted(
                self.aggregates.items(), key=lambda kv: tuple(str(x) for x in kv[0]))],
            "notes": self.notes,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
