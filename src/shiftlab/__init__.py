"""Finite-scale computation in symbolic dynamics and thermodynamic formalism.

Build concrete shift spaces, check gluing/decomposition conditions at
certified depths, construct synchronising triples, free families, and the
countable-state tower, and produce pressure, Gibbs, and recurrence
diagnostics.
"""

__version__ = "0.1.0"

import importlib

from .core import (
    Alphabet,
    EMPTY_WORD,
    LanguageOracle,
    Potential,
    Word,
    WordSet,
    distortion_bound,
    phi_hat,
)
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
    PressureReport,
    cylinder_count_table,
    hyperbolicity_diagnostic,
    log_partition_sum,
    periodic_orbit_measure,
    periodic_points,
    pressure_estimate,
)
#: the names re-exported from decomp and tower, which are imported on first
#: use (PEP 562), so that a run that never reaches them does not load them
_LAZY = {
    "decomp": ("ObstructionPair", "TripleCollections", "cgc_construct",
               "check_complete_list_Istar", "check_persistence", "check_spec_I",
               "check_stay_good_III", "good_words_from_obstructions", "pressure_gap_II",
               "qft_constraints", "sync_decomposition"),
    "tower": ("FreeFamily", "SyncTriple", "TowerGraph", "build_free_family", "build_tower_over",
              "ensure_no_long_overlaps", "find_sync_triple", "free_family_from_irreducibles",
              "is_uniquely_decipherable", "loop_sums", "marking_analysis", "spr_diagnostic"),
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name == module or name in names:
            mod = importlib.import_module(f"{__name__}.{module}")
            value = globals()[name] = mod if name == module else getattr(mod, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
