"""Compares a report's analyses with the expected output recorded in the
catalog.

Statuses, verdicts, booleans, integers and witnesses must match exactly.
Floats, which reports carry as 17-significant-digit strings, must match
within ``REL_TOL`` (with ``ABS_TOL`` near zero): loose enough for a sum taken
in another order or by a transfer matrix, far tighter than the distance
between two different pressures.  For an error entry only the exception
class is compared, not its message.  An error entry whose class is not a
``ShiftLabError`` is an internal error that ``cli.run`` swallowed into
``status: "error"``; it fails whatever the expected output says.  CSVs and
.dat files are not compared.
"""

from __future__ import annotations

import functools
import math

REL_TOL = 1e-9
ABS_TOL = 1e-12

#: keys whose string values are words or parses, never floats
_WORD_KEYS = {"witness", "witnesses", "parses", "triple", "overlap_free_triple",
              "word", "window", "base", "maximal_sets", "op", "status",
              "verdict", "set_name", "condition", "mode", "csv", "dat"}


def error_class(entry_error: str) -> str:
    return entry_error.split(":", 1)[0]


@functools.cache
def domain_errors() -> frozenset[str]:
    """Names of the ``ShiftLabError`` classes of the program under test: the
    errors an analysis may report as a finding."""
    from shiftlab import errors

    return frozenset(name for name, obj in vars(errors).items()
                     if isinstance(obj, type) and issubclass(obj, errors.ShiftLabError))


def is_internal_error(entry: dict) -> bool:
    return (entry.get("status") == "error"
            and error_class(entry.get("error", "")) not in domain_errors())


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _same(expected, actual, words: bool) -> bool:
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and expected.keys() == actual.keys()
                and all(_same(v, actual[k], words or k in _WORD_KEYS) for k, v in expected.items()))
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(expected) == len(actual)
                and all(_same(e, a, words) for e, a in zip(expected, actual)))
    if isinstance(expected, bool) or isinstance(actual, bool):
        return expected is actual
    if isinstance(expected, str) and isinstance(actual, str):
        if expected == actual:
            return True
        if words:
            return False
        x, y = _float(expected), _float(actual)
        return x is not None and y is not None and _close(x, y)
    if isinstance(expected, float) or isinstance(actual, float):
        return (isinstance(actual, (int, float)) and isinstance(expected, (int, float))
                and _close(float(expected), float(actual)))
    return type(expected) is type(actual) and expected == actual


def _close(x: float, y: float) -> bool:
    if math.isinf(x) or math.isinf(y) or math.isnan(x) or math.isnan(y):
        return x == y or (math.isnan(x) and math.isnan(y))
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def analysis_matches(expected: dict, actual: dict) -> bool:
    if is_internal_error(actual):
        return False
    if expected.get("status") == "error" or actual.get("status") == "error":
        return (expected.get("status") == actual.get("status")
                and error_class(expected.get("error", "")) == error_class(actual.get("error", "")))
    return _same(expected, actual, False)


def check_entry(expected: dict, outcome: dict) -> list[bool]:
    """Per-analysis pass/fail for one config.

    ``expected`` is a catalog entry's ``expected`` block: either
    ``{"analyses": [...]}`` or ``{"raises": "<ShiftLabError subclass>"}``.
    ``outcome`` is ``{"analyses": [...]}`` from report.json or
    ``{"raises": "<class>"}`` when ``cli.run`` raised.
    """
    n = len(expected["analyses"]) if "analyses" in expected else expected["n_analyses"]
    if "raises" in expected or "raises" in outcome:
        return [expected.get("raises") == outcome.get("raises")] * n
    got = outcome["analyses"]
    if len(got) != n:
        return [False] * n
    return [analysis_matches(e, a) for e, a in zip(expected["analyses"], got)]
