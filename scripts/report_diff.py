"""Dump the analyses of every benchmark catalog config, or compare two dumps.

``--dump FILE`` runs each config of ``perfbench/catalog/*.json`` (the
timed catalogs and their smoke sets, or only the catalog stems given
after FILE) through ``shiftlab.cli.run`` and writes one JSON object,
{config id: its report's ``analyses``}, to FILE.  A config whose run
raises is stored as {"raised": "<ExceptionType>: <message>"}.

``A B`` compares two dumps and prints each value that differs::

    <config id> <path> <relative difference>     a float that moved
    <config id> <path> <A value> -> <B value>     anything else that moved
    <config id> max <largest relative difference of its floats>

Floats are the 17-digit strings that reports write, or JSON numbers with
a fraction; a pair of digit strings with no point or exponent on either
side (a word such as "01", or a float written "0") counts as another
value.  The relative difference is |a - b| / max(|a|, |b|).  The last
line counts the configs that differ.  The exit status is 1 if anything
other than a float value moved (a key, a length, a status, an error, a
verdict, a count), else 0.  So a change that should move floats only in
their last bits is checked by::

    python3 scripts/report_diff.py --dump before.json   # on the parent
    python3 scripts/report_diff.py --dump after.json    # on the change
    python3 scripts/report_diff.py before.json after.json
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from shiftlab import cli  # noqa: E402


def dump(stems: list[str]) -> dict:
    """{config id: analyses} over the catalogs named by ``stems`` (all of
    them when empty)."""
    catalogs = {path.stem: path for path in (ROOT / "perfbench" / "catalog").glob("*.json")}
    unknown = [stem for stem in stems if stem not in catalogs]
    if unknown:
        raise SystemExit(f"unknown catalog {', '.join(unknown)}; known: {', '.join(sorted(catalogs))}")
    out = {}
    for stem in sorted(stems or catalogs):
        for entry in json.loads(catalogs[stem].read_text(encoding="utf-8"))["entries"]:
            try:
                out[entry["id"]] = cli.run(entry["config"], threads=1)["analyses"]
            except Exception as exc:
                out[entry["id"]] = {"raised": f"{type(exc).__name__}: {exc}"}
    return out


def _float(x) -> float | None:
    """x as a float if it may be a float value of a report, else None: a
    JSON float, or a string that parses as one (``format17`` writes 0.0 as
    "0", so a digit string such as a word may parse too)."""
    if isinstance(x, float):
        return x
    if isinstance(x, str):
        try:
            return float(x)
        except ValueError:
            return None
    return None


def _looks_float(x) -> bool:
    """Whether x is surely a float value: a JSON float, or a string with a
    point, an exponent, inf or nan."""
    return isinstance(x, float) or isinstance(x, str) and any(
        c in x.lower() for c in (".", "e", "inf", "nan"))


def _relative(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def differences(a, b, path: str = ""):
    """(path, relative difference or None, a, b) for every leaf that
    differs; None marks a change that is not a float value moving."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                yield sub, None, a.get(key, "<absent>"), b.get(key, "<absent>")
            else:
                yield from differences(a[key], b[key], sub)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{path}.length" if path else "length", None, len(a), len(b)
        for i, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, f"{path}[{i}]")
    elif a != b:
        fa, fb = _float(a), _float(b)
        both = fa is not None and fb is not None and (_looks_float(a) or _looks_float(b))
        yield path, _relative(fa, fb) if both else None, a, b


def compare(before: dict, after: dict) -> int:
    """Print the differences of two dumps; 1 if a non-float value moved."""
    moved, other = 0, False
    for cid in sorted(before.keys() | after.keys()):
        if cid not in before or cid not in after:
            print(f"{cid} only in {'B' if cid not in before else 'A'}")
            moved, other = moved + 1, True
            continue
        diffs = list(differences(before[cid], after[cid]))
        if not diffs:
            continue
        moved += 1
        worst = 0.0
        for path, rel, a, b in diffs:
            if rel is None:
                other = True
                print(f"{cid} {path} {json.dumps(a)} -> {json.dumps(b)}")
            else:
                worst = max(worst, rel)
                print(f"{cid} {path} {rel:.3g}")
        print(f"{cid} max {worst:.3g}")
    print(f"{moved} configs differ" + ("; a value other than a float moved" if other else ""))
    return 1 if other else 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--dump"] and len(args) >= 2:
        Path(args[1]).write_text(json.dumps(dump(args[2:]), sort_keys=True, indent=1) + "\n",
                                 encoding="utf-8")
        return 0
    if len(args) == 2 and not args[0].startswith("-"):
        before, after = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args)
        return compare(before, after)
    print("usage: report_diff.py --dump FILE [STEM ...] | report_diff.py A B", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
