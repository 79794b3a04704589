"""Print one sha256 per output file of every benchmark catalog config.

Runs each config of ``perfbench/catalog/*.json`` (the timed catalogs and
their smoke sets) through ``shiftlab.cli.run`` in a fresh temporary
directory and prints one line per output file::

    <config id>/<file name> <sha256 of its bytes>

The wall-clock sidecar ``timing.json`` is left out, since it differs on
every run.  A config whose run raises prints ``<config id> raised
<ExceptionType>: <message>`` instead.  The catalogs are only read.

Comparing the output on two checkouts shows whether a change kept every
report, CSV and .dat byte::

    python3 scripts/report_digests.py > after.txt
    diff before.txt after.txt

Catalog stems given as arguments, such as ``tower_dp tower_dp.smoke``,
limit the run to those catalogs; an unknown stem exits with status 2.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from shiftlab import cli  # noqa: E402


def digests(entry: dict) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        try:
            cli.run(entry["config"], tmp, threads=1)
        except Exception as exc:
            return [f"{entry['id']} raised {type(exc).__name__}: {exc}"]
        return [f"{entry['id']}/{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}"
                for path in sorted(Path(tmp).iterdir()) if path.name != "timing.json"]


def main(argv: list[str] | None = None) -> int:
    catalogs = {path.stem: path for path in (ROOT / "perfbench" / "catalog").glob("*.json")}
    stems = sys.argv[1:] if argv is None else argv
    unknown = [stem for stem in stems if stem not in catalogs]
    if unknown:
        print(f"unknown catalog {', '.join(unknown)}; known: {', '.join(sorted(catalogs))}",
              file=sys.stderr)
        return 2
    for stem in sorted(stems or catalogs):
        for entry in json.loads(catalogs[stem].read_text(encoding="utf-8"))["entries"]:
            for line in digests(entry):
                print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
