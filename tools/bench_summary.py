"""Summarise perfbench run records into BENCH_<label>.json at the repository root.

    python3 tools/bench_summary.py LABEL [NAME=DIR ...]

Each NAME=DIR is one set of runs, for example ``parent=../parent/perfbench/out
change=perfbench/out``; the default is ``change=perfbench/out``. Every
``--trace 0`` record in DIR (``<workload>-seed<seed>-trace0.json``) counts as
one run, so repeated runs of one tree use distinct seeds. A set must come from
one source tree: records with different ``src_sha256`` are refused.

Per set, the output keeps the keys of ``perfbench/BENCH_baseline.json``
without its traced layers: for every workload and end-to-end metric, the
median, first and third quartile (``statistics.quantiles(values, n=4)``), the
number of runs, the spread (q3 - q1) / median and the unit.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list[float], unit: str) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / median if median else 0.0, "unit": unit}


def load_records(directory: Path) -> list[dict]:
    records = [json.loads(path.read_text()) for path in sorted(directory.glob("*-trace0.json"))]
    if not records:
        raise ValueError(f"no --trace 0 perfbench records in {directory}")
    trees = {r["src_sha256"] for r in records}
    if len(trees) > 1:
        raise ValueError(f"{directory} mixes runs of {len(trees)} source trees")
    return records


def run_set(records: list[dict]) -> dict:
    """The BENCH_baseline.json keys for one set of runs of one tree."""
    samples: dict[str, dict[str, list]] = {}
    for r in records:
        for metric, entry in r["end_to_end"].items():
            samples.setdefault(r["workload"], {}).setdefault(metric, []).append(entry)
    return {
        "end_to_end": {w: {m: summarise([e["value"] for e in entries], entries[0]["unit"])
                           for m, entries in sorted(metrics.items())}
                       for w, metrics in sorted(samples.items())},
        "git_revision": sorted({r["git_revision"] for r in records}),
        "machine": records[0]["machine"],
        "run_seconds": sorted({r["seconds"] for r in records}),
        "seeds": {w: sorted(r["seed"] for r in records if r["workload"] == w)
                  for w in sorted(samples)},
        "src_sha256": records[0]["src_sha256"],
        "versions": records[0]["versions"],
    }


def main(argv: list[str]) -> int:
    if not argv or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    label, specs = argv[0], argv[1:] or ["change=perfbench/out"]
    try:
        sets = {}
        for spec in specs:
            name, sep, directory = spec.partition("=")
            if not sep or not name:
                raise ValueError(f"expected NAME=DIR, got {spec!r}")
            sets[name] = run_set(load_records(ROOT / directory))
    except (OSError, KeyError, ValueError) as exc:
        print(f"bench_summary: {exc}", file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps({
        "description": "Medians and quartiles of every end-to-end perfbench metric over "
                       "the --trace 0 runs of each set, one set per source tree.",
        "label": label,
        "sets": sets,
    }, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
