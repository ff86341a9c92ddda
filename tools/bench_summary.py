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

When the sets ``parent`` and ``change`` are both given, a ``paired`` section
matches their runs by (workload, seed). For every end-to-end metric that
``BENCHMARK.json`` gates, it lists each pair's change / parent ratio, counts
the wins (pairs where the change is better in the metric's direction; equal
values are ties), and gives the median ratio with a distribution-free
interval: the k-th smallest and k-th largest ratio, k the largest order whose
binomial coverage of the median is at least 95 % (k = 1, with its lower
coverage stated, when there are too few pairs). ``sign_test_p`` is the exact
two-sided sign-test p-value of the wins among the pairs that are not ties.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
LEVEL = 0.95  # least coverage of the median interval


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


def _below(k: int, n: int) -> float:
    """P(B <= k) for B ~ Binomial(n, 1/2)."""
    return sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n


def median_interval(ratios: list[float]) -> dict:
    """Order-statistic interval for the median of the ratios, and its coverage."""
    values, n = sorted(ratios), len(ratios)
    k = 1
    while k < n // 2 and 1 - 2 * _below(k, n) >= LEVEL:
        k += 1
    return {"low": values[k - 1], "high": values[n - k], "coverage": 1 - 2 * _below(k - 1, n)}


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of wins against losses."""
    m = wins + losses
    return min(1.0, 2 * _below(min(wins, losses), m)) if m else 1.0


def paired(parent: list[dict], change: list[dict], gated: dict[str, str]) -> dict:
    """Change / parent ratios of every gated metric, matched by (workload, seed)."""
    before = {(r["workload"], r["seed"]): r for r in parent}
    out: dict[str, dict] = {}
    for key, after in sorted((k, r) for r in change if (k := (r["workload"], r["seed"])) in before):
        for metric in gated:
            if metric in after["end_to_end"] and metric in before[key]["end_to_end"]:
                b = before[key]["end_to_end"][metric]["value"]
                a = after["end_to_end"][metric]["value"]
                out.setdefault(key[0], {}).setdefault(metric, []).append(
                    {"seed": key[1], "parent": b, "change": a, "ratio": a / b})
    summary: dict[str, dict] = {}
    for workload, metrics in out.items():
        for metric, pairs in metrics.items():
            sign = 1 if gated[metric] == "lower" else -1
            wins = sum(sign * (p["parent"] - p["change"]) > 0 for p in pairs)
            ties = sum(p["parent"] == p["change"] for p in pairs)
            ratios = [p["ratio"] for p in pairs]
            summary.setdefault(workload, {})[metric] = {
                "better": gated[metric], "pairs": pairs, "wins": wins, "ties": ties,
                "median_ratio": statistics.median(ratios),
                "interval": median_interval(ratios),
                "sign_test_p": sign_test_p(wins, len(pairs) - wins - ties),
            }
    return summary


def main(argv: list[str]) -> int:
    if not argv or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    label, specs = argv[0], argv[1:] or ["change=perfbench/out"]
    try:
        records = {}
        for spec in specs:
            name, sep, directory = spec.partition("=")
            if not sep or not name:
                raise ValueError(f"expected NAME=DIR, got {spec!r}")
            records[name] = load_records(ROOT / directory)
        summary = {
            "description": "Medians and quartiles of every end-to-end perfbench metric over "
                           "the --trace 0 runs of each set, one set per source tree; with "
                           "sets parent and change, their runs paired by (workload, seed).",
            "label": label,
            "sets": {name: run_set(runs) for name, runs in records.items()},
        }
        if {"parent", "change"} <= records.keys():
            gated = {m["name"]: m["better"] for m in
                     json.loads(BENCHMARK.read_text())["end_to_end"]}
            summary["paired"] = paired(records["parent"], records["change"], gated)
    except (OSError, KeyError, ValueError) as exc:
        print(f"bench_summary: {exc}", file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
