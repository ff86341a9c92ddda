"""Run perfbench on two source trees in alternating pairs, then summarise the runs.

    python3 tools/bench_pairs.py PARENT_SRC CHANGE_SRC --workload W --pairs N \
        [--seed S] [--label L]

PARENT_SRC and CHANGE_SRC are two checkouts, each with its own
``perfbench/run.py`` and ``src/``. Pair i runs
``perfbench/run.py --workload W --seed S+i --trace 0`` once in each tree (the
benchmark's own run length, seeds from S = 301), the parent first in even
pairs and the change first in odd ones, so that neither tree always runs
first. Each run writes its record into its own tree's ``perfbench/out/``.

After the last pair, bench_summary summarises ``parent=PARENT_SRC/perfbench/out``
and ``change=CHANGE_SRC/perfbench/out`` into ``BENCH_<L>.json`` at this
repository's root (L defaults to ``pairs``), with its ``paired`` section.
This tool then adds ``run_order``: one entry per run, in the order run, with
the tree, workload, seed and exit code. Entries already in that file from an
earlier call are kept ahead of the new ones, so several workloads can share
one file. Every record in the two ``out`` directories is summarised, so
start from empty ones.

Exit code: 2 when the arguments or a tree are unusable or bench_summary
fails, 1 when a run exited nonzero, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import bench_summary

RUNNER = Path("perfbench") / "run.py"


def run_pairs(trees: dict[str, Path], workload: str, pairs: int, seed: int) -> list[dict]:
    """Run the pairs in alternating order; one entry per run, in the order run."""
    order = []
    for i in range(pairs):
        names = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in names:
            cmd = [sys.executable, str(RUNNER), "--workload", workload,
                   "--seed", str(seed + i), "--trace", "0"]
            done = subprocess.run(cmd, cwd=trees[name], stdout=subprocess.DEVNULL, check=False)
            order.append({"tree": name, "workload": workload, "seed": seed + i,
                          "exit": done.returncode})
            print(f"pair {i}: {name} seed {seed + i} exit {done.returncode}", file=sys.stderr)
    return order


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="the parent checkout")
    p.add_argument("change", type=Path, help="the change's checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=301, help="seed of the first pair")
    p.add_argument("--label", default="pairs", help="writes BENCH_<label>.json")
    args = p.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for name, tree in trees.items():
        if not (tree / RUNNER).is_file():
            print(f"bench_pairs: {name} tree {tree} has no {RUNNER}", file=sys.stderr)
            return 2
    if args.pairs < 1:
        print(f"bench_pairs: --pairs must be >= 1, got {args.pairs}", file=sys.stderr)
        return 2

    out = bench_summary.ROOT / f"BENCH_{args.label}.json"
    earlier = json.loads(out.read_text()).get("run_order", []) if out.is_file() else []
    order = run_pairs(trees, args.workload, args.pairs, args.seed)
    status = bench_summary.main([args.label] + [f"{name}={tree / 'perfbench' / 'out'}"
                                                for name, tree in trees.items()])
    if status:
        return 2
    summary = json.loads(out.read_text())
    summary["run_order"] = earlier + order
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 1 if any(run["exit"] for run in order) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
