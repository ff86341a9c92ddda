"""dispersionlab benchmark: run one workload (or all four) and report its metrics.

    python3 perfbench/run.py --workload dispersion_sweep --seed 42 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs as a closed loop: one caller in a fresh worker process, with
BLAS threads and DISPERSION_LAB_THREADS pinned to 1. ``--trace 0`` measures the
end-to-end metrics; set-up runs several times, each in its own process, and
``setup_s`` is their median. ``--trace 1`` runs the traced worker and reports
the per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the metric names are
those listed in BENCHMARK.json. The full record, with the machine and the
settings, is written to perfbench/out/. The exit code is 0 when every
correctness check passed, 1 when one failed and 2 when the benchmark could
not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1", "DISPERSION_LAB_THREADS": "1"}
DEADLINE_S = 170.0  # every invocation ends well inside 180 s


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    llc = "unknown"
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    levels = [(int((c / "level").read_text()), (c / "size").read_text().strip())
              for c in caches if (c / "level").is_file() and (c / "size").is_file()]
    if levels:
        llc = max(levels)[1]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "llc_size": llc, "platform": platform.platform()}


def git_revision() -> str:
    """HEAD's commit from .git without running git; the checkout may have none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def source_digest() -> str:
    """sha256 over src/ (paths and contents): identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def worker_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(worker_args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    started = time.monotonic()
    remaining = deadline - started
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a worker")
    cmd = [sys.executable, "-m", "perfbench.worker", *worker_args, "--started", repr(started)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchmarkError(f"worker exceeded the time limit: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    if Path(result["library"]) != ROOT / "src" / "dispersionlab":
        raise BenchmarkError(f"imported dispersionlab from {result['library']}, "
                             f"not from {ROOT / 'src'}")
    return result


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict,
                 config: dict, perturb: str | None) -> tuple[dict, dict]:
    """The result object and the full record of one workload run."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds)]
    if perturb:
        common += ["--perturb", perturb]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    setups = []
    if trace:
        main = spawn(common + ["--trace", "1", "--spans", str(out_dir / f"{stem}-spans.json")],
                     deadline)
    else:
        setups = [spawn(common + ["--setup-only"], deadline)
                  for _ in range(config["setup_repeats"] - 1)]
        main = spawn(common, deadline)
    runs = setups + [main]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    named = dict(main["metrics"])
    named["setup_s"] = {"value": statistics.median(r["setup_s"] for r in runs), "unit": "s",
                        "samples": len(runs),
                        "wall": statistics.median(r["setup_wall_s"] for r in runs)}
    named["peak_rss_mb"] = {"value": main["peak_rss_mb"], "unit": "MB"}
    named["fail_ratio"] = {"value": failed / attempted if attempted else 1.0, "unit": "ratio"}
    if trace:
        wanted = [m["name"] for m in spec["per_layer"]]
        source = {k: {"value": v, "unit": u} for k, (v, u) in main["layers"].items()}
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
        source = named
    missing = [m for m in wanted if m not in source]
    if missing:
        raise BenchmarkError(f"{name} does not produce {missing}")
    result = {"correct": attempted > 0 and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {m: {"value": source[m]["value"], "unit": source[m]["unit"]}
                          for m in wanted}}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "loop": "closed, one caller", "rounds": main["rounds"], "timed_loop": main["loop"],
        "machine": machine(), "versions": main["versions"],
        "settings": {**PINNED_THREADS, "setup_repeats": len(runs)},
        "git_revision": git_revision(), "src_sha256": source_digest(),
        "checks": {"attempted": attempted, "failed": failed,
                   "failures": [f for r in runs for f in r["failures"]]},
        "end_to_end": named,
    }
    if trace:
        record.update(layers=main["layers"], traced_round_s=main["traced_round_s"],
                      spans=main["spans"])
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    return result, record


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(record: dict) -> None:
    m = record["machine"]
    loop = record["timed_loop"]
    print(f"== {record['workload']}  seed {record['seed']}  {record['rounds']} rounds in "
          f"{loop['wall_s']:.1f} s wall, {loop['cpu_s']:.1f} s CPU  trace {record['trace']}")
    print(f"   machine: {m['nproc']} cpus, {m['cpu_model']}, LLC {m['llc_size']}; "
          f"{record['versions']}; threads pinned to 1; revision {record['git_revision']}")
    for name, metric in record["end_to_end"].items():
        extra = ""
        if "percentile" in metric:
            extra = (f"  (p{metric['percentile']:g} of {metric['samples']} samples, "
                     f"{metric['beyond']} beyond)")
        elif "samples" in metric:
            extra = f"  ({metric['samples']} samples)"
        print(f"   {name:22s} {_fmt(metric['value']):>14s} {metric['unit']}{extra}")
    for failure in record["checks"]["failures"]:
        print(f"   FAILED {failure}")
    if record["trace"]:
        layers = record["layers"]
        zero = [k for k, (v, _) in layers.items() if v == 0]
        for name, (value, unit) in layers.items():
            if value != 0:
                print(f"   {name:46s} {_fmt(value):>14s} {unit}")
        print(f"   ({len(zero)} layer metrics are 0 on this workload: the layer is not called)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, help="workload seed (default: config.json)")
    p.add_argument("--seconds", type=float, help="timed seconds (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--perturb", help=argparse.SUPPRESS)  # negative control, see README
    args = p.parse_args(argv)
    try:
        if not (ROOT / "src" / "dispersionlab" / "__init__.py").is_file():
            raise BenchmarkError(f"no dispersionlab sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        config = json.loads((HERE / "config.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise BenchmarkError(f"unknown workload {args.workload!r}; choose from {names}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        code = 0
        for name in names if args.workload == "all" else [args.workload]:
            seed = args.seed if args.seed is not None else config["default_seeds"][name]
            result, record = run_workload(name, seed, seconds, args.trace, spec, config,
                                          args.perturb)
            print_report(record)
            print(json.dumps(result), flush=True)
            code = max(code, 0 if result["correct"] else 1)
        return code
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
