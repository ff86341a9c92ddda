"""One workload in one fresh process: set up, run timed rounds, check, report.

Started by ``perfbench/run.py`` with the thread variables already pinned; it
prints one JSON object as its last line of standard output. Timings are CPU
seconds of this process (see ``workloads``); the run length is wall time. With ``--trace 1``
it wraps the library before set-up, runs one traced round, removes the
wrappers, then runs untraced rounds for the overhead comparison.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--started", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--perturb", help="negative control: add 1e-9 to this function's outputs "
                                     "(module.function, e.g. ssm.mamba_as_attention)")
    p.add_argument("--spans", help="write the traced run's spans to this JSON file")
    return p.parse_args(argv)


def _library_versions() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas}


def main(argv=None) -> int:
    args = parse_args(argv)
    import dispersionlab

    from perfbench import tracer as tr
    from perfbench.workloads import WORKLOADS, Checks, timing_metrics

    config = json.loads((HERE / "config.json").read_text())
    checks = Checks()
    workload = WORKLOADS[args.workload](args.seed, config, checks)
    perturbation = tr.install_perturbation(args.perturb, 1e-9) if args.perturb else None
    tracer = patches = None
    if args.trace:
        tracer = tr.Tracer()
        patches = tr.install(tracer, cell_peak_n=max(config["dispersion_sweep"]["n_values"]))
        span = tracer.open("setup")
    workload.setup()
    # CPU seconds since the interpreter started, like every timing here
    result = {"workload": args.workload, "seed": args.seed, "setup_s": time.process_time(),
              "setup_wall_s": time.monotonic() - args.started,
              "library": str(Path(dispersionlab.__file__).resolve().parent),
              "versions": _library_versions()}
    if args.setup_only:
        result.update(attempted=checks.attempted, failed=checks.failed, failures=checks.failures)
        print(json.dumps(result))
        return 0

    traced_s = None
    if tracer is not None:
        tracer.close(span)
        span = tracer.open("round")
        traced_s = workload.round()
        tracer.close(span)
        patches.restore()
        workload.reset()

    op_s = []
    start, cpu_start = perf_counter(), time.process_time()
    while not op_s or perf_counter() - start < args.seconds:
        op_s.append(workload.round())
    loop = {"wall_s": perf_counter() - start, "cpu_s": time.process_time() - cpu_start}
    workload.verify()
    if perturbation is not None:
        perturbation.restore()

    work_per_s, named = workload.metrics()
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        rounds=len(op_s), loop=loop,
        attempted=checks.attempted, failed=checks.failed, failures=checks.failures,
        metrics={
            **timing_metrics("op_ms", [1000.0 * s for s in op_s]),
            "work_per_s": {"value": work_per_s, "unit": "1/s"},
            **named,
        },
    )
    if tracer is not None:
        layers = {name: [value, unit] for name, (value, unit) in tr.layer_metrics(tracer).items()}
        layers["trace.overhead_ms"] = [1000.0 * (traced_s - statistics.median(op_s)), "ms"]
        result.update(layers=layers, traced_round_s=traced_s, spans=len(tracer.spans))
        if args.spans:
            names = sorted({s[0] for s in tracer.spans})
            index = {n: i for i, n in enumerate(names)}
            Path(args.spans).write_text(json.dumps({
                "names": names, "fields": ["name", "start_cpu_s", "end_cpu_s", "parent"],
                "spans": [[index[n], a, b, p] for n, a, b, p in tracer.spans]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
