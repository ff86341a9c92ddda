"""Time library calls of two source trees in one process, in alternating paired batches.

    python3 tools/ab_ops.py PARENT_SRC CHANGE_SRC [--pairs N]

PARENT_SRC and CHANGE_SRC are two checkouts, each with its own
``src/dispersionlab`` package. Both packages are loaded into this one process
under distinct names (``parent_dispersionlab`` and ``change_dispersionlab``),
so each call of the catalogue below runs on the same inputs, in the same heap
and on the same core in both trees. Run as a script, the tool pins numpy's BLAS
to one thread before numpy loads.

The catalogue: ``analysis._variant_cell`` for the five sweep variants (their
default kernels and perfbench's samplers, d = 16, window 8) at n = 1,024 and
4,096; ``softmax_attention`` at n = 4,096 (d = 64); the tape's ``layer_norm``
forward on a recording tape plus its adjoint at the toy model's two shapes,
(4,096, 8) for a training batch and (16,384, 8) for an evaluation pass;
``model.train_toy`` for 3 epochs on the ablation model with averaging on and
off (seed 13); ``model.forward`` of ``tiny_224`` on one 224 x 224 image,
perfbench's ``backbone_inference`` call, and of the ablation model with
averaging off on a 256-sample patch_rows table, one evaluation pass of
``train_toy``, with parameters drawn once; ``ssm.forms_max_diff`` on
``sequence_kernels``' n = 256 instance (8 states, 8 channels); and
``sema_attention`` at n = 65,536 (d = 64, w = 8). Per call, both trees run
once to warm up and to set the batch size, about BATCH_S of process CPU time.
Then N pairs of batches run, the parent first in even pairs and the change
first in odd ones, each batch timed in process CPU time after a gc.collect().

Prints one line per call: the median per-call milliseconds of each tree, the
median of the pairs' change / parent ratios with bench_summary's
order-statistic interval for it, the wins (pairs where the change took less
time) and whether the two trees' outputs are bitwise equal (arrays byte for
byte, floats by their bits, dicts key by key; a NaN's payload counts). Exit
code: 2 when a tree has no package, 1 when some call's outputs differ, 0
otherwise.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":  # one BLAS thread, set before numpy loads its BLAS
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import math
import statistics
import struct
import time
from pathlib import Path

import numpy as np

import bench_summary

PACKAGE = Path("src") / "dispersionlab"
BATCH_S = 0.1  # process CPU seconds per timed batch, about
SEED = 0
CELL_N = (1024, 4096)
VARIANTS = ("softmax", "linear", "focused", "mila", "window")
NORM_ROWS = (4096, 16384)  # the toy model's training batch and evaluation pass, 8 wide
TOY_EPOCHS, TOY_SEED = 3, 13


def load(name: str, tree: Path):
    """The tree's dispersionlab package, imported afresh as the top-level package `name`."""
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]
    root = tree / PACKAGE
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def sub(pkg, name: str):
    """The loaded package's submodule `name`."""
    return importlib.import_module(f"{pkg.__name__}.{name}")


def catalogue(parent) -> list[tuple[str, object]]:
    """(label, call) pairs; a call takes a loaded package and returns its output.

    Inputs are drawn once with the parent's samplers and shared by both trees.
    """
    analysis = sub(parent, "analysis")
    rng = np.random.default_rng(SEED)
    calls = []
    for n in CELL_N:
        for variant in VARIANTS:
            sampler = analysis.BoundedSampler(16, nonneg=variant == "focused",
                                              tile_rows=8 if variant == "window" else None)
            q, k = sampler.draw(rng, n)

            def cell(pkg, variant=variant, q=q, k=k):
                win = sub(pkg, "attention").WindowSpec(8) if variant == "window" else None
                kernel = sub(pkg, "analysis").default_kernel(variant)
                return sub(pkg, "analysis")._variant_cell(variant, kernel, q, k, win)

            calls.append((f"_variant_cell {variant} n={n}", cell))
    q, k, v = rng.standard_normal((3, 4096, 64))
    calls.append(("softmax_attention n=4096",
                  lambda pkg: sub(pkg, "attention").softmax_attention(q, k, v)))
    for n in NORM_ROWS:
        x, g = rng.standard_normal((2, n, 8))
        gamma, beta = rng.standard_normal((2, 1, 8))

        def norm(pkg, x=x, g=g, gamma=gamma, beta=beta):
            ag = sub(pkg, "autograd")
            tape = ag.Tape()
            out = ag.layer_norm(*(ag.leaf(tape, a) for a in (x, gamma, beta)))
            return out.value, ag.ADJOINTS["layer_norm"](out.node, g, (x, gamma, beta))

        calls.append((f"layer_norm+adjoint n={n} d=8", norm))
    for averaging in (True, False):
        def toy(pkg, averaging=averaging):
            model = sub(pkg, "model")
            cfg = model.ModelConfig.ablation(averaging_enabled=averaging)
            return model.train_toy(cfg, model.SyntheticTask(), TOY_EPOCHS, TOY_SEED)

        calls.append((f"train_toy averaging={'on' if averaging else 'off'}", toy))
    model = sub(parent, "model")
    params = model.init_params(model.ModelConfig.tiny_224())
    image = rng.random((1, 224, 224, 3))

    def backbone(pkg):
        tree = sub(pkg, "model")
        return tree.forward(tree.ModelConfig.tiny_224(), params, image)

    calls.append(("forward tiny_224 batch=1 images", backbone))
    off = model.ModelConfig.ablation(averaging_enabled=False)
    off_params = model.init_params(off)
    table = model.patch_rows(off, rng.random((256, off.image_size, off.image_size, 3)))

    def evaluation(pkg):
        tree = sub(pkg, "model")
        return tree.forward(tree.ModelConfig.ablation(averaging_enabled=False), off_params, table)

    calls.append(("forward ablation off b=256 table", evaluation))
    instance = sub(parent, "ssm").SsmParams.random(rng, 256, 8, 8)  # n, states, channels
    arrays = {f.name: getattr(instance, f.name) for f in dataclasses.fields(instance)}
    x = rng.standard_normal((256, 8))

    def forms(pkg):
        ssm = sub(pkg, "ssm")
        return ssm.forms_max_diff(ssm.SsmParams(**arrays), x)

    calls.append(("forms_max_diff n=256 d=8 c=8", forms))
    local = rng.standard_normal((3, 65536, 64))  # softmax_attention's q, k, v stay n = 4,096

    def sema(pkg):
        attention = sub(pkg, "attention")
        return attention.sema_attention(*local, attention.WindowSpec(8))

    calls.append(("sema_attention n=65536 d=64 w=8", sema))
    return calls


def bits(x):
    """A comparable, bit-exact form of a call's output."""
    if hasattr(x, "array"):  # a Tensor
        x = x.array
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, np.ascontiguousarray(x).tobytes()
    if isinstance(x, float):
        return struct.pack("<d", x)
    if dataclasses.is_dataclass(x):
        x = [getattr(x, f.name) for f in dataclasses.fields(x)]
    if isinstance(x, dict):  # key by key, in key order
        return tuple((key, bits(x[key])) for key in sorted(x))
    if isinstance(x, (tuple, list)):
        return tuple(bits(item) for item in x)
    return x


def batch(call, pkg, count: int) -> float:
    """Process CPU seconds of count calls."""
    gc.collect()
    start = time.process_time()
    for _ in range(count):
        call(pkg)
    return time.process_time() - start


def compare(call, trees: dict, pairs: int) -> dict:
    """Warm up, size the batch and run the pairs of one call; its summary."""
    outputs, once = {}, []
    for name, pkg in trees.items():
        start = time.process_time()
        outputs[name] = bits(call(pkg))
        once.append(time.process_time() - start)
    count = max(1, round(BATCH_S / max(max(once), 1e-6)))
    seconds = {name: [] for name in trees}
    for i in range(pairs):
        for name in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            seconds[name].append(batch(call, trees[name], count))
    ratios = [c / p for c, p in zip(seconds["change"], seconds["parent"]) if p > 0] or [math.nan]
    return {
        "ms": {name: 1e3 * statistics.median(s) / count for name, s in seconds.items()},
        "ratio": statistics.median(ratios),
        "interval": bench_summary.median_interval(ratios),
        "wins": sum(c < p for c, p in zip(seconds["change"], seconds["parent"])),
        "equal": outputs["parent"] == outputs["change"],
    }


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="the parent checkout")
    p.add_argument("change", type=Path, help="the change's checkout")
    p.add_argument("--pairs", type=int, default=20)
    args = p.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / PACKAGE / "__init__.py").is_file():
            print(f"ab_ops: {tree} has no {PACKAGE}", file=sys.stderr)
            return 2
    if args.pairs < 1:
        print(f"ab_ops: --pairs must be >= 1, got {args.pairs}", file=sys.stderr)
        return 2
    trees = {"parent": load("parent_dispersionlab", args.parent.resolve()),
             "change": load("change_dispersionlab", args.change.resolve())}
    threads = {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    print(f"numpy {np.__version__}, {threads}, {args.pairs} pairs")
    differ = 0
    for label, call in catalogue(trees["parent"]):
        with np.errstate(all="ignore"):
            r = compare(call, trees, args.pairs)
        differ += not r["equal"]
        print(f"{label:32} parent {r['ms']['parent']:9.3f} ms  change {r['ms']['change']:9.3f} ms"
              f"  ratio {r['ratio']:.3f} [{r['interval']['low']:.3f}, {r['interval']['high']:.3f}]"
              f"  wins {r['wins']}/{args.pairs}"
              f"  {'bitwise equal' if r['equal'] else 'OUTPUTS DIFFER'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
