"""Print one ``name sha256`` line per library output on seeded inputs.

    PYTHONPATH=src python3 tools/output_digest.py > digest.txt
    PYTHONPATH=old/src python3 tools/output_digest.py --save DIR
    PYTHONPATH=src python3 tools/output_digest.py --compare DIR
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/output_digest.py --header \
        > tests/fixtures/output_digest.txt

Each line hashes the dtype, shape and bytes of one output (or of a named
sequence of outputs, such as the closed form at every m), so two source trees
print the same line exactly when that output is bitwise equal on both. A
bitwise claim about a change is then a ``diff`` of the printouts of the two
trees, each run with ``PYTHONPATH`` at that tree's ``src``.

``--save DIR`` also writes every output's arrays to DIR (one ``.npz`` per
line, about 85 MB; DIR must lie outside the source tree). ``--compare DIR``
prints, for each line whose hash differs from the saved run, the name and the
largest absolute change divided by the largest saved entry, or ``shape``,
``new`` or ``missing``; NaN matching NaN counts as no change. It exits 1 when
any line differs. The ``measure_dispersion`` lines hash report text as bytes,
so for them the number only says that the text changed.

``--header`` puts ``# field: value`` lines before the printout, naming what the
bits depend on besides the source: the numpy version, the BLAS library and
version, the configuration string of the loaded OpenBLAS (its version, build
options and the core its DYNAMIC_ARCH dispatch picked at load time), numpy's
SIMD extensions found on this CPU and the BLAS thread count. The committed
``tests/fixtures/output_digest.txt`` is that printout at one BLAS thread, and
the test suite compares its own lines with it wherever the header matches.

Covered: every public ``attention`` and ``posenc`` kernel at n = 16, 64 and
1,024 (the last on the streamed softmax path); the streamed global outputs
(``generalized_attention`` with each of the four kernels, ``softmax_attention``,
``linear_attention`` and ``focused_attention``) also at n = 1,500 and 2,170;
``ssm_scan``, ``ssm_closed_form``
(h and y at every m), ``mamba_as_attention``, ``decayed_key_magnitudes`` (every
m) and ``forgetting_horizon`` on the golden fixture, on the 100 instances of
``ssm-check --seed 42`` and on a random n = 256 instance; both causal linear
forms; the ``tiny_224`` logits at batch 1; a 3-epoch ``train_toy`` with
averaging on and off; the ``DispersionReport.to_json()`` text of the five
sweeps of perfbench's ``dispersion_sweep`` (softmax, linear, focused, MILA and
window at w = 8 with fixed content; seed 42, d 16, n = 64..4096, 2 trials); and
on a recording tape, the loss and every leaf gradient of each case of
``dispersion-lab gradcheck --seed 42``, and of one ``ModelConfig.toy()``
cross-entropy backward on two seeded images (widths 16-128, 1-8 heads).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from dispersionlab import attention as at
from dispersionlab import analysis, autograd, cli, model, posenc, ssm
from dispersionlab.rng import rng_for

ROOT = Path(__file__).resolve().parent.parent
SEED = 42


def _arrays(value) -> list[np.ndarray]:
    items = value if isinstance(value, (list, tuple)) else [value]
    return [np.ascontiguousarray(getattr(item, "array", item)) for item in items]


def digest(value) -> str:
    """sha256 over the dtype, shape and bytes of an array or a sequence of arrays."""
    h = hashlib.sha256()
    for arr in _arrays(value):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def environment() -> dict[str, str]:
    """What the digest's bits depend on besides the source, as the --header fields."""
    config = np.show_config(mode="dicts")
    blas = cli.blas_environment()
    return {
        "numpy": np.__version__,
        "blas": blas["blas"],
        "openblas configuration": blas["openblas configuration"],
        "simd found": " ".join(config["SIMD Extensions"]["found"]),
        "blas threads": blas["blas threads"],
    }


def header() -> list[str]:
    return [f"# {field}: {value}" for field, value in environment().items()]


def attention_outputs():
    softmax, linear = at.KernelSpec.softmax(), at.KernelSpec.linear()
    kernels = {"softmax": softmax, "temperature": at.KernelSpec.softmax_temperature(0.5),
               "linear": linear, "focused": at.KernelSpec.focused()}
    for n in (16, 64, 1024):
        rng = rng_for(SEED, "digest", "attention", n)
        d = 8
        q, k, v = rng.standard_normal((3, n, d))
        grid = posenc.GridSpec.grid(4, n // 4)
        dwc = posenc.DepthwiseKernel(rng.standard_normal((d, 3, 3)))
        tag = f"n={n}"
        yield f"phi_normalize.softmax/{tag}", at.phi_normalize(q[0] @ k.T, softmax)
        yield f"phi_normalize.linear/{tag}", at.phi_normalize(np.abs(q[0] @ k.T), linear)
        yield f"focused_map/{tag}", at.focused_map(q, 3)
        qa, ka = np.abs(q), np.abs(k)  # focused features vanish on rows with no positive entry
        for name, kernel in kernels.items():
            qq, kk = (qa, ka) if name == "focused" else (q, k)
            yield f"generalized_attention.{name}/{tag}", at.generalized_attention(qq, kk, v, kernel)
            yield (f"generalized_attention_coefficients.{name}/{tag}",
                   at.generalized_attention_coefficients(qq, kk, kernel))
            for w in (4, 8):
                win, wtag = at.WindowSpec(w), f"{name}/w={w}/{tag}"
                yield f"window_attention.{wtag}", at.window_attention(qq, kk, v, win, kernel)
                yield (f"window_attention_coefficients.{wtag}",
                       at.window_attention_coefficients(qq, kk, win, kernel))
                yield f"sema_attention.{wtag}", at.sema_attention(qq, kk, v, win, kernel)
        yield f"softmax_attention/{tag}", at.softmax_attention(q, k, v)
        yield f"softmax_attention_coefficients/{tag}", at.softmax_attention_coefficients(q, k)
        yield f"linear_attention/{tag}", at.linear_attention(q, k, v)
        yield f"linear_attention_coefficients/{tag}", at.linear_attention_coefficients(q, k)
        yield f"linear_attention_fast/{tag}", at.linear_attention_fast(q, k, v)
        yield f"focused_attention/{tag}", at.focused_attention(qa, ka, v)
        yield (f"focused_attention.lepe/{tag}",
               at.focused_attention(qa, ka, v).array + posenc.lepe(v, dwc, grid).array)
        yield f"focused_attention_coefficients/{tag}", at.focused_attention_coefficients(qa, ka)
        yield f"homogeneous_mix/{tag}", at.homogeneous_mix(v)
        positions = rng.permutation(n)
        for gated in (False, True):
            yield f"mila_coefficients/gated={gated}/{tag}", at.mila_coefficients(q, k, grid, gated)
        yield f"mila_attention/{tag}", at.mila_attention(q, k, v)
        yield (f"mila_attention.lepe/{tag}",
               at.mila_attention(q, k, v, grid).array + posenc.lepe(v, dwc, grid).array)
        yield f"mila_attention.positions/{tag}", at.mila_attention(q, k, v, positions=positions)
    # streamed global outputs only (the window and grid outputs need n divisible by
    # 4 and 8): at 1,500 the 349-row blocks leave a 104-row last block, and 2,170 is
    # the first n whose lone last row joins the block before it
    for n in (1500, 2170):
        q, k, v = rng_for(SEED, "digest", "attention", n).standard_normal((3, n, 8))
        qa, ka = np.abs(q), np.abs(k)
        tag = f"n={n}"
        for name, kernel in kernels.items():
            qq, kk = (qa, ka) if name == "focused" else (q, k)
            yield f"generalized_attention.{name}/{tag}", at.generalized_attention(qq, kk, v, kernel)
        yield f"softmax_attention/{tag}", at.softmax_attention(q, k, v)
        yield f"linear_attention/{tag}", at.linear_attention(q, k, v)
        yield f"focused_attention/{tag}", at.focused_attention(qa, ka, v)


def posenc_outputs():
    for n in (16, 64, 1024):
        rng = rng_for(SEED, "digest", "posenc", n)
        x = rng.standard_normal((n, 8))
        taps = rng.standard_normal((8, 3, 3))
        tag = f"n={n}"
        for grid in (posenc.GridSpec.linear(n), posenc.GridSpec.grid(4, n // 4)):
            gtag = f"{tag}/grid={grid.height}x{grid.width}"
            angles = posenc.rope_angles(grid, 8)
            yield f"rope_angles/{gtag}", angles
            yield f"rotate_pairs/{gtag}", posenc.rotate_pairs(x, angles)
            yield f"rope_apply/{gtag}", posenc.rope_apply(x, grid)
            yield f"lepe/{gtag}", posenc.lepe(x, posenc.DepthwiseKernel(taps), grid)
            yield (f"depthwise_conv_grid/{gtag}",
                   posenc.depthwise_conv_grid(x[None], taps, grid.height, grid.width)[0])
        yield f"rope_apply.positions/{tag}", posenc.rope_apply(
            x, posenc.GridSpec.linear(n), rng.permutation(n))


def ssm_instances():
    """(label, params, x): the golden fixture, ssm-check --seed 42, one n = 256 instance."""
    fixture = json.loads((ROOT / "tests" / "fixtures" / "ssm_golden.json").read_text())
    yield ("golden", ssm.SsmParams.from_json(json.dumps(fixture["params"])),
           np.asarray(fixture["x"]))
    for inst in range(100):  # the draws of `dispersion-lab ssm-check --seed 42`
        rng = rng_for(42, "ssm-check", inst)
        n, d_state, channels = (int(rng.integers(1, hi + 1)) for hi in (16, 8, 8))
        x = rng.standard_normal((n, channels))
        yield f"ssm-check.{inst}", ssm.SsmParams.random(rng, n, d_state, channels), x
    rng = rng_for(SEED, "digest", "ssm-large")
    yield "n=256", ssm.SsmParams.random(rng, 256, 8, 8), rng.standard_normal((256, 8))


def ssm_outputs():
    q, k, v = rng_for(SEED, "digest", "causal-linear").standard_normal((3, 64, 8))
    yield "causal_linear_recursive", ssm.causal_linear_recursive(q, k, v)
    yield "causal_linear_masked", ssm.causal_linear_masked(q, k, v)
    for label, p, x in ssm_instances():
        p0 = ssm.SsmParams(p.A_tilde, p.B, p.C_out, p.D, p.Delta, np.zeros_like(p.h0))
        steps = range(1, p.n + 1)
        h_seq, y = ssm.ssm_scan(p, x)
        closed = [ssm.ssm_closed_form(p, x, m) for m in steps]
        yield f"ssm_scan.h/{label}", h_seq
        yield f"ssm_scan.y/{label}", y
        yield f"ssm_closed_form.h/{label}", [h for h, _ in closed]
        yield f"ssm_closed_form.y/{label}", [y_m for _, y_m in closed]
        yield f"ssm_scan.y/h0=0/{label}", ssm.ssm_scan(p0, x)[1]
        yield f"mamba_as_attention/{label}", ssm.mamba_as_attention(p0, x)
        yield f"decayed_key_magnitudes/{label}", [ssm.decayed_key_magnitudes(p, m) for m in steps]
        for threshold in (0.5, 0.1, 0.01):
            yield (f"forgetting_horizon/t={threshold}/{label}",
                   np.asarray(ssm.forgetting_horizon(p, threshold)))


def model_outputs():
    cfg = model.ModelConfig.tiny_224()
    image = rng_for(SEED, "digest", "tiny_224").random((1, 224, 224, 3))
    yield "tiny_224.logits", model.forward(cfg, model.init_params(cfg), image)
    for averaging in (True, False):
        cfg = model.ModelConfig.ablation(averaging_enabled=averaging)
        res = model.train_toy(cfg, model.SyntheticTask(), 3, SEED)
        tag = f"averaging={averaging}"
        yield f"train_toy.curves/{tag}", np.array([res.train_acc, res.val_acc, res.loss])
        yield f"train_toy.best/{tag}", np.array([res.best_val_acc, res.best_epoch])
        yield f"train_toy.params/{tag}", [res.params[name] for name in sorted(res.params)]


def dispersion_outputs():
    n_values = [64 << i for i in range(7)]
    for variant in analysis.VARIANTS:
        win = at.WindowSpec(8) if variant == "window" else None
        sampler = analysis.BoundedSampler(16, 1.0, nonneg=variant == "focused",
                                          tile_rows=8 if win else None)
        rep = analysis.measure_dispersion(variant, None, sampler, n_values, 2, SEED, win=win)
        yield f"measure_dispersion/{variant}", np.frombuffer(rep.to_json().encode(), np.uint8)


def tape_outputs():
    """Loss and q, k, v gradients of each ``dispersion-lab gradcheck`` case at seed 42,
    then the loss and every leaf gradient of a batch-2 ``ModelConfig.toy()`` backward."""
    for variant in cli.GRADCHECK_VARIANTS:
        fn, inputs = cli._gradcheck_case(variant, SEED)
        tape = autograd.Tape()
        leaves = [autograd.leaf(tape, x) for x in inputs]
        loss = fn(*leaves)
        grads = autograd.backward(loss)
        yield f"gradcheck_case.loss/{variant}", loss.value
        for name, lv in zip("qkv", leaves):
            yield f"gradcheck_case.grad_{name}/{variant}", grads[lv.idx]
    # widths 16-128 and 1-8 heads, which the 8-wide ablation model never reaches
    cfg = model.ModelConfig.toy()
    rng = rng_for(SEED, "digest", "toy-backward")
    images = rng.random((2, cfg.image_size, cfg.image_size, 3))
    labels = rng.integers(0, cfg.num_classes, 2)
    tape = autograd.Tape()
    tp = model._trace_params(tape, model.init_params(cfg))
    loss = autograd.cross_entropy(model._forward_traced(tape, tp, cfg, images), labels)
    grads = autograd.backward(loss)
    names = {lv.idx: name for name, lv in tp.items()}
    yield "toy_backward.loss", loss.value
    for idx in sorted(grads):
        yield f"toy_backward.grad/{names[idx]}", grads[idx]


GROUPS = (attention_outputs, posenc_outputs, ssm_outputs, model_outputs, dispersion_outputs,
          tape_outputs)


def outputs(groups=GROUPS):
    for group in groups:
        yield from group()


def lines(groups=GROUPS):
    for name, value in outputs(groups):
        yield f"{name} {digest(value)}"


def save(directory: Path, groups=GROUPS) -> list[str]:
    """The digest lines; writes them to DIR/digest.txt and line k's arrays to DIR/k.npz."""
    directory.mkdir(parents=True, exist_ok=True)
    printed = []
    for k, (name, value) in enumerate(outputs(groups)):
        np.savez(directory / f"{k}.npz", *_arrays(value))
        printed.append(f"{name} {digest(value)}")
    (directory / "digest.txt").write_text("".join(line + "\n" for line in printed))
    return printed


def relative_change(before: list[np.ndarray], after: list[np.ndarray]) -> float | None:
    """Largest |after - before| over the largest finite |before| (1 if that is 0);
    None when the number or shapes of the arrays differ."""
    if [a.shape for a in before] != [a.shape for a in after]:
        return None
    change = scale = 0.0
    for old, new in zip(before, after):
        old, new = old.astype(np.float64), new.astype(np.float64)
        same = (old == new) | (np.isnan(old) & np.isnan(new))
        with np.errstate(invalid="ignore"):  # inf - inf
            diff = np.where(same, 0.0, np.abs(new - old))
        diff[np.isnan(diff)] = np.inf  # NaN against a number
        finite = np.abs(old[np.isfinite(old)])
        change = max(change, float(diff.max(initial=0.0)))
        scale = max(scale, float(finite.max(initial=0.0)))
    return change / (scale or 1.0)


def compare(directory: Path, groups=GROUPS) -> list[str]:
    """One ``name change`` line per output that differs from the run saved in DIR."""
    saved = {}
    for k, line in enumerate((directory / "digest.txt").read_text().splitlines()):
        name, hashed = line.split(" ")
        saved[name] = (k, hashed)
    report = []
    for name, value in outputs(groups):
        k, hashed = saved.pop(name, (None, None))
        if k is None:
            report.append(f"{name} new")
        elif digest(value) != hashed:
            with np.load(directory / f"{k}.npz") as old:
                before = [old[f"arr_{i}"] for i in range(len(old.files))]
            change = relative_change(before, _arrays(value))
            report.append(f"{name} {'shape' if change is None else f'{change:.2e}'}")
    return report + [f"{name} missing" for name in saved]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--save", type=Path, metavar="DIR",
                      help="also write every output's arrays to DIR")
    mode.add_argument("--compare", type=Path, metavar="DIR",
                      help="print the lines that differ from the run saved in DIR")
    mode.add_argument("--header", action="store_true",
                      help="print the environment header before the lines")
    args = parser.parse_args(argv)
    if args.save and args.save.resolve().is_relative_to(ROOT):
        parser.error(f"--save {args.save}: keep DIR outside the source tree {ROOT}")
    if args.compare:
        report = compare(args.compare)
        print("\n".join(report + [f"{len(report)} lines differ"]))
        return 1 if report else 0
    if args.header:
        print("\n".join(header()))
    for line in save(args.save) if args.save else lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
