"""Print one ``name sha256`` line per library output on seeded inputs.

    PYTHONPATH=src python3 tools/output_digest.py > digest.txt

Each line hashes the dtype, shape and bytes of one output (or of a named
sequence of outputs, such as the closed form at every m), so two source trees
print the same line exactly when that output is bitwise equal on both. A
bitwise claim about a change is then a ``diff`` of the printouts of the two
trees, each run with ``PYTHONPATH`` at that tree's ``src``.

Covered: every public ``attention`` and ``posenc`` kernel at n = 16, 64 and
1,024 (the last on the streamed softmax path); ``ssm_scan``, ``ssm_closed_form``
(h and y at every m), ``mamba_as_attention``, ``decayed_key_magnitudes`` (every
m) and ``forgetting_horizon`` on the golden fixture, on the 100 instances of
``ssm-check --seed 42`` and on a random n = 256 instance; both causal linear
forms; the ``tiny_224`` logits at batch 1; a 3-epoch ``train_toy`` with
averaging on and off; and the ``DispersionReport.to_json()`` text of the five
sweeps of perfbench's ``dispersion_sweep`` (softmax, linear, focused, MILA and
window at w = 8 with fixed content; seed 42, d 16, n = 64..4096, 2 trials).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from dispersionlab import attention as at
from dispersionlab import analysis, model, posenc, ssm
from dispersionlab.rng import rng_for

ROOT = Path(__file__).resolve().parent.parent
SEED = 42


def digest(value) -> str:
    """sha256 over the dtype, shape and bytes of an array or a sequence of arrays."""
    items = value if isinstance(value, (list, tuple)) else [value]
    h = hashlib.sha256()
    for item in items:
        arr = np.ascontiguousarray(getattr(item, "array", item))
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


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
        yield f"focused_attention.lepe/{tag}", at.focused_attention(qa, ka, v, 3, dwc, grid)
        yield f"focused_attention_coefficients/{tag}", at.focused_attention_coefficients(qa, ka)
        yield f"homogeneous_mix/{tag}", at.homogeneous_mix(v)
        for rope_on_values in (False, True):
            params = at.SemaParams(*rng_for(SEED, "digest", "sema", n).standard_normal((3, d, d)),
                                   dwc, rope_on_values)
            yield (f"sema_attention_full/rope_on_values={rope_on_values}/{tag}",
                   at.sema_attention_full(q, params, at.WindowSpec(4), grid))
        positions = rng.permutation(n)
        for gated in (False, True):
            yield f"mila_coefficients/gated={gated}/{tag}", at.mila_coefficients(q, k, grid, gated)
        yield f"mila_attention/{tag}", at.mila_attention(q, k, v)
        yield f"mila_attention.lepe/{tag}", at.mila_attention(q, k, v, grid, dwc)
        yield f"mila_attention.positions/{tag}", at.mila_attention(q, k, v, positions=positions)


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
                   posenc.depthwise_conv_grid(x, taps, grid.height, grid.width))
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
        cfg = model.ModelConfig(stage_dims=(8,), stage_depths=(1,), stage_heads=(1,),
                                window=2, patch_size=4, num_classes=2, image_size=32,
                                head_mode="first_token", averaging_enabled=averaging)
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


GROUPS = (attention_outputs, posenc_outputs, ssm_outputs, model_outputs, dispersion_outputs)


def lines(groups=GROUPS):
    for group in groups:
        for name, value in group():
            yield f"{name} {digest(value)}"


def main() -> int:
    for line in lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
