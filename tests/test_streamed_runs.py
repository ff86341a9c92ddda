"""The streamed row kernels against their whole-array forms.

posenc._run_rows cuts a kernel's rows into runs of about posenc._RUN entries.
The bitwise tests shrink _RUN so that every call spans several runs and ends on
a partial one, and compare each result bit for bit with the whole-array formula
the kernel computed before it streamed, kept here as the oracle. The allocation
test keeps the real budget and checks, at the tiny_224 stage-1 shapes, that no
kernel allocates more than its output and a few runs.
"""

import tracemalloc

import numpy as np
import pytest

from dispersionlab import autograd as ag
from dispersionlab import posenc
from dispersionlab.attention import _row_fold, _same_bits, elu_plus_one
from dispersionlab.posenc import GridSpec, depthwise_conv_grid, rope_angles, rotate_pairs


def gelu_oracle(x):
    """(out, t) of gelu as one whole-array pass."""
    t = x * x
    t *= x
    t *= ag._GELU_A
    t += x
    t *= ag._GELU_C
    np.tanh(t, out=t)
    out = 0.5 * x
    out *= 1.0 + t
    return out, t


def layer_norm_oracle(x, gamma, beta):
    """(out, xhat, inv) of layer_norm's row-major path as one whole-array pass."""
    d = x.shape[1]
    xc = x - _row_fold(np.add, x) / d
    var = _row_fold(np.add, xc * xc) / d
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    return xhat * gamma + beta, xhat, inv


def rotate_pairs_oracle(x, angles):
    """rotate_pairs with cos and sin tables of all n rows."""
    n, d = x.shape
    period, pairs = angles.shape
    tiled = (n // period, period, d // (2 * pairs), pairs)
    c, s = (np.broadcast_to(f(angles)[:, None, :], tiled).reshape(n, d // 2)
            for f in (np.cos, np.sin))
    xs = x.reshape(n, d // 2, 2)
    x0, x1 = xs[..., 0], xs[..., 1]
    out = np.empty(xs.shape)
    out0, out1 = out[..., 0], out[..., 1]
    tmp = np.multiply(x1, s)
    np.multiply(x0, c, out=out0)
    out0 -= tmp
    np.multiply(x1, c, out=tmp)
    np.multiply(x0, s, out=out1)
    out1 += tmp
    return out.reshape(n, d)


def depthwise_oracle(x, taps, height, width):
    """depthwise_conv_grid with every tap's product over the whole grid."""
    b, n, d = x.shape
    k = taps.shape[1]
    pad = k // 2
    tap_rows = np.tile(taps.transpose(1, 2, 0), (1, 1, width))
    padded = np.zeros((b, height + 2 * pad, (width + 2 * pad) * d))
    padded[:, pad : pad + height, pad * d : (pad + width) * d] = x.reshape(b, height, width * d)
    out = np.zeros((b, height, width * d))
    prod = np.empty_like(out)
    for dr in range(k):
        for dc in range(k):
            window = padded[:, dr : dr + height, dc * d : (dc + width) * d]
            out += np.multiply(window, tap_rows[dr, dc], out=prod)
    return out.reshape(b, n, d)


def special_draws(rng, shape):
    """Normal draws with +-0, NaN, +-inf and magnitudes of 1e+-300 mixed in."""
    x = rng.standard_normal(shape) * 3.0
    special = rng.random(shape) < 0.15
    x[special] = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e300, 1e-300],
                            special.sum())
    return x


def several_runs(monkeypatch, budget, rows, row_size, unit=1):
    """Set the run budget; check that `rows` then span several runs, the last partial."""
    monkeypatch.setattr(posenc, "_RUN", budget)
    step = posenc._run_rows(row_size, unit)
    assert step < rows and rows % step, (step, rows)


def assert_bits(got, want):
    assert got.shape == want.shape and got.flags.c_contiguous
    assert _same_bits(got, want)


LAYOUTS = {
    "C": lambda x: x,
    "F": np.asfortranarray,
    "strided": lambda x: np.repeat(x, 2, axis=1)[:, ::2],
}


class TestBitwiseInRuns:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_gelu(self, layout, monkeypatch):
        x = LAYOUTS[layout](special_draws(np.random.default_rng(1), (37, 7)))
        several_runs(monkeypatch, 48, 37, 7)
        with np.errstate(all="ignore"):
            want, want_t = gelu_oracle(x)
            node = ag.gelu(ag.leaf(ag.Tape(), x)).node
            bare = ag.gelu(ag.leaf(ag.Tape(record=False), x)).node
        assert_bits(node.value, want)
        assert_bits(node.ctx["t"], want_t)
        assert_bits(bare.value, want)
        assert bare.ctx == {}

    @pytest.mark.parametrize("d,layout", [(16, "C"), (24, "C"), (8, "F"), (20, "F"),
                                          (8, "strided")])
    def test_layer_norm_row_major_path(self, d, layout, monkeypatch):
        rng = np.random.default_rng(d)
        x = LAYOUTS[layout](special_draws(rng, (37, d)))
        gamma, beta = rng.standard_normal((2, 1, d))
        assert not ag._foldable(np.add, x)  # the path that streams
        several_runs(monkeypatch, 100, 37, d)
        with np.errstate(all="ignore"):
            want = layer_norm_oracle(x, gamma, beta)
            outs = []
            for record in (True, False):
                tape = ag.Tape(record=record)
                outs.append(ag.layer_norm(*(ag.leaf(tape, a) for a in (x, gamma, beta))).node)
        node, bare = outs
        for got, ref in zip((node.value, node.ctx["xhat"], node.ctx["inv"]), want):
            assert_bits(got, ref)
        assert_bits(bare.value, want[0])
        assert bare.ctx == {}

    @pytest.mark.parametrize("period,budget", [(1, 20), (4, 100), (49, 2 * 49 * 8 + 5)])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_rotate_pairs(self, period, budget, heads, monkeypatch):
        rng = np.random.default_rng([period, heads])
        n = 7 if period == 1 else 5 * period
        x = special_draws(rng, (n, 8))
        angles = rng.uniform(-10.0, 10.0, (period, 4 // heads))
        several_runs(monkeypatch, budget, n, 8, period)
        with np.errstate(all="ignore"):
            for table in (angles, -angles):
                assert_bits(rotate_pairs(x, table), rotate_pairs_oracle(x, table))

    def test_rope_rotate_on_a_window_table(self, monkeypatch):
        # tiny_224's table: 7 x 7 window positions, one head of 32 columns
        x = special_draws(np.random.default_rng(3), (5 * 49, 64))
        ang = rope_angles(GridSpec.grid(7, 7), 32)
        several_runs(monkeypatch, 3 * 49 * 64 - 1, 5 * 49, 64, 49)
        with np.errstate(all="ignore"):
            node = ag.rope_rotate(ag.leaf(ag.Tape(), x), ang).node
            assert_bits(node.value, rotate_pairs_oracle(x, ang))

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("b", [1, 3])
    def test_depthwise_conv_grid(self, b, k, monkeypatch):
        rng = np.random.default_rng([b, k])
        x = special_draws(rng, (b, 7 * 5, 3))
        taps = special_draws(rng, (3, k, k))
        several_runs(monkeypatch, 100, 7, b * 5 * 3)
        with np.errstate(all="ignore"):
            assert_bits(depthwise_conv_grid(x, taps, 7, 5), depthwise_oracle(x, taps, 7, 5))

    def test_elu_plus_one(self, monkeypatch):
        x = special_draws(np.random.default_rng(4), (37, 7))
        several_runs(monkeypatch, 48, x.size, 1)
        with np.errstate(all="ignore"):
            want = np.where(x > 0, x + 1.0, np.exp(np.minimum(x, 0.0)))
            assert_bits(elu_plus_one(x), want)

    def test_zero_rows(self, monkeypatch):
        monkeypatch.setattr(posenc, "_RUN", 16)
        tape = ag.Tape()
        gelu = ag.gelu(ag.leaf(tape, np.empty((0, 5)))).node
        assert gelu.value.shape == gelu.ctx["t"].shape == (0, 5)
        norm = ag.layer_norm(*(ag.leaf(tape, np.ones(s)) for s in ((0, 16), (1, 16), (1, 16))))
        assert norm.value.shape == norm.node.ctx["xhat"].shape == (0, 16)
        assert norm.node.ctx["inv"].shape == (0, 1)
        assert rotate_pairs(np.empty((0, 8)), np.ones((4, 4))).shape == (0, 8)
        assert depthwise_conv_grid(np.empty((0, 6, 2)), np.ones((2, 3, 3)), 2, 3).shape == (0, 6, 2)


def allocation_peak(f):
    """Bytes that f() allocates at its peak (tracemalloc), and f()'s result."""
    f()  # first-call caches, such as _fold_widths, are not the kernel's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = f()
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        tracemalloc.stop()


class TestAllocationPeak:
    """At the tiny_224 stage-1 shapes (56 x 56 tokens, 64 channels, MLP width 256,
    7 x 7 windows of 2 heads), each kernel allocates its output and at most four
    runs more; depthwise_conv_grid also its zero-padded grid. Whole-array
    temporaries took 7 to 49 runs more."""

    FEW_RUNS = 4
    RUN_BYTES = 8 << 15  # one run of 2^15 float64 entries

    def extra_runs(self, f, beyond=0):
        peak, out = allocation_peak(f)
        return (peak - out.nbytes - beyond) / self.RUN_BYTES

    def test_gelu(self):
        a = ag.leaf(ag.Tape(record=False), np.random.default_rng(0).standard_normal((3136, 256)))
        assert self.extra_runs(lambda: ag.gelu(a).value) <= self.FEW_RUNS

    def test_layer_norm(self):
        tape = ag.Tape(record=False)
        rng = np.random.default_rng(1)
        leaves = [ag.leaf(tape, rng.standard_normal(s)) for s in ((3136, 64), (1, 64), (1, 64))]
        assert self.extra_runs(lambda: ag.layer_norm(*leaves).value) <= self.FEW_RUNS

    def test_rotate_pairs(self):
        x = np.random.default_rng(2).standard_normal((3136, 64))
        ang = rope_angles(GridSpec.grid(7, 7), 32)
        assert self.extra_runs(lambda: rotate_pairs(x, ang)) <= self.FEW_RUNS

    def test_depthwise_conv_grid(self):
        rng = np.random.default_rng(3)
        x, taps = rng.standard_normal((1, 3136, 64)), rng.standard_normal((64, 3, 3))
        padded = 58 * 58 * 64 * 8
        extra = self.extra_runs(lambda: depthwise_conv_grid(x, taps, 56, 56), padded)
        assert extra <= self.FEW_RUNS
