import math

import numpy as np
import pytest

from dispersionlab import autograd as ag
from dispersionlab.attention import (
    WindowSpec,
    _same_bits,
    focused_attention,
    linear_attention,
    mila_attention,
    sema_attention,
    softmax_attention,
    window_attention,
)
from dispersionlab.cli import GRADCHECK_VARIANTS
from dispersionlab.errors import DifferentiationError, DimensionError
from dispersionlab.posenc import GridSpec, rope_angles, rotate_pairs
from dispersionlab.rng import rng_for


def _square(h):
    return ag.mul(h, h)


def run_backward(f, arrays):
    tape = ag.Tape()
    leaves = [ag.leaf(tape, a) for a in arrays]
    loss = f(*leaves)
    grads = ag.backward(loss)
    return [grads.get(lv.idx, np.zeros_like(a)) for lv, a in zip(leaves, arrays)]


class TestBasicAdjoints:
    def test_sum_gradient_is_ones(self):
        x = np.random.default_rng(0).standard_normal((3, 4))
        (g,) = run_backward(lambda a: ag.sum_all(a), [x])
        np.testing.assert_array_equal(g, np.ones_like(x))

    def test_quadratic_gradient(self):
        x = np.random.default_rng(1).standard_normal((2, 5))
        (g,) = run_backward(lambda a: ag.sum_all(ag.mul(a, a)), [x])
        np.testing.assert_allclose(g, 2 * x, atol=1e-14)

    def test_fanout_accumulates(self):
        x = np.random.default_rng(2).standard_normal((2, 2))
        (g,) = run_backward(lambda a: ag.sum_all(ag.add(a, a)), [x])
        np.testing.assert_array_equal(g, 2 * np.ones_like(x))

    def test_linear_function_gradient_exact(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 3))
        w = rng.standard_normal((3, 2))
        report = ag.gradcheck(lambda a, b: ag.sum_all(ag.matmul(a, b)), [x, w])
        assert report.max_rel_err < 1e-9

    def test_unregistered_op_raises(self):
        tape = ag.Tape()
        x = ag.leaf(tape, np.ones((1, 1)))
        bad = tape.push("mystery_op", (x.idx,), x.value)
        with pytest.raises(DifferentiationError):
            ag.backward(bad)

    def test_loss_must_be_scalar(self):
        tape = ag.Tape()
        x = ag.leaf(tape, np.ones((2, 2)))
        with pytest.raises(Exception):
            ag.backward(x)


PRIMITIVE_CASES = [
    ("elu_plus_one", lambda a: ag.sum_all(ag.elu_plus_one(a)), (3, 4), None),
    ("gelu", lambda a: ag.sum_all(ag.gelu(a)), (3, 4), None),
    ("broadcast", lambda a: ag.sum_all(ag.mul(ag.broadcast_row(ag.gather_rows(a, [0]), 5), a)),
     (5, 3), None),
    ("rows_cols", lambda a: ag.sum_all(ag.cols(ag.gather_rows(a, [1, 2]), 0, 2)), (4, 4), None),
    ("permute", lambda a: ag.sum_all(ag.mul(ag.permute_rows(a, [2, 0, 1, 3]), a)), (4, 3), None),
    ("gather", lambda a: ag.sum_all(ag.gather_rows(a, [0, 2, 2])), (4, 3), None),
    ("group", lambda a: ag.sum_all(_square(ag.group_rows(a, 2))), (4, 3), None),
    ("focused_map", lambda a: ag.sum_all(ag.focused_map_rows(a, 3)), (4, 5), "positive"),
    ("blocked_mean", lambda a: ag.sum_all(_square(ag.blocked_mean_broadcast(a, 2))),
     (6, 3), None),
    ("add_blocked_mean", lambda a: ag.sum_all(_square(ag.add(a, ag.blocked_mean_broadcast(a, 2)))),
     (6, 3), None),
]


class TestPrimitiveGradients:
    @pytest.mark.parametrize("name,f,shape,domain",
                             PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
    def test_primitive_against_finite_differences(self, name, f, shape, domain):
        rng = rng_for(0, "prim", name)
        x = rng.standard_normal(shape)
        if domain == "positive":
            x = np.abs(x) + 0.5
        report = ag.gradcheck(f, [x])
        assert report.passed, f"{name}: {report.max_rel_err}"

    @pytest.mark.parametrize("rows,period,heads",
                             [(6, 6, 1), (6, 2, 1), (8, 4, 2), (12, 3, 4)])
    def test_rope_rotation_gradient(self, rows, period, heads):
        # the (period, pairs) table repeats down the rows and across the heads
        rng = rng_for(1, "rope", rows, period, heads)
        x = rng.standard_normal((rows, 8 * heads))
        ang = rope_angles(GridSpec.linear(period), 8)

        def f(a):
            return ag.sum_all(ag.mul(ag.rope_rotate(a, ang), a))

        # d/dx sum(R x * x) = R^T x + R x, and R^T is the rotation by -angles
        (g,) = run_backward(f, [x])
        np.testing.assert_array_equal(g, rotate_pairs(x, ang) + rotate_pairs(x, -ang))
        report = ag.gradcheck(f, [x])
        assert report.passed, report.max_rel_err

    def test_depthwise_conv_gradients_in_both_inputs(self):
        rng = rng_for(2, "dwc")
        v = rng.standard_normal((12, 2))
        taps = rng.standard_normal((2, 3, 3))

        def f(a, t):
            return ag.sum_all(_square(ag.depthwise_conv(a, t, 3, 4)))

        assert ag.gradcheck(f, [v, taps]).passed

    def test_layer_norm_gradients(self):
        rng = rng_for(3, "ln")
        x = rng.standard_normal((5, 6))
        gamma = rng.standard_normal((1, 6))
        beta = rng.standard_normal((1, 6))

        def f(a, g, b):
            return ag.sum_all(_square(ag.layer_norm(a, g, b)))

        assert ag.gradcheck(f, [x, gamma, beta]).passed

    def test_blocked_softmax_attention_gradients(self):
        rng = rng_for(4, "bsa")
        q, k, v = rng.standard_normal((3, 8, 4))

        def f(a, b, c):
            return ag.sum_all(_square(ag.blocked_softmax_attention(a, b, c, 4)))

        assert ag.gradcheck(f, [q, k, v]).passed

    def test_blocked_linear_attention_gradients(self):
        rng = rng_for(5, "bla")
        u, w, v = rng.standard_normal((3, 6, 4))
        u, w = np.abs(u) + 0.1, np.abs(w) + 0.1

        def f(a, b, c):
            return ag.sum_all(_square(ag.blocked_linear_attention(a, b, c, 3)))

        assert ag.gradcheck(f, [u, w, v]).passed

    def test_mila_attention_gradients_with_grid_angles(self):
        rng = rng_for(22, "mila")
        u, w, v = rng.standard_normal((3, 8, 4))
        u, w = np.abs(u) + 0.1, np.abs(w) + 0.1  # positive features
        ang = rope_angles(GridSpec.grid(2, 4), 4)

        def f(a, b, c):
            return ag.sum_all(_square(ag.mila_attention(a, b, c, ang)))

        report = ag.gradcheck(f, [u, w, v])
        assert report.passed, report.max_rel_err

    @pytest.mark.parametrize("seed", range(6))
    def test_mila_attention_gradients_on_random_shapes(self, seed):
        rng = rng_for(23, "mila", seed)
        height, width, pairs = (int(x) for x in rng.integers(1, 5, size=3))
        two_d = seed % 2 == 1
        grid = GridSpec.grid(height, width) if two_d else GridSpec.linear(height * width)
        d = 2 * pairs * (2 if two_d else 1)
        u, w = np.abs(rng.standard_normal((2, grid.n, d))) + 0.1
        v = rng.standard_normal((grid.n, int(rng.integers(1, 5))))
        ang = rope_angles(grid, d)

        def f(a, b, c):
            return ag.sum_all(_square(ag.mila_attention(a, b, c, ang)))

        report = ag.gradcheck(f, [u, w, v])
        assert report.passed, report.max_rel_err

    def test_mila_attention_tape_keeps_no_n_by_n_array(self):
        n, d = 256, 8
        rng = rng_for(24, "mila")
        tape = ag.Tape()
        u, w = (ag.leaf(tape, np.abs(x) + 0.1) for x in rng.standard_normal((2, n, d)))
        v = ag.leaf(tape, rng.standard_normal((n, d)))
        out = ag.mila_attention(u, w, v, rope_angles(GridSpec.linear(n), d))
        sizes = [x.size for node in tape.nodes for x in node.ctx.values()
                 if isinstance(x, np.ndarray)]
        assert sizes and max(sizes) <= n * d
        assert len(ag.backward(ag.sum_all(out))) == 3

    def test_cross_entropy_gradient(self):
        rng = rng_for(6, "ce")
        logits = rng.standard_normal((5, 3))
        labels = np.array([0, 2, 1, 1, 0])

        def f(a):
            return ag.cross_entropy(a, labels)

        assert ag.gradcheck(f, [logits]).passed

    def test_random_composite_graph(self):
        rng = rng_for(7, "composite")
        x = rng.standard_normal((4, 6))
        w = rng.standard_normal((6, 6))
        ang = rope_angles(GridSpec.linear(4), 6)

        def f(a, b):
            h = ag.gelu(ag.matmul(a, b))
            h = ag.blocked_softmax_attention(ag.add(h, a), a, h, 4, heads=2)
            h = ag.mul(h, ag.elu_plus_one(ag.matmul(a, b)))
            h = ag.mila_attention(ag.elu_plus_one(h), ag.elu_plus_one(a), h, ang)
            h = ag.layer_norm(h, ag.gather_rows(b, [0]), ag.gather_rows(a, [1]))
            h = ag.add(h, ag.blocked_mean_broadcast(h, 2))
            return ag.sum_all(_square(h))

        report = ag.gradcheck(f, [x, w])
        assert report.max_rel_err < 1e-6


class TestTracedOpNames:
    def test_benchmark_tracer_ops_exist(self):
        # the traced benchmark run wraps these by name; a deletion must fail here first.
        # Imported here so that a run without the repo root on sys.path loses only this test.
        from perfbench.tracer import AUTOGRAD_OPS

        for op in AUTOGRAD_OPS:
            assert callable(getattr(ag, op, None)), op
            assert op in ag.ADJOINTS, op


def _tile_perm(grid, tile):
    """Reference gather: row-major grid order -> tile-major order."""
    idx = np.arange(grid * grid).reshape(grid, grid)
    return np.concatenate([idx[r * tile : (r + 1) * tile, c * tile : (c + 1) * tile].ravel()
                           for r in range(grid // tile) for c in range(grid // tile)])


TILINGS = [(8, 2), (8, 4), (56, 7), (224, 4)]


class TestTileGrid:
    def traced(self, fn, x, weights):
        tape = ag.Tape()
        a = ag.leaf(tape, x)
        out = fn(a)
        grads = ag.backward(ag.sum_all(ag.mul(out, ag.leaf(tape, weights))))
        return out.value, grads[a.idx]

    @pytest.mark.parametrize("grid,tile", TILINGS)
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("inverse", [False, True])
    def test_equals_gathered_permutation_bitwise(self, grid, tile, batch, inverse):
        rng = rng_for(15, "tile", grid, tile, batch)
        x, weights = rng.standard_normal((2, batch * grid * grid, 3))
        perm = _tile_perm(grid, tile)
        if inverse:
            perm = np.argsort(perm)
        perm = np.concatenate([perm + s * grid * grid for s in range(batch)])
        out, grad = self.traced(lambda a: ag.tile_grid(a, grid, tile, inverse), x, weights)
        out_ref, grad_ref = self.traced(lambda a: ag.permute_rows(a, perm), x, weights)
        np.testing.assert_array_equal(out, out_ref)
        np.testing.assert_array_equal(grad, grad_ref)

    @pytest.mark.parametrize("grid,tile", TILINGS)
    @pytest.mark.parametrize("batch", [1, 3])
    def test_inverse_round_trip_and_gradcheck(self, grid, tile, batch):
        x = rng_for(16, "tile-gc", grid, tile).standard_normal((batch * grid * grid, 2))
        tape = ag.Tape()
        tiled = ag.tile_grid(ag.leaf(tape, x), grid, tile)
        np.testing.assert_array_equal(ag.tile_grid(tiled, grid, tile, inverse=True).value, x)
        weights = np.arange(x.size, dtype=np.float64).reshape(x.shape) / x.size

        def f(a):
            return ag.sum_all(ag.mul(ag.tile_grid(a, grid, tile), ag.leaf(a.tape, weights)))

        assert ag.gradcheck(f, [x]).passed

    def test_tile_must_divide_grid(self):
        tape = ag.Tape()
        with pytest.raises(DimensionError):
            ag.tile_grid(ag.leaf(tape, np.ones((36, 2))), 6, 4)


class TestBroadcastAdd:
    @pytest.mark.parametrize("rows,m", [(1, 1), (5, 1), (6, 2), (6, 6)])
    def test_equals_the_repeated_operand_bitwise(self, rows, m):
        # each of the m rows of the right operand covers a block of rows / m rows
        rng = rng_for(17, "bias", rows, m)
        x, weights = rng.standard_normal((2, rows, 4))
        right = rng.standard_normal((m, 4))
        repeat = np.repeat(np.arange(m), rows // m)
        results = []
        for fn in (ag.add, lambda a, b: ag.add(a, ag.gather_rows(b, repeat))):
            tape = ag.Tape()
            a, b = ag.leaf(tape, x), ag.leaf(tape, right)
            out = fn(a, b)
            grads = ag.backward(ag.sum_all(ag.mul(out, ag.leaf(tape, weights))))
            results.append((out.value, grads[a.idx], grads[b.idx]))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    def test_gradcheck(self):
        rng = rng_for(18, "bias-gc")
        x, bias = rng.standard_normal((5, 3)), rng.standard_normal((1, 3))
        report = ag.gradcheck(lambda a, b: ag.sum_all(_square(ag.add(a, b))), [x, bias])
        assert report.passed, report.max_rel_err

    def test_same_shape_operand_gets_g_itself_and_a_repeated_one_sums_from_plus_zero(self):
        # the same-shape adjoint passes g through, so -0.0 stays -0.0; a repeated
        # operand's block sum starts from +0, as numpy's sum does
        g = np.array([[-0.0, np.nan, 1.0], [np.inf, -np.inf, -0.0]])
        da, db = ag.ADJOINTS["add"](None, g, (g, g))
        assert da is g and db is g
        _, db = ag.ADJOINTS["add"](None, -np.zeros((4, 3)), (g, np.ones((2, 3))))
        assert not np.signbit(db).any()
        tape = ag.Tape()
        a, b = ag.leaf(tape, np.ones((2, 3))), ag.leaf(tape, np.ones((2, 3)))
        weights = ag.leaf(tape, np.array([[-0.0, 2.0, 1.0], [3.0, 4.0, -0.0]]))
        grads = ag.backward(ag.sum_all(ag.mul(ag.add(a, b), weights)))
        assert np.signbit(grads[b.idx]).tolist() == [[True, False, False], [False, False, True]]

    @pytest.mark.parametrize("left,right", [((5, 3), (2, 3)), ((6, 3), (4, 3)),
                                            ((5, 3), (1, 4)), ((6, 3), (2, 4)),
                                            ((1, 3), (5, 3))])
    def test_non_dividing_rows_or_other_widths_raise(self, left, right):
        tape = ag.Tape()
        with pytest.raises(DimensionError) as caught:
            ag.add(ag.leaf(tape, np.ones(left)), ag.leaf(tape, np.ones(right)))
        assert str(left) in str(caught.value) and str(right) in str(caught.value)


class TestGeluCube:
    def test_close_to_pow_reference(self):
        x = rng_for(19, "gelu").standard_normal((256, 64)) * 3.0
        c = math.sqrt(2.0 / math.pi)
        want = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))
        got = ag.gelu(ag.leaf(ag.Tape(), x)).value
        # relative to the largest output: where 1 + tanh cancels (x < -3) one ulp
        # of tanh is a large share of a tiny output, so no elementwise rtol holds
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    def test_gradcheck(self):
        x = rng_for(20, "gelu-gc").standard_normal((8, 16))
        assert ag.gradcheck(lambda a: ag.sum_all(ag.mul(ag.gelu(a), a)), [x]).passed

    def test_adjoint_bitwise_equal_to_written_out_expression(self):
        rng = rng_for(21, "gelu-adjoint")
        x = rng.standard_normal((16384, 32)) * 3.0
        g = rng.standard_normal((16384, 32))
        node = ag.gelu(ag.leaf(ag.Tape(), x)).node
        t, c, a = node.ctx["t"], ag._GELU_C, ag._GELU_A
        want = g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * c * (1.0 + 3.0 * a * x ** 2))
        (got,) = ag.ADJOINTS["gelu"](node, g, (x,))
        assert np.array_equal(got, want)


def assert_same_bits(got, want):
    """Equal entries with equal signs, so -0.0 never stands in for 0.0."""
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def depthwise_adjoint_oracle(v, taps, g, h, w):
    """(dv, dtaps) as _adj_depthwise_conv computed them on (b, h, w, d) grids."""
    d, k = v.shape[1], taps.shape[1]
    pad = k // 2

    def padded(x):
        out = np.zeros((x.shape[0] // (h * w), h + 2 * pad, w + 2 * pad, d))
        out[:, pad : pad + h, pad : pad + w] = x.reshape(-1, h, w, d)
        return out

    pv, pg, flipped = padded(v), padded(g), taps[:, ::-1, ::-1]
    dv = np.zeros((pg.shape[0], h, w, d))
    dtaps = np.empty_like(taps)
    gi = g.reshape(-1, h, w, d)
    for dr in range(k):
        for dc in range(k):
            dv += pg[:, dr : dr + h, dc : dc + w, :] * flipped[:, dr, dc]
            dtaps[:, dr, dc] = (pv[:, dr : dr + h, dc : dc + w] * gi).sum(axis=(0, 1, 2))
    return dv.reshape(v.shape), dtaps


def with_zeros(rng, shape):
    """Normal draws with about a fifth of the entries +0.0 or -0.0."""
    x = rng.standard_normal(shape)
    zero = rng.random(shape) < 0.2
    x[zero] = rng.choice([0.0, -0.0], zero.sum())
    return x


class TestRowKernelAdjointsAgainstOracles:
    @pytest.mark.parametrize("grid", [(3, 5), (5, 2), (4, 4)])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("b", [1, 3, 64])
    def test_depthwise_conv_adjoint_is_bitwise_the_grid_loop(self, b, k, grid):
        h, w = grid
        rng = np.random.default_rng([b, k, h, w])
        v, g = (with_zeros(rng, (b * h * w, 3)) for _ in range(2))
        taps = with_zeros(rng, (3, k, k))
        tape = ag.Tape()
        node = ag.depthwise_conv(ag.leaf(tape, v), ag.leaf(tape, taps), h, w).node
        dv, dtaps = ag.ADJOINTS["depthwise_conv"](node, g, (v, taps))
        want_dv, want_dtaps = depthwise_adjoint_oracle(v, taps, g, h, w)
        assert_same_bits(dv, want_dv)
        assert_same_bits(dtaps, want_dtaps)

    @pytest.mark.parametrize("heads", [1, 2, 3, 4])
    @pytest.mark.parametrize("period", [2, 3, 4])
    def test_rope_rotate_and_its_adjoint_are_bitwise_the_broadcast_rotation(self, period,
                                                                           heads):
        rng = np.random.default_rng([period, heads])
        x, g = (with_zeros(rng, (5 * period, heads * 8)) for _ in range(2))
        ang = rope_angles(GridSpec.linear(period), 8)
        node = ag.rope_rotate(ag.leaf(ag.Tape(), x), ang).node

        def oracle(y, table):
            ys = y.reshape(5, period, heads, 4, 2)
            c, s = np.cos(table)[:, None, :], np.sin(table)[:, None, :]
            out = np.empty(ys.shape)
            out[..., 0] = ys[..., 0] * c - ys[..., 1] * s
            out[..., 1] = ys[..., 0] * s + ys[..., 1] * c
            return out.reshape(y.shape)

        assert_same_bits(node.value, oracle(x, ang))
        (dx,) = ag.ADJOINTS["rope_rotate"](node, g, (x,))
        assert_same_bits(dx, oracle(g, -ang))

    @pytest.mark.parametrize("d", [*range(1, 17), 24])
    def test_layer_norm_and_its_adjoint_are_bitwise_the_mean_formulas(self, d):
        # below 16 columns the forward runs feature-major; rows mix +-0, NaN,
        # +-inf and magnitudes of 1e+-300 with normal draws, and a single row
        # (whose transpose is contiguous) must not be normalized in place
        rng = np.random.default_rng(d)
        x, g = rng.standard_normal((2, 300, d))
        special = rng.random(x.shape) < 0.1
        x[special] = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e300, 1e-300,
                                 -1e-300], special.sum())
        x[:20] = rng.choice([0.0, -0.0], (20, d))
        x[20:40] = rng.choice([1e300, -1e-300, 1e-300], (20, d))
        gamma, beta = rng.standard_normal((2, 1, d))
        for x, g in ((x, g), (x[-1:].copy(), g[-1:].copy())):
            tape = ag.Tape()
            leaves = [ag.leaf(tape, a.copy()) for a in (x, gamma, beta)]
            with np.errstate(all="ignore"):
                node = ag.layer_norm(*leaves).node
                xc = x - x.mean(axis=1, keepdims=True)
                inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + 1e-5)
                xhat = xc * inv
                dxhat = g * gamma
                want = (inv / d * (d * dxhat - dxhat.sum(axis=1, keepdims=True)
                                   - xhat * (dxhat * xhat).sum(axis=1, keepdims=True)),
                        (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True))
                got = ag.ADJOINTS["layer_norm"](node, g, (x, gamma, beta))
            # narrow rows keep xhat and inv feature-major, (d, n) and (1, n)
            narrow = ag._foldable(np.add, x)
            assert ("xhat_t" in node.ctx) == narrow == (d < 16)
            saved = (((node.ctx["xhat_t"], xhat.T), (node.ctx["inv_t"], inv.T)) if narrow
                     else ((node.ctx["xhat"], xhat), (node.ctx["inv"], inv)))
            for a, b in ((node.value, xhat * gamma + beta), *saved, *zip(got, want)):
                assert a.shape == b.shape and a.flags.c_contiguous
                assert _same_bits(a, b)
            for leaf, a in zip(leaves, (x, gamma, beta)):
                assert _same_bits(leaf.value, a)


def _per_head(op, q, k, v, block, heads):
    """Reference composition: slice each head's columns, attend, concatenate."""
    hd = q.shape[1] // heads
    outs = [op(ag.cols(q, h * hd, (h + 1) * hd), ag.cols(k, h * hd, (h + 1) * hd),
               ag.cols(v, h * hd, (h + 1) * hd), block) for h in range(heads)]
    return ag.concat_cols(outs)


BLOCKED_OPS = [ag.blocked_softmax_attention, ag.blocked_linear_attention]


class TestConstants:
    def test_no_gradient_for_a_constant_or_what_only_constants_feed(self, monkeypatch):
        rng = rng_for(19, "constant")
        x, w = rng.standard_normal((5, 3)), rng.standard_normal((3, 2))
        returned = {}
        for op in ("mul", "matmul"):
            adjoint = ag.ADJOINTS[op]
            monkeypatch.setitem(ag.ADJOINTS, op, lambda node, g, vals, adjoint=adjoint:
                                returned.setdefault(node.op, adjoint(node, g, vals)))

        def loss(make):
            tape = ag.Tape()
            c, lw = make(tape, x), ag.leaf(tape, w)
            return c, lw, ag.sum_all(ag.matmul(ag.mul(c, c), lw))

        c, lw, out = loss(ag.constant)
        grads = ag.backward(out)
        assert set(grads) == {lw.idx} and {c.idx, c.idx + 2} <= c.tape.constants
        assert "mul" not in returned and returned["matmul"][0] is None
        returned.clear()
        _, ref_w, ref = loss(ag.leaf)
        assert grads[lw.idx].tobytes() == ag.backward(ref)[ref_w.idx].tobytes()

    def test_a_loss_of_constants_has_no_gradients(self):
        tape = ag.Tape()
        assert ag.backward(ag.sum_all(ag.constant(tape, np.ones((2, 2))))) == {}


class TestNonRecordingTape:
    def test_same_values_no_history(self):
        x, w = rng_for(14, "norec").standard_normal((2, 4, 4))
        outs = []
        for record in (True, False):
            tape = ag.Tape(record=record)
            a, b = ag.leaf(tape, x), ag.leaf(tape, w)
            outs.append(ag.gelu(ag.matmul(a, b)).value)
        np.testing.assert_array_equal(outs[0], outs[1])
        assert len(tape.nodes) == 1 and tape.pushed == 4

    def test_backward_needs_recording(self):
        tape = ag.Tape(record=False)
        x = ag.leaf(tape, np.ones((2, 2)))
        with pytest.raises(DifferentiationError):
            ag.backward(ag.sum_all(x))


class TestHeadFolding:
    def inputs(self, op, n, width):
        q, k, v = rng_for(12, "fold", n, width).standard_normal((3, n, width))
        if op is ag.blocked_linear_attention:
            q, k = np.abs(q) + 0.1, np.abs(k) + 0.1  # positive features
        return q, k, v

    @pytest.mark.parametrize("op", BLOCKED_OPS)
    @pytest.mark.parametrize("heads", [2, 4])
    @pytest.mark.parametrize("block", [4, 12])
    def test_folded_equals_per_head_bitwise(self, op, heads, block):
        arrays = self.inputs(op, 12, 4 * heads)
        weights = rng_for(13, "fold-w").standard_normal((12, 4 * heads))
        results = []
        for fn in (lambda a, b, c: op(a, b, c, block, heads),
                   lambda a, b, c: _per_head(op, a, b, c, block, heads)):
            tape = ag.Tape()
            leaves = [ag.leaf(tape, a) for a in arrays]
            out = fn(*leaves)
            grads = ag.backward(ag.sum_all(ag.mul(out, ag.leaf(tape, weights))))
            results.append((out.value, [grads[lv.idx] for lv in leaves]))
        (out_f, grads_f), (out_h, grads_h) = results
        np.testing.assert_array_equal(out_f, out_h)
        for gf, gh in zip(grads_f, grads_h):
            np.testing.assert_array_equal(gf, gh)

    @pytest.mark.parametrize("op", BLOCKED_OPS)
    @pytest.mark.parametrize("block", [3, 6])
    def test_folded_gradcheck(self, op, block):
        arrays = self.inputs(op, 6, 8)

        def f(a, b, c):
            return ag.sum_all(_square(op(a, b, c, block, 2)))

        assert ag.gradcheck(f, list(arrays)).passed

    def test_heads_must_divide_columns(self):
        tape = ag.Tape()
        x = ag.leaf(tape, np.ones((4, 6)))
        with pytest.raises(DimensionError):
            ag.blocked_softmax_attention(x, x, x, 2, heads=4)


class TestTracedEquivalence:
    """Each traced variant of cli.GRADCHECK_VARIANTS against its numpy kernel."""

    def setup_method(self):
        rng = rng_for(7, "traced")
        self.q = rng.standard_normal((8, 4))
        self.k = rng.standard_normal((8, 4))
        self.v = rng.standard_normal((8, 4))

    def run_traced(self, variant, *arrays):
        tape = ag.Tape()
        return GRADCHECK_VARIANTS[variant](*(ag.leaf(tape, a) for a in arrays)).value

    def test_softmax_matches_plain(self):
        out = self.run_traced("softmax", self.q, self.k, self.v)
        # the same blocked kernel with block == n: bitwise equal
        np.testing.assert_array_equal(out, softmax_attention(self.q, self.k, self.v).array)

    def test_linear_matches_plain(self):
        out = self.run_traced("linear", self.q, self.k, self.v)
        np.testing.assert_array_equal(out, linear_attention(self.q, self.k, self.v).array)

    def test_focused_matches_plain(self):
        qa, ka = np.abs(self.q), np.abs(self.k)
        out = self.run_traced("focused", qa, ka, self.v)
        np.testing.assert_array_equal(out, focused_attention(qa, ka, self.v).array)

    def test_window_matches_plain(self):
        out = self.run_traced("window", self.q, self.k, self.v)
        plain = window_attention(self.q, self.k, self.v, WindowSpec(4)).array
        np.testing.assert_array_equal(out, plain)

    def test_sema_matches_plain(self):
        out = self.run_traced("sema", self.q, self.k, self.v)
        plain = sema_attention(self.q, self.k, self.v, WindowSpec(4)).array
        np.testing.assert_array_equal(out, plain)

    def test_mila_matches_plain(self):
        out = self.run_traced("mila", self.q, self.k, self.v)
        np.testing.assert_array_equal(out, mila_attention(self.q, self.k, self.v).array)


class TestGradcheckHarness:
    def test_samples_coordinates_for_large_inputs(self):
        rng = rng_for(8, "large")
        x = rng.standard_normal((40, 20))  # 800 entries > 512
        report = ag.gradcheck(lambda a: ag.sum_all(ag.mul(a, a)), [x])
        assert report.passed

    def test_reports_failure_instead_of_raising(self):
        # a wrong-adjoint op built from a raw node must fail, not crash
        x = np.array([[1.0, 2.0]])

        def f(a):
            bad = a.tape.push("mul", (a.idx, a.idx), a.value ** 3)  # mul's adjoint: 2x, not 3x^2
            return ag.sum_all(bad)

        report = ag.gradcheck(f, [x])
        assert not report.passed
        assert report.max_rel_err > 0.1

    def test_nan_derivative_fails(self):
        # at an infinite input both function values are inf, so the numeric
        # derivative is inf - inf = NaN
        with np.errstate(invalid="ignore"):
            report = ag.gradcheck(lambda a: ag.sum_all(ag.mul(a, a)), [[[np.inf, 2.0]]])
        assert not report.passed
        assert report.max_rel_err == math.inf

    def test_directional_check_passes_a_correct_gradient(self):
        rng = rng_for(8, "directional")
        x, w = rng.standard_normal((5, 4)), rng.standard_normal((4, 3))
        report = ag.directional_check(lambda a, b: ag.sum_all(ag.gelu(ag.matmul(a, b))), [x, w])
        assert report.passed and report.max_rel_err < 1e-8 and len(report.per_input) == 2

    def test_directional_check_fails_a_wrong_adjoint(self):
        def f(a):
            bad = a.tape.push("mul", (a.idx, a.idx), a.value ** 3)  # mul's adjoint: 2x, not 3x^2
            return ag.sum_all(bad)

        report = ag.directional_check(f, [np.array([[1.0, 2.0]])])
        assert not report.passed and report.max_rel_err > 0.1

    def test_directional_check_nan_derivative_fails(self):
        with np.errstate(invalid="ignore"):
            report = ag.directional_check(lambda a: ag.sum_all(ag.mul(a, a)),
                                          [[[np.inf, 2.0]]])
        assert not report.passed and report.max_rel_err == math.inf

    def test_homogeneous_mix_gradient_of_sum_is_all_ones(self):
        rng = rng_for(9, "mix")
        v = rng.standard_normal((6, 3))

        def mix(a):  # the mean row broadcast to every token
            return ag.add(ag.leaf(a.tape, np.zeros(v.shape)), ag.blocked_mean_broadcast(a, 6))

        (g,) = run_backward(lambda a: ag.sum_all(mix(a)), [v])
        np.testing.assert_allclose(g, np.ones_like(v), atol=1e-14)
