import math

import numpy as np
import pytest

from dispersionlab import autograd as ag
from dispersionlab import traced
from dispersionlab.attention import (
    WindowSpec,
    focused_attention,
    linear_attention,
    mila_attention,
    sema_attention,
    softmax_attention,
    window_attention,
)
from dispersionlab.errors import DifferentiationError, DimensionError
from dispersionlab.posenc import GridSpec, rope_angles, rotate_pairs
from dispersionlab.rng import rng_for


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
    ("exp", lambda a: ag.sum_all(ag.exp(a)), (3, 4), None),
    ("log", lambda a: ag.sum_all(ag.log(a)), (3, 4), "positive"),
    ("relu", lambda a: ag.sum_all(ag.relu(a)), (3, 4), None),
    ("elu_plus_one", lambda a: ag.sum_all(ag.elu_plus_one(a)), (3, 4), None),
    ("gelu", lambda a: ag.sum_all(ag.gelu(a)), (3, 4), None),
    ("power3", lambda a: ag.sum_all(ag.power_int(a, 3)), (3, 4), None),
    ("softmax_rows", lambda a: ag.sum_all(ag.mul(ag.softmax_rows(a), a)), (3, 4), None),
    ("broadcast", lambda a: ag.sum_all(ag.mul(ag.broadcast_row(ag.rows(a, 0, 1), 5), a)),
     (5, 3), None),
    ("sum_cols", lambda a: ag.sum_all(ag.mul(ag.sum_cols(a), ag.sum_cols(a))), (4, 3), None),
    ("rows_cols", lambda a: ag.sum_all(ag.cols(ag.rows(a, 1, 3), 0, 2)), (4, 4), None),
    ("permute", lambda a: ag.sum_all(ag.mul(ag.permute_rows(a, [2, 0, 1, 3]), a)), (4, 3), None),
    ("gather", lambda a: ag.sum_all(ag.gather_rows(a, [0, 2, 2])), (4, 3), None),
    ("group", lambda a: ag.sum_all(ag.power_int(ag.group_rows(a, 2), 2)), (4, 3), None),
    ("focused_map", lambda a: ag.sum_all(ag.focused_map_rows(a, 3)), (4, 5), "positive"),
    ("blocked_mean", lambda a: ag.sum_all(ag.mul(ag.blocked_mean_broadcast(a, 2), a)),
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
        report = ag.gradcheck(f, [x], tol=1e-5)
        assert report.passed, report.max_rel_err

    def test_depthwise_conv_gradients_in_both_inputs(self):
        rng = rng_for(2, "dwc")
        v = rng.standard_normal((12, 2))
        taps = rng.standard_normal((2, 3, 3))

        def f(a, t):
            return ag.sum_all(ag.power_int(ag.depthwise_conv(a, t, 3, 4), 2))

        assert ag.gradcheck(f, [v, taps]).passed

    def test_layer_norm_gradients(self):
        rng = rng_for(3, "ln")
        x = rng.standard_normal((5, 6))
        gamma = rng.standard_normal((1, 6))
        beta = rng.standard_normal((1, 6))

        def f(a, g, b):
            return ag.sum_all(ag.power_int(ag.layer_norm(a, g, b), 2))

        assert ag.gradcheck(f, [x, gamma, beta]).passed

    def test_blocked_softmax_attention_gradients(self):
        rng = rng_for(4, "bsa")
        q, k, v = rng.standard_normal((3, 8, 4))

        def f(a, b, c):
            return ag.sum_all(ag.power_int(ag.blocked_softmax_attention(a, b, c, 4), 2))

        assert ag.gradcheck(f, [q, k, v]).passed

    def test_blocked_linear_attention_gradients(self):
        rng = rng_for(5, "bla")
        u, w, v = rng.standard_normal((3, 6, 4))
        u, w = np.abs(u) + 0.1, np.abs(w) + 0.1

        def f(a, b, c):
            return ag.sum_all(ag.power_int(ag.blocked_linear_attention(a, b, c, 3), 2))

        assert ag.gradcheck(f, [u, w, v]).passed

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

        def f(a, b):
            h = ag.gelu(ag.matmul(a, b))
            h = ag.softmax_rows(ag.add(h, a))
            return ag.sum_all(ag.mul(h, ag.exp(ag.scale(a, 0.1))))

        report = ag.gradcheck(f, [x, w], step=1e-5)
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

        assert ag.gradcheck(f, [x], tol=1e-5).passed

    def test_tile_must_divide_grid(self):
        tape = ag.Tape()
        with pytest.raises(DimensionError):
            ag.tile_grid(ag.leaf(tape, np.ones((36, 2))), 6, 4)


class TestBroadcastAdd:
    @pytest.mark.parametrize("rows", [1, 5])
    def test_equals_broadcast_row_bitwise(self, rows):
        rng = rng_for(17, "bias", rows)
        x, weights = rng.standard_normal((2, rows, 4))
        bias = rng.standard_normal((1, 4))
        results = []
        for fn in (lambda a, b: ag.add(a, b), lambda a, b: ag.add(a, ag.broadcast_row(b, rows))):
            tape = ag.Tape()
            a, b = ag.leaf(tape, x), ag.leaf(tape, bias)
            out = fn(a, b)
            grads = ag.backward(ag.sum_all(ag.mul(out, ag.leaf(tape, weights))))
            results.append((out.value, grads[a.idx], grads[b.idx]))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    def test_gradcheck(self):
        rng = rng_for(18, "bias-gc")
        x, bias = rng.standard_normal((5, 3)), rng.standard_normal((1, 3))
        report = ag.gradcheck(lambda a, b: ag.sum_all(ag.power_int(ag.add(a, b), 2)), [x, bias])
        assert report.passed, report.max_rel_err

    @pytest.mark.parametrize("left,right", [((5, 3), (2, 3)), ((5, 3), (1, 4)),
                                            ((1, 3), (5, 3))])
    def test_other_shape_mismatches_raise(self, left, right):
        tape = ag.Tape()
        with pytest.raises(DimensionError):
            ag.add(ag.leaf(tape, np.ones(left)), ag.leaf(tape, np.ones(right)))


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


def _per_head(op, q, k, v, block, heads):
    """Reference composition: slice each head's columns, attend, concatenate."""
    hd = q.shape[1] // heads
    outs = [op(ag.cols(q, h * hd, (h + 1) * hd), ag.cols(k, h * hd, (h + 1) * hd),
               ag.cols(v, h * hd, (h + 1) * hd), block) for h in range(heads)]
    return ag.concat_cols(outs)


BLOCKED_OPS = [ag.blocked_softmax_attention, ag.blocked_linear_attention]


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
            return ag.sum_all(ag.power_int(op(a, b, c, block, 2), 2))

        assert ag.gradcheck(f, list(arrays), tol=1e-5).passed

    def test_heads_must_divide_columns(self):
        tape = ag.Tape()
        x = ag.leaf(tape, np.ones((4, 6)))
        with pytest.raises(DimensionError):
            ag.blocked_softmax_attention(x, x, x, 2, heads=4)


class TestTracedEquivalence:
    def setup_method(self):
        rng = rng_for(7, "traced")
        self.q = rng.standard_normal((8, 4))
        self.k = rng.standard_normal((8, 4))
        self.v = rng.standard_normal((8, 4))

    def run_traced(self, fn, *arrays):
        tape = ag.Tape()
        leaves = [ag.leaf(tape, a) for a in arrays]
        return fn(*leaves).value

    def test_softmax_matches_plain(self):
        out = self.run_traced(traced.softmax_attention, self.q, self.k, self.v)
        # the same blocked kernel with block == n: bitwise equal
        np.testing.assert_array_equal(out, softmax_attention(self.q, self.k, self.v).array)

    def test_linear_matches_plain(self):
        out = self.run_traced(traced.linear_attention, self.q, self.k, self.v)
        np.testing.assert_array_equal(out, linear_attention(self.q, self.k, self.v).array)

    def test_focused_matches_plain(self):
        qa, ka = np.abs(self.q), np.abs(self.k)
        out = self.run_traced(lambda a, b, c: traced.focused_attention(a, b, c, 3),
                              qa, ka, self.v)
        np.testing.assert_array_equal(out, focused_attention(qa, ka, self.v, 3).array)

    def test_window_matches_plain(self):
        out = self.run_traced(lambda a, b, c: traced.window_attention(a, b, c, 4),
                              self.q, self.k, self.v)
        plain = window_attention(self.q, self.k, self.v, WindowSpec(4)).array
        assert np.abs(out - plain).max() < 1e-12

    def test_sema_matches_plain(self):
        out = self.run_traced(lambda a, b, c: traced.sema_attention(a, b, c, 4),
                              self.q, self.k, self.v)
        plain = sema_attention(self.q, self.k, self.v, WindowSpec(4)).array
        assert np.abs(out - plain).max() < 1e-12

    def test_mila_matches_plain(self):
        out = self.run_traced(traced.mila_attention, self.q, self.k, self.v)
        assert np.abs(out - mila_attention(self.q, self.k, self.v).array).max() < 1e-12

    def test_sema_full_matches_plain(self):
        from dispersionlab.attention import SemaParams, sema_attention_full
        from dispersionlab.posenc import DepthwiseKernel

        rng = rng_for(11, "sema-full-eq")
        x = rng.standard_normal((8, 4))
        wq, wk, wv = rng.standard_normal((3, 4, 4))
        taps = rng.standard_normal((4, 3, 3))
        grid = GridSpec.grid(2, 4)
        out = self.run_traced(
            lambda a, b, c, d, t: traced.sema_attention_full(a, b, c, d, t, 2, grid),
            x, wq, wk, wv, taps)
        plain = sema_attention_full(
            x, SemaParams(wq, wk, wv, DepthwiseKernel(taps)),
            WindowSpec(2), grid).array
        assert np.abs(out - plain).max() < 1e-12


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
            bad = a.tape.push("scale", (a.idx,), a.value * 3.0, {"c": 2.0})
            return ag.sum_all(bad)

        report = ag.gradcheck(f, [x])
        assert not report.passed
        assert report.max_rel_err > 0.1

    def test_nan_derivative_fails(self):
        # log of negative inputs is NaN, so the numeric derivative is NaN too
        with np.errstate(invalid="ignore"):
            report = ag.gradcheck(lambda a: ag.sum_all(ag.log(a)), [[[-1.0, -2.0]]])
        assert not report.passed
        assert report.max_rel_err == math.inf

    def test_zero_step_fails(self):
        # a zero step makes every numeric derivative 0 / 0
        with np.errstate(invalid="ignore"):
            report = ag.gradcheck(lambda a: ag.sum_all(ag.mul(a, a)), [[[1.0, 2.0]]], step=0.0)
        assert not report.passed

    def test_homogeneous_mix_gradient_of_sum_is_all_ones(self):
        rng = rng_for(9, "mix")
        v = rng.standard_normal((6, 3))
        (g,) = run_backward(lambda a: ag.sum_all(ag.blocked_mean_broadcast(a, 6)), [v])
        np.testing.assert_allclose(g, np.ones_like(v), atol=1e-14)

    def test_sema_full_pipeline_gradcheck(self):
        rng = rng_for(10, "sema-full")
        x = rng.standard_normal((8, 4))
        wq, wk, wv = rng.standard_normal((3, 4, 4))
        taps = rng.standard_normal((4, 3, 3))
        grid = GridSpec.grid(2, 4)

        def f(a, b, c, d, t):
            return ag.sum_all(traced.sema_attention_full(a, b, c, d, t, 2, grid))

        report = ag.gradcheck(f, [x, wq, wk, wv, taps], step=1e-5, tol=1e-5)
        assert report.passed, report.max_rel_err
