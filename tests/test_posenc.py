import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersionlab.errors import DimensionError
from dispersionlab.posenc import (DepthwiseKernel, GridSpec, depthwise_conv_grid, lepe, rope_apply,
                                  rotate_pairs)


def lepe_oracle(v, taps, height, width):
    """Direct sliding-window reference with explicit zero padding."""
    n, d = v.shape
    img = v.reshape(height, width, d)
    k = taps.shape[1]
    pad = k // 2
    out = np.zeros_like(img)
    for r in range(height):
        for c in range(width):
            for dr in range(k):
                for dc in range(k):
                    rr, cc = r + dr - pad, c + dc - pad
                    if 0 <= rr < height and 0 <= cc < width:
                        out[r, c] += img[rr, cc] * taps[:, dr, dc]
    return out.reshape(n, d)


class TestRope:
    def test_position_zero_is_identity(self):
        x = np.random.default_rng(0).standard_normal((1, 8))
        out = rope_apply(x, GridSpec.linear(1))
        np.testing.assert_allclose(out.array, x, atol=1e-15)

    def test_norm_preservation(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((12, 10))
        out = rope_apply(x, GridSpec.linear(12)).array
        np.testing.assert_allclose(np.linalg.norm(out, axis=1),
                                   np.linalg.norm(x, axis=1), atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 6))
        g = GridSpec.linear(5)
        np.testing.assert_allclose(rope_apply(2.5 * x, g).array,
                                   2.5 * rope_apply(x, g).array, atol=1e-12)

    def test_inner_products_depend_on_relative_position(self):
        rng = np.random.default_rng(3)
        q_row = rng.standard_normal(8)
        k_row = rng.standard_normal(8)
        n = 16
        x_q = np.tile(q_row, (n, 1))
        x_k = np.tile(k_row, (n, 1))
        g = GridSpec.linear(n)
        rq, rk = rope_apply(x_q, g).array, rope_apply(x_k, g).array
        # all (i, j) pairs with i - j = 3 share one inner product
        vals = [rq[j + 3] @ rk[j] for j in range(n - 3)]
        assert max(vals) - min(vals) < 1e-10

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionError):
            rope_apply(np.ones((2, 3)), GridSpec.linear(2))

    def test_2d_axial_split_relative_per_axis(self):
        rng = np.random.default_rng(4)
        row = rng.standard_normal(8)
        g = GridSpec.grid(4, 4)
        r = rope_apply(np.tile(row, (16, 1)), g).array
        # same relative (row, col) displacement -> same inner product
        a = r[0] @ r[5]   # (0,0) vs (1,1)
        b = r[5] @ r[10]  # (1,1) vs (2,2)
        assert abs(a - b) < 1e-10

    def test_positions_override(self):
        x = np.random.default_rng(5).standard_normal((3, 4))
        out = rope_apply(x, GridSpec.linear(3), positions=np.zeros(3))
        np.testing.assert_allclose(out.array, x, atol=1e-15)

    def test_grid_token_count_mismatch(self):
        with pytest.raises(DimensionError):
            rope_apply(np.ones((3, 4)), GridSpec.linear(4))


def rotate_full_table(x, angles):
    """Reference rotation by an n x d/2 table holding one angle per pair."""
    c, s = np.cos(angles), np.sin(angles)
    out = np.empty_like(x)
    out[:, 0::2] = x[:, 0::2] * c - x[:, 1::2] * s
    out[:, 1::2] = x[:, 0::2] * s + x[:, 1::2] * c
    return out


class TestRotatePairs:
    @settings(max_examples=60, deadline=None)
    @given(blocks=st.integers(1, 4), period=st.integers(1, 6), heads=st.integers(1, 4),
           pairs=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_broadcast_table_equals_tiled_table(self, blocks, period, heads, pairs, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((blocks * period, heads * 2 * pairs))
        angles = rng.uniform(-10.0, 10.0, (period, pairs))
        tiled = np.tile(angles, (blocks, heads))
        np.testing.assert_array_equal(rotate_pairs(x, angles), rotate_full_table(x, tiled))

    def test_negated_table_inverts(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((12, 16))
        angles = rng.uniform(-3.0, 3.0, (4, 4))
        np.testing.assert_allclose(rotate_pairs(rotate_pairs(x, angles), -angles), x,
                                   atol=1e-14)

    @pytest.mark.parametrize("rows,width,table", [(5, 4, (2, 2)), (4, 6, (2, 2)),
                                                  (4, 4, (4, 3))])
    def test_table_that_does_not_tile_rejected(self, rows, width, table):
        with pytest.raises(DimensionError):
            rotate_pairs(np.ones((rows, width)), np.zeros(table))

    @pytest.mark.parametrize("table", [(0, 4), (4, 0), (4,), (), (2, 2, 2)])
    def test_table_that_is_not_a_nonempty_period_by_pairs_array_rejected(self, table):
        with pytest.raises(DimensionError) as caught:
            rotate_pairs(np.ones((8, 8)), np.zeros(table))
        message = str(caught.value)
        assert "\n" not in message and str(table) in message and "(8, 8)" in message


def assert_same_bits(got, want):
    """Equal entries with equal signs, so -0.0 never stands in for 0.0."""
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def depthwise_conv_oracle(x, taps, height, width):
    """The per-channel 4-D formulation depthwise_conv_grid had before it ran over whole rows."""
    b, n, d = x.shape
    k = taps.shape[1]
    pad = k // 2
    padded = np.zeros((b, height + 2 * pad, width + 2 * pad, d))
    padded[:, pad : pad + height, pad : pad + width, :] = x.reshape(b, height, width, d)
    out = np.zeros((b, height, width, d))
    for dr in range(k):
        for dc in range(k):
            out += padded[:, dr : dr + height, dc : dc + width, :] * taps[:, dr, dc]
    return out.reshape(b, n, d)


def rotate_pairs_oracle(x, angles):
    """The broadcast formulation rotate_pairs had before its per-call (n, d/2) tables."""
    n, d = x.shape
    period, pairs = angles.shape
    xs = x.reshape(n // period, period, d // (2 * pairs), pairs, 2)
    x0, x1 = xs[..., 0], xs[..., 1]
    c, s = np.cos(angles)[:, None, :], np.sin(angles)[:, None, :]
    out = np.empty(xs.shape)
    out[..., 0] = x0 * c - x1 * s
    out[..., 1] = x0 * s + x1 * c
    return out.reshape(n, d)


def with_zeros(rng, shape):
    """Normal draws with about a fifth of the entries +0.0 or -0.0."""
    x = rng.standard_normal(shape)
    zero = rng.random(shape) < 0.2
    x[zero] = rng.choice([0.0, -0.0], zero.sum())
    return x


class TestRowKernelsAgainstOracles:
    @pytest.mark.parametrize("grid", [(3, 5), (5, 2), (1, 7), (4, 4)])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("b", [1, 3, 64])
    def test_depthwise_conv_grid_is_bitwise_the_channel_loop(self, b, k, grid):
        height, width = grid
        rng = np.random.default_rng([b, k, height, width])
        x = with_zeros(rng, (b, height * width, 3))
        taps = with_zeros(rng, (3, k, k))
        got = depthwise_conv_grid(x, taps, height, width)
        assert_same_bits(got, depthwise_conv_oracle(x, taps, height, width))
        assert_same_bits(depthwise_conv_grid(x[:1], taps, height, width), got[:1])

    def test_all_negative_zero_input_gives_positive_zeros(self):
        x = np.full((2, 6, 2), -0.0)
        out = depthwise_conv_grid(x, np.ones((2, 3, 3)), 2, 3)
        assert_same_bits(out, depthwise_conv_oracle(x, np.ones((2, 3, 3)), 2, 3))
        assert not np.signbit(out).any()

    @pytest.mark.parametrize("heads", [1, 2, 3, 4])
    @pytest.mark.parametrize("period,pairs", [(1, 2), (2, 1), (3, 2), (4, 4), (6, 3)])
    @pytest.mark.parametrize("blocks", [1, 5])
    def test_rotate_pairs_is_bitwise_the_broadcast_rotation(self, blocks, period, pairs, heads):
        rng = np.random.default_rng([blocks, period, pairs, heads])
        x = with_zeros(rng, (blocks * period, heads * 2 * pairs))
        angles = rng.uniform(-10.0, 10.0, (period, pairs))
        angles[0, 0] = 0.0  # an exact identity pair: sin 0 = 0 meets the zeros of x
        for table in (angles, -angles):
            assert_same_bits(rotate_pairs(x, table), rotate_pairs_oracle(x, table))


class TestLepe:
    def test_zero_kernel(self):
        v = np.random.default_rng(0).standard_normal((6, 2))
        out = lepe(v, DepthwiseKernel.zeros(2), GridSpec.grid(2, 3))
        np.testing.assert_array_equal(out.array, np.zeros_like(v))

    def test_identity_kernel(self):
        v = np.random.default_rng(1).standard_normal((9, 3))
        out = lepe(v, DepthwiseKernel.identity(3), GridSpec.grid(3, 3))
        np.testing.assert_allclose(out.array, v, atol=1e-15)

    def test_against_sliding_window_oracle(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((16, 2))
        taps = rng.standard_normal((2, 3, 3))
        out = lepe(v, DepthwiseKernel(taps), GridSpec.grid(4, 4)).array
        np.testing.assert_allclose(out, lepe_oracle(v, taps, 4, 4), atol=1e-12)

    def test_linear_grid_is_one_row(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((5, 1))
        taps = rng.standard_normal((1, 3, 3))
        out = lepe(v, DepthwiseKernel(taps), GridSpec.linear(5)).array
        np.testing.assert_allclose(out, lepe_oracle(v, taps, 1, 5), atol=1e-12)

    def test_locality(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((25, 2))
        taps = rng.standard_normal((2, 3, 3))
        g = GridSpec.grid(5, 5)
        base = lepe(v, DepthwiseKernel(taps), g).array
        bumped = v.copy()
        bumped[12] += 1.0  # center token (2,2)
        moved = np.abs(lepe(bumped, DepthwiseKernel(taps), g).array - base).max(axis=1) > 0
        moved_grid = moved.reshape(5, 5)
        assert moved_grid[1:4, 1:4].all()
        assert not moved_grid[0].any() and not moved_grid[4].any()
        assert not moved_grid[:, 0].any() and not moved_grid[:, 4].any()

    def test_linearity_in_values(self):
        rng = np.random.default_rng(5)
        v1, v2 = rng.standard_normal((2, 8, 2))
        taps = rng.standard_normal((2, 3, 3))
        g = GridSpec.grid(2, 4)
        kern = DepthwiseKernel(taps)
        np.testing.assert_allclose(
            lepe(v1 + v2, kern, g).array,
            lepe(v1, kern, g).array + lepe(v2, kern, g).array, atol=1e-12)

    def test_grid_mismatch(self):
        with pytest.raises(DimensionError):
            lepe(np.ones((5, 2)), DepthwiseKernel.zeros(2), GridSpec.grid(2, 3))
        with pytest.raises(DimensionError):
            lepe(np.ones((6, 2)), DepthwiseKernel.zeros(3), GridSpec.grid(2, 3))

    def test_kernel_validation_and_json(self):
        with pytest.raises(DimensionError):
            DepthwiseKernel(np.ones((2, 2, 2)))  # even size
        with pytest.raises(DimensionError):
            DepthwiseKernel(np.ones((2, 3, 5)))  # not square
        kern = DepthwiseKernel([[[0, 1, 2]] * 3])
        assert kern.taps.dtype == np.float64 and kern.taps.shape == (1, 3, 3)
