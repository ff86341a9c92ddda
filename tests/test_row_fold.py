"""attention._row_fold against op.reduce(x, axis=-1, keepdims=True) on the installed numpy.

The fold copies numpy's association order, so these properties pin it bitwise,
signs of zero included, at every width it folds and at the first widths it
hands back to op.reduce. A NaN matches any NaN: which NaN payload survives a
sum depends on the operand order numpy's compiled loops pass to the CPU.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersionlab.attention import _fold_widths, _row_fold

OPS = (np.add, np.maximum, np.minimum)
SPECIALS = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf])


def draw(rng, shape):
    """Magnitudes from 1e-30 to 1e30, with NaN, +-0 and +-inf in about a third of the entries."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 31, shape)
    special = rng.random(shape) < 0.35
    x[special] = rng.choice(SPECIALS, special.sum())
    return x


def layout(rng, kind, rows, width):
    if kind == "contiguous":
        return draw(rng, (rows, width))
    if kind == "column-sliced":
        return draw(rng, (rows, width + 5))[:, 2 : 2 + width]
    # batched blocks (..., w, w), as a window's logits
    return draw(rng, (rows, width, width))


def assert_same_bits(got, want):
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])


@pytest.mark.parametrize("kind", ["contiguous", "column-sliced", "batched-block"])
@pytest.mark.parametrize("width", range(1, 18))
@pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40))
def test_fold_is_bitwise_reduce(op, width, kind, seed, rows):
    x = layout(np.random.default_rng(seed), kind, rows, width)
    with np.errstate(all="ignore"):
        assert_same_bits(_row_fold(op, x), op.reduce(x, axis=-1, keepdims=True))


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__)
def test_all_zero_rows_keep_numpy_signs(op):
    signs = (np.arange(2**9)[:, None] >> np.arange(9)) & 1  # every sign pattern of 9 zeros
    x = np.where(signs == 1, -0.0, 0.0)
    for width in range(1, 10):
        assert_same_bits(_row_fold(op, x[:, :width]),
                         op.reduce(x[:, :width], axis=-1, keepdims=True))


def test_every_folded_width_is_short():
    for op in OPS:
        assert _fold_widths(op) <= set(range(1, 16))


def test_disagreeing_order_falls_back_to_reduce():
    # subtract.reduce runs in order at every width, so the pairwise tree disagrees
    # from 8 columns on; those widths must go to op.reduce
    assert _fold_widths(np.subtract) == set(range(1, 8))
    rng = np.random.default_rng(3)
    for width in range(1, 18):
        x = rng.standard_normal((50, width)) * 10.0 ** rng.integers(-30, 31, (50, width))
        assert_same_bits(_row_fold(np.subtract, x), np.subtract.reduce(x, axis=-1, keepdims=True))


@pytest.mark.parametrize("width", [3, 8, 12])
def test_non_contiguous_rows_go_to_reduce(width):
    # a Fortran-ordered array is summed by numpy column by column, in order
    x = np.asfortranarray(draw(np.random.default_rng(width), (200, width)))
    with np.errstate(all="ignore"):
        for op in OPS:
            assert_same_bits(_row_fold(op, x), op.reduce(x, axis=-1, keepdims=True))


def test_sums_fold_below_sixteen_columns():
    # numpy 2's add.reduce starts from its identity and sums rows below 16 columns
    # in the order _fold copies; if a numpy release changes that, the fast path
    # for the model's 4- and 8-wide rows is gone and this says so
    assert _fold_widths(np.add) == set(range(1, 16))
