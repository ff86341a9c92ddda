"""The one row partition: attention._blocks splits rows into blocks and columns
into heads, holds the only check that the split is positive and divides, and
_unblock inverts it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersionlab import autograd as ag
from dispersionlab.attention import (
    WindowSpec,
    _blocks,
    _unblock,
    sema_attention,
    window_attention,
    window_attention_coefficients,
)
from dispersionlab.errors import DimensionError, WindowPartitionError

_X = np.random.default_rng(0).standard_normal((6, 4))  # 6 rows, 4 columns


def _traced(*arrays):
    tape = ag.Tape()
    return [ag.leaf(tape, a) for a in arrays]


MISFITS = {
    "window_attention": lambda: window_attention(_X, _X, _X, WindowSpec(4)),
    "window_attention_coefficients": lambda: window_attention_coefficients(
        _X, _X, WindowSpec(4)),
    "sema_attention": lambda: sema_attention(_X, _X, _X, WindowSpec(4)),
    "blocked_softmax_attention/rows": lambda: ag.blocked_softmax_attention(
        *_traced(_X, _X, _X), 4),
    "blocked_softmax_attention/heads": lambda: ag.blocked_softmax_attention(
        *_traced(_X, _X, _X), 3, heads=3),
    "blocked_linear_attention/rows": lambda: ag.blocked_linear_attention(
        *_traced(_X, _X, _X), 4),
    "blocked_linear_attention/heads": lambda: ag.blocked_linear_attention(
        *_traced(_X, _X, _X), 6, heads=3),
    "blocked_mean_broadcast": lambda: ag.blocked_mean_broadcast(*_traced(_X), 4),
    "group_rows": lambda: ag.group_rows(*_traced(_X), 4),
    "depthwise_conv": lambda: ag.depthwise_conv(*_traced(_X, np.ones((4, 1, 1))), 2, 2),
}


@pytest.mark.parametrize("call", MISFITS.values(), ids=MISFITS.keys())
def test_every_split_that_does_not_divide_raises_one_error(call):
    with pytest.raises(WindowPartitionError) as info:
        call()
    assert isinstance(info.value, DimensionError)
    assert "(6, 4)" in str(info.value)  # the message names the array's shape


_X16 = np.ones((16, 4))  # every size >= 1 below fits it

BELOW_ONE = {
    "blocked_softmax_attention/rows": lambda size: ag.blocked_softmax_attention(
        *_traced(_X16, _X16, _X16), size),
    "blocked_softmax_attention/heads": lambda size: ag.blocked_softmax_attention(
        *_traced(_X16, _X16, _X16), 4, heads=size),
    "blocked_linear_attention": lambda size: ag.blocked_linear_attention(
        *_traced(_X16, _X16, _X16), size),
    "blocked_mean_broadcast": lambda size: ag.blocked_mean_broadcast(*_traced(_X16), size),
    "group_rows": lambda size: ag.group_rows(*_traced(_X16), size),
    "depthwise_conv": lambda size: ag.depthwise_conv(*_traced(_X16, np.ones((4, 1, 1))),
                                                     size, 4),
    "tile_grid/tile": lambda size: ag.tile_grid(*_traced(_X16), 4, size),
    "tile_grid/grid": lambda size: ag.tile_grid(*_traced(_X16), size, 1),
}


@pytest.mark.parametrize("size", [0, -4])
@pytest.mark.parametrize("call", BELOW_ONE.values(), ids=BELOW_ONE.keys())
def test_every_size_below_one_raises_one_error(call, size):
    # 0 raised ZeroDivisionError and -4 numpy's "can only specify one unknown dimension"
    with pytest.raises(WindowPartitionError, match=r"\(16, 4\)|16 rows"):  # names the shape
        call(size)


@settings(max_examples=50, deadline=None)
@given(blocks=st.integers(1, 4), block=st.integers(1, 5), heads=st.integers(1, 4),
       d=st.integers(1, 3))
def test_unblock_inverts_blocks_and_blocks_is_a_view(blocks, block, heads, d):
    x = np.arange(blocks * block * heads * d, dtype=np.float64).reshape(blocks * block,
                                                                        heads * d)
    view = _blocks(x, block, heads)
    assert view.shape == (blocks, heads, block, d)
    assert np.shares_memory(view, x)
    last, head = blocks - 1, heads - 1  # the last block's rows, the last head's columns
    np.testing.assert_array_equal(view[last, head],
                                  x[last * block:(last + 1) * block, head * d:(head + 1) * d])
    np.testing.assert_array_equal(_unblock(view), x)
