"""Dense tensor substrate for the attention and state-space modules.

A Tensor is an immutable float64 array of rank 1 to 4. The constructor copies
caller data, a Tensor included, once into a fresh row-major array; ``Tensor._own``
wraps a library result in place, which may be a read-only broadcast view
(``homogeneous_mix``). Either way the array is checked once for rank, shape and
finiteness and frozen.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionError


class _Fresh(NamedTuple):
    """A library-computed array handed to the constructor without a copy."""

    array: np.ndarray


class Tensor:
    """Immutable dense float64 array, rank 1-4.

    ``Tensor(data)`` copies caller data, so later changes to ``data`` do not
    reach the tensor; ``Tensor._own`` wraps a library result without a copy.
    The buffer is read-only and checked once, so a Tensor is safe to share.
    """

    __slots__ = ("_array",)

    def __init__(self, data):
        if isinstance(data, Tensor):  # caller data like any other: copied below
            data = data.array
        arr = data.array if type(data) is _Fresh else np.array(data, np.float64, order="C")
        if arr.ndim < 1 or arr.ndim > 4:
            raise DimensionError(f"rank must be 1..4, got shape {arr.shape}")
        if 0 in arr.shape:
            raise DimensionError(f"all dimensions must be positive, got {arr.shape}")
        distinct = arr
        if 0 in arr.strides:  # a broadcast view repeats values along such axes; read each once
            distinct = arr[tuple(slice(None) if st else slice(1) for st in arr.strides)]
        if not np.isfinite(distinct).all():
            raise ValueError("tensor values must be finite")
        arr.flags.writeable = False
        self._array = arr

    @classmethod
    def _own(cls, arr: np.ndarray) -> "Tensor":
        """Wrap, without a copy, a fresh float64 array that nothing else writes to."""
        return cls(_Fresh(arr))

    @property
    def array(self) -> np.ndarray:
        """The wrapped (read-only) numpy array."""
        return self._array

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def size(self) -> int:
        return self._array.size

    @property
    def dtype(self) -> str:
        return str(self._array.dtype)

    def __repr__(self) -> str:
        return f"Tensor(shape={list(self.shape)}, dtype={self.dtype})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor)
            and self.shape == other.shape
            and np.array_equal(self._array, other._array)
        )

    def __hash__(self):
        return hash((self.shape, self._array.tobytes()))


def as_array(x) -> np.ndarray:
    """Coerce a Tensor, ndarray, or nested list to a float64 ndarray."""
    if isinstance(x, Tensor):
        return x.array
    return np.asarray(x, dtype=np.float64)
