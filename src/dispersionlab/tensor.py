"""Dense tensor substrate for the attention and state-space modules.

A Tensor is an immutable, row-major, double-precision array of rank 1 to 4.
Library operations compute with numpy in double precision and return a
fresh Tensor, so no result aliases its inputs.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DimensionError

_DTYPES = {"float64": np.float64, "float32": np.float32}


class Tensor:
    """Immutable dense array, rank 1-4, row-major.

    Double precision by default; ``dtype="float32"`` exists for the
    complexity benchmarks only. The wrapped numpy buffer is marked
    read-only, so a Tensor is safe to share across threads.
    """

    __slots__ = ("_array",)

    def __init__(self, data, dtype: str = "float64"):
        if dtype not in _DTYPES:
            raise ValueError(f"unsupported dtype {dtype!r}")
        arr = np.array(data, dtype=_DTYPES[dtype], order="C")
        if arr.ndim < 1 or arr.ndim > 4:
            raise DimensionError(f"rank must be 1..4, got shape {arr.shape}")
        if any(s <= 0 for s in arr.shape):
            raise DimensionError(f"all dimensions must be positive, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("tensor values must be finite")
        arr.flags.writeable = False
        self._array = arr

    @property
    def array(self) -> np.ndarray:
        """The wrapped (read-only) numpy array."""
        return self._array

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def rank(self) -> int:
        return self._array.ndim

    @property
    def size(self) -> int:
        return self._array.size

    @property
    def dtype(self) -> str:
        return str(self._array.dtype)

    def tolist(self):
        return self._array.tolist()

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

    # JSON wire format: {"shape": [...], "data": [flat row-major values]}
    def to_json(self) -> str:
        return json.dumps({"shape": list(self.shape), "data": self._array.ravel().tolist()})

    @classmethod
    def from_json(cls, text: str) -> "Tensor":
        obj = json.loads(text)
        shape = obj["shape"]
        data = np.asarray(obj["data"], dtype=np.float64)
        if data.size != int(np.prod(shape)):
            raise DimensionError(
                f"data length {data.size} does not match shape {shape}"
            )
        return cls(data.reshape(shape))

    @classmethod
    def zeros(cls, *shape: int, dtype: str = "float64") -> "Tensor":
        return cls(np.zeros(shape), dtype=dtype)

    @classmethod
    def ones(cls, *shape: int, dtype: str = "float64") -> "Tensor":
        return cls(np.ones(shape), dtype=dtype)


def as_array(x) -> np.ndarray:
    """Coerce a Tensor, ndarray, or nested list to a float64 ndarray."""
    if isinstance(x, Tensor):
        return x.array
    return np.asarray(x, dtype=np.float64)
