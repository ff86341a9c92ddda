"""Positional machinery: rotary embeddings and depthwise positional convolution.

Tokens live on a grid, either linear (a plain sequence) or 2-D (row-major
raster of an image stage). RoPE rotates consecutive dimension pairs by
position-dependent angles; for 2-D grids the pairs are split axially, half
encoding the row index and half the column index. The depthwise positional
term (a per-channel k x k convolution over the grid, zero-padded) is the
local offset added to attention outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .tensor import Tensor, as_array

ROPE_BASE = 10000.0


@dataclass(frozen=True)
class GridSpec:
    """Arrangement of n tokens: a 1-D sequence or a height x width raster."""

    height: int
    width: int
    kind: str = "grid"  # "linear" or "grid"

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise DimensionError(f"grid dims must be positive: {self.height}x{self.width}")
        if self.kind not in ("linear", "grid"):
            raise ValueError(f"unknown grid kind {self.kind!r}")

    @property
    def n(self) -> int:
        return self.height * self.width

    @classmethod
    def linear(cls, n: int) -> "GridSpec":
        return cls(1, n, kind="linear")

    @classmethod
    def grid(cls, height: int, width: int) -> "GridSpec":
        return cls(height, width, kind="grid")

    def row_col(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column index of each token, row-major order."""
        idx = np.arange(self.n)
        return idx // self.width, idx % self.width


def _pair_angles(positions: np.ndarray, d_pairs: int, d_model: int) -> np.ndarray:
    """Angles pos * theta_t with theta_t = base^(-2t/d_model), t = 0..d_pairs-1."""
    t = np.arange(d_pairs, dtype=np.float64)
    theta = ROPE_BASE ** (-2.0 * t / d_model)
    return positions[:, None] * theta[None, :]


def rope_angles(grid: GridSpec, d: int, positions=None) -> np.ndarray:
    """Per-token rotation angles, one per dimension pair (n x d/2).

    Linear grids use the token index for every pair. 2-D grids split the
    pairs axially: the first half encodes the row index, the second half
    the column index (d divisible by 4).
    """
    if d % 2 != 0:
        raise DimensionError(f"feature dimension must be even for rotation, got {d}")
    if positions is not None:
        pos = np.asarray(positions, dtype=np.float64)
        if pos.shape != (grid.n,):
            raise DimensionError(f"positions must have shape ({grid.n},), got {pos.shape}")
        return _pair_angles(pos, d // 2, d)
    if grid.kind == "linear":
        pos = np.arange(grid.n, dtype=np.float64)
        return _pair_angles(pos, d // 2, d)
    if d % 4 != 0:
        raise DimensionError(f"2-D rotary split needs d divisible by 4, got {d}")
    rows, cols = grid.row_col()
    half = d // 2
    ang = np.empty((grid.n, half))
    ang[:, : half // 2] = _pair_angles(rows.astype(np.float64), half // 2, half)
    ang[:, half // 2 :] = _pair_angles(cols.astype(np.float64), half // 2, half)
    return ang


def rotate_pairs(x: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rotate each pair (x[r, 2t], x[r, 2t+1]) of n x d rows by a (period, pairs) table.

    The table is broadcast, not tiled: row r uses angles[r % period] and
    every 2 * pairs wide column slice (one per head) shares it, so a
    window-local table rotates every window. rotate_pairs(y, -angles)
    undoes it. Raises DimensionError when the table does not tile x.
    """
    n, d = x.shape
    period, pairs = angles.shape
    if n % period != 0 or d % (2 * pairs) != 0:
        raise DimensionError(f"rotation table {angles.shape} does not tile input {x.shape}")
    xs = x.reshape(n // period, period, d // (2 * pairs), pairs, 2)
    x0, x1 = xs[..., 0], xs[..., 1]
    c, s = np.cos(angles)[:, None, :], np.sin(angles)[:, None, :]
    out = np.empty(xs.shape)
    out[..., 0] = x0 * c - x1 * s
    out[..., 1] = x0 * s + x1 * c
    return out.reshape(n, d)


def rope_apply(x, grid: GridSpec, positions=None) -> Tensor:
    """Apply rotary position embedding to every row of an n x d tensor."""
    x = as_array(x)
    if x.ndim != 2:
        raise DimensionError(f"rope_apply expects n x d input, got {x.shape}")
    n, d = x.shape
    if n != grid.n:
        raise DimensionError(f"grid holds {grid.n} tokens but input has {n} rows")
    return Tensor._own(rotate_pairs(x, rope_angles(grid, d, positions)))


@dataclass(frozen=True)
class DepthwiseKernel:
    """Per-channel k x k convolution taps (one filter per channel, k odd)."""

    taps: np.ndarray  # (channels, k, k)

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        if taps.ndim != 3 or taps.shape[1] != taps.shape[2]:
            raise DimensionError(f"taps must be (channels, k, k), got {taps.shape}")
        if taps.shape[1] % 2 != 1:
            raise DimensionError(f"kernel size must be odd, got {taps.shape[1]}")
        object.__setattr__(self, "taps", taps)

    @property
    def channels(self) -> int:
        return self.taps.shape[0]

    @property
    def k(self) -> int:
        return self.taps.shape[1]

    @classmethod
    def zeros(cls, channels: int, k: int = 3) -> "DepthwiseKernel":
        return cls(np.zeros((channels, k, k)))

    @classmethod
    def identity(cls, channels: int, k: int = 3) -> "DepthwiseKernel":
        taps = np.zeros((channels, k, k))
        taps[:, k // 2, k // 2] = 1.0
        return cls(taps)

    def to_json(self) -> str:
        return json.dumps(
            {"channels": self.channels, "k": self.k, "taps": self.taps.ravel().tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "DepthwiseKernel":
        obj = json.loads(text)
        taps = np.asarray(obj["taps"], dtype=np.float64)
        return cls(taps.reshape(obj["channels"], obj["k"], obj["k"]))


def depthwise_conv_grid(x: np.ndarray, taps: np.ndarray, height: int, width: int) -> np.ndarray:
    """Per-channel k x k cross-correlation over (..., height*width, channels) rows.

    Tokens are rasterized row-major onto the grid, zero-padded, and convolved
    channel by channel. Accepts a leading batch dimension.
    """
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    b, n, d = x.shape
    if n != height * width:
        raise DimensionError(f"grid {height}x{width} holds {height * width} tokens, input has {n}")
    if taps.shape[0] != d:
        raise DimensionError(f"kernel has {taps.shape[0]} channels, input has {d}")
    k = taps.shape[1]
    pad = k // 2
    img = x.reshape(b, height, width, d)
    padded = np.zeros((b, height + 2 * pad, width + 2 * pad, d))
    padded[:, pad : pad + height, pad : pad + width, :] = img
    out = np.zeros_like(img)
    for dr in range(k):
        for dc in range(k):
            out += padded[:, dr : dr + height, dc : dc + width, :] * taps[:, dr, dc]
    out = out.reshape(b, n, d)
    return out[0] if squeeze else out


def lepe(v, kernel: DepthwiseKernel, grid: GridSpec) -> Tensor:
    """Locally-enhanced positional term: depthwise conv of values on the grid."""
    v = as_array(v)
    if v.ndim != 2:
        raise DimensionError(f"lepe expects n x d input, got {v.shape}")
    return Tensor._own(depthwise_conv_grid(v, kernel.taps, grid.height, grid.width))
