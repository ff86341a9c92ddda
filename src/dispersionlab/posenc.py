"""Positional machinery: rotary embeddings and depthwise positional convolution.

Tokens live on a grid, either linear (a plain sequence) or 2-D (row-major
raster of an image stage). RoPE rotates consecutive dimension pairs by
position-dependent angles; for 2-D grids the pairs are split axially, half
encoding the row index and half the column index. The depthwise positional
term (a per-channel k x k convolution over the grid, zero-padded) is the
local offset added to attention outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .tensor import Tensor, as_array

ROPE_BASE = 10000.0
_RUN = 1 << 15  # entries per run of a streamed elementwise kernel (256 KB in float64, cache-sized)


def _run_rows(row_size: int, unit: int = 1) -> int:
    """Rows per run of a streamed kernel: the most whole units of `unit` rows of
    row_size entries that fit in _RUN entries, and at least one unit.

    A kernel walks its rows in runs of this many (the last run takes what is
    left) with scratch for one run, instead of whole-array temporaries that
    fault in afresh on every call. Each run applies the same ufuncs in the same
    order, so every entry has the bits of the whole-array form.
    """
    return unit * (_RUN // (unit * row_size or 1) or 1)  # no max(): this runs on every call


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

    Row r uses angles[r % period], and every 2 * pairs wide column slice (one
    per head) shares it, so a window-local table rotates every window.
    rotate_pairs(y, -angles) undoes it. cos and sin are taken on the table and
    copied out to (rows, d/2) tables for one run of whole periods (_run_rows),
    which every run of x reuses; each of the four products is one loop over a
    run's pairs. Raises DimensionError when the table is not a non-empty
    (period, pairs) array or does not tile x.
    """
    n, d = x.shape
    if angles.ndim != 2 or not angles.size:
        raise DimensionError(f"rotation table {angles.shape} must be a non-empty "
                             f"(period, pairs) array for input {x.shape}")
    period, pairs = angles.shape
    if n % period != 0 or d % (2 * pairs) != 0:
        raise DimensionError(f"rotation table {angles.shape} does not tile input {x.shape}")
    step = _run_rows(d, period)
    table = min(n, step)
    tiled = (table // period, period, d // (2 * pairs), pairs)
    c, s = (np.broadcast_to(f(angles)[:, None, :], tiled).reshape(table, d // 2)
            for f in (np.cos, np.sin))
    xs = x.reshape(n, d // 2, 2)
    out = np.empty(xs.shape)
    for lo in range(0, n, step):
        xr, run = xs[lo : lo + step], out[lo : lo + step]
        x0, x1, out0, out1 = xr[..., 0], xr[..., 1], run[..., 0], run[..., 1]
        cr, sr = c[: len(xr)], s[: len(xr)]
        tmp = np.multiply(x1, sr)
        np.multiply(x0, cr, out=out0)
        out0 -= tmp  # x0 c - x1 s
        np.multiply(x1, cr, out=tmp)
        np.multiply(x0, sr, out=out1)
        out1 += tmp  # x0 s + x1 c
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

    @classmethod
    def zeros(cls, channels: int) -> "DepthwiseKernel":
        """3 x 3 taps that add nothing."""
        return cls(np.zeros((channels, 3, 3)))

    @classmethod
    def identity(cls, channels: int) -> "DepthwiseKernel":
        """3 x 3 taps that copy each token."""
        taps = np.zeros((channels, 3, 3))
        taps[:, 1, 1] = 1.0
        return cls(taps)


def _padded(x: np.ndarray, k: int, height: int, width: int) -> np.ndarray:
    """(b, height*width, d) rows zero-padded onto the grid for a k x k kernel.

    The grid is viewed as (b, height + 2 pad, (width + 2 pad) * d): whole grid
    rows, so a tap's window runs over width * d entries at a time instead of d.
    """
    b, _, d = x.shape
    pad = k // 2
    padded = np.zeros((b, height + 2 * pad, (width + 2 * pad) * d))
    padded[:, pad : pad + height, pad * d : (pad + width) * d] = x.reshape(b, height, width * d)
    return padded


def _tap_windows(padded: np.ndarray, k: int, d: int, lo: int, hi: int):
    """Yield (dr, dc, window) for each tap of a k x k kernel, in row-major order.

    window is the (b, hi - lo, width * d) part of the _padded grid that tap
    (dr, dc) reads for output grid rows lo..hi-1, its halo rows included.
    """
    span = padded.shape[2] - (k - 1) * d
    for dr in range(k):
        for dc in range(k):
            yield dr, dc, padded[:, lo + dr : hi + dr, dc * d : dc * d + span]


def depthwise_conv_grid(x: np.ndarray, taps: np.ndarray, height: int, width: int) -> np.ndarray:
    """Per-channel k x k cross-correlation over (batch, height*width, channels) rows.

    Tokens are rasterized row-major onto the grid, zero-padded, and convolved
    channel by channel, in runs of whole grid rows of every sample
    (_run_rows). Each tap is one product of its _tap_windows window with a
    (width * channels) row repeating the tap's channel weights, into one
    run's scratch; each run's sum starts from zeros and takes the taps in
    row-major order, as a per-channel loop would.
    """
    b, n, d = x.shape
    if n != height * width:
        raise DimensionError(f"grid {height}x{width} holds {height * width} tokens, input has {n}")
    if taps.shape[0] != d:
        raise DimensionError(f"kernel has {taps.shape[0]} channels, input has {d}")
    k = taps.shape[1]
    tap_rows = taps.transpose(1, 2, 0)[:, :, None].repeat(width, 2).reshape(k, k, width * d)
    padded = _padded(x, k, height, width)
    out = np.zeros((b, height, width * d))
    step = _run_rows(b * width * d)
    prod = np.empty((b, min(height, step), width * d))
    for lo in range(0, height, step):
        hi = min(lo + step, height)
        run, scratch = out[:, lo:hi], prod[:, : hi - lo]
        for dr, dc, window in _tap_windows(padded, k, d, lo, hi):
            run += np.multiply(window, tap_rows[dr, dc], out=scratch)
    return out.reshape(b, n, d)


def _depthwise_taps_grad(x: np.ndarray, g: np.ndarray, k: int, height: int,
                         width: int) -> np.ndarray:
    """Gradient of depthwise_conv_grid's k x k taps, (d, k, k), given output gradient g.

    x and g hold (b, height*width, d) rows. Tap (dr, dc) of channel c gets
    the sum, over every sample and grid position, of its window times g,
    taken as one column sum of the product's (b * height * width, d) rows.
    """
    b, _, d = x.shape
    gi = g.reshape(b, height, width * d)
    prod = np.empty(gi.shape)
    dtaps = np.empty((d, k, k))
    for dr, dc, window in _tap_windows(_padded(x, k, height, width), k, d, 0, height):
        dtaps[:, dr, dc] = np.multiply(window, gi, out=prod).reshape(-1, d).sum(axis=0)
    return dtaps


def lepe(v, kernel: DepthwiseKernel, grid: GridSpec) -> Tensor:
    """LePE, the positional term MILA and FLatten add: depthwise conv of values on the grid."""
    v = as_array(v)
    if v.ndim != 2:
        raise DimensionError(f"lepe expects n x d input, got {v.shape}")
    return Tensor._own(depthwise_conv_grid(v[None], kernel.taps, grid.height, grid.width)[0])
