"""Attention variants as pure forward functions over tensors.

Every variant normalizes kernel weights phi(psi_q(Q)_i psi_k(K)_j^T) over a
key set: the full set (softmax, linear, focused, MILA) or a disjoint window
block (window, SEMA). Each op has a ``*_coefficients`` companion returning
the raw weight matrix: the tests' oracle and perfbench's reference. The
dispersion analysis streams its own cells through ``_row_blocks`` and
``_phi_rows`` (phi and its domain checks, without the division that
``_normalize`` adds) and never builds that matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionError, KernelDomainError, WindowPartitionError
from .posenc import DepthwiseKernel, GridSpec, depthwise_conv_grid, rope_angles, rotate_pairs
from .tensor import Tensor, as_array

PHI_CHOICES = ("exp", "exp_temperature", "identity", "power")
PSI_CHOICES = ("identity", "elu_plus_one", "focused")

# Feature maps guaranteed nonnegative, hence safe under identity/power phi.
_NONNEG_PSI = ("elu_plus_one", "focused")

_EPSILON = 1e-6  # the stabilizer of every elu+1 denominator; KernelSpec.epsilon's default


@dataclass(frozen=True)
class KernelSpec:
    """Normalizer phi plus feature maps psi_q, psi_k selecting a variant.

    phi must send its logits to positive reals; identity and power kernels
    only guarantee that on nonnegative logits, so they are accepted only in
    combination with nonnegative feature maps (validated here, not at call
    time). epsilon is the denominator validity threshold. The numbers must be
    finite and not booleans; every check is a comparison that NaN fails.
    """

    phi: str = "exp"
    psi_q: str = "identity"
    psi_k: str = "identity"
    theta: float = 1.0  # temperature for exp_temperature
    phi_p: float = 1.0  # exponent for power phi
    psi_p: int = 3  # elementwise power for focused features
    epsilon: float = _EPSILON

    def __post_init__(self):
        for name in ("theta", "phi_p", "psi_p", "epsilon"):
            if isinstance(getattr(self, name), bool):  # a JSON true would run as 1
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if self.phi not in PHI_CHOICES:
            raise ValueError(f"unknown phi {self.phi!r}, choose from {PHI_CHOICES}")
        for psi in (self.psi_q, self.psi_k):
            if psi not in PSI_CHOICES:
                raise ValueError(f"unknown psi {psi!r}, choose from {PSI_CHOICES}")
        if not 0 < self.theta < math.inf:
            raise ValueError(f"temperature theta must be positive and finite, got {self.theta!r}")
        if not 1 <= self.phi_p < math.inf:
            raise ValueError(f"power exponent phi_p must be >= 1 and finite, got {self.phi_p!r}")
        if not 1 <= self.psi_p < math.inf:
            raise ValueError(f"feature power psi_p must be >= 1 and finite, got {self.psi_p!r}")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be >= 0 and finite, got {self.epsilon!r}")
        if self.phi in ("identity", "power") and not (
            self.psi_q in _NONNEG_PSI and self.psi_k in _NONNEG_PSI
        ):
            raise ValueError(
                f"phi={self.phi!r} needs nonnegative logits; pair it with "
                f"nonnegative feature maps {_NONNEG_PSI}, got "
                f"({self.psi_q!r}, {self.psi_k!r})"
            )

    @classmethod
    def softmax(cls) -> "KernelSpec":
        return cls(phi="exp", psi_q="identity", psi_k="identity")

    @classmethod
    def softmax_temperature(cls, theta: float) -> "KernelSpec":
        return cls(phi="exp_temperature", theta=theta)

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls(phi="identity", psi_q="elu_plus_one", psi_k="elu_plus_one")

    @classmethod
    def focused(cls) -> "KernelSpec":
        return cls(phi="identity", psi_q="focused", psi_k="focused")

    @classmethod
    def from_json(cls, text: str) -> "KernelSpec":
        """Parse a JSON object whose keys are fields or ``psi``; name any other key."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"kernel spec must be a JSON object, got {text!r}")
        keys = ("psi", *(f.name for f in fields(cls)))
        unknown = sorted(set(obj) - set(keys))
        if unknown:
            raise ValueError(f"unknown kernel spec key(s) {unknown}; known keys are {list(keys)}")
        if "psi" in obj:
            psi = obj.pop("psi")
            obj.setdefault("psi_q", psi)
            obj.setdefault("psi_k", psi)
        return cls(**obj)


@dataclass(frozen=True)
class WindowSpec:
    """Blocked window partition: row m attends to J(m) = {Mw+1..(M+1)w}."""

    w: int

    def __post_init__(self):
        if self.w < 1:
            raise ValueError("window size must be >= 1")


def elu_plus_one(x: np.ndarray) -> np.ndarray:
    """ELU(x) + 1 = x + 1 for x > 0, exp(x) otherwise; strictly positive.

    Evaluated as exp(min(x, 0)) + max(x, 0) in one output array: one side of
    the sum is exactly 1 or 0, so every entry (NaN, signed zeros and
    infinities included) is bitwise that of the two-branch form.
    """
    out = np.asarray(np.minimum(x, 0.0))  # a 0-d input gives a scalar, not an array
    np.exp(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def focused_map(x, p: int) -> Tensor:
    """Norm-preserving elementwise power of relu(x), applied rowwise.

    Each row r = relu(x_i) maps to (|r| / |r**p|) * r**p (Euclidean norms).
    An all-zero row maps to zero, the continuous limit along scaled inputs.
    """
    if p < 1:
        raise ValueError("focused power p must be >= 1")
    x = as_array(x)
    return Tensor._own(_focused_features(np.atleast_2d(x), p).reshape(x.shape))


def _focused_features(x: np.ndarray, p: int) -> np.ndarray:
    r = np.maximum(x, 0.0)
    rp = r**p
    norm_r = np.linalg.norm(r, axis=-1, keepdims=True)
    norm_rp = np.linalg.norm(rp, axis=-1, keepdims=True)
    scale = np.divide(norm_r, norm_rp, out=np.zeros_like(norm_r), where=norm_rp > 0)
    return rp * scale


def _apply_psi(x: np.ndarray, psi: str, psi_p: int) -> np.ndarray:
    if psi == "identity":
        return x
    if psi == "elu_plus_one":
        return elu_plus_one(x)
    if psi == "focused":
        return _focused_features(x, psi_p)
    raise ValueError(f"unknown psi {psi!r}")


def _phi_rows(kernel: KernelSpec, logits: np.ndarray,
              row_max: np.ndarray | None = None) -> np.ndarray:
    """phi applied rowwise in place, with its domain checks; returns the row sums (..., 1).

    Exp kernels are shifted by each row's largest logit before exp, which the
    ratio does not see. row_max, the logits' max(axis=-1, keepdims=True), is
    taken here unless the caller already has it. Dividing by a positive theta
    is correctly rounded, hence monotone, so row_max / theta is bitwise the
    row max of logits / theta. logits must be a fresh array the caller owns.
    """
    if kernel.phi in ("exp", "exp_temperature"):
        if row_max is None:
            row_max = logits.max(axis=-1, keepdims=True)
        if kernel.phi == "exp_temperature":
            logits /= kernel.theta
            row_max = row_max / kernel.theta
        logits -= row_max
        np.exp(logits, out=logits)
    else:
        if np.any(logits < 0):
            raise KernelDomainError(
                f"phi={kernel.phi!r} requires nonnegative logits, got min {logits.min()}"
            )
        if kernel.phi == "power":
            logits **= kernel.phi_p
    denom = logits.sum(axis=-1, keepdims=True)
    if np.any(denom <= kernel.epsilon):
        raise KernelDomainError(
            f"normalizer denominator <= epsilon ({kernel.epsilon}); "
            "kernel weights sum to a non-positive or vanishing value"
        )
    return denom


def _normalize(kernel: KernelSpec, logits: np.ndarray) -> np.ndarray:
    """phi applied rowwise, then each row divided by its sum; the one row normalization.

    logits must be a fresh array the caller owns: it is overwritten in place
    and returned.
    """
    logits /= _phi_rows(kernel, logits)
    return logits


def phi_values(kernel: KernelSpec, x: np.ndarray) -> np.ndarray:
    """Raw phi(x), without the exp rescaling; used for bound evaluation."""
    if kernel.phi == "exp":
        return np.exp(x)
    if kernel.phi == "exp_temperature":
        return np.exp(x / kernel.theta)
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise KernelDomainError(f"phi={kernel.phi!r} requires nonnegative input")
    return x if kernel.phi == "identity" else x**kernel.phi_p


def phi_normalize(logits, kernel: KernelSpec) -> Tensor:
    """Normalize a logit vector to the probability simplex via phi."""
    x = as_array(logits)
    if x.ndim != 1:
        raise DimensionError(f"phi_normalize expects a rank-1 tensor, got {x.shape}")
    return Tensor._own(_normalize(kernel, x[None, :].copy())[0])


def _qkv(q, k, v=None) -> tuple[np.ndarray, ...]:
    """(q, k, v) as arrays, or (q, k) without v: rank 2, q and k of one shape,
    one value row per query."""
    q, k = as_array(q), as_array(k)
    vals = q if v is None else as_array(v)
    if q.ndim != 2 or k.ndim != 2 or vals.ndim != 2:
        raise DimensionError("q, k, v must be rank 2")
    if q.shape != k.shape or q.shape[0] != vals.shape[0]:
        raise DimensionError(f"q/k/v shapes disagree: {q.shape}, {k.shape}, {vals.shape}")
    return (q, k) if v is None else (q, k, vals)


def _blocks(x: np.ndarray, block: int) -> np.ndarray:
    """View n x d rows as (n / block, block, d) consecutive blocks."""
    return x.reshape(x.shape[0] // block, block, x.shape[1])


def _block_coefficients(qb: np.ndarray, kb: np.ndarray, kernel: KernelSpec,
                        featured: bool = False) -> np.ndarray:
    """Phi-normalized weights of each row over the keys of its own block.

    qb and kb hold rows grouped into blocks, shape (..., block, d); the
    result has shape (..., block, block). One block of all n rows is global
    attention. With featured=True the rows already carry their psi maps.
    """
    if not featured:
        qb = _apply_psi(qb, kernel.psi_q, kernel.psi_p)
        kb = _apply_psi(kb, kernel.psi_k, kernel.psi_p)
    return _normalize(kernel, qb @ np.swapaxes(kb, -1, -2))


def generalized_attention_coefficients(q, k, kernel: KernelSpec) -> Tensor:
    """The n x n phi-normalized weight matrix of generalized attention."""
    q, k = _qkv(q, k)
    return Tensor._own(_block_coefficients(q, k, kernel))


def softmax_attention_coefficients(q, k) -> Tensor:
    return generalized_attention_coefficients(q, k, KernelSpec.softmax())


_CHUNK_BUDGET = 1 << 19  # entries per streamed logit block (4 MB in float64)
# A multiple of every common BLAS register-tile height (2, 3, 4, 6, 8, 12, 16)
_ROW_TILE = 48


def _row_blocks(a: np.ndarray, b: np.ndarray, tile: int = 1):
    """Yield (rows, a[rows] @ b.T) for consecutive blocks of a's rows.

    The blocks share one scratch array of about _CHUNK_BUDGET entries, which a
    caller may overwrite in place before asking for the next block. Heights
    are multiples of tile. With tile=_ROW_TILE blocks start on BLAS
    register-tile boundaries and a lone last row (numpy's gemv path) joins the
    block before it, so with one BLAS thread each row is bitwise that of the
    whole a @ b.T. _global_attention keeps tile=1, the block heights its value
    product has always been rounded with.
    """
    n, m = a.shape[0], b.shape[0]
    step = max(tile, max(64, _CHUNK_BUDGET // max(m, 1)) // tile * tile)
    scratch = np.empty((min(step + 1, n), m))
    lo = 0
    while lo < n:
        hi = n if n - lo <= step + 1 else lo + step
        block = scratch[: hi - lo]
        np.matmul(a[lo:hi], b.T, out=block)
        yield slice(lo, hi), block
        lo = hi


def _global_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                      kernel: KernelSpec) -> np.ndarray:
    """Phi-normalized attention over every key, one streamed row block at a time.

    Query rows pass through one cache-sized scratch block, so the n x n
    weight matrix is never materialized whole and large runs avoid
    allocating (and page-faulting) O(n^2) temporaries.
    """
    fq = _apply_psi(q, kernel.psi_q, kernel.psi_p)
    fk = _apply_psi(k, kernel.psi_k, kernel.psi_p)
    out = np.empty((q.shape[0], v.shape[1]))
    for rows, block in _row_blocks(fq, fk):
        np.matmul(_normalize(kernel, block), v, out=out[rows])
    return out


def generalized_attention(q, k, v, kernel: KernelSpec) -> Tensor:
    """Phi-normalized attention: row i mixes values by phi-normalized weights."""
    q, k, v = _qkv(q, k, v)
    return Tensor._own(_global_attention(q, k, v, kernel))


def softmax_attention(q, k, v) -> Tensor:
    """Vanilla full attention via the matrix route softmax(q k^T) v."""
    return generalized_attention(q, k, v, KernelSpec.softmax())


def linear_attention_coefficients(q, k) -> Tensor:
    return generalized_attention_coefficients(q, k, KernelSpec.linear())


def linear_attention(q, k, v) -> Tensor:
    """Linear attention (elu+1 features, identity kernel), quadratic form."""
    return generalized_attention(q, k, v, KernelSpec.linear())


def _associative(a: np.ndarray, b: np.ndarray, v: np.ndarray, den: np.ndarray) -> np.ndarray:
    """(a @ (b.T @ v)) / den rowwise: the O(n d^2) order of (a b^T / den) v.

    den has shape (n, 1). No n x n array is formed (Katharopoulos et al. 2020).
    """
    out = a @ (b.T @ v)
    out /= den
    return out


def linear_attention_fast(q, k, v) -> Tensor:
    """Associative O(n d^2) evaluation of linear attention.

    Computes psi(q) (psi(k)^T v) / (psi(q) sum_j psi(k)_j^T); agrees with the
    quadratic form up to accumulation order.
    """
    q, k, v = _qkv(q, k, v)
    u, w = elu_plus_one(q), elu_plus_one(k)
    den = u @ w.sum(axis=0)
    if np.any(np.abs(den) <= _EPSILON):
        raise KernelDomainError(f"linear attention denominator underflowed past {_EPSILON}")
    return Tensor._own(_associative(u, w, v, den[:, None]))


def focused_attention_coefficients(q, k) -> Tensor:
    return generalized_attention_coefficients(q, k, KernelSpec.focused())


def focused_attention(q, k, v, dwc: DepthwiseKernel | None = None,
                      grid: GridSpec | None = None) -> Tensor:
    """Focused linear attention plus a depthwise convolution of the values.

    The attention part uses the norm-preserving cubic features focused_map(x, 3);
    the convolution term restores rank lost to the separable form. dwc=None
    omits the convolution.
    """
    q, k, v = _qkv(q, k, v)
    out = _global_attention(q, k, v, KernelSpec.focused())
    if dwc is not None:
        grid = grid or GridSpec.linear(v.shape[0])
        out = out + depthwise_conv_grid(v, dwc.taps, grid.height, grid.width)
    return Tensor._own(out)


def _window_blocks(n: int, win: WindowSpec) -> int:
    if n % win.w != 0:
        raise WindowPartitionError(
            f"window size {win.w} does not divide sequence length {n} (no implicit padding)"
        )
    return n // win.w


def window_attention_coefficients(q, k, win: WindowSpec,
                                  kernel: KernelSpec | None = None) -> Tensor:
    """Per-row weights over the row's own window: an n x w matrix."""
    kernel = kernel or KernelSpec.softmax()
    q, k = _qkv(q, k)
    _window_blocks(q.shape[0], win)
    coeff = _block_coefficients(_blocks(q, win.w), _blocks(k, win.w), kernel)
    return Tensor._own(coeff.reshape(q.shape[0], win.w))


def window_attention(q, k, v, win: WindowSpec, kernel: KernelSpec | None = None) -> Tensor:
    """Attention restricted to disjoint blocks of w consecutive tokens.

    Equals generalized attention applied independently inside each block, so
    each row's coefficients do not depend on the total sequence length. Every
    kernel runs batched over the blocks.
    """
    kernel = kernel or KernelSpec.softmax()
    q, k, v = _qkv(q, k, v)
    _window_blocks(q.shape[0], win)
    coeff = _block_coefficients(_blocks(q, win.w), _blocks(k, win.w), kernel)
    return Tensor._own((coeff @ _blocks(v, win.w)).reshape(v.shape))


def _block_mean(x: np.ndarray, block: int) -> np.ndarray:
    """Mean of each block of consecutive rows, repeated over the block's rows.

    The tape op blocked_mean_broadcast needs it materialized. The map is
    symmetric, so it is also its own adjoint.
    """
    xb = _blocks(x, block)
    return np.repeat(xb.mean(axis=1, keepdims=True), block, axis=1).reshape(x.shape)


def homogeneous_mix(v) -> Tensor:
    """Arithmetic mean of the value rows, a read-only view broadcast to every token."""
    v = as_array(v)
    if v.ndim != 2:
        raise DimensionError(f"homogeneous_mix expects n x d input, got {v.shape}")
    return Tensor._own(np.broadcast_to(v.mean(axis=0, keepdims=True), v.shape))


def sema_attention(q, k, v, win: WindowSpec, kernel: KernelSpec | None = None) -> Tensor:
    """Window attention plus homogeneous mixing.

    Computed literally as window_attention(...) + homogeneous_mix(v), so the
    decomposition sema == window + mix holds with zero floating-point diff.
    The default kernel is window softmax (phi=exp, identity features).
    """
    wa = window_attention(q, k, v, win, kernel)
    return Tensor._own(wa.array + homogeneous_mix(v).array)


def _mila_weights(u: np.ndarray, w: np.ndarray, angles: np.ndarray | None) -> np.ndarray:
    """n x n MILA weights of (elu+1) features u, w; angles=None leaves the numerator un-gated.

    The denominator always uses the un-gated features plus _EPSILON. Only
    mila_coefficients calls it; the tests hold _mila_forward to it as the
    quadratic oracle.
    """
    num = u @ w.T
    den = num.sum(axis=1, keepdims=True) + _EPSILON
    if angles is not None:
        num = rotate_pairs(u, angles) @ rotate_pairs(w, angles).T
    return num / den


def _mila_forward(u: np.ndarray, w: np.ndarray, v: np.ndarray, angles: np.ndarray):
    """Gated MILA of (elu+1) features u, w over values v, in O(n d^2).

    The rotary gate acts on each feature row, so rot(u) rot(w)^T v equals
    rot(u) (rot(w)^T v), and the un-gated row sums u w^T 1 equal u (w^T 1).
    Returns (out, rot(u), rot(w), den), den of shape (n, 1): the tape op keeps
    the last three for its adjoint, all O(n d).
    """
    ru, rw = rotate_pairs(u, angles), rotate_pairs(w, angles)
    den = (u @ w.sum(axis=0))[:, None] + _EPSILON
    return _associative(ru, rw, v, den), ru, rw, den


def mila_coefficients(q, k, grid: GridSpec | None = None, gated: bool = False,
                      positions=None) -> Tensor:
    """MILA weight matrix: (elu+1)-featured logits over the stabilized sum.

    The denominator always uses un-gated features plus 1e-6. With
    gated=False (the default, and the phi-normalized structure the
    dispersion analysis studies) the numerator is un-gated too; gated=True
    applies the rotary gate to the numerator as the full mechanism does.
    """
    q, k = _qkv(q, k)
    grid = grid or GridSpec.linear(q.shape[0])
    angles = rope_angles(grid, q.shape[1], positions) if gated else None
    return Tensor._own(_mila_weights(elu_plus_one(q), elu_plus_one(k), angles))


def mila_attention(q, k, v, grid: GridSpec | None = None,
                   lepe_kernel: DepthwiseKernel | None = None, positions=None) -> Tensor:
    """Rotary-gated linear attention with a stabilized un-gated denominator.

    Numerator: rotary-rotated (elu+1) features of q and k against v.
    Denominator: un-gated (elu+1) feature products plus 1e-6 (added to the
    denominator only). Evaluated in the associative order, O(n d^2) time
    and O(n d) memory; it equals mila_coefficients(q, k, grid, gated=True,
    positions=positions) @ v up to float order. A depthwise positional term
    on v is added rowwise when lepe_kernel is given.
    """
    q, k, v = _qkv(q, k, v)
    grid = grid or GridSpec.linear(q.shape[0])
    angles = rope_angles(grid, q.shape[1], positions)
    out = _mila_forward(elu_plus_one(q), elu_plus_one(k), v, angles)[0]
    if lepe_kernel is not None:
        out = out + depthwise_conv_grid(v, lepe_kernel.taps, grid.height, grid.width)
    return Tensor._own(out)
