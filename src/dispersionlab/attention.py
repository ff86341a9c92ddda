"""Attention variants as pure forward functions over tensors.

Every variant normalizes kernel weights phi(psi_q(Q)_i psi_k(K)_j^T) over a
key set: the full set (softmax, linear, focused, MILA) or a disjoint window
block (window, SEMA). Each op has a ``*_coefficients`` companion returning
the raw weight matrix, which the dispersion analysis consumes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, KernelDomainError, WindowPartitionError
from .posenc import DepthwiseKernel, GridSpec, depthwise_conv_grid, rope_angles, rotate_pairs
from .tensor import Tensor, as_array

PHI_CHOICES = ("exp", "exp_temperature", "identity", "power")
PSI_CHOICES = ("identity", "elu_plus_one", "focused")

# Feature maps guaranteed nonnegative, hence safe under identity/power phi.
_NONNEG_PSI = ("elu_plus_one", "focused")


@dataclass(frozen=True)
class KernelSpec:
    """Normalizer phi plus feature maps psi_q, psi_k selecting a variant.

    phi must send its logits to positive reals; identity and power kernels
    only guarantee that on nonnegative logits, so they are accepted only in
    combination with nonnegative feature maps (validated here, not at call
    time). epsilon is the denominator validity threshold.
    """

    phi: str = "exp"
    psi_q: str = "identity"
    psi_k: str = "identity"
    theta: float = 1.0  # temperature for exp_temperature
    phi_p: float = 1.0  # exponent for power phi
    psi_p: int = 3  # elementwise power for focused features
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.phi not in PHI_CHOICES:
            raise ValueError(f"unknown phi {self.phi!r}, choose from {PHI_CHOICES}")
        for psi in (self.psi_q, self.psi_k):
            if psi not in PSI_CHOICES:
                raise ValueError(f"unknown psi {psi!r}, choose from {PSI_CHOICES}")
        if self.theta <= 0:
            raise ValueError("temperature theta must be positive")
        if self.phi_p < 1:
            raise ValueError("power kernel exponent must be >= 1")
        if self.psi_p < 1:
            raise ValueError("focused feature power must be >= 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
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
    def focused(cls, p: int = 3) -> "KernelSpec":
        return cls(phi="identity", psi_q="focused", psi_k="focused", psi_p=p)

    def to_json(self) -> str:
        obj: dict = {"phi": self.phi}
        if self.phi == "exp_temperature":
            obj["theta"] = self.theta
        if self.phi == "power":
            obj["phi_p"] = self.phi_p
        if self.psi_q == self.psi_k:
            obj["psi"] = self.psi_q
        else:
            obj["psi_q"] = self.psi_q
            obj["psi_k"] = self.psi_k
        if "focused" in (self.psi_q, self.psi_k):
            obj["psi_p"] = self.psi_p
        obj["epsilon"] = self.epsilon
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "KernelSpec":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"kernel spec must be a JSON object, got {text!r}")
        psi_q = obj.get("psi_q", obj.get("psi", "identity"))
        psi_k = obj.get("psi_k", obj.get("psi", "identity"))
        return cls(
            phi=obj.get("phi", "exp"),
            psi_q=psi_q,
            psi_k=psi_k,
            theta=obj.get("theta", 1.0),
            phi_p=obj.get("phi_p", 1.0),
            psi_p=obj.get("psi_p", 3),
            epsilon=obj.get("epsilon", 1e-6),
        )


@dataclass(frozen=True)
class WindowSpec:
    """Blocked window partition: row m attends to J(m) = {Mw+1..(M+1)w}."""

    w: int
    scheme: str = "blocked"

    def __post_init__(self):
        if self.w < 1:
            raise ValueError("window size must be >= 1")
        if self.scheme != "blocked":
            raise ValueError(f"only the 'blocked' scheme is implemented, got {self.scheme!r}")

    def to_json(self) -> str:
        return json.dumps({"w": self.w, "scheme": self.scheme})

    @classmethod
    def from_json(cls, text: str) -> "WindowSpec":
        obj = json.loads(text)
        return cls(w=obj["w"], scheme=obj.get("scheme", "blocked"))


def elu_plus_one(x: np.ndarray) -> np.ndarray:
    """ELU(x) + 1 = x + 1 for x > 0, exp(x) otherwise; strictly positive."""
    return np.where(x > 0, x + 1.0, np.exp(np.minimum(x, 0.0)))


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


def _phi_weights(kernel: KernelSpec, logits: np.ndarray) -> np.ndarray:
    """phi applied rowwise in place, rescaled per row for exp kernels.

    The rescaling is ratio-invariant. logits must be a fresh array the
    caller owns: it is overwritten and returned.
    """
    if kernel.phi in ("exp", "exp_temperature"):
        if kernel.phi == "exp_temperature":
            logits /= kernel.theta
        logits -= logits.max(axis=-1, keepdims=True)
        return np.exp(logits, out=logits)
    if np.any(logits < 0):
        raise KernelDomainError(
            f"phi={kernel.phi!r} requires nonnegative logits, got min {logits.min()}"
        )
    if kernel.phi == "power":
        logits **= kernel.phi_p
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


def _normalize(kernel: KernelSpec, weights: np.ndarray) -> np.ndarray:
    """Divide each row by its sum, in place; the one row normalization."""
    denom = weights.sum(axis=-1, keepdims=True)
    if np.any(denom <= kernel.epsilon):
        raise KernelDomainError(
            f"normalizer denominator <= epsilon ({kernel.epsilon}); "
            "kernel weights sum to a non-positive or vanishing value"
        )
    weights /= denom
    return weights


def phi_normalize(logits, kernel: KernelSpec) -> Tensor:
    """Normalize a logit vector to the probability simplex via phi."""
    x = as_array(logits)
    if x.ndim != 1:
        raise DimensionError(f"phi_normalize expects a rank-1 tensor, got {x.shape}")
    return Tensor._own(_normalize(kernel, _phi_weights(kernel, x[None, :].copy()))[0])


def _check_qkv(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> None:
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise DimensionError("q, k, v must be rank 2")
    if q.shape != k.shape or q.shape[0] != v.shape[0]:
        raise DimensionError(f"q/k/v shapes disagree: {q.shape}, {k.shape}, {v.shape}")


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
    return _normalize(kernel, _phi_weights(kernel, qb @ np.swapaxes(kb, -1, -2)))


def generalized_attention_coefficients(q, k, kernel: KernelSpec) -> Tensor:
    """The n x n phi-normalized weight matrix of generalized attention."""
    q, k = as_array(q), as_array(k)
    _check_qkv(q, k, q)
    return Tensor._own(_block_coefficients(q, k, kernel))


def generalized_attention(q, k, v, kernel: KernelSpec) -> Tensor:
    """Phi-normalized attention: row i mixes values by phi-normalized weights."""
    q, k, v = as_array(q), as_array(k), as_array(v)
    _check_qkv(q, k, v)
    return Tensor._own(_block_coefficients(q, k, kernel) @ v)


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
    whole a @ b.T. softmax_attention keeps tile=1, the block heights its value
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


def softmax_attention(q, k, v) -> Tensor:
    """Vanilla full attention via the matrix route softmax(q k^T) v.

    Query rows are streamed through one cache-sized scratch block, so the
    n x n weight matrix is never materialized whole and large runs avoid
    allocating (and page-faulting) O(n^2) temporaries. Each row's
    arithmetic is unchanged by the chunking.
    """
    q, k, v = as_array(q), as_array(k), as_array(v)
    _check_qkv(q, k, v)
    kernel = KernelSpec.softmax()
    out = np.empty((q.shape[0], v.shape[1]))
    for rows, block in _row_blocks(q, k):
        np.matmul(_normalize(kernel, _phi_weights(kernel, block)), v, out=out[rows])
    return Tensor._own(out)


def linear_attention_coefficients(q, k) -> Tensor:
    return generalized_attention_coefficients(q, k, KernelSpec.linear())


def linear_attention(q, k, v) -> Tensor:
    """Linear attention (elu+1 features, identity kernel), quadratic form."""
    return generalized_attention(q, k, v, KernelSpec.linear())


def linear_attention_fast(q, k, v, epsilon: float = 1e-6) -> Tensor:
    """Associative O(n d^2) evaluation of linear attention.

    Computes psi(q) (psi(k)^T v) / (psi(q) sum_j psi(k)_j^T); agrees with the
    quadratic form up to accumulation order.
    """
    q, k, v = as_array(q), as_array(k), as_array(v)
    _check_qkv(q, k, v)
    u, w = elu_plus_one(q), elu_plus_one(k)
    num = u @ (w.T @ v)
    den = u @ w.sum(axis=0)
    if np.any(np.abs(den) <= epsilon):
        raise KernelDomainError(f"linear attention denominator underflowed past {epsilon}")
    return Tensor._own(num / den[:, None])


def focused_attention_coefficients(q, k, p: int = 3) -> Tensor:
    return generalized_attention_coefficients(q, k, KernelSpec.focused(p))


def focused_attention(q, k, v, p: int = 3, dwc: DepthwiseKernel | None = None,
                      grid: GridSpec | None = None) -> Tensor:
    """Focused linear attention plus a depthwise convolution of the values.

    The attention part uses the norm-preserving power features focused_map;
    the convolution term restores rank lost to the separable form. dwc=None
    omits the convolution.
    """
    q, k, v = as_array(q), as_array(k), as_array(v)
    _check_qkv(q, k, v)
    out = _block_coefficients(q, k, KernelSpec.focused(p)) @ v
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
    q, k = as_array(q), as_array(k)
    _check_qkv(q, k, q)
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
    q, k, v = as_array(q), as_array(k), as_array(v)
    _check_qkv(q, k, v)
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


@dataclass(frozen=True)
class SemaParams:
    """Projections and positional kernel for the full SEMA attention pipeline."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    lepe_kernel: DepthwiseKernel
    rope_on_values: bool = False

    @classmethod
    def identity(cls, d: int, lepe_kernel: DepthwiseKernel | None = None,
                 rope_on_values: bool = False) -> "SemaParams":
        eye = np.eye(d)
        return cls(eye, eye, eye, lepe_kernel or DepthwiseKernel.zeros(d),
                   rope_on_values=rope_on_values)


def sema_attention_full(x, params: SemaParams, win: WindowSpec, grid: GridSpec) -> Tensor:
    """Full SEMA pipeline on one token matrix.

    Project x to Q, K, V; partition into blocked windows; rotate windowed
    Q and K by local window positions (V too when rope_on_values is set);
    window softmax attention; add the depthwise positional term on V over
    the full grid; add the sequence average of V.
    """
    x = as_array(x)
    if x.ndim != 2:
        raise DimensionError(f"expected n x d_model input, got {x.shape}")
    n, d = x.shape
    if grid.n != n:
        raise DimensionError(f"grid holds {grid.n} tokens but input has {n} rows")
    _window_blocks(n, win)
    q, k, v = x @ params.wq, x @ params.wk, x @ params.wv
    ang = rope_angles(GridSpec.linear(win.w), d)  # every window rotates by its local positions
    vr = rotate_pairs(v, ang) if params.rope_on_values else v
    coeff = _block_coefficients(_blocks(rotate_pairs(q, ang), win.w),
                                _blocks(rotate_pairs(k, ang), win.w), KernelSpec.softmax())
    out = (coeff @ _blocks(vr, win.w)).reshape(v.shape)
    lepe_term = depthwise_conv_grid(v, params.lepe_kernel.taps, grid.height, grid.width)
    return Tensor._own(out + lepe_term + v.mean(axis=0, keepdims=True))


def _mila_weights(q: np.ndarray, k: np.ndarray, grid: GridSpec | None, gated: bool,
                  epsilon: float, positions) -> np.ndarray:
    """The n x n MILA weights; the denominator always uses un-gated features."""
    u, w = elu_plus_one(q), elu_plus_one(k)
    num = u @ w.T
    den = num.sum(axis=1, keepdims=True) + epsilon
    if gated:
        ang = rope_angles(grid or GridSpec.linear(q.shape[0]), q.shape[1], positions)
        num = rotate_pairs(u, ang) @ rotate_pairs(w, ang).T
    return num / den


def mila_coefficients(q, k, grid: GridSpec | None = None, gated: bool = False,
                      epsilon: float = 1e-6, positions=None) -> Tensor:
    """MILA weight matrix: (elu+1)-featured logits over the stabilized sum.

    The denominator always uses un-gated features plus epsilon. With
    gated=False (the default, and the phi-normalized structure the
    dispersion analysis studies) the numerator is un-gated too; gated=True
    applies the rotary gate to the numerator as the full mechanism does.
    """
    q, k = as_array(q), as_array(k)
    _check_qkv(q, k, q)
    return Tensor._own(_mila_weights(q, k, grid, gated, epsilon, positions))


def mila_attention(q, k, v, grid: GridSpec | None = None,
                   lepe_kernel: DepthwiseKernel | None = None,
                   epsilon: float = 1e-6, positions=None) -> Tensor:
    """Rotary-gated linear attention with a stabilized un-gated denominator.

    Numerator: rotary-rotated (elu+1) features of q and k against v.
    Denominator: un-gated (elu+1) feature products plus epsilon (added to
    the denominator only). A depthwise positional term on v is added rowwise
    when lepe_kernel is given.
    """
    q, k, v = as_array(q), as_array(k), as_array(v)
    _check_qkv(q, k, v)
    grid = grid or GridSpec.linear(q.shape[0])
    out = _mila_weights(q, k, grid, True, epsilon, positions) @ v
    if lepe_kernel is not None:
        out = out + depthwise_conv_grid(v, lepe_kernel.taps, grid.height, grid.width)
    return Tensor._own(out)
