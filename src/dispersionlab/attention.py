"""Attention variants as pure forward functions over tensors.

Every variant normalizes kernel weights phi(psi_q(Q)_i psi_k(K)_j^T) over a
key set: the full set (softmax, linear, focused, MILA) or a disjoint window
block (window, SEMA). Each op has a ``*_coefficients`` companion returning
the raw weight matrix: the tests' oracle and perfbench's reference. The
dispersion analysis streams its own cells through ``_row_blocks`` and
``_phi_rows`` (phi and its domain checks, without the division that
``_normalize`` adds) and never builds that matrix. ``_blocked_values`` is the
one windowed forward of window_attention, sema_attention and the tape's blocked ops.
``homogeneous_mix`` is the value mean as a broadcast view; the tape's is one row per block.

``elu_plus_one`` returns fresh C-ordered float64 for any input layout, so linear
attention and MILA give the same bits for C-ordered, Fortran-ordered and strided
q and k. The positional term that focused attention and MILA add is ``posenc.lepe``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionError, KernelDomainError, WindowPartitionError, is_int
from .posenc import GridSpec, _run_rows, rope_angles, rotate_pairs
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
        if not is_int(self.w) or self.w < 1:
            raise ValueError(f"window size must be an integer >= 1, got {self.w!r}")


_SOFTMAX, _LINEAR, _FOCUSED = KernelSpec.softmax(), KernelSpec.linear(), KernelSpec.focused()


def elu_plus_one(x: np.ndarray) -> np.ndarray:
    """ELU(x) + 1 = x + 1 for x > 0, exp(x) otherwise; strictly positive.

    Evaluated as exp(min(x, 0)) + max(x, 0): one side of the sum is exactly 1
    or 0, so every entry (NaN, signed zeros and infinities included) is
    bitwise that of the two-branch form. x is taken as float64 in C order
    (copied only when it is not already), and the result is always a fresh
    C-contiguous float64 array of x's shape, 0-d included, so the bits of
    every product of it do not depend on the caller's memory layout.
    """
    x = np.asarray(x, dtype=np.float64, order="C")
    return _elu_into(x, np.empty(x.shape))


def _elu_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """elu_plus_one(x) written into out; x and out are C-contiguous float64 of one shape.

    x passes in cache-sized runs of entries (posenc._run_rows), each through
    the same three ufuncs, with one scratch run for max(x, 0).
    """
    flat, dest = x.reshape(-1), out.reshape(-1)
    step = _run_rows(1)
    scratch = np.empty(min(x.size, step))
    for lo in range(0, x.size, step):
        part, run = flat[lo : lo + step], dest[lo : lo + step]
        np.minimum(part, 0.0, out=run)
        np.exp(run, out=run)
        run += np.maximum(part, 0.0, out=scratch[: run.size])
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


_FOLD_BELOW = 16  # numpy's own blocked pairwise sum starts at 16 columns


def _fold(op: np.ufunc, x: np.ndarray, axis: int) -> np.ndarray:
    """op over one axis of x (below 16 entries long) in numpy's association.

    Below 8 entries they fold in order; from 8 to 15 the first eight fold as
    numpy's eight pairwise accumulators, ((x0 x1)(x2 x3))((x4 x5)(x6 x7)), and
    the rest follow in order. An op with an identity (add's 0) starts from it,
    as op.reduce does. Each step is one ufunc call over every other index at
    once; the result keeps the folded axis, of length one.
    """
    x = np.swapaxes(x, axis, -1)
    w = x.shape[-1]
    if w < 8:
        acc = x[..., :1].copy()
        for j in range(1, w):
            op(acc, x[..., j : j + 1], out=acc)
    else:
        acc = op(x[..., 0:8:2], x[..., 1:8:2])
        acc = op(acc[..., 0::2], acc[..., 1::2])
        acc = op(acc[..., :1], acc[..., 1:])
        for j in range(8, w):
            op(acc, x[..., j : j + 1], out=acc)
    if op.identity is not None:
        op(op.identity, acc, out=acc)
    return np.swapaxes(acc, axis, -1)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality, signs of zero included; any NaN matches any NaN."""
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all()
                and (np.ascontiguousarray(a).view(np.int64)[~nan]
                     == np.ascontiguousarray(b).view(np.int64)[~nan]).all())


@functools.cache
def _fold_widths(op: np.ufunc) -> frozenset[int]:
    """The widths below 16 at which _fold matched op.reduce on a probe; checked once per op.

    The probe rows mix magnitudes from 1e-30 to 1e30 (which tell one
    association of a sum from another), NaN, +-0 and +-inf, all-zero rows of
    mixed signs (which show the starting value), and every pair of columns
    holding +0 and -0 against -1 or +1 elsewhere (which shows which of two
    tied extrema numpy keeps). A width whose fold differs anywhere is left
    to op.reduce: the fold copies numpy's order, it never guesses it.
    """
    rng = np.random.default_rng(0)
    cols = _FOLD_BELOW - 1
    wide = rng.standard_normal((64, cols)) * 10.0 ** rng.integers(-30, 31, (64, cols))
    special = rng.random(wide.shape) < 0.25
    wide[special] = rng.choice([np.nan, 0.0, -0.0, np.inf, -np.inf], special.sum())
    zeros = rng.choice([0.0, -0.0], (64, cols))
    i, j = np.triu_indices(cols, 1)  # every pair of columns i < j
    pair = np.arange(len(i))
    ties = []
    for fill, first in ((-1.0, 0.0), (-1.0, -0.0), (1.0, 0.0), (1.0, -0.0)):
        block = np.full((len(i), cols), fill)
        block[pair, i], block[pair, j] = first, -first
        ties.append(block)
    probe = np.concatenate([wide, zeros, *ties])
    with np.errstate(all="ignore"):
        return frozenset(
            w for w in range(1, _FOLD_BELOW)
            if all(_same_bits(_fold(op, p, -1), op.reduce(p, axis=-1, keepdims=True))
                   for p in (probe[:, :w], np.ascontiguousarray(probe[:, :w]))))


def _foldable(op: np.ufunc, x: np.ndarray) -> bool:
    """Whether _row_fold folds x: a contiguous last axis at a width in _fold_widths(op)."""
    return x.strides[-1] == x.itemsize and x.shape[-1] in _fold_widths(op)


def _row_fold(op: np.ufunc, x: np.ndarray) -> np.ndarray:
    """op.reduce(x, axis=-1, keepdims=True), bitwise, and fast on short rows.

    numpy reduces each short row in its own inner-loop call, so at width 8
    the dispatch costs more than the arithmetic. Rows of fewer than 16
    contiguous columns fold instead, one call per column over all rows in
    numpy's order, at the widths where _fold_widths found that order on the
    installed numpy (a NaN's payload is not pinned). Every other row, and any
    layout whose last axis is not contiguous, goes to op.reduce.
    """
    if _foldable(op, x):
        return _fold(op, x, -1)
    return op.reduce(x, axis=-1, keepdims=True)


def _exp_shift(kernel: KernelSpec, row_max: np.ndarray) -> np.ndarray:
    """An exp kernel's row shift: row_max, or row_max / theta, which is bitwise the row
    max of logits / theta (division by a positive theta is correctly rounded, so monotone)."""
    return row_max / kernel.theta if kernel.phi == "exp_temperature" else row_max


def _phi_rows(kernel: KernelSpec, logits: np.ndarray, row_max: np.ndarray | None = None,
              row_min: np.ndarray | None = None) -> np.ndarray:
    """phi applied rowwise in place, with its domain checks; returns the row sums (..., 1).

    Exp kernels are shifted by each row's largest logit before exp, which the
    ratio does not see. row_max, the logits' row max (_row_fold with
    np.maximum), is taken here unless the caller already has it. Identity and
    power kernels check that no logit is negative; row_min, the logits' row
    min (_row_fold with np.minimum), answers that without a pass over logits
    unless some row min is NaN: a NaN row may still hold a negative logit, so
    then every logit is checked. logits must be a fresh array the caller owns.
    """
    if kernel.phi in ("exp", "exp_temperature"):
        if row_max is None:
            row_max = _row_fold(np.maximum, logits)
        if kernel.phi == "exp_temperature":
            logits /= kernel.theta
        logits -= _exp_shift(kernel, row_max)
        np.exp(logits, out=logits)
    else:
        checked = logits if row_min is None or np.isnan(row_min).any() else row_min
        if np.any(checked < 0):
            raise KernelDomainError(
                f"phi={kernel.phi!r} requires nonnegative logits, got min {logits.min()}"
            )
        if kernel.phi == "power":
            logits **= kernel.phi_p
    denom = _row_fold(np.add, logits)
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


def _blocks(x: np.ndarray, block: int, heads: int = 1) -> np.ndarray:
    """View (n, heads * d) rows as (n / block, heads, block, d): consecutive row
    blocks, one column slice per head. The one check that such a split divides."""
    n, width = x.shape
    if n % block or width % heads:
        raise WindowPartitionError(f"block size {block} and {heads} head(s) do not divide "
                                   f"an array of shape {x.shape} (no implicit padding)")
    return x.reshape(n // block, block, heads, width // heads).transpose(0, 2, 1, 3)


def _unblock(x: np.ndarray) -> np.ndarray:
    """(n / block, heads, block, d) -> (n, heads * d), inverting _blocks."""
    blocks, heads, block, d = x.shape
    return x.transpose(0, 2, 1, 3).reshape(blocks * block, heads * d)


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


def _blocked_values(q, k, v, kernel: KernelSpec, block: int, heads: int = 1, featured=False):
    """Attention inside row blocks, per head: (a fresh (n, heads * d) output, its weights)."""
    coeff = _block_coefficients(_blocks(q, block, heads), _blocks(k, block, heads), kernel,
                                featured)
    return _unblock(coeff @ _blocks(v, block, heads)), coeff


def generalized_attention_coefficients(q, k, kernel: KernelSpec) -> Tensor:
    """The n x n phi-normalized weight matrix of generalized attention."""
    q, k = _qkv(q, k)
    return Tensor._own(_block_coefficients(q, k, kernel))


def softmax_attention_coefficients(q, k) -> Tensor:
    return generalized_attention_coefficients(q, k, _SOFTMAX)


_CHUNK_BUDGET = 1 << 19  # entries per _global_attention logit block (4 MB in float64)
# A multiple of every common BLAS register-tile height (2, 3, 4, 6, 8, 12, 16)
_ROW_TILE = 48


def _row_blocks(a: np.ndarray, b: np.ndarray, step: int):
    """Yield (rows, a[rows] @ b.T) for consecutive blocks of step of a's rows.

    The blocks share one scratch array of step + 1 rows, which a caller may
    overwrite in place before asking for the next block; a lone last row
    (numpy's gemv path) joins the block before it. The dispersion cells pass
    posenc._run_rows(n, _ROW_TILE), cache-sized whole multiples of _ROW_TILE:
    blocks then start on BLAS register-tile boundaries, so with one BLAS
    thread each row is bitwise that of the whole a @ b.T. _global_attention
    passes its own heights of about _CHUNK_BUDGET entries, the ones its value
    product has always been rounded with.
    """
    n, m = a.shape[0], b.shape[0]
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

    Query rows pass through one scratch block of about _CHUNK_BUDGET entries,
    so the n x n weight matrix is never materialized whole and large runs avoid
    allocating (and page-faulting) O(n^2) temporaries.
    """
    fq = _apply_psi(q, kernel.psi_q, kernel.psi_p)
    fk = _apply_psi(k, kernel.psi_k, kernel.psi_p)
    out = np.empty((q.shape[0], v.shape[1]))
    for rows, block in _row_blocks(fq, fk, max(64, _CHUNK_BUDGET // max(k.shape[0], 1))):
        np.matmul(_normalize(kernel, block), v, out=out[rows])
    return out


def generalized_attention(q, k, v, kernel: KernelSpec) -> Tensor:
    """Phi-normalized attention: row i mixes values by phi-normalized weights."""
    q, k, v = _qkv(q, k, v)
    return Tensor._own(_global_attention(q, k, v, kernel))


def softmax_attention(q, k, v) -> Tensor:
    """Vanilla full attention via the matrix route softmax(q k^T) v."""
    return generalized_attention(q, k, v, _SOFTMAX)


def linear_attention_coefficients(q, k) -> Tensor:
    return generalized_attention_coefficients(q, k, _LINEAR)


def linear_attention(q, k, v) -> Tensor:
    """Linear attention (elu+1 features, identity kernel), quadratic form."""
    return generalized_attention(q, k, v, _LINEAR)


def _associative(a: np.ndarray, bv: np.ndarray, den: np.ndarray) -> np.ndarray:
    """(a @ bv) / den rowwise, with bv = b.T @ v: the O(n d^2) order of (a b^T / den) v.

    den has shape (n, 1). No n x n array is formed (Katharopoulos et al. 2020).
    """
    out = a @ bv
    out /= den
    return out


def linear_attention_fast(q, k, v) -> Tensor:
    """Associative O(n d^2) evaluation of linear attention.

    Computes psi(q) (psi(k)^T v) / (psi(q) sum_j psi(k)_j^T); agrees with the
    quadratic form up to accumulation order.
    """
    q, k, v = _qkv(q, k, v)
    w = elu_plus_one(k)
    w_sum, wv = w.sum(axis=0), w.T @ v
    u = _elu_into(np.ascontiguousarray(q), w)  # w is summed and applied: its buffer takes u
    den = u @ w_sum
    if np.any(np.abs(den) <= _EPSILON):
        raise KernelDomainError(f"linear attention denominator underflowed past {_EPSILON}")
    return Tensor._own(_associative(u, wv, den[:, None]))


def focused_attention_coefficients(q, k) -> Tensor:
    return generalized_attention_coefficients(q, k, _FOCUSED)


def focused_attention(q, k, v) -> Tensor:
    """Focused linear attention: norm-preserving cubic features focused_map(x, 3).

    FLatten adds a depthwise convolution of the values to restore the rank
    lost to the separable form; that term is posenc.lepe(v, kernel, grid).
    """
    q, k, v = _qkv(q, k, v)
    return Tensor._own(_global_attention(q, k, v, _FOCUSED))


def window_attention_coefficients(q, k, win: WindowSpec,
                                  kernel: KernelSpec | None = None) -> Tensor:
    """Per-row weights over the row's own window: an n x w matrix."""
    q, k = _qkv(q, k)
    coeff = _block_coefficients(_blocks(q, win.w), _blocks(k, win.w), kernel or _SOFTMAX)
    return Tensor._own(coeff.reshape(q.shape[0], win.w))


def window_attention(q, k, v, win: WindowSpec, kernel: KernelSpec | None = None) -> Tensor:
    """Attention restricted to disjoint blocks of w consecutive tokens.

    Equals generalized attention applied independently inside each block, so
    each row's coefficients do not depend on the total sequence length. Every
    kernel runs batched over the blocks.
    """
    q, k, v = _qkv(q, k, v)
    return Tensor._own(_blocked_values(q, k, v, kernel or _SOFTMAX, win.w)[0])


def homogeneous_mix(v) -> Tensor:
    """Arithmetic mean of the value rows, a read-only view broadcast to every token."""
    v = as_array(v)
    if v.ndim != 2:
        raise DimensionError(f"homogeneous_mix expects n x d input, got {v.shape}")
    return Tensor._own(np.broadcast_to(v.mean(axis=0, keepdims=True), v.shape))


def sema_attention(q, k, v, win: WindowSpec, kernel: KernelSpec | None = None) -> Tensor:
    """Window attention plus homogeneous mixing.

    Computed literally as window_attention(...) + homogeneous_mix(v), the mix
    added in place to the window output, so the decomposition sema == window
    + mix holds with zero floating-point diff. The default kernel is window
    softmax (phi=exp, identity features).
    """
    q, k, v = _qkv(q, k, v)
    out = _blocked_values(q, k, v, kernel or _SOFTMAX, win.w)[0]
    out += homogeneous_mix(v).array
    return Tensor._own(out)


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
    return _associative(ru, rw.T @ v, den), ru, rw, den


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


def mila_attention(q, k, v, grid: GridSpec | None = None, positions=None) -> Tensor:
    """Rotary-gated linear attention with a stabilized un-gated denominator.

    Numerator: rotary-rotated (elu+1) features of q and k against v.
    Denominator: un-gated (elu+1) feature products plus 1e-6 (added to the
    denominator only). Evaluated in the associative order, O(n d^2) time
    and O(n d) memory; it equals mila_coefficients(q, k, grid, gated=True,
    positions=positions) @ v up to float order. MILA's locally-enhanced
    positional term is posenc.lepe(v, kernel, grid), added by the caller.
    """
    q, k, v = _qkv(q, k, v)
    grid = grid or GridSpec.linear(q.shape[0])
    angles = rope_angles(grid, q.shape[1], positions)
    return Tensor._own(_mila_forward(elu_plus_one(q), elu_plus_one(k), v, angles)[0])
