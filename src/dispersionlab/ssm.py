"""Discrete state-space recursion and its attention-form rewritings.

The recursion h_i = A_i (*) h_{i-1} + B_i (Delta_i (*) x_i), y_i = C_i h_i
+ D (*) x_i ((*) is the Hadamard product) admits a closed-form solution:
h_m is the elementwise product of all decay factors applied to h_0 plus a
sum of input injections, each decayed by the suffix run of factors after
it. With h_0 = 0 the output is exactly an unnormalized causal attention
whose keys carry the decay products, which is why the mechanism forgets
distant tokens instead of dispersing over them.

The closed form, the attention form and the decayed keys read one table of
suffix products A_{i+1} (*) ... (*) A_m (``_suffix_products``); ``ssm_scan``
shares no code with it, so it stays an independent check of both.
``forms_max_diff`` is the one triple check: the worst absolute difference
between the scan, the closed form and the attention form on one instance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .attention import _EPSILON, _qkv, elu_plus_one
from .errors import DimensionError, PreconditionError
from .tensor import Tensor, as_array


@dataclass(frozen=True)
class SsmParams:
    """Per-step parameters of the discrete recursion.

    A_tilde: n decay factors, each d_state x C with entries in (0, 1].
    B: n input maps d_state x 1. C_out: n output maps 1 x d_state.
    D: skip weights 1 x C. Delta: step sizes n x C. h0: initial state.
    """

    A_tilde: np.ndarray  # (n, d_state, C)
    B: np.ndarray  # (n, d_state, 1)
    C_out: np.ndarray  # (n, 1, d_state)
    D: np.ndarray  # (1, C)
    Delta: np.ndarray  # (n, C)
    h0: np.ndarray  # (d_state, C)

    def __post_init__(self):
        A = as_array(self.A_tilde)
        if A.ndim != 3:
            raise DimensionError(f"A_tilde must be (n, d_state, C), got {A.shape}")
        n, d_state, channels = A.shape
        if min(A.shape) < 1:
            raise DimensionError(f"A_tilde needs n, d_state and C >= 1, got {A.shape}")
        B = as_array(self.B)
        C = as_array(self.C_out)
        if B.shape != (n, d_state, 1):
            raise DimensionError(f"B must be (n, d_state, 1), got {B.shape}")
        if C.shape != (n, 1, d_state):
            raise DimensionError(f"C_out must be (n, 1, d_state), got {C.shape}")
        D = np.asarray(as_array(self.D), dtype=np.float64).reshape(1, -1)
        if D.shape[1] != channels:
            raise DimensionError(f"D must have {channels} channels, got {D.shape}")
        Delta = np.asarray(as_array(self.Delta), dtype=np.float64)
        if Delta.shape != (n, channels):
            raise DimensionError(f"Delta must be ({n}, {channels}), got {Delta.shape}")
        h0 = np.asarray(as_array(self.h0), dtype=np.float64)
        if h0.shape != (d_state, channels):
            raise DimensionError(f"h0 must be ({d_state}, {channels}), got {h0.shape}")
        fields = (("A_tilde", A), ("B", B), ("C_out", C), ("D", D), ("Delta", Delta), ("h0", h0))
        for name, val in fields:
            if not np.isfinite(val).all():
                raise ValueError(f"{name} entries must be finite")
        if np.any(A <= 0) or np.any(A > 1):
            raise ValueError("A_tilde entries must lie in (0, 1]")
        for name, val in fields:
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.A_tilde.shape[0]

    @property
    def d_state(self) -> int:
        return self.A_tilde.shape[1]

    @property
    def channels(self) -> int:
        return self.A_tilde.shape[2]

    @classmethod
    def random(cls, rng: np.random.Generator, n: int, d_state: int, channels: int,
               zero_h0: bool = False) -> "SsmParams":
        return cls(
            A_tilde=rng.uniform(0.05, 1.0, (n, d_state, channels)),
            B=rng.standard_normal((n, d_state, 1)),
            C_out=rng.standard_normal((n, 1, d_state)),
            D=rng.standard_normal((1, channels)),
            Delta=rng.uniform(0.1, 1.0, (n, channels)),
            h0=np.zeros((d_state, channels)) if zero_h0 else rng.standard_normal((d_state, channels)),
        )

    @classmethod
    def from_json(cls, text: str) -> "SsmParams":
        obj = json.loads(text)
        return cls(**{key: np.asarray(val, dtype=np.float64) for key, val in obj.items()})


def _check_x(p: SsmParams, x: np.ndarray) -> None:
    if x.shape != (p.n, p.channels):
        raise DimensionError(f"x must be ({p.n}, {p.channels}), got {x.shape}")


def ssm_scan(p: SsmParams, x) -> tuple[list[Tensor], Tensor]:
    """Iterate the recursion; returns every hidden state and the outputs."""
    x = as_array(x)
    _check_x(p, x)
    inject, skip = _injections(p, x), p.D[0] * x
    h = p.h0
    h_seq, y = [], np.empty_like(x)
    for i in range(p.n):
        h = p.A_tilde[i] * h + inject[i]
        h_seq.append(Tensor._own(h))
        y[i] = (p.C_out[i] @ h)[0] + skip[i]
    return h_seq, Tensor._own(y)


def _injections(p: SsmParams, x: np.ndarray, m: int | None = None) -> np.ndarray:
    """(m, d_state, C) table of the first m inputs B_i (Delta_i (*) x_i); all n by default.

    Each entry of the outer product is one product, so this is bitwise the
    matmul B_i @ (Delta_i (*) x_i)[None, :], whose sum starts from +0: adding
    0.0 turns a product's -0 into that +0.
    """
    return p.B[:m] * (p.Delta[:m] * x[:m])[:, None, :] + 0.0


def _suffix_products(p: SsmParams, m: int) -> np.ndarray:
    """(m + 1, d_state, C) table: s[i] = A[i] (*) ... (*) A[m - 1], s[m] = ones."""
    s = np.empty((m + 1, p.d_state, p.channels))
    s[m] = 1.0
    np.cumprod(p.A_tilde[m - 1::-1], axis=0, out=s[m - 1::-1])  # grown backwards from A[m - 1]
    return s


def ssm_closed_form(p: SsmParams, x, m: int) -> tuple[Tensor, Tensor]:
    """Evaluate the product-sum solution at step m (1-based).

    h_m = (prod_{j<=m} A_j) (*) h_0
        + sum_{i<=m} (suffix run of A after i) (*) B_i (Delta_i (*) x_i),
    and y_m applies C_m to each piece plus the skip term.
    """
    x = as_array(x)
    _check_x(p, x)
    if not 1 <= m <= p.n:
        raise IndexError(f"m must be in 1..{p.n}, got {m}")
    s = _suffix_products(p, m)
    homogeneous = s[0] * p.h0  # s[0] = prod of all m factors
    inject = _injections(p, x, m)
    # the last cumsum row adds the terms one at a time in step order, as a loop
    # would; a plain sum(axis=0) may pair them and move the last bit
    terms = s[1:]
    terms *= inject
    driven = np.cumsum(terms, axis=0)[-1]
    h_m = homogeneous + driven
    y_m = (p.C_out[m - 1] @ homogeneous)[0] + (p.C_out[m - 1] @ driven)[0] + p.D[0] * x[m - 1]
    return Tensor._own(h_m), Tensor._own(y_m[None, :])


def causal_linear_recursive(q, k, v) -> Tensor:
    """Causal (prefix) linear attention in recursive state form.

    q, k are lifted to strictly positive features (elu+1) on entry; the
    running state accumulates key-value outer products and the denominator
    accumulates key sums plus the stabilizer 1e-6.
    """
    q, k, v = _qkv(q, k, v)
    u, w = elu_plus_one(q), elu_plus_one(k)
    n, d = u.shape
    state = np.zeros((d, v.shape[1]))
    z = np.zeros(d)
    y = np.empty_like(v)
    for i in range(n):
        state = state + w[i][:, None] * v[i][None, :]
        z = z + w[i]
        den = float(u[i] @ z) + _EPSILON
        y[i] = (u[i] @ state) / den
    return Tensor._own(y)


def causal_linear_masked(q, k, v) -> Tensor:
    """Quadratic-form causal linear attention (the masked oracle)."""
    q, k, v = _qkv(q, k, v)
    u, w = elu_plus_one(q), elu_plus_one(k)
    logits = u @ w.T
    mask = np.tril(np.ones_like(logits))
    logits = logits * mask
    den = logits.sum(axis=1, keepdims=True) + _EPSILON
    return Tensor._own((logits @ v) / den)


def mamba_as_attention(p: SsmParams, x) -> Tensor:
    """Rewrite the scan output as unnormalized causal attention plus skip.

    Requires h0 = 0. Queries are the output maps C_m; key i carries the
    elementwise decay product of A over steps i+1..m applied to B_i; value i
    is Delta_i (*) x_i.
    """
    x = as_array(x)
    _check_x(p, x)
    if np.any(p.h0 != 0):
        raise PreconditionError("the attention rewriting assumes h0 = 0")
    v, skip = p.Delta * x, p.D[0] * x  # (n, C) each
    y = np.empty_like(x)
    for m in range(1, p.n + 1):
        keys = _suffix_products(p, m)[1:]  # (m, d_state, C), times B_i and then v_i
        keys *= p.B[:m]
        keys *= v[:m, None, :]
        terms = p.C_out[m - 1] @ keys  # (m, 1, C)
        # summed one term at a time from key m down to key 1 (see ssm_closed_form)
        y[m - 1] = np.cumsum(terms[::-1], axis=0)[-1, 0] + skip[m - 1]
    return Tensor._own(y)


def forms_max_diff(p: SsmParams, x) -> float:
    """Worst absolute difference between the three forms on one instance.

    Compares the scan with ``ssm_closed_form`` at every step m, for both the
    state h and the output y, and the scan from h0 = 0 with
    ``mamba_as_attention``.
    """
    h_seq, y = ssm_scan(p, x)
    diffs = []
    for m, h in enumerate(h_seq, start=1):
        h_m, y_m = ssm_closed_form(p, x, m)
        diffs += [np.abs(h_m.array - h.array).max(), np.abs(y_m.array[0] - y.array[m - 1]).max()]
    p0 = replace(p, h0=np.zeros_like(p.h0))  # built anew, so SsmParams checks it again
    diffs.append(np.abs(mamba_as_attention(p0, x).array - ssm_scan(p0, x)[1].array).max())
    return float(max(diffs))


def decayed_key_magnitudes(p: SsmParams, m: int) -> np.ndarray:
    """Max-entry magnitude of each decayed key feeding output step m."""
    if not 1 <= m <= p.n:
        raise IndexError(f"m must be in 1..{p.n}")
    return np.abs(_suffix_products(p, m)[1:] * p.B[:m]).max(axis=(1, 2))


def forgetting_horizon(p: SsmParams, threshold: float) -> list[int]:
    """Largest lag whose running decay product still reaches the threshold.

    For each position m returns the largest L such that the max entry of
    the elementwise product A_{m-L+1} .. A_m is >= threshold (L = 0 when
    even the most recent factor falls below it). As A <= 1 a running max never
    grows, so one pass per lag over every position counts the horizons.
    """
    if not 0 < threshold <= 1:
        raise ValueError("threshold must lie in (0, 1]")
    run = np.ones_like(p.A_tilde)
    horizons = np.zeros(p.n, dtype=np.intp)
    for lag in range(1, p.n + 1):
        run[lag - 1:] *= p.A_tilde[: p.n - lag + 1]  # position i takes factor A[i - lag + 1]
        reached = run[lag - 1:].max(axis=(1, 2)) >= threshold
        if not reached.any():
            break
        horizons[lag - 1:] += reached
    return horizons.tolist()
