"""Discrete state-space recursion and its attention-form rewritings.

The recursion h_i = A_i (*) h_{i-1} + B_i (Delta_i (*) x_i), y_i = C_i h_i
+ D (*) x_i ((*) is the Hadamard product) admits a closed-form solution:
h_m is the elementwise product of all decay factors applied to h_0 plus a
sum of input injections, each decayed by the suffix run of factors after
it. With h_0 = 0 the output is exactly an unnormalized causal attention
whose keys carry the decay products, which is why the mechanism forgets
distant tokens instead of dispersing over them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .attention import elu_plus_one
from .errors import DegenerateQueryError, DimensionError, PreconditionError
from .tensor import Tensor, as_array


def _as_stacked(seq) -> np.ndarray:
    """A per-step sequence of Tensors/arrays, or an already-stacked array."""
    if isinstance(seq, (np.ndarray, Tensor)):
        return as_array(seq)
    return np.stack([as_array(t) for t in seq], axis=0)


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
        A = _as_stacked(self.A_tilde)
        if A.ndim != 3:
            raise DimensionError(f"A_tilde must be (n, d_state, C), got {A.shape}")
        n, d_state, channels = A.shape
        B = _as_stacked(self.B)
        C = _as_stacked(self.C_out)
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
        if np.any(A <= 0) or np.any(A > 1):
            raise ValueError("A_tilde entries must lie in (0, 1]")
        for name, val in (("A_tilde", A), ("B", B), ("C_out", C), ("D", D),
                          ("Delta", Delta), ("h0", h0)):
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
               zero_h0: bool = False, decay_range: tuple[float, float] = (0.05, 1.0)) -> "SsmParams":
        lo, hi = decay_range
        return cls(
            A_tilde=rng.uniform(lo, hi, (n, d_state, channels)),
            B=rng.standard_normal((n, d_state, 1)),
            C_out=rng.standard_normal((n, 1, d_state)),
            D=rng.standard_normal((1, channels)),
            Delta=rng.uniform(0.1, 1.0, (n, channels)),
            h0=np.zeros((d_state, channels)) if zero_h0 else rng.standard_normal((d_state, channels)),
        )

    def to_json(self) -> str:
        return json.dumps({
            "A_tilde": self.A_tilde.tolist(), "B": self.B.tolist(),
            "C_out": self.C_out.tolist(), "D": self.D.tolist(),
            "Delta": self.Delta.tolist(), "h0": self.h0.tolist(),
        })

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
    h = p.h0
    h_seq, y = [], np.empty_like(x)
    for i in range(p.n):
        inject = p.B[i] @ (p.Delta[i] * x[i])[None, :]  # (d_state, C)
        h = p.A_tilde[i] * h + inject
        h_seq.append(Tensor._own(h))
        y[i] = (p.C_out[i] @ h)[0] + p.D[0] * x[i]
    return h_seq, Tensor._own(y)


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
    # suffix[i] = elementwise prod of A_{i+1} .. A_m (ones when i == m)
    suffix = np.ones((m + 1, p.d_state, p.channels))
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] * p.A_tilde[i]
    homogeneous = suffix[0] * p.h0  # suffix[0] = prod of all m factors
    driven = np.zeros((p.d_state, p.channels))
    for i in range(m):
        inject = p.B[i] @ (p.Delta[i] * x[i])[None, :]
        driven = driven + suffix[i + 1] * inject
    h_m = homogeneous + driven
    y_m = (p.C_out[m - 1] @ homogeneous)[0] + (p.C_out[m - 1] @ driven)[0] + p.D[0] * x[m - 1]
    return Tensor._own(h_m), Tensor._own(y_m[None, :])


def causal_linear_recursive(q, k, v, epsilon: float = 1e-6) -> Tensor:
    """Causal (prefix) linear attention in recursive state form.

    q, k are lifted to strictly positive features (elu+1) on entry; the
    running state accumulates key-value outer products and the denominator
    accumulates key sums plus the stabilizer.
    """
    q, k, v = as_array(q), as_array(k), as_array(v)
    if q.shape != k.shape or q.shape[0] != v.shape[0]:
        raise DimensionError(f"q/k/v shapes disagree: {q.shape}, {k.shape}, {v.shape}")
    u, w = elu_plus_one(q), elu_plus_one(k)
    n, d = u.shape
    state = np.zeros((d, v.shape[1]))
    z = np.zeros(d)
    y = np.empty_like(v)
    for i in range(n):
        state = state + w[i][:, None] * v[i][None, :]
        z = z + w[i]
        den = float(u[i] @ z) + epsilon
        if abs(den) < epsilon:
            raise DegenerateQueryError(f"causal denominator degenerate at step {i + 1}")
        y[i] = (u[i] @ state) / den
    return Tensor._own(y)


def causal_linear_masked(q, k, v, epsilon: float = 1e-6) -> Tensor:
    """Quadratic-form causal linear attention (the masked oracle)."""
    q, k, v = as_array(q), as_array(k), as_array(v)
    u, w = elu_plus_one(q), elu_plus_one(k)
    logits = u @ w.T
    mask = np.tril(np.ones_like(logits))
    logits = logits * mask
    den = logits.sum(axis=1, keepdims=True) + epsilon
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
    y = np.empty_like(x)
    for m in range(1, p.n + 1):
        suffix = np.ones((p.d_state, p.channels))
        acc = np.zeros(p.channels)
        # walk i = m..1 so the suffix product grows one factor at a time
        for i in range(m, 0, -1):
            k_tilde = suffix * p.B[i - 1]  # (d_state, C)
            v_tilde = p.Delta[i - 1] * x[i - 1]  # (C,)
            acc = acc + (p.C_out[m - 1] @ (k_tilde * v_tilde[None, :]))[0]
            suffix = suffix * p.A_tilde[i - 1]
        y[m - 1] = acc + p.D[0] * x[m - 1]
    return Tensor._own(y)


def decayed_key_magnitudes(p: SsmParams, m: int) -> np.ndarray:
    """Max-entry magnitude of each decayed key feeding output step m."""
    if not 1 <= m <= p.n:
        raise IndexError(f"m must be in 1..{p.n}")
    out = np.empty(m)
    suffix = np.ones((p.d_state, p.channels))
    for i in range(m, 0, -1):
        out[i - 1] = np.abs(suffix * p.B[i - 1]).max()
        suffix = suffix * p.A_tilde[i - 1]
    return out


def forgetting_horizon(p: SsmParams, threshold: float) -> list[int]:
    """Largest lag whose running decay product still reaches the threshold.

    For each position m returns the largest L such that the max entry of
    the elementwise product A_{m-L+1} .. A_m is >= threshold (L = 0 when
    even the most recent factor falls below it).
    """
    if not 0 < threshold <= 1:
        raise ValueError("threshold must lie in (0, 1]")
    horizons = []
    for m in range(1, p.n + 1):
        run = np.ones((p.d_state, p.channels))
        lag = 0
        for j in range(m, 0, -1):
            run = run * p.A_tilde[j - 1]
            if run.max() >= threshold:
                lag = m - j + 1
            else:
                break
        horizons.append(lag)
    return horizons
