"""Differentiable re-expressions of the attention variants.

Each function mirrors its forward twin in attention.py, built from autograd
primitives so the whole family can be gradient-checked and trained. Forward
values match the plain implementations to floating-point accuracy (the same
operations run in the same order); equivalence tests pin that down.
"""

from __future__ import annotations

from . import autograd as ag
from .posenc import GridSpec, rope_angles

# q, k, v below are TracedValue handles; constants (angles, window sizes,
# grid dims) enter as plain numpy data captured by the node contexts.


def softmax_attention(q, k, v):
    return ag.blocked_softmax_attention(q, k, v, q.shape[0])


def linear_attention(q, k, v):
    return ag.blocked_linear_attention(ag.elu_plus_one(q), ag.elu_plus_one(k), v, q.shape[0])


def focused_attention(q, k, v, p: int = 3, taps=None, grid: GridSpec | None = None):
    fq, fk = ag.focused_map_rows(q, p), ag.focused_map_rows(k, p)
    out = ag.blocked_linear_attention(fq, fk, v, q.shape[0])
    if taps is not None:
        grid = grid or GridSpec.linear(v.shape[0])
        out = ag.add(out, ag.depthwise_conv(v, taps, grid.height, grid.width))
    return out


def window_attention(q, k, v, w: int):
    """Blocked window softmax attention (the model's default kernel)."""
    return ag.blocked_softmax_attention(q, k, v, w)


def sema_attention(q, k, v, w: int):
    """Window softmax attention plus homogeneous mixing over the whole sequence."""
    wa = ag.blocked_softmax_attention(q, k, v, w)
    return ag.add(wa, ag.blocked_mean_broadcast(v, v.shape[0]))


def mila_attention(q, k, v, grid: GridSpec | None = None, taps=None,
                   epsilon: float = 1e-6, positions=None):
    n, d = q.shape
    grid = grid or GridSpec.linear(n)
    ang = rope_angles(grid, d, positions)
    u, w = ag.elu_plus_one(q), ag.elu_plus_one(k)
    num = ag.matmul(ag.rope_rotate(u, ang), ag.transpose(ag.rope_rotate(w, ang)))
    den = ag.add_scalar(ag.sum_cols(ag.matmul(u, ag.transpose(w))), epsilon)
    out = ag.matmul(ag.div_rowvec(num, den), v)
    if taps is not None:
        out = ag.add(out, ag.depthwise_conv(v, taps, grid.height, grid.width))
    return out


def sema_attention_full(x, wq, wk, wv, taps, w: int, grid: GridSpec,
                        rope_on_values: bool = False):
    """Traced twin of the full SEMA pipeline (project, window, rotate, mix all n rows)."""
    n, d = x.shape
    q, k, v = ag.matmul(x, wq), ag.matmul(x, wk), ag.matmul(x, wv)
    ang = rope_angles(GridSpec.linear(w), d)  # every window rotates by its local positions
    qr, kr = ag.rope_rotate(q, ang), ag.rope_rotate(k, ang)
    vr = ag.rope_rotate(v, ang) if rope_on_values else v
    out = ag.blocked_softmax_attention(qr, kr, vr, w)
    out = ag.add(out, ag.depthwise_conv(v, taps, grid.height, grid.width))
    return ag.add(out, ag.blocked_mean_broadcast(v, n))
