"""Tape-based reverse-mode differentiation over a small set of numpy ops.

A Tape records nodes in creation order (which is a topological order), each
holding its numpy value, parent indices, and whatever the adjoint needs.
backward() walks the tape once in reverse, accumulating gradients additively
across fan-out, and returns the gradient of every leaf. First-order only:
no higher derivatives, no checkpointing. A Tape(record=False) keeps no
history, for forward-only passes. A constant is an input that backward
never differentiates: no gradient is formed for it, or for a node computed
only from constants, and a matmul whose left operand is constant skips that
operand's gradient product.

Each attention variant is one op over its feature maps (SEMA adds the mixing
op, one mean row per block, to the window op; add is the one broadcast) whose
forward is attention.py's: the blocked ops run window_attention's
_blocked_values and mila_attention its _mila_forward; cli.GRADCHECK_VARIANTS
composes them.

gradcheck() compares a traced scalar function's backward gradients against
central finite differences coordinate by coordinate; directional_check()
compares them along one seeded direction per input, which suits a loss whose
gradient has entries near zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import attention
from .attention import (KernelSpec, _blocked_values, _blocks, _fold, _foldable, _LINEAR,
                        _row_fold, _SOFTMAX, _unblock)
from .errors import DifferentiationError, DimensionError
from .posenc import _depthwise_taps_grad, _run_rows, depthwise_conv_grid, rotate_pairs
from .rng import rng_for


@dataclass
class Node:
    op: str
    parents: tuple[int, ...]
    value: np.ndarray
    ctx: dict = field(default_factory=dict)


class Tape:
    """Recording of one forward computation; single-threaded by design.

    With record=False the tape keeps only its newest node: every other value
    lives exactly as long as a TracedValue refers to it, so an inference
    pass holds its working set instead of its whole history. Such a tape
    also drops each op's adjoint context, so the ops that stream their rows
    (gelu, layer_norm) keep what their adjoints read as one run's
    temporaries instead of full arrays. backward() needs a recording tape.

    constants holds the indices of the constant inputs and, on a recording
    tape, of every node computed only from them.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self.nodes: list[Node] = []
        self.pushed = 0
        self.constants: set[int] = set()

    def push(self, op: str, parents: tuple[int, ...], value: np.ndarray,
             ctx: dict | None = None) -> "TracedValue":
        node = Node(op, parents, np.asarray(value, dtype=np.float64),
                    (ctx or {}) if self.record else {})
        if self.record:
            self.nodes.append(node)
            if parents and self.constants.issuperset(parents):
                self.constants.add(self.pushed)
        else:
            self.nodes = [node]
        self.pushed += 1
        return TracedValue(self, self.pushed - 1, node)


class TracedValue:
    """Handle to one tape node; the module's op functions combine handles."""

    __slots__ = ("tape", "idx", "node")

    def __init__(self, tape: Tape, idx: int, node: Node):
        self.tape = tape
        self.idx = idx
        self.node = node

    @property
    def value(self) -> np.ndarray:
        return self.node.value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


def leaf(tape: Tape, value) -> TracedValue:
    """Register an input (differentiable) tensor on the tape."""
    return tape.push("leaf", (), np.asarray(value, dtype=np.float64))


def constant(tape: Tape, value) -> TracedValue:
    """Register an input that backward never differentiates."""
    out = tape.push("constant", (), np.asarray(value, dtype=np.float64))
    tape.constants.add(out.idx)
    return out


def _pair(a: TracedValue, b: TracedValue) -> Tape:
    if a.tape is not b.tape:
        raise ValueError("operands live on different tapes")
    return a.tape


def _same_shape(a: TracedValue, b: TracedValue, op: str) -> None:
    if a.value.shape != b.value.shape:
        raise DimensionError(f"{op}: shapes differ {a.value.shape} vs {b.value.shape}")


# ---------------------------------------------------------------------------
# primitive forwards


def add(a, b):
    """Elementwise sum, the one broadcast on the tape: a right operand of m rows,
    m dividing a's n rows, repeats over blocks of n / m rows (a bias is m = 1)."""
    n, m = a.value.shape[0], b.value.shape[0]
    if a.value.shape[1:] != b.value.shape[1:] or not m or n % m:
        raise DimensionError(f"add: {b.value.shape} does not repeat over {a.value.shape}")
    out = _unblock(_blocks(a.value, n // m) + b.value[:, None, None])
    return _pair(a, b).push("add", (a.idx, b.idx), out)


def mul(a, b):
    """Elementwise (Hadamard) product."""
    _same_shape(a, b, "mul")
    return _pair(a, b).push("mul", (a.idx, b.idx), a.value * b.value)


def matmul(a, b):
    if a.value.shape[-1] != b.value.shape[0]:
        raise DimensionError(f"matmul: {a.value.shape} x {b.value.shape}")
    tape = _pair(a, b)
    return tape.push("matmul", (a.idx, b.idx), a.value @ b.value,
                     {"left_constant": a.idx in tape.constants})


def elu_plus_one(a):
    return a.tape.push("elu_plus_one", (a.idx,), attention.elu_plus_one(a.value))


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(a):
    """Tanh-form gelu: 0.5 x (1 + tanh(c (x + a x^3))).

    The cube is x * x * x (per-element pow costs about 40 times as much). The
    rows of x (n x d) pass in runs (posenc._run_rows) into a preallocated output,
    each through the same ufuncs in the same order, with the tanh argument
    built in place, so every entry has the bits of the whole-array form. The
    tanh term t that the adjoint reads is a full array on a recording tape
    only; otherwise each run's t is a run-sized temporary.
    """
    x = a.value
    n, d = x.shape
    out = np.empty((n, d))
    t_all = np.empty((n, d)) if a.tape.record else None
    step = _run_rows(d)
    for lo in range(0, n, step):
        xr = x[lo : lo + step]
        t = xr * xr if t_all is None else np.multiply(xr, xr, out=t_all[lo : lo + step])
        t *= xr
        t *= _GELU_A
        t += xr
        t *= _GELU_C
        np.tanh(t, out=t)
        o = np.multiply(0.5, xr, out=out[lo : lo + step])
        o *= 1.0 + t
    return a.tape.push("gelu", (a.idx,), out, {"t": t_all})


def sum_all(a):
    """Total over all entries, as a 1x1 tensor."""
    return a.tape.push("sum_all", (a.idx,), np.array([[a.value.sum()]]))


def broadcast_row(a, n: int):
    """Repeat a 1 x d row n times (a bias needs no copy: add broadcasts it)."""
    if a.value.shape[0] != 1:
        raise DimensionError(f"broadcast_row expects 1 x d, got {a.value.shape}")
    return a.tape.push("broadcast_row", (a.idx,), np.repeat(a.value, n, axis=0))


def cols(a, lo: int, hi: int):
    return a.tape.push("cols", (a.idx,), a.value[:, lo:hi].copy(), {"lo": lo, "hi": hi})


def concat_cols(parts):
    tape = parts[0].tape
    sizes = [p.value.shape[1] for p in parts]
    value = np.concatenate([p.value for p in parts], axis=1)
    return tape.push("concat_cols", tuple(p.idx for p in parts), value, {"sizes": sizes})


def permute_rows(a, perm):
    """Gather rows by an explicit permutation; grid tilings use tile_grid instead."""
    perm = np.asarray(perm, dtype=np.intp)
    return a.tape.push("permute_rows", (a.idx,), a.value[perm], {"perm": perm})


def _tiles(x: np.ndarray, grid: int, tile: int, inverse: bool) -> np.ndarray:
    """Reorder the rows of stacked row-major grid x grid samples into tile-major order.

    Each tile x tile tile is raveled row-major, tiles in row-major order;
    inverse=True undoes it. Both are one reshape and transpose.
    """
    n, d = x.shape
    b, k = n // (grid * grid), grid // tile
    shape = (b, k, k, tile, tile, d) if inverse else (b, k, tile, k, tile, d)
    return x.reshape(shape).transpose(0, 1, 3, 2, 4, 5).reshape(n, d)


def tile_grid(a, grid: int, tile: int, inverse: bool = False):
    """Rows of grid x grid samples to tile-major order (or back, with inverse)."""
    n = a.value.shape[0]
    if n % (grid * grid) != 0 or grid % tile != 0:
        raise DimensionError(f"tile_grid: tile {tile} and grid {grid} do not fit {n} rows")
    return a.tape.push("tile_grid", (a.idx,), _tiles(a.value, grid, tile, inverse),
                       {"grid": grid, "tile": tile, "inverse": inverse})


def gather_rows(a, indices):
    indices = np.asarray(indices, dtype=np.intp)
    return a.tape.push("gather_rows", (a.idx,), a.value[indices],
                       {"indices": indices, "n": a.value.shape[0]})


def group_rows(a, group: int):
    """Reshape (n, d) -> (n/group, group*d), row-major."""
    n, d = a.value.shape
    value = _blocks(a.value, group).reshape(n // group, group * d)
    return a.tape.push("group_rows", (a.idx,), value, {"n": n, "d": d})


def rope_rotate(a, angles: np.ndarray):
    """Rotate consecutive dim pairs by a fixed (period, pairs) table (posenc.rotate_pairs).

    An isometry: the adjoint rotates back by the negated table.
    """
    return a.tape.push("rope_rotate", (a.idx,), rotate_pairs(a.value, angles),
                       {"angles": angles})


def depthwise_conv(v, taps, height: int, width: int):
    """Per-channel k x k grid convolution; differentiable in v and taps.

    Rows may stack several grids (row count a multiple of height*width);
    each grid is convolved independently.
    """
    batched = _blocks(v.value, height * width)[:, 0]
    out = depthwise_conv_grid(batched, taps.value, height, width).reshape(v.value.shape)
    return _pair(v, taps).push("depthwise_conv", (v.idx, taps.idx), out,
                               {"height": height, "width": width})


def layer_norm(x, gamma, beta):
    """Per-row normalization with learned scale and shift (1 x d each), eps 1e-5.

    The row means are row sums over d (attention._row_fold), bitwise numpy's
    mean(axis=1, keepdims=True). Rows that _row_fold folds (fewer than 16
    contiguous columns) are normalized in a feature-major (d, n) copy: numpy
    would loop once per row over their few columns, where feature-major every
    per-row statistic is one contiguous vector and every step one long loop.
    The sums fold along axis 0 in the same association, so the output,
    returned row-major, is bitwise that of the row-major path. The node keeps
    xhat and inv feature-major, and the adjoint runs feature-major too.
    Other rows (16 columns or more, or a last axis that is not contiguous)
    pass in runs (posenc._run_rows) into a preallocated output, each run
    through the same steps on run-sized temporaries. xhat and inv, which the
    adjoint reads, are full arrays on a recording tape only.
    """
    tape = _pair(x, gamma)
    n, d = x.value.shape
    if _foldable(np.add, x.value):
        xc = x.value.T.copy()  # a copy also of one row, whose transpose is contiguous
        xc -= _fold(np.add, xc, 0) / d
        sq = xc * xc
        inv = 1.0 / np.sqrt(_fold(np.add, sq, 0) / d + 1e-5)
        xc *= inv
        np.multiply(xc, gamma.value.T, out=sq)
        sq += beta.value.T
        return tape.push("layer_norm", (x.idx, gamma.idx, beta.idx), np.ascontiguousarray(sq.T),
                         {"xhat_t": xc, "inv_t": inv})
    out = np.empty((n, d))
    xhat, inv = (np.empty((n, d)), np.empty((n, 1))) if tape.record else (None, None)
    step = _run_rows(d)
    for lo in range(0, n, step):
        xr = x.value[lo : lo + step]
        xc = xr - _row_fold(np.add, xr) / d
        r_inv = np.sqrt(_row_fold(np.add, xc * xc) / d + 1e-5,
                        out=None if inv is None else inv[lo : lo + step])
        np.divide(1.0, r_inv, out=r_inv)
        xh = np.multiply(xc, r_inv, out=xc if xhat is None else xhat[lo : lo + step])
        o = np.multiply(xh, gamma.value, out=out[lo : lo + step])
        o += beta.value
    return tape.push("layer_norm", (x.idx, gamma.idx, beta.idx), out,
                     {"xhat": xhat, "inv": inv})


def _blocked_attention(op: str, kernel: KernelSpec, q, k, v, block: int, heads: int):
    out, coeff = _blocked_values(q.value, k.value, v.value, kernel, block, heads, featured=True)
    return _pair(q, k).push(op, (q.idx, k.idx, v.idx), out,
                            {"coeff": coeff, "block": block, "heads": heads})


def blocked_softmax_attention(q, k, v, block: int, heads: int = 1):
    """Softmax attention inside consecutive row blocks, for each head.

    The columns of q, k and v split into `heads` equal slices and every
    slice attends within each block independently. block == n is full
    softmax attention; smaller blocks give the windowed form. One node for
    all blocks and heads keeps tapes small.
    """
    return _blocked_attention("blocked_softmax_attention", _SOFTMAX,
                              q, k, v, block, heads)


def blocked_linear_attention(u, w, v, block: int, heads: int = 1):
    """Identity-kernel attention over row blocks of already-featured u, w.

    Heads split the columns as in blocked_softmax_attention. Callers must
    pass positive feature maps (e.g. elu+1 outputs) so every block-row
    weight sum is positive.
    """
    return _blocked_attention("blocked_linear_attention", _LINEAR,
                              u, w, v, block, heads)


def mila_attention(u, w, v, angles: np.ndarray):
    """MILA over already-featured u, w (elu+1 outputs) and a rope angle table.

    Forwards through attention._mila_forward, so the value is bitwise that of
    attention.mila_attention on the same rows. The node keeps rot(u), rot(w),
    the denominator and the angles, all O(n d): no n x n array is formed.
    """
    _same_shape(u, w, "mila_attention")
    out, ru, rw, den = attention._mila_forward(u.value, w.value, v.value, angles)
    return _pair(u, w).push("mila_attention", (u.idx, w.idx, v.idx), out,
                            {"ru": ru, "rw": rw, "den": den, "angles": angles})


def blocked_mean_broadcast(v, block: int):
    """The mean of each block of consecutive rows, one row per block.

    add broadcasts it back over the block's rows. block == n is the homogeneous
    mixing term; per-sample blocks let a batch share one tape.
    """
    mean = _blocks(v.value, block).mean(axis=2)[:, 0]
    return v.tape.push("blocked_mean_broadcast", (v.idx,), mean, {"block": block})


def cross_entropy(logits, labels) -> TracedValue:
    """Mean negative log-likelihood of integer labels, as a 1x1 scalar."""
    labels = np.asarray(labels, dtype=np.intp)
    x = logits.value
    shifted = x - x.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    loss = -logp[np.arange(x.shape[0]), labels].mean()
    probs = np.exp(logp)
    return logits.tape.push("cross_entropy", (logits.idx,), np.array([[loss]]),
                            {"probs": probs, "labels": labels})


# ---------------------------------------------------------------------------
# adjoints


def _adj_matmul(node, g, vals):
    a, b = vals
    return None if node.ctx.get("left_constant") else g @ b.T, a.T @ g


def _adj_gelu(node, g, vals):
    """g * (0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 a x^2)) in two temporaries;
    each step has the operands of the written-out form, so the bits match."""
    x, t = vals[0], node.ctx["t"]
    out = t * t
    np.subtract(1.0, out, out=out)
    tmp = 0.5 * x
    out *= tmp
    out *= _GELU_C
    np.multiply(x, x, out=tmp)
    tmp *= 3.0 * _GELU_A
    tmp += 1.0
    out *= tmp
    np.add(t, 1.0, out=tmp)
    tmp *= 0.5
    out += tmp
    out *= g
    return (out,)


def _adj_layer_norm(node, g, vals):
    x, gamma, _ = vals
    d = x.shape[1]
    if "xhat_t" in node.ctx:  # narrow rows: (d, n) xhat and (1, n) inv, row sums along axis 0
        xhat_t, inv_t = node.ctx["xhat_t"], node.ctx["inv_t"]
        dxhat = np.multiply(g.T, gamma.T, order="C")
        dx = inv_t / d * (d * dxhat - _fold(np.add, dxhat, 0)
                          - xhat_t * _fold(np.add, dxhat * xhat_t, 0))
        return (np.ascontiguousarray(dx.T),
                np.multiply(g, xhat_t.T, order="C").sum(axis=0, keepdims=True),
                g.sum(axis=0, keepdims=True))
    xhat, inv = node.ctx["xhat"], node.ctx["inv"]
    dxhat = g * gamma
    dx = inv / d * (d * dxhat - _row_fold(np.add, dxhat)
                    - xhat * _row_fold(np.add, dxhat * xhat))
    return dx, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)


def _adj_depthwise_conv(node, g, vals):
    v, taps = vals
    h, w = node.ctx["height"], node.ctx["width"]
    vb, gb = (_blocks(x, h * w)[:, 0] for x in (v, g))
    # input grad: correlate the output grad with the spatially flipped taps
    dv = depthwise_conv_grid(gb, taps[:, ::-1, ::-1], h, w).reshape(v.shape)
    return dv, _depthwise_taps_grad(vb, gb, taps.shape[1], h, w)


def _adj_blocked_attention(node, g, vals):
    """Shared adjoint: blocked value mixing, then the kernel's logit adjoint."""
    coeff, block, heads = node.ctx["coeff"], node.ctx["block"], node.ctx["heads"]
    qb, kb, vb, gb = (_blocks(x, block, heads) for x in (*vals, g))
    dv = np.swapaxes(coeff, -1, -2) @ gb
    dcoeff = gb @ np.swapaxes(vb, -1, -2)
    centered = dcoeff - _row_fold(np.add, dcoeff * coeff)
    if node.op == "blocked_softmax_attention":
        dlogits = coeff * centered
    else:  # identity kernel: coeff = logits / (row sum of logits)
        dlogits = centered / _row_fold(np.add, qb @ np.swapaxes(kb, -1, -2))
    dq, dk = dlogits @ kb, np.swapaxes(dlogits, -1, -2) @ qb
    return _unblock(dq), _unblock(dk), _unblock(dv)


def _adj_mila_attention(node, g, vals):
    """out = rot(u) S / den with S = rot(w)^T v and den = u (w^T 1) + eps, in the forward's order."""
    u, w, v = vals
    ru, rw, den, angles = (node.ctx[key] for key in ("ru", "rw", "den", "angles"))
    gs = g / den
    dden = -(gs * node.value).sum(axis=1, keepdims=True)
    ds = ru.T @ gs
    du = rotate_pairs(gs @ (rw.T @ v).T, -angles) + dden * w.sum(axis=0)
    dw = rotate_pairs(v @ ds.T, -angles) + dden.T @ u
    return du, dw, rw @ ds


def _adj_focused_map(node, g, vals):
    (x,) = vals
    p = node.ctx["p"]
    r = np.maximum(x, 0.0)
    rp = r**p
    norm_r = np.linalg.norm(r, axis=1, keepdims=True)
    norm_rp = np.linalg.norm(rp, axis=1, keepdims=True)
    live = (norm_rp > 0).astype(np.float64)
    safe_r = np.where(norm_r > 0, norm_r, 1.0)
    safe_rp = np.where(norm_rp > 0, norm_rp, 1.0)
    c = np.where(norm_rp > 0, norm_r / safe_rp, 0.0)
    rp1 = r ** (p - 1)
    # y = c * r^p with c = |r| / |r^p|; product + quotient rules per row
    g_dot_rp = (g * rp).sum(axis=1, keepdims=True)
    dc = g_dot_rp * live
    dr = c * g * p * rp1
    dr = dr + dc * (r / safe_r / safe_rp) * live
    dr = dr - dc * (norm_r / safe_rp**2) * (rp * p * rp1 / safe_rp) * live
    return (dr * (x > 0),)


def focused_map_rows(a, p: int):
    """Norm-preserving power features of relu(x), rowwise (zero rows map to 0)."""
    return a.tape.push("focused_map", (a.idx,), attention._focused_features(a.value, p),
                       {"p": int(p)})


ADJOINTS = {
    "leaf": None,
    # a same-shape operand gets g itself, signs of zero kept; a repeated one
    # gets the sum over its blocks, which numpy starts from +0
    "add": lambda node, g, vals: (
        g, g if g.shape[0] == vals[1].shape[0]
        else _blocks(g, g.shape[0] // vals[1].shape[0]).sum(axis=2)[:, 0],
    ),
    "mul": lambda node, g, vals: (g * vals[1], g * vals[0]),
    "matmul": _adj_matmul,
    # the derivative is 1 where x > 0 (output x + 1 >= 1) and exp(x) = output elsewhere
    "elu_plus_one": lambda node, g, vals: (g * np.minimum(node.value, 1.0),),
    "gelu": _adj_gelu,
    "sum_all": lambda node, g, vals: (np.full_like(vals[0], g[0, 0]),),
    "broadcast_row": lambda node, g, vals: (g.sum(axis=0, keepdims=True),),
    "cols": lambda node, g, vals: (
        _scatter(g, vals[0].shape, (slice(None), slice(node.ctx["lo"], node.ctx["hi"]))),
    ),
    "concat_cols": lambda node, g, vals: tuple(
        np.split(g, np.cumsum(node.ctx["sizes"])[:-1], axis=1)
    ),
    "permute_rows": lambda node, g, vals: (_scatter(g, g.shape, node.ctx["perm"]),),
    "tile_grid": lambda node, g, vals: (
        _tiles(g, node.ctx["grid"], node.ctx["tile"], not node.ctx["inverse"]),
    ),
    "gather_rows": lambda node, g, vals: (_scatter_add(g, node.ctx),),
    "group_rows": lambda node, g, vals: (g.reshape(node.ctx["n"], node.ctx["d"]),),
    "rope_rotate": lambda node, g, vals: (rotate_pairs(g, -node.ctx["angles"]),),
    "depthwise_conv": _adj_depthwise_conv,
    "layer_norm": _adj_layer_norm,
    "blocked_softmax_attention": _adj_blocked_attention,
    "blocked_linear_attention": _adj_blocked_attention,
    "blocked_mean_broadcast": lambda node, g, vals: (
        np.repeat(g / node.ctx["block"], node.ctx["block"], axis=0),
    ),
    "mila_attention": _adj_mila_attention,
    "cross_entropy": lambda node, g, vals: (_adj_cross_entropy(node, g),),
    "focused_map": _adj_focused_map,
}


def _scatter(g, shape, index):
    """Zeros of the input's shape with g written back where the forward read it."""
    out = np.zeros(shape)
    out[index] = g
    return out


def _scatter_add(g, ctx):
    out = np.zeros((ctx["n"], g.shape[1]))
    np.add.at(out, ctx["indices"], g)
    return out


def _adj_cross_entropy(node, g):
    probs, labels = node.ctx["probs"], node.ctx["labels"]
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(labels)), labels] = 1.0
    return g[0, 0] * (probs - onehot) / probs.shape[0]


def backward(loss: TracedValue) -> dict[int, np.ndarray]:
    """Gradient of a 1x1 traced scalar with respect to every leaf.

    Returns a map from leaf node index to gradient array. Visits each node
    exactly once, in reverse creation (= reverse topological) order. No
    gradient is formed for a constant or a node computed only from constants.
    """
    if loss.value.shape != (1, 1):
        raise DimensionError(f"loss must be a 1x1 scalar, got shape {loss.value.shape}")
    if not loss.tape.record:
        raise DifferentiationError("backward needs a tape made with record=True")
    nodes, constants = loss.tape.nodes, loss.tape.constants
    grads: dict[int, np.ndarray] = {} if loss.idx in constants else {loss.idx: np.ones((1, 1))}
    for idx in range(loss.idx, -1, -1):
        node = nodes[idx]
        g = grads.pop(idx, None)
        if g is None or node.op == "leaf":
            if g is not None and node.op == "leaf":
                grads[idx] = g
            continue
        adj = ADJOINTS.get(node.op)
        if adj is None:
            raise DifferentiationError(f"no adjoint registered for op {node.op!r}")
        vals = tuple(nodes[p].value for p in node.parents)
        parent_grads = adj(node, g, vals)
        for p, pg in zip(node.parents, parent_grads):
            if p in constants:
                continue
            if p in grads:
                grads[p] = grads[p] + pg
            else:
                grads[p] = np.asarray(pg, dtype=np.float64)
    return {i: g for i, g in grads.items() if nodes[i].op == "leaf"}


@dataclass
class GradcheckReport:
    max_rel_err: float
    passed: bool
    per_input: list[float]


def _evaluate(f, arrays):
    """f on fresh leaves of the arrays, on a new recording tape: (output, leaves)."""
    tape = Tape()
    leaves = [leaf(tape, a) for a in arrays]
    return f(*leaves), leaves


def _analytic(f, arrays) -> list[np.ndarray]:
    out, leaves = _evaluate(f, arrays)
    grads = backward(out)
    return [grads.get(lv.idx, np.zeros_like(a)) for lv, a in zip(leaves, arrays)]


def _relative_error(analytic: float, numeric: float, floor: float) -> float:
    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)
    return err if math.isfinite(err) else math.inf


# step h and pass bound of gradcheck and of directional_check
GRADCHECK_STEP = GRADCHECK_TOL = 1e-5
DIRECTIONAL_STEP = 1e-3
DIRECTIONAL_TOL = 1e-6


def gradcheck(f, inputs) -> GradcheckReport:
    """Compare backward gradients of a traced scalar function to central
    finite differences with step GRADCHECK_STEP.

    f takes traced leaves (one per input array) and returns a traced 1x1
    scalar. Inputs with more than 512 entries are checked on 64 random
    coordinates drawn from seed 0, the same on every run. Relative error uses
    max(|analytic|, |numeric|, 1e-8) as the denominator; a non-finite
    derivative counts as an infinite error, so it fails the check. The check
    passes when every relative error is below GRADCHECK_TOL. Failures are
    reported, never raised.
    """
    arrays = [np.asarray(x, dtype=np.float64) for x in inputs]
    analytic = _analytic(f, arrays)

    per_input = []
    for which, base in enumerate(arrays):
        size = base.size
        if size > 512:
            rng = rng_for(0, "gradcheck", which)
            coords = rng.choice(size, size=64, replace=False)
        else:
            coords = np.arange(size)
        worst = 0.0
        for flat_idx in coords:
            idx = np.unravel_index(int(flat_idx), base.shape)
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[which][idx] += GRADCHECK_STEP
            minus[which][idx] -= GRADCHECK_STEP
            f_plus = _evaluate(f, plus)[0].value[0, 0]
            f_minus = _evaluate(f, minus)[0].value[0, 0]
            numeric = (f_plus - f_minus) / (2.0 * GRADCHECK_STEP)
            worst = max(worst, _relative_error(analytic[which][idx], numeric, 1e-8))
        per_input.append(float(worst))
    max_err = max(per_input) if per_input else 0.0
    return GradcheckReport(max_rel_err=max_err, passed=bool(max_err < GRADCHECK_TOL),
                           per_input=per_input)


def directional_check(f, inputs) -> GradcheckReport:
    """Compare backward gradients of a traced scalar function to finite
    differences along one seeded unit direction per input.

    f is as in gradcheck. Input i moves alone along u, a standard normal
    draw from rng_for(0, "directional", i) scaled to unit norm, the same on
    every run; <grad_i, u> is compared with one Richardson step over central
    differences, (4 D(h/2) - D(h)) / 3 with
    D(h) = (f(x + h u) - f(x - h u)) / (2 h) and h = DIRECTIONAL_STEP, which
    leaves an O(h^4) truncation error. The check passes when every relative
    error is below DIRECTIONAL_TOL. Against a single coordinate the
    directional derivative is about |grad| / sqrt(size), far above the
    rounding noise of f, so small gradient entries cannot fail on noise.
    Relative error uses max(|analytic|, |numeric|, 1e-12) as the denominator;
    a non-finite derivative counts as an infinite error. Failures are
    reported, never raised.
    """
    arrays = [np.asarray(x, dtype=np.float64) for x in inputs]
    analytic = _analytic(f, arrays)

    def central(which, u, h):
        values = []
        for sign in (1.0, -1.0):
            moved = list(arrays)
            moved[which] = arrays[which] + sign * h * u
            values.append(_evaluate(f, moved)[0].value[0, 0])
        return (values[0] - values[1]) / (2.0 * h)

    per_input = []
    for which, base in enumerate(arrays):
        u = rng_for(0, "directional", which).standard_normal(base.shape)
        u /= np.linalg.norm(u)
        h = DIRECTIONAL_STEP
        numeric = (4.0 * central(which, u, h / 2) - central(which, u, h)) / 3.0
        per_input.append(_relative_error(float(np.sum(analytic[which] * u)), numeric, 1e-12))
    max_err = max(per_input) if per_input else 0.0
    return GradcheckReport(max_rel_err=max_err, passed=bool(max_err < DIRECTIONAL_TOL),
                           per_input=per_input)
