"""Tape-based reverse-mode differentiation over a small set of numpy ops.

A Tape records nodes in creation order (which is a topological order), each
holding its numpy value, parent indices, and whatever the adjoint needs.
backward() walks the tape once in reverse, accumulating gradients additively
across fan-out, and returns the gradient of every leaf. First-order only:
no higher derivatives, no checkpointing. A Tape(record=False) keeps no
history, for forward-only passes.

gradcheck() compares a traced scalar function's backward gradients against
central finite differences coordinate by coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import attention
from .attention import KernelSpec, _block_coefficients, _block_mean, _normalize, _phi_weights
from .errors import DifferentiationError, DimensionError
from .posenc import depthwise_conv_grid, rotate_pairs
from .rng import rng_for

_SOFTMAX, _LINEAR = KernelSpec.softmax(), KernelSpec.linear()


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
    pass holds its working set instead of its whole history. backward()
    needs a recording tape.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self.nodes: list[Node] = []
        self.pushed = 0

    def push(self, op: str, parents: tuple[int, ...], value: np.ndarray,
             ctx: dict | None = None) -> "TracedValue":
        node = Node(op, parents, np.asarray(value, dtype=np.float64),
                    (ctx or {}) if self.record else {})
        if self.record:
            self.nodes.append(node)
        else:
            self.nodes = [node]
        self.pushed += 1
        return TracedValue(self, self.pushed - 1, node)


class TracedValue:
    """Handle to one tape node; supports +, *, @ against same-tape values and unary -."""

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

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def leaf(tape: Tape, value) -> TracedValue:
    """Register an input (differentiable) tensor on the tape."""
    return tape.push("leaf", (), np.asarray(value, dtype=np.float64))


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
    """Elementwise sum; a (1, d) right operand (a bias row) is broadcast over a's rows."""
    if b.value.shape != (1, a.value.shape[-1]):
        _same_shape(a, b, "add")
    return _pair(a, b).push("add", (a.idx, b.idx), a.value + b.value)


def mul(a, b):
    """Elementwise (Hadamard) product."""
    _same_shape(a, b, "mul")
    return _pair(a, b).push("mul", (a.idx, b.idx), a.value * b.value)


def scale(a, c: float):
    return a.tape.push("scale", (a.idx,), a.value * c, {"c": float(c)})


def add_scalar(a, c: float):
    return a.tape.push("add_scalar", (a.idx,), a.value + c)


def matmul(a, b):
    if a.value.shape[-1] != b.value.shape[0]:
        raise DimensionError(f"matmul: {a.value.shape} x {b.value.shape}")
    return _pair(a, b).push("matmul", (a.idx, b.idx), a.value @ b.value)


def transpose(a):
    return a.tape.push("transpose", (a.idx,), a.value.T.copy())


def exp(a):
    return a.tape.push("exp", (a.idx,), np.exp(a.value))


def log(a):
    return a.tape.push("log", (a.idx,), np.log(a.value))


def relu(a):
    return a.tape.push("relu", (a.idx,), np.maximum(a.value, 0.0))


def elu_plus_one(a):
    return a.tape.push("elu_plus_one", (a.idx,), attention.elu_plus_one(a.value))


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(a):
    """Tanh-form gelu: 0.5 x (1 + tanh(c (x + a x^3))).

    The cube is x * x * x (per-element pow costs about 40 times as much), and
    the tanh argument is built in place in one temporary.
    """
    x = a.value
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = 0.5 * x
    out *= 1.0 + t
    return a.tape.push("gelu", (a.idx,), out, {"t": t})


def power_int(a, p: int):
    if p < 1:
        raise ValueError("power must be >= 1")
    return a.tape.push("power_int", (a.idx,), a.value ** p, {"p": int(p)})


def sum_all(a):
    """Total over all entries, as a 1x1 tensor."""
    return a.tape.push("sum_all", (a.idx,), np.array([[a.value.sum()]]))


def sum_cols(a):
    """Row sums: n x d -> n x 1."""
    return a.tape.push("sum_cols", (a.idx,), a.value.sum(axis=1, keepdims=True))


def broadcast_row(a, n: int):
    """Repeat a 1 x d row n times (a bias needs no copy: add broadcasts it)."""
    if a.value.shape[0] != 1:
        raise DimensionError(f"broadcast_row expects 1 x d, got {a.value.shape}")
    return a.tape.push("broadcast_row", (a.idx,), np.repeat(a.value, n, axis=0))


def softmax_rows(a):
    y = _normalize(_SOFTMAX, _phi_weights(_SOFTMAX, a.value.copy()))
    return a.tape.push("softmax_rows", (a.idx,), y)


def div_rowvec(a, s):
    if s.value.shape != (a.value.shape[0], 1):
        raise DimensionError(f"div_rowvec: scale shape {s.value.shape}")
    return _pair(a, s).push("div_rowvec", (a.idx, s.idx), a.value / s.value)


def rows(a, lo: int, hi: int):
    return a.tape.push("rows", (a.idx,), a.value[lo:hi].copy(), {"lo": lo, "hi": hi})


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
    if n % group != 0:
        raise DimensionError(f"group {group} does not divide {n} rows")
    return a.tape.push("group_rows", (a.idx,), a.value.reshape(n // group, group * d),
                       {"n": n, "d": d})


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
    n, d = v.value.shape
    per = height * width
    if n % per != 0:
        raise DimensionError(f"rows {n} not a multiple of grid size {per}")
    batched = v.value.reshape(n // per, per, d)
    out = depthwise_conv_grid(batched, taps.value, height, width).reshape(n, d)
    return _pair(v, taps).push("depthwise_conv", (v.idx, taps.idx), out,
                               {"height": height, "width": width})


def layer_norm(x, gamma, beta, eps: float = 1e-5):
    """Per-row normalization with learned scale and shift (1 x d each)."""
    xc = x.value - x.value.mean(axis=1, keepdims=True)
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gamma.value + beta.value
    tape = _pair(x, gamma)
    return tape.push("layer_norm", (x.idx, gamma.idx, beta.idx), out,
                     {"xhat": xhat, "inv": inv})


def _check_blocks(x, block: int, heads: int, op: str) -> None:
    n, width = x.value.shape
    if n % block != 0:
        raise DimensionError(f"{op}: block {block} does not divide {n} rows")
    if width % heads != 0:
        raise DimensionError(f"{op}: {heads} heads do not divide {width} columns")


def _head_blocks(x: np.ndarray, block: int, heads: int) -> np.ndarray:
    """View (n, heads * d) rows as (n / block, heads, block, d): one block per head."""
    n, width = x.shape
    return x.reshape(n // block, block, heads, width // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(n / block, heads, block, d) -> (n, heads * d), inverting _head_blocks."""
    blocks, heads, block, d = x.shape
    return x.transpose(0, 2, 1, 3).reshape(blocks * block, heads * d)


def _blocked_attention(op: str, kernel: KernelSpec, q, k, v, block: int, heads: int):
    for x in (q, k, v):
        _check_blocks(x, block, heads, op)
    qb, kb, vb = (_head_blocks(x.value, block, heads) for x in (q, k, v))
    coeff = _block_coefficients(qb, kb, kernel, featured=True)
    return _pair(q, k).push(op, (q.idx, k.idx, v.idx), _merge_heads(coeff @ vb),
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


def blocked_mean_broadcast(v, block: int):
    """Mean of each row block broadcast back over the block.

    block == n is the homogeneous mixing term; per-sample blocks let a
    batch share one tape.
    """
    n = v.value.shape[0]
    if n % block != 0:
        raise DimensionError(f"block {block} does not divide {n} rows")
    return v.tape.push("blocked_mean_broadcast", (v.idx,), _block_mean(v.value, block),
                       {"block": block})


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
    return g @ b.T, a.T @ g


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


def _adj_softmax_rows(node, g, vals):
    y = node.value
    return (y * (g - (g * y).sum(axis=1, keepdims=True)),)


def _adj_layer_norm(node, g, vals):
    x, gamma, _ = vals
    xhat, inv = node.ctx["xhat"], node.ctx["inv"]
    d = x.shape[1]
    dxhat = g * gamma
    dx = inv / d * (d * dxhat - dxhat.sum(axis=1, keepdims=True)
                    - xhat * (dxhat * xhat).sum(axis=1, keepdims=True))
    return dx, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)


def _adj_depthwise_conv(node, g, vals):
    v, taps = vals
    h, w = node.ctx["height"], node.ctx["width"]
    n, d = v.shape
    b = n // (h * w)
    gb = g.reshape(b, h * w, d)
    # input grad: correlate the output grad with the spatially flipped taps
    dv = depthwise_conv_grid(gb, taps[:, ::-1, ::-1], h, w).reshape(n, d)
    k = taps.shape[1]
    pad = k // 2
    vi = v.reshape(b, h, w, d)
    gi = g.reshape(b, h, w, d)
    padded = np.zeros((b, h + 2 * pad, w + 2 * pad, d))
    padded[:, pad : pad + h, pad : pad + w] = vi
    dtaps = np.empty_like(taps)
    for dr in range(k):
        for dc in range(k):
            dtaps[:, dr, dc] = (padded[:, dr : dr + h, dc : dc + w] * gi).sum(axis=(0, 1, 2))
    return dv, dtaps


def _adj_blocked_attention(node, g, vals):
    """Shared adjoint: blocked value mixing, then the kernel's logit adjoint."""
    coeff, block, heads = node.ctx["coeff"], node.ctx["block"], node.ctx["heads"]
    qb, kb, vb, gb = (_head_blocks(x, block, heads) for x in (*vals, g))
    dv = np.swapaxes(coeff, -1, -2) @ gb
    dcoeff = gb @ np.swapaxes(vb, -1, -2)
    centered = dcoeff - (dcoeff * coeff).sum(axis=-1, keepdims=True)
    if node.op == "blocked_softmax_attention":
        dlogits = coeff * centered
    else:  # identity kernel: coeff = logits / (row sum of logits)
        dlogits = centered / (qb @ np.swapaxes(kb, -1, -2)).sum(axis=-1, keepdims=True)
    dq, dk = dlogits @ kb, np.swapaxes(dlogits, -1, -2) @ qb
    return _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)


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
    "add": lambda node, g, vals: (
        g, g if vals[1].shape == g.shape else g.sum(axis=0, keepdims=True),
    ),
    "mul": lambda node, g, vals: (g * vals[1], g * vals[0]),
    "scale": lambda node, g, vals: (g * node.ctx["c"],),
    "add_scalar": lambda node, g, vals: (g,),
    "matmul": _adj_matmul,
    "transpose": lambda node, g, vals: (g.T,),
    "exp": lambda node, g, vals: (g * node.value,),
    "log": lambda node, g, vals: (g / vals[0],),
    "relu": lambda node, g, vals: (g * (vals[0] > 0),),
    # the derivative is 1 where x > 0 (output x + 1 >= 1) and exp(x) = output elsewhere
    "elu_plus_one": lambda node, g, vals: (g * np.minimum(node.value, 1.0),),
    "gelu": _adj_gelu,
    "power_int": lambda node, g, vals: (
        g * node.ctx["p"] * vals[0] ** (node.ctx["p"] - 1),
    ),
    "sum_all": lambda node, g, vals: (np.full_like(vals[0], g[0, 0]),),
    "sum_cols": lambda node, g, vals: (np.repeat(g, vals[0].shape[1], axis=1),),
    "broadcast_row": lambda node, g, vals: (g.sum(axis=0, keepdims=True),),
    "softmax_rows": _adj_softmax_rows,
    "div_rowvec": lambda node, g, vals: (
        g / vals[1],
        -(g * vals[0]).sum(axis=1, keepdims=True) / vals[1] ** 2,
    ),
    "rows": lambda node, g, vals: (
        _scatter(g, vals[0].shape, slice(node.ctx["lo"], node.ctx["hi"])),
    ),
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
    "blocked_mean_broadcast": lambda node, g, vals: (_block_mean(g, node.ctx["block"]),),
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
    exactly once, in reverse creation (= reverse topological) order.
    """
    if loss.value.shape != (1, 1):
        raise DimensionError(f"loss must be a 1x1 scalar, got shape {loss.value.shape}")
    if not loss.tape.record:
        raise DifferentiationError("backward needs a tape made with record=True")
    nodes = loss.tape.nodes
    grads: dict[int, np.ndarray] = {loss.idx: np.ones((1, 1))}
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


def gradcheck(f, inputs, step: float = 1e-5, tol: float = 1e-5) -> GradcheckReport:
    """Compare backward gradients of a traced scalar function to central
    finite differences.

    f takes traced leaves (one per input array) and returns a traced 1x1
    scalar. Inputs with more than 512 entries are checked on 64 random
    coordinates drawn from seed 0, the same on every run. Relative error uses
    max(|analytic|, |numeric|, 1e-8) as the denominator; a non-finite
    derivative counts as an infinite error, so it fails the check. Failures
    are reported, never raised.
    """
    arrays = [np.asarray(x, dtype=np.float64) for x in inputs]

    def run(arrs):
        tape = Tape()
        leaves = [leaf(tape, a) for a in arrs]
        out = f(*leaves)
        return out, leaves

    out, leaves = run(arrays)
    grads = backward(out)
    analytic = [grads.get(lv.idx, np.zeros_like(a)) for lv, a in zip(leaves, arrays)]

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
            plus[which][idx] += step
            minus[which][idx] -= step
            f_plus = run(plus)[0].value[0, 0]
            f_minus = run(minus)[0].value[0, 0]
            numeric = (f_plus - f_minus) / (2.0 * step)
            a_val = analytic[which][idx]
            denom = max(abs(a_val), abs(numeric), 1e-8)
            err = abs(a_val - numeric) / denom
            worst = max(worst, err if math.isfinite(err) else math.inf)
        per_input.append(worst)
    max_err = max(per_input) if per_input else 0.0
    return GradcheckReport(max_rel_err=max_err, passed=max_err < tol, per_input=per_input)
