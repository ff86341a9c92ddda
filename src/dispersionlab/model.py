"""Toy-scale SEMA backbone: stem, staged window-attention blocks, classifier.

The block follows the Mamba-like macro layout (pre-norm, attention sublayer,
residual, pre-norm, MLP, residual). The attention sublayer assembles window
softmax attention over non-overlapping w x w spatial windows (with rotary
embeddings on the windowed queries and keys), a depthwise positional term on
the values over the stage grid, and, when averaging is enabled, the
homogeneous mixing term that broadcasts the value mean to every token.
Ablation toggles swap the window path for global linear or full softmax
attention and switch the averaging term off.

Tokens are rows in row-major grid order per sample; each 2 x 2 downsample
and the window partition tile them by one reshape/transpose (ag.tile_grid).
The stem takes the patch rows that patch_rows cuts from images of
cfg.image_size, off the tape, as a constant input, which backward does not
differentiate; training cuts its images once and gathers every batch from
that table. ag.add broadcasts every 1 x d bias over the rows, and each
sample's value mean, one row per sample, over that sample's tokens.

Everything runs on the autograd tape, so receptive-field probes and toy
training reuse the same forward; inference runs it on a tape that keeps no
history, so it holds one block's working set rather than the whole pass.

With the single-token readout (head_mode "first_token") the head reads one row
per sample, the grid origin, so the last block computes only what that row
depends on: its attention window, the 3 x 3 LePE reach around it and the
value mean. Its attention sublayer keeps norm1 and v on all rows, but runs
q, k, the attention and LePE on each sample's corner, the c x c square of
whole windows at the origin (c the least multiple of the window side that
is >= 2, capped at the grid side; the grid itself for full and linear
attention). The projection, residuals, norm2, MLP, head norm and head
matmul then run on b rows instead of b * g * g. Training and inference share
this path. Windows are independent, the LePE reach of the origin lies inside
the corner, and every later op acts row by row, so the logits equal those of
the full-row forward bitwise at batch >= 2; at batch 1 numpy multiplies
one-row operands by another kernel, whose sums may differ in the last bits.
Weight gradients sum over fewer rows, where the full-row forward adds exact
zeros, so a BLAS that blocks those sums by length may move their last bits.

With averaging off, a model whose readout block is its only block (one stage
of depth one, as the ablation model) reads nothing of a sample but its
corner, and no op before that block mixes tokens. So the stem gathers each
corner right after its product, and the stem bias add, the stem norm and the
whole block, norm1 and v included, run on the b * c * c corner rows, on a
c x c grid. On that grid the corner is the whole grid, so the attention
sublayer sees the same windows, LePE padding and readout rows, and the
logits are bitwise those of the stem on all rows. On a recording tape the
stem product stays on all rows, so its weight gradient sums the same rows;
wv's now sums the corner rows, with the same caveat. A tape that keeps no
history forms no gradient, so there the stem gathers the corners from its
table and multiplies only those rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .errors import ConfigurationError, DimensionError, TrainingError, is_int
from .posenc import GridSpec, rope_angles
from .rng import rng_for
from .tensor import Tensor, as_array

ATTENTION_VARIANTS = ("window", "linear", "full")
# ModelConfig's integer fields other than seed, each >= 1
_POSITIVE_FIELDS = ("stage_dims", "stage_depths", "stage_heads", "window", "patch_size",
                    "image_size", "num_classes")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; one entry per stage in the lists."""

    stage_dims: tuple[int, ...]
    stage_depths: tuple[int, ...]
    stage_heads: tuple[int, ...]
    window: int
    mlp_ratio: float = 4.0
    patch_size: int = 4
    num_classes: int = 10
    image_size: int = 64
    averaging_enabled: bool = True
    attention_variant: str = "window"
    head_mode: str = "gap"  # "gap" or "first_token" (single-token readout)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "stage_dims", tuple(self.stage_dims))
        object.__setattr__(self, "stage_depths", tuple(self.stage_depths))
        object.__setattr__(self, "stage_heads", tuple(self.stage_heads))
        # --config JSON arrives unconverted: a float dim fails later in numpy, and
        # a string flag such as "no" is truthy
        for name in (*_POSITIVE_FIELDS, "seed"):
            value = getattr(self, name)
            if not all(is_int(x) for x in (value if isinstance(value, tuple) else (value,))):
                raise ConfigurationError(f"{name} must hold integers, got {value!r}")
        if not isinstance(self.averaging_enabled, bool):
            raise ConfigurationError(
                f"averaging_enabled must be true or false, got {self.averaging_enabled!r}")
        if not isinstance(self.mlp_ratio, numbers.Real) or isinstance(self.mlp_ratio, bool):
            raise ConfigurationError(f"mlp_ratio must be a real number, got {self.mlp_ratio!r}")
        if not (len(self.stage_dims) == len(self.stage_depths) == len(self.stage_heads)):
            raise ConfigurationError("stage lists must share one length")
        if len(self.stage_dims) < 1:
            raise ConfigurationError("need at least one stage")
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if min(value if isinstance(value, tuple) else (value,)) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value!r}")
        if not all(math.isfinite(dim * self.mlp_ratio) and round(dim * self.mlp_ratio) >= 1
                   for dim in self.stage_dims):
            raise ConfigurationError(f"mlp_ratio {self.mlp_ratio!r} must be finite and give "
                                     "every stage an MLP width >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed!r}")
        for s, (dim, heads) in enumerate(zip(self.stage_dims, self.stage_heads)):
            if dim % heads != 0:
                raise ConfigurationError(f"stage {s}: dim {dim} not divisible by {heads} heads")
            if (dim // heads) % 4 != 0:
                raise ConfigurationError(
                    f"stage {s}: head dim {dim // heads} must be divisible by 4 "
                    "for the axial rotary split"
                )
        if self.attention_variant not in ATTENTION_VARIANTS:
            raise ConfigurationError(f"attention_variant must be one of {ATTENTION_VARIANTS}")
        if self.head_mode not in ("gap", "first_token"):
            raise ConfigurationError("head_mode must be 'gap' or 'first_token'")
        stage_grids(self)  # validates divisibility and window fit

    @classmethod
    def tiny_224(cls) -> "ModelConfig":
        return cls(stage_dims=(64, 128, 256, 512), stage_depths=(2, 4, 8, 4),
                   stage_heads=(2, 4, 8, 16), window=7, patch_size=4,
                   num_classes=1000, image_size=224)

    @classmethod
    def toy(cls, **overrides) -> "ModelConfig":
        base = dict(stage_dims=(16, 32, 64, 128), stage_depths=(1, 1, 2, 1),
                    stage_heads=(1, 2, 4, 8), window=4, patch_size=4,
                    num_classes=10, image_size=64)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def ablation(cls, **overrides) -> "ModelConfig":
        """The criterion-10 ablation model: one 8-wide block, 2 x 2 windows on an
        8 x 8 token grid, two classes and the first-token readout."""
        base = dict(stage_dims=(8,), stage_depths=(1,), stage_heads=(1,), window=2,
                    patch_size=4, num_classes=2, image_size=32, head_mode="first_token")
        base.update(overrides)
        return cls(**base)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        return cls(**json.loads(text))


def stage_grids(cfg: ModelConfig) -> list[int]:
    """Token grid side per stage; raises naming the first failing stage."""
    if cfg.image_size % cfg.patch_size != 0:
        raise ConfigurationError(
            f"stem: image size {cfg.image_size} not divisible by patch size {cfg.patch_size}"
        )
    grids = []
    g = cfg.image_size // cfg.patch_size
    for s in range(len(cfg.stage_dims)):
        if s > 0:
            if g % 2 != 0:
                raise ConfigurationError(f"stage {s}: grid {g} not divisible for downsampling")
            g //= 2
        w_eff = effective_window(cfg, g)
        if g % w_eff != 0:
            raise ConfigurationError(
                f"stage {s}: window {w_eff} does not partition grid {g}x{g}"
            )
        grids.append(g)
    return grids


def effective_window(cfg: ModelConfig, grid_side: int) -> int:
    """Stage window: the configured size, clamped to the stage grid."""
    return min(cfg.window, grid_side)


# ---------------------------------------------------------------------------
# parameters


def parameter_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every learnable array, in a stable order (single source of truth)."""
    p = cfg.patch_size
    shapes: dict[str, tuple[int, ...]] = {}
    shapes["stem.w"] = (p * p * 3, cfg.stage_dims[0])
    shapes["stem.b"] = (1, cfg.stage_dims[0])
    shapes["stem.norm.g"] = (1, cfg.stage_dims[0])
    shapes["stem.norm.b"] = (1, cfg.stage_dims[0])
    for s, (dim, depth) in enumerate(zip(cfg.stage_dims, cfg.stage_depths)):
        if s > 0:
            prev = cfg.stage_dims[s - 1]
            shapes[f"down{s}.norm.g"] = (1, 4 * prev)
            shapes[f"down{s}.norm.b"] = (1, 4 * prev)
            shapes[f"down{s}.w"] = (4 * prev, dim)
        hidden = int(round(dim * cfg.mlp_ratio))
        for i in range(depth):
            pre = f"s{s}.b{i}."
            shapes[pre + "norm1.g"] = (1, dim)
            shapes[pre + "norm1.b"] = (1, dim)
            shapes[pre + "wq"] = (dim, dim)
            shapes[pre + "wk"] = (dim, dim)
            shapes[pre + "wv"] = (dim, dim)
            shapes[pre + "lepe"] = (dim, 3, 3)
            shapes[pre + "proj.w"] = (dim, dim)
            shapes[pre + "proj.b"] = (1, dim)
            shapes[pre + "norm2.g"] = (1, dim)
            shapes[pre + "norm2.b"] = (1, dim)
            shapes[pre + "mlp.w1"] = (dim, hidden)
            shapes[pre + "mlp.b1"] = (1, hidden)
            shapes[pre + "mlp.w2"] = (hidden, dim)
            shapes[pre + "mlp.b2"] = (1, dim)
    shapes["head.norm.g"] = (1, cfg.stage_dims[-1])
    shapes["head.norm.b"] = (1, cfg.stage_dims[-1])
    shapes["head.w"] = (cfg.stage_dims[-1], cfg.num_classes)
    shapes["head.b"] = (1, cfg.num_classes)
    return shapes


def parameter_count(cfg: ModelConfig) -> int:
    """Exact number of learnable scalars."""
    return sum(int(np.prod(shape)) for shape in parameter_shapes(cfg).values())


def init_params(cfg: ModelConfig, rng: np.random.Generator | None = None) -> dict[str, np.ndarray]:
    """Ones for names ending in norm.g, norm1.g or norm2.g; zeros for names ending
    in ".b"; N(0, 1 / fan_in) for the rest, fan_in being the first dimension
    (k * k for lepe). The rest includes the (1, d) MLP biases mlp.b1 and mlp.b2,
    which the suffix rule misses, so they are drawn from N(0, 1).

    A shape numpy refuses to allocate (say, from a huge mlp_ratio) raises
    ConfigurationError naming the parameter."""
    rng = rng or rng_for(cfg.seed, "init")
    params = {}
    for name, shape in parameter_shapes(cfg).items():
        try:
            if name.endswith(("norm.g", "norm1.g", "norm2.g")):
                params[name] = np.ones(shape)
            elif name.endswith(".b"):
                params[name] = np.zeros(shape)
            else:
                fan_in = int(np.prod(shape[1:])) if name.endswith("lepe") else shape[0]
                params[name] = rng.normal(0.0, 1.0 / math.sqrt(fan_in), shape)
        except (ValueError, MemoryError) as exc:
            raise ConfigurationError(f"cannot allocate parameter {name}: {exc}") from None
    return params


def zero_lepe(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Copy of the parameters with every depthwise positional kernel zeroed."""
    return {k: (np.zeros_like(v) if k.endswith("lepe") else v.copy())
            for k, v in params.items()}


def save_checkpoint(params: dict[str, np.ndarray], path_stem: str) -> tuple[str, str]:
    """Write a flat float64 <stem>.bin and <stem>.index.json with its byte count and sha256."""
    names = sorted(params)
    flat = np.concatenate([params[n].ravel() for n in names]).astype(np.float64, copy=False)
    index = {"dtype": "float64", "names": names,
             "shapes": {n: list(params[n].shape) for n in names},
             "bytes": flat.nbytes, "sha256": hashlib.sha256(flat).hexdigest()}
    idx_path, bin_path = path_stem + ".index.json", path_stem + ".bin"
    with open(idx_path, "w") as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
    flat.tofile(bin_path)
    return idx_path, bin_path


def load_checkpoint(path_stem: str) -> dict[str, np.ndarray]:
    """Read a checkpoint, checking its byte count and sha256 against the index first."""
    with open(path_stem + ".index.json") as fh:
        index = json.load(fh)
    with open(path_stem + ".bin", "rb") as fh:
        raw = fh.read()
    shapes = [tuple(index["shapes"][name]) for name in index["names"]]
    expected = sum(int(np.prod(shape)) for shape in shapes)
    if len(raw) != index.get("bytes") or len(raw) != 8 * expected:
        raise DimensionError(f"checkpoint {path_stem}.bin holds {len(raw) // 8} float64 values "
                             f"({len(raw)} bytes); its index records bytes={index.get('bytes')} "
                             f"and its shapes need {expected}")
    digest = hashlib.sha256(raw).hexdigest()
    if digest != index.get("sha256"):
        raise DimensionError(f"checkpoint {path_stem}.bin has sha256 {digest}; "
                             f"its index records sha256={index.get('sha256')}")
    flat = np.frombuffer(raw, dtype=np.float64)
    params, offset = {}, 0
    for name, shape in zip(index["names"], shapes):
        size = int(np.prod(shape))
        params[name] = flat[offset : offset + size].reshape(shape).copy()
        offset += size
    return params


# ---------------------------------------------------------------------------
# forward


def _corner(cfg: ModelConfig, g: int, rows: int):
    """The attention window side, the corner side c and the corner's row indices.

    The corner is the c x c square of whole windows at each sample's grid
    origin, c the least multiple of the window side that is >= 2, capped at
    g; full and linear attention have one window, the grid. The indices pick
    the corner of each of the rows / (g * g) samples, in sample order and
    row-major inside a corner; they are None when c == g. rows == 0 asks for
    no corner: c is g.
    """
    side = effective_window(cfg, g) if cfg.attention_variant == "window" else g
    c = min(g, side * -(-2 // side)) if rows else g
    if c == g:
        return side, c, None
    origin = (np.arange(c)[:, None] * g + np.arange(c)).ravel()
    return side, c, (np.arange(0, rows, g * g)[:, None] + origin).ravel()


def _attention_sublayer(tp, x, cfg: ModelConfig, stage: int, g: int, prefix: str,
                        readout: bool = False):
    """norm1, q/k/v, the variant's attention, LePE and the optional mix.

    Returns the attention output before the projection, and the values v.

    With readout it returns the output at each sample's first token only, one
    row per sample in sample order. It then computes the token mixing only on
    each sample's corner (_corner): the c x c whole attention windows at the
    grid origin. norm1 and v stay on all the rows of x; q, k, the attention,
    its tilings and LePE run on the b * c * c corner rows. When the stem has
    already cut x to the corners (averaging off, one block), g is c, the
    corner is the grid and every op runs on those rows. The
    result is bitwise that of the full-row sublayer at the first tokens:
    windows are independent, and the 3 x 3 LePE reach of token (0, 0) lies
    inside the corner, whose zero padding stands where the grid's did. y and
    v are gathered once per consumer, in the order the full-row ops consume
    them, so that backward sums each fan-out in the same order. The value
    mean is one row per sample on either path, and add broadcasts it.
    """
    dim = cfg.stage_dims[stage]
    heads = cfg.stage_heads[stage]
    hd = dim // heads
    n = g * g
    side, c, corner = _corner(cfg, g, x.value.shape[0] if readout else 0)

    def pick(t):  # the corner rows of t, gathered anew for each consumer
        return t if corner is None else ag.gather_rows(t, corner)

    y = ag.layer_norm(x, tp[prefix + "norm1.g"], tp[prefix + "norm1.b"])
    q = ag.matmul(pick(y), tp[prefix + "wq"])
    k = ag.matmul(pick(y), tp[prefix + "wk"])
    v = ag.matmul(y, tp[prefix + "wv"])

    if cfg.attention_variant == "window":
        qp, kp, vp = (ag.tile_grid(t, c, side) for t in (q, k, pick(v)))
        # every window and head rotates by the local positions inside its window
        ang = rope_angles(GridSpec.grid(side, side), hd)
        att = ag.blocked_softmax_attention(ag.rope_rotate(qp, ang), ag.rope_rotate(kp, ang),
                                           vp, side * side, heads)
        att = ag.tile_grid(att, c, side, inverse=True)
    elif cfg.attention_variant == "full":
        att = ag.blocked_softmax_attention(q, k, pick(v), n, heads)
    else:  # linear
        att = ag.blocked_linear_attention(ag.elu_plus_one(q), ag.elu_plus_one(k), pick(v), n,
                                          heads)

    att = ag.add(att, ag.depthwise_conv(pick(v), tp[prefix + "lepe"], c, c))
    if readout:  # the first row of each corner
        att = ag.gather_rows(att, np.arange(0, att.value.shape[0], c * c))
    if cfg.averaging_enabled:
        att = ag.add(att, ag.blocked_mean_broadcast(v, n))
    return att, v


def _block_forward(tp, x, cfg: ModelConfig, stage: int, g: int, prefix: str,
                   readout: bool = False):
    """One block; with readout it returns each sample's first token only.

    The attention sublayer then mixes tokens on each sample's corner only
    (see _attention_sublayer), and the projection, residuals, norm2 and MLP
    run on those rows.
    """
    att, _ = _attention_sublayer(tp, x, cfg, stage, g, prefix, readout)
    if readout:
        x = ag.gather_rows(x, np.arange(0, x.value.shape[0], g * g))
    att = ag.add(ag.matmul(att, tp[prefix + "proj.w"]), tp[prefix + "proj.b"])
    x = ag.add(x, att)

    z = ag.layer_norm(x, tp[prefix + "norm2.g"], tp[prefix + "norm2.b"])
    z = ag.add(ag.matmul(z, tp[prefix + "mlp.w1"]), tp[prefix + "mlp.b1"])
    z = ag.gelu(z)
    z = ag.add(ag.matmul(z, tp[prefix + "mlp.w2"]), tp[prefix + "mlp.b2"])
    return ag.add(x, z)


def patch_rows(cfg: ModelConfig, images) -> np.ndarray:
    """The stem's patch rows of (b, S, S, 3) images, S = cfg.image_size: (b * g0^2, p^2 * 3).

    g0 is the first stage's grid side and p the patch side. Rows are patches
    in row-major grid order per sample, each patch raveled row-major: one
    reshape/transpose copy, the stem's one image check and cut, off the tape.
    Images of another size h take dataclasses.replace(cfg, image_size=h).
    """
    images = as_array(images)
    size, p = cfg.image_size, cfg.patch_size
    if images.ndim != 4 or images.shape[1:] != (size, size, 3) or not images.shape[0]:
        raise ConfigurationError(f"patch_rows: images must be (b, {size}, {size}, 3), "
                                 f"{size} = cfg.image_size, with b >= 1, got {images.shape}")
    return ag._tiles(images.reshape(-1, 3), size, p, False).reshape(-1, p * p * 3)


def _forward_traced(tape, tp, cfg: ModelConfig, inputs: np.ndarray):
    """Logits on the tape, with the parameters tp traced on it, of (b, S, S, 3)
    images, S = cfg.image_size, or of their patch_rows table.

    patch_rows cuts images into the table. The table is a constant, so
    backward forms no gradient for it, and no local holds it: a tape that
    keeps no history frees it after the stem product. For the first-token
    readout the last block mixes tokens on each sample's corner and runs its
    tail on the readout rows only (see the module docstring and
    _attention_sublayer); the gap head averages all rows, and every block
    runs on all of them. With averaging off and the readout block the only
    block, its bias add, its norm and the block run on the b * c * c corner
    rows. A recording tape gathers them from the stem product on all
    b * g * g rows, so that stem.w's gradient sums the same rows; a tape that
    keeps no history gathers them from the table and multiplies only those.
    """
    p, grids = cfg.patch_size, stage_grids(cfg)
    n0 = grids[0] ** 2
    if inputs.ndim != 4 and (inputs.ndim != 2 or inputs.shape[1] != p * p * 3
                             or not inputs.shape[0] or inputs.shape[0] % n0):
        raise ConfigurationError(
            f"input must be (b, H, W, 3) images or patch rows of shape (b * {n0}, "
            f"{p * p * 3}) with b >= 1, got {inputs.shape}")
    x = ag.constant(tape, patch_rows(cfg, inputs) if inputs.ndim == 4 else inputs)
    corner = None
    if cfg.head_mode == "first_token" and not cfg.averaging_enabled and cfg.stage_depths == (1,):
        # the readout block is the only one, and no op before it mixes tokens
        _, c, corner = _corner(cfg, grids[0], x.value.shape[0])
        grids = [c]
    if corner is not None and not tape.record:  # no stem.w gradient: gather the table
        x, corner = ag.gather_rows(x, corner), None
    x = ag.matmul(x, tp["stem.w"])
    if corner is not None:
        x = ag.gather_rows(x, corner)
    x = ag.add(x, tp["stem.b"])
    x = ag.layer_norm(x, tp["stem.norm.g"], tp["stem.norm.b"])

    for s, g in enumerate(grids):
        if s > 0:
            x = ag.group_rows(ag.tile_grid(x, grids[s - 1], 2), 4)
            x = ag.layer_norm(x, tp[f"down{s}.norm.g"], tp[f"down{s}.norm.b"])
            x = ag.matmul(x, tp[f"down{s}.w"])
        depth = cfg.stage_depths[s]
        for i in range(depth):
            readout = cfg.head_mode == "first_token" and s == len(grids) - 1 and i == depth - 1
            x = _block_forward(tp, x, cfg, s, g, f"s{s}.b{i}.", readout)

    x = ag.layer_norm(x, tp["head.norm.g"], tp["head.norm.b"])
    if cfg.head_mode == "gap":
        x = ag.blocked_mean_broadcast(x, grids[-1] * grids[-1])
    return ag.add(ag.matmul(x, tp["head.w"]), tp["head.b"])


def _trace_params(tape, params: dict[str, np.ndarray]) -> dict[str, ag.TracedValue]:
    return {name: ag.leaf(tape, value) for name, value in params.items()}


def forward(cfg: ModelConfig, params: dict[str, np.ndarray], images) -> Tensor:
    """Classifier logits for a batch of (b, S, S, 3) images, S = cfg.image_size,
    or of their patch_rows table (bitwise the same logits). Images of another
    size h take dataclasses.replace(cfg, image_size=h) and the same params.

    Runs _forward_traced on a tape that keeps no history, the same path as
    training; with the first-token readout a batch of one may differ from a
    larger batch holding the same image in the last bits (module docstring).
    """
    tape = ag.Tape(record=False)
    tp = _trace_params(tape, params)
    logits = _forward_traced(tape, tp, cfg, as_array(images))
    return Tensor._own(logits.value)


# ---------------------------------------------------------------------------
# receptive-field probes (single block on the stage-1 grid)


def receptive_field_grid(cfg: ModelConfig, params: dict[str, np.ndarray],
                         token_i: int) -> np.ndarray:
    """Gradient magnitude of block-output token i w.r.t. every input token.

    Runs one stage-1 block on seeded random tokens; entry j is the Euclidean
    norm of d(sum of output row i) / d(input row j).
    """
    g = stage_grids(cfg)[0]
    n, dim = g * g, cfg.stage_dims[0]
    if not 0 <= token_i < n:
        raise ConfigurationError(f"token_i must be in 0..{n - 1}")
    rng = rng_for(cfg.seed, "probe")
    tape = ag.Tape()
    tp = _trace_params(tape, params)
    x = ag.leaf(tape, rng.standard_normal((n, dim)))
    out = _block_forward(tp, x, cfg, 0, g, "s0.b0.")
    loss = ag.sum_all(ag.gather_rows(out, [token_i]))
    grads = ag.backward(loss)
    return np.linalg.norm(grads[x.idx], axis=1)


# ---------------------------------------------------------------------------
# toy task and training


_N_TRAIN = _N_VAL = 256
_CORNER_TILE, _MARGIN_LO, _MARGIN_HI = 2, 12, 28
_MIN_GRID = 8  # the least g with (g * g - 2 * 2) // 2 >= 28, room for the largest margin


@dataclass(frozen=True)
class SyntheticTask:
    """Global-majority color task on a grid_tokens x grid_tokens grid of cells.

    Each sample is a grid of cells in two colors; the label is the color
    holding the global majority, with the margin drawn from 12..28 cells. The
    2 x 2 block at the origin (the readout token's window) is always
    color-balanced, so the label is genuinely undecidable from that window
    alone; the majority lives in the rest of the grid, spread uniformly at
    random. The largest margin needs a grid of at least 8 x 8.
    """

    grid_tokens: int = _MIN_GRID

    def __post_init__(self):
        g = self.grid_tokens
        if g < _MIN_GRID:
            raise ConfigurationError(f"the majority task needs a token grid of at least "
                                     f"{_MIN_GRID} x {_MIN_GRID}, got {g} x {g}")


_PALETTE = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def make_dataset(task: SyntheticTask, patch_size: int, count: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample (images, labels); images are (count, S, S, 3) cell rasters.

    Each sample draws its label, margin and cell colors in turn; the images
    are then rastered at once, one palette lookup and a repeat per axis.
    """
    g = task.grid_tokens
    ct = _CORNER_TILE
    in_corner = np.zeros((g, g), dtype=bool)
    in_corner[:ct, :ct] = True
    corner, rest = np.flatnonzero(in_corner), np.flatnonzero(~in_corner)
    n_rest = rest.size
    cells = np.empty((count, g * g), dtype=np.intp)
    labels = np.empty(count, dtype=np.intp)
    for s in range(count):
        label = int(rng.integers(0, 2))
        margin = int(rng.integers(_MARGIN_LO, _MARGIN_HI + 1))
        # balanced corner window: zero local information at the readout token
        cells[s, corner] = rng.permutation(np.repeat([label, 1 - label], ct * ct // 2))
        rest_colors = np.full(n_rest, 1 - label, dtype=np.intp)
        rest_colors[: n_rest // 2 + margin] = label
        cells[s, rest] = rng.permutation(rest_colors)
        labels[s] = label
    colors = _PALETTE[cells].reshape(count, g, g, 3)
    images = np.repeat(np.repeat(colors, patch_size, axis=1), patch_size, axis=2)
    return images, labels


@dataclass
class TrainToyResult:
    train_acc: list[float]
    val_acc: list[float]
    loss: list[float]
    best_val_acc: float
    best_epoch: int
    params: dict[str, np.ndarray] = field(repr=False, default_factory=dict)


def _accuracy(cfg, params, rows, labels) -> float:
    logits = forward(cfg, params, rows).array
    return float((logits.argmax(axis=1) == labels).mean())


_LR, _MOMENTUM, _BATCH = 0.05, 0.9, 64


def train_toy(cfg: ModelConfig, task: SyntheticTask, epochs: int, seed: int) -> TrainToyResult:
    """Deterministic SGD on the majority task; one metrics row per epoch.

    Batches of 64, momentum 0.9 and a cosine learning rate from 0.05. Epoch 0
    records the untrained model (chance level); epochs=0 evaluates only.
    Raises on a non-finite loss, naming the epoch.
    """
    if epochs < 0:
        raise ConfigurationError(f"epochs must be >= 0, got {epochs}")
    if cfg.num_classes != len(_PALETTE):
        raise ConfigurationError(
            f"the majority task is binary; the config has {cfg.num_classes} classes")
    if cfg.image_size != task.grid_tokens * cfg.patch_size:
        raise ConfigurationError(
            f"config image size {cfg.image_size} does not match task grid "
            f"{task.grid_tokens} x patch {cfg.patch_size}"
        )
    # the stem's patch rows replace the images, cut once; a step gathers its samples' rows
    train_x, train_y = make_dataset(task, cfg.patch_size, _N_TRAIN, rng_for(seed, "train"))
    train_x = patch_rows(cfg, train_x)
    val_x, val_y = make_dataset(task, cfg.patch_size, _N_VAL, rng_for(seed, "val"))
    val_x = patch_rows(cfg, val_x)
    samples = train_x.reshape(_N_TRAIN, -1, train_x.shape[1])
    params = init_params(cfg, rng_for(seed, "init"))
    velocity = {k: np.zeros_like(v) for k, v in params.items()}

    result = TrainToyResult(train_acc=[], val_acc=[], loss=[], best_val_acc=-1.0, best_epoch=0)

    def record(epoch: int, loss_value: float):
        tr = _accuracy(cfg, params, train_x, train_y)
        va = _accuracy(cfg, params, val_x, val_y)
        result.train_acc.append(tr)
        result.val_acc.append(va)
        result.loss.append(loss_value)
        if va > result.best_val_acc:
            result.best_val_acc = va
            result.best_epoch = epoch
            result.params = {k: v.copy() for k, v in params.items()}

    record(0, float("nan"))
    for epoch in range(1, epochs + 1):
        lr_e = 0.5 * _LR * (1.0 + math.cos(math.pi * (epoch - 1) / max(epochs, 1)))
        order = rng_for(seed, "order", epoch).permutation(_N_TRAIN)
        epoch_loss = 0.0
        for start in range(0, _N_TRAIN, _BATCH):
            batch = order[start : start + _BATCH]
            tape = ag.Tape()
            tp = _trace_params(tape, params)
            rows = samples[batch].reshape(-1, train_x.shape[1])
            logits = _forward_traced(tape, tp, cfg, rows)
            loss = ag.cross_entropy(logits, train_y[batch])
            loss_value = float(loss.value[0, 0])
            if not math.isfinite(loss_value):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            epoch_loss += loss_value * len(batch)
            grads = ag.backward(loss)
            for name in params:
                gparam = grads.get(tp[name].idx)
                if gparam is None:
                    continue
                velocity[name] = _MOMENTUM * velocity[name] - lr_e * gparam
                params[name] = params[name] + velocity[name]
        record(epoch, epoch_loss / _N_TRAIN)
    return result
