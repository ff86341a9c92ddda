"""Toy-scale SEMA backbone: stem, staged window-attention blocks, classifier.

The block follows the Mamba-like macro layout (pre-norm, attention sublayer,
residual, pre-norm, MLP, residual). The attention sublayer assembles window
softmax attention over non-overlapping w x w spatial windows (with rotary
embeddings on the windowed queries and keys), a depthwise positional term on
the values over the stage grid, and, when averaging is enabled, the
homogeneous mixing term that broadcasts the value mean to every token.
Ablation toggles swap the window path for global linear or full softmax
attention and switch the averaging term off.

Tokens are rows in row-major grid order per sample; the stem patchify, each
2 x 2 downsample and the window partition tile them by one reshape/transpose
(ag.tile_grid), and ag.add broadcasts every 1 x d bias over the rows.

Everything runs on the autograd tape, so receptive-field probes and toy
training reuse the same forward; inference runs it on a tape that keeps no
history, so it holds one block's working set rather than the whole pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .errors import ConfigurationError, DimensionError, TrainingError
from .posenc import GridSpec, rope_angles
from .rng import rng_for
from .tensor import Tensor, as_array

ATTENTION_VARIANTS = ("window", "linear", "full")


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
        if not (len(self.stage_dims) == len(self.stage_depths) == len(self.stage_heads)):
            raise ConfigurationError("stage lists must share one length")
        if len(self.stage_dims) < 1:
            raise ConfigurationError("need at least one stage")
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
    def tiny_224(cls, num_classes: int = 1000) -> "ModelConfig":
        return cls(stage_dims=(64, 128, 256, 512), stage_depths=(2, 4, 8, 4),
                   stage_heads=(2, 4, 8, 16), window=7, patch_size=4,
                   num_classes=num_classes, image_size=224)

    @classmethod
    def toy(cls, **overrides) -> "ModelConfig":
        base = dict(stage_dims=(16, 32, 64, 128), stage_depths=(1, 1, 2, 1),
                    stage_heads=(1, 2, 4, 8), window=4, patch_size=4,
                    num_classes=10, image_size=64)
        base.update(overrides)
        return cls(**base)

    def to_json(self) -> str:
        obj = {k: (list(v) if isinstance(v, tuple) else v) for k, v in self.__dict__.items()}
        return json.dumps(obj, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        return cls(**json.loads(text))


def stage_grids(cfg: ModelConfig, image_size: int | None = None) -> list[int]:
    """Token grid side per stage; raises naming the first failing stage."""
    size = image_size or cfg.image_size
    if size % cfg.patch_size != 0:
        raise ConfigurationError(
            f"stem: image size {size} not divisible by patch size {cfg.patch_size}"
        )
    grids = []
    g = size // cfg.patch_size
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
    """Fan-in-scaled normal init for weights; ones/zeros for norms and biases."""
    rng = rng or rng_for(cfg.seed, "init")
    params = {}
    for name, shape in parameter_shapes(cfg).items():
        if name.endswith("norm.g") or name.endswith("norm1.g") or name.endswith("norm2.g"):
            params[name] = np.ones(shape)
        elif name.endswith(".b") or name.endswith("norm.b"):
            params[name] = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[1:])) if name.endswith("lepe") else shape[0]
            params[name] = rng.normal(0.0, 1.0 / math.sqrt(fan_in), shape)
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


def _block_forward(tp, x, cfg: ModelConfig, stage: int, g: int, prefix: str,
                   capture: list | None = None):
    dim = cfg.stage_dims[stage]
    heads = cfg.stage_heads[stage]
    hd = dim // heads
    n = g * g
    y = ag.layer_norm(x, tp[prefix + "norm1.g"], tp[prefix + "norm1.b"])
    q = ag.matmul(y, tp[prefix + "wq"])
    k = ag.matmul(y, tp[prefix + "wk"])
    v = ag.matmul(y, tp[prefix + "wv"])

    if cfg.attention_variant == "window":
        w_eff = effective_window(cfg, g)
        qp, kp, vp = (ag.tile_grid(t, g, w_eff) for t in (q, k, v))
        # every window and head rotates by the local positions inside its window
        ang = rope_angles(GridSpec.grid(w_eff, w_eff), hd)
        att = ag.blocked_softmax_attention(ag.rope_rotate(qp, ang), ag.rope_rotate(kp, ang),
                                           vp, w_eff * w_eff, heads)
        att = ag.tile_grid(att, g, w_eff, inverse=True)
    elif cfg.attention_variant == "full":
        att = ag.blocked_softmax_attention(q, k, v, n, heads)
    else:  # linear
        att = ag.blocked_linear_attention(ag.elu_plus_one(q), ag.elu_plus_one(k), v, n, heads)

    att = ag.add(att, ag.depthwise_conv(v, tp[prefix + "lepe"], g, g))
    if cfg.averaging_enabled:
        att = ag.add(att, ag.blocked_mean_broadcast(v, n))
    if capture is not None:
        capture.append({"attn_out": att.value.copy(), "v": v.value.copy(), "tokens": n})
    att = ag.add(ag.matmul(att, tp[prefix + "proj.w"]), tp[prefix + "proj.b"])
    x = ag.add(x, att)

    z = ag.layer_norm(x, tp[prefix + "norm2.g"], tp[prefix + "norm2.b"])
    z = ag.add(ag.matmul(z, tp[prefix + "mlp.w1"]), tp[prefix + "mlp.b1"])
    z = ag.gelu(z)
    z = ag.add(ag.matmul(z, tp[prefix + "mlp.w2"]), tp[prefix + "mlp.b2"])
    return ag.add(x, z)


def _forward_traced(tape, tp, cfg: ModelConfig, images: np.ndarray,
                    capture: list | None = None):
    if images.ndim != 4 or images.shape[3] != 3:
        raise ConfigurationError(f"images must be (b, H, W, 3), got {images.shape}")
    b, h, w, _ = images.shape
    if h != w:
        raise ConfigurationError(f"square inputs required, got {h}x{w}")
    grids = stage_grids(cfg, image_size=h)

    x = ag.leaf(tape, images.reshape(b * h * w, 3))
    x = ag.group_rows(ag.tile_grid(x, h, cfg.patch_size), cfg.patch_size * cfg.patch_size)
    x = ag.add(ag.matmul(x, tp["stem.w"]), tp["stem.b"])
    x = ag.layer_norm(x, tp["stem.norm.g"], tp["stem.norm.b"])

    for s, g in enumerate(grids):
        if s > 0:
            x = ag.group_rows(ag.tile_grid(x, grids[s - 1], 2), 4)
            x = ag.layer_norm(x, tp[f"down{s}.norm.g"], tp[f"down{s}.norm.b"])
            x = ag.matmul(x, tp[f"down{s}.w"])
        for i in range(cfg.stage_depths[s]):
            x = _block_forward(tp, x, cfg, s, g, f"s{s}.b{i}.", capture)

    x = ag.layer_norm(x, tp["head.norm.g"], tp["head.norm.b"])
    n_last = grids[-1] * grids[-1]
    starts = np.arange(b) * n_last
    if cfg.head_mode == "gap":
        x = ag.gather_rows(ag.blocked_mean_broadcast(x, n_last), starts)
    else:
        x = ag.gather_rows(x, starts)
    return ag.add(ag.matmul(x, tp["head.w"]), tp["head.b"])


def _trace_params(tape, params: dict[str, np.ndarray]) -> dict[str, ag.TracedValue]:
    return {name: ag.leaf(tape, value) for name, value in params.items()}


def forward(cfg: ModelConfig, params: dict[str, np.ndarray], images) -> Tensor:
    """Classifier logits for a batch of (b, H, W, 3) images."""
    tape = ag.Tape(record=False)
    tp = _trace_params(tape, params)
    logits = _forward_traced(tape, tp, cfg, as_array(images))
    return Tensor._own(logits.value)


def forward_with_capture(cfg: ModelConfig, params: dict[str, np.ndarray], images):
    """Forward plus each block's attention-sublayer output and value matrix."""
    tape = ag.Tape(record=False)
    tp = _trace_params(tape, params)
    capture: list = []
    logits = _forward_traced(tape, tp, cfg, as_array(images), capture)
    return Tensor._own(logits.value), capture


# ---------------------------------------------------------------------------
# receptive-field probes (single block on the stage-1 grid)


def _single_block_grid(cfg: ModelConfig) -> int:
    return stage_grids(cfg)[0]


def receptive_field_grid(cfg: ModelConfig, params: dict[str, np.ndarray],
                         token_i: int) -> np.ndarray:
    """Gradient magnitude of block-output token i w.r.t. every input token.

    Runs one stage-1 block on seeded random tokens; entry j is the Euclidean
    norm of d(sum of output row i) / d(input row j).
    """
    g = _single_block_grid(cfg)
    n, dim = g * g, cfg.stage_dims[0]
    if not 0 <= token_i < n:
        raise ConfigurationError(f"token_i must be in 0..{n - 1}")
    rng = rng_for(cfg.seed, "probe")
    tape = ag.Tape()
    tp = _trace_params(tape, params)
    x = ag.leaf(tape, rng.standard_normal((n, dim)))
    out = _block_forward(tp, x, cfg, 0, g, "s0.b0.")
    loss = ag.sum_all(ag.rows(out, token_i, token_i + 1))
    grads = ag.backward(loss)
    return np.linalg.norm(grads[x.idx], axis=1)


def receptive_field_probe(cfg: ModelConfig, params: dict[str, np.ndarray],
                          token_i: int, token_j: int) -> float:
    """Magnitude of the output-i/input-j Jacobian block after one block."""
    return float(receptive_field_grid(cfg, params, token_i)[token_j])


# ---------------------------------------------------------------------------
# toy task and training


@dataclass(frozen=True)
class SyntheticTask:
    """Global-majority color task.

    Each sample is a grid of colored cells; the label is the color holding
    the global majority, with the margin drawn from [margin_lo, margin_hi]
    cells. The corner_tile x corner_tile block at the origin (the readout
    token's window) is always color-balanced, so the label is genuinely
    undecidable from that window alone; the majority lives in the rest of
    the grid, spread uniformly at random.
    """

    grid_tokens: int = 8
    n_train: int = 256
    n_val: int = 256
    margin_lo: int = 12
    margin_hi: int = 28
    corner_tile: int = 2
    num_classes: int = 2

    def __post_init__(self):
        if self.num_classes != 2:
            raise ConfigurationError("the majority task is binary in this version")
        n_rest = self.grid_tokens * self.grid_tokens - self.corner_tile**2
        if self.corner_tile**2 % 2 != 0:
            raise ConfigurationError("corner tile must hold an even cell count")
        if not 1 <= self.margin_lo <= self.margin_hi <= n_rest // 2:
            raise ConfigurationError("margins must satisfy 1 <= lo <= hi <= rest/2")


_PALETTE = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def make_dataset(task: SyntheticTask, patch_size: int, count: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample (images, labels); images are (count, S, S, 3) cell rasters."""
    g = task.grid_tokens
    ct = task.corner_tile
    size = g * patch_size
    corner = [(r, c) for r in range(ct) for c in range(ct)]
    rest = [(r, c) for r in range(g) for c in range(g) if (r, c) not in corner]
    n_rest = len(rest)
    images = np.empty((count, size, size, 3))
    labels = np.empty(count, dtype=np.intp)
    for s in range(count):
        label = int(rng.integers(0, 2))
        margin = int(rng.integers(task.margin_lo, task.margin_hi + 1))
        cells = np.empty((g, g), dtype=np.intp)
        # balanced corner window: zero local information at the readout token
        corner_colors = np.repeat([label, 1 - label], ct * ct // 2)
        for (r, c), col in zip(corner, rng.permutation(corner_colors)):
            cells[r, c] = col
        rest_colors = np.full(n_rest, 1 - label, dtype=np.intp)
        rest_colors[: n_rest // 2 + margin] = label
        for (r, c), col in zip(rest, rng.permutation(rest_colors)):
            cells[r, c] = col
        colors = _PALETTE[cells.ravel()].reshape(g, g, 3)
        images[s] = np.repeat(np.repeat(colors, patch_size, axis=0), patch_size, axis=1)
        labels[s] = label
    return images, labels


@dataclass
class TrainToyResult:
    train_acc: list[float]
    val_acc: list[float]
    loss: list[float]
    best_val_acc: float
    best_epoch: int
    params: dict[str, np.ndarray] = field(repr=False, default_factory=dict)


def _accuracy(cfg, params, images, labels) -> float:
    logits = forward(cfg, params, images).array
    return float((logits.argmax(axis=1) == labels).mean())


def train_toy(cfg: ModelConfig, task: SyntheticTask, epochs: int, seed: int,
              lr: float = 0.05, momentum: float = 0.9,
              batch_size: int = 64) -> TrainToyResult:
    """Deterministic SGD on the majority task; one metrics row per epoch.

    Epoch 0 records the untrained model (chance level); epochs=0 evaluates
    only. Raises on a non-finite loss, naming the epoch.
    """
    if epochs < 0:
        raise ConfigurationError(f"epochs must be >= 0, got {epochs}")
    if cfg.num_classes != task.num_classes:
        raise ConfigurationError("config and task class counts differ")
    if cfg.image_size != task.grid_tokens * cfg.patch_size:
        raise ConfigurationError(
            f"config image size {cfg.image_size} does not match task grid "
            f"{task.grid_tokens} x patch {cfg.patch_size}"
        )
    train_x, train_y = make_dataset(task, cfg.patch_size, task.n_train, rng_for(seed, "train"))
    val_x, val_y = make_dataset(task, cfg.patch_size, task.n_val, rng_for(seed, "val"))
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
        lr_e = 0.5 * lr * (1.0 + math.cos(math.pi * (epoch - 1) / max(epochs, 1)))
        order = rng_for(seed, "order", epoch).permutation(task.n_train)
        epoch_loss = 0.0
        for start in range(0, task.n_train, batch_size):
            batch = order[start : start + batch_size]
            tape = ag.Tape()
            tp = _trace_params(tape, params)
            logits = _forward_traced(tape, tp, cfg, train_x[batch])
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
                velocity[name] = momentum * velocity[name] - lr_e * gparam
                params[name] = params[name] + velocity[name]
        record(epoch, epoch_loss / task.n_train)
    return result
