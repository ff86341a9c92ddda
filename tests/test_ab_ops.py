import gc
import importlib.util
import struct
from pathlib import Path

import numpy as np
import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def ab_ops(monkeypatch):
    monkeypatch.syspath_prepend(str(_TOOLS))  # for its bench_summary import
    spec = importlib.util.spec_from_file_location("ab_ops", _TOOLS / "ab_ops.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

# stand-ins for the two trees' packages: the cells spin WORK steps and return
# their tree's answer; the relative import checks that each tree loads its own
_STUB_ANALYSIS = """
from .attention import WindowSpec, TREE

WORK = {work}
DIFFER = {differ!r}


class BoundedSampler:
    def __init__(self, d, nonneg=False, tile_rows=None):
        self.d = d

    def draw(self, rng, n):
        return rng.standard_normal((2, 4, self.d))


def default_kernel(variant):
    return variant


def _variant_cell(variant, kernel, q, k, win):
    sum(range(WORK))
    cmax = float(q.sum()) + (1.0 if variant == DIFFER else 0.0)
    return (cmax, kernel, win is not None), (0.0, 1.0)
"""

_STUB_ATTENTION = """
import numpy as np

TREE = {tree!r}
DIFFER = {differ!r}


class WindowSpec:
    def __init__(self, w):
        self.w = w


def softmax_attention(q, k, v):
    return q[:2, :2] + k[:2, :2]


def sema_attention(q, k, v, win):
    return q[:2, :2] + v[:2, :2] + (1.0 if DIFFER == "sema" else 0.0)
"""


# a tape whose layer_norm node keeps its input, and an adjoint that returns it
# with the upstream gradient; DIFFER names the call whose change output moves
_STUB_AUTOGRAD = """
DIFFER = {differ!r}


class Tape:
    pass


class Traced:
    def __init__(self, value):
        self.value = value
        self.node = self


def leaf(tape, value):
    return Traced(value)


def layer_norm(x, gamma, beta):
    return Traced(x.value * gamma.value + beta.value)


def _adjoint(node, g, vals):
    return (g + (1.0 if DIFFER == "layer_norm" else 0.0), vals[1], vals[2])


ADJOINTS = {{"layer_norm": _adjoint}}
"""

# train_toy returns a dataclass whose params dict holds arrays, as the real
# TrainToyResult does; averaging off moves its params when DIFFER says so, and
# forward moves its logits, on images and on a patch_rows table
_STUB_MODEL = """
import dataclasses

import numpy as np

DIFFER = {differ!r}


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    averaging_enabled: bool = True
    image_size: int = 2

    @classmethod
    def ablation(cls, **overrides):
        return cls(**overrides)

    @classmethod
    def tiny_224(cls):
        return cls()


class SyntheticTask:
    pass


@dataclasses.dataclass
class TrainToyResult:
    best_epoch: int
    params: dict


def train_toy(cfg, task, epochs, seed):
    moved = DIFFER == "train_toy" and not cfg.averaging_enabled
    return TrainToyResult(epochs, {{"w": np.full((2, 2), float(seed + moved)),
                                   "b": np.zeros(2)}})


def init_params(cfg):
    return {{"w": np.ones((3, 2))}}


def patch_rows(cfg, images):
    return images.reshape(-1, 12)


def forward(cfg, params, images):
    logits = images.reshape(len(images), -1)[:, :3] @ params["w"]
    return logits + (1.0 if DIFFER == "forward" else 0.0)
"""

# SsmParams is a dataclass, as the real one is; the change's forms_max_diff
# moves its float when DIFFER says so
_STUB_SSM = """
import dataclasses

import numpy as np

DIFFER = {differ!r}


@dataclasses.dataclass
class SsmParams:
    A_tilde: np.ndarray
    h0: np.ndarray

    @classmethod
    def random(cls, rng, n, d_state, channels):
        return cls(rng.random((n, d_state, channels)), rng.random((d_state, channels)))


def forms_max_diff(p, x):
    return float(p.A_tilde.sum() + x.sum()) + (1.0 if DIFFER == "forms_max_diff" else 0.0)
"""


def _stub_trees(tmp_path, differ=None):
    for tree, work in (("parent", 40000), ("change", 20000)):
        package = tmp_path / tree / "src" / "dispersionlab"
        package.mkdir(parents=True)
        moved = differ if tree == "change" else None
        (package / "__init__.py").write_text(
            "from . import analysis, attention, autograd, model, ssm\n")
        (package / "analysis.py").write_text(_STUB_ANALYSIS.format(work=work, differ=moved))
        (package / "attention.py").write_text(_STUB_ATTENTION.format(tree=tree, differ=moved))
        (package / "ssm.py").write_text(_STUB_SSM.format(differ=moved))
        (package / "autograd.py").write_text(_STUB_AUTOGRAD.format(differ=moved))
        (package / "model.py").write_text(_STUB_MODEL.format(differ=moved))
    return [str(tmp_path / "parent"), str(tmp_path / "change")]


def _lines(capsys, pairs):
    header, *lines = capsys.readouterr().out.splitlines()
    assert f"{pairs} pairs" in header
    return {line[:32].strip(): line[32:].split() for line in lines}


def test_pairs_time_and_compare_every_call(ab_ops, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ab_ops, "BATCH_S", 0.01)
    assert ab_ops.main(_stub_trees(tmp_path) + ["--pairs", "3"]) == 0
    lines = _lines(capsys, 3)
    cells = [f"_variant_cell {v} n={n}" for n in (1024, 4096) for v in ab_ops.VARIANTS]
    assert list(lines) == cells + ["softmax_attention n=4096", "layer_norm+adjoint n=4096 d=8",
                                   "layer_norm+adjoint n=16384 d=8", "train_toy averaging=on",
                                   "train_toy averaging=off", "forward tiny_224 batch=1 images",
                                   "forward ablation off b=256 table",
                                   "forms_max_diff n=256 d=8 c=8",
                                   "sema_attention n=65536 d=64 w=8"]
    assert all(fields[-2:] == ["bitwise", "equal"] for fields in lines.values())
    ratios = [float(lines[cell][lines[cell].index("ratio") + 1]) for cell in cells]
    assert np.median(ratios) < 1.0  # the change's cells spin half as long
    for fields in lines.values():  # the interval holds the median ratio
        i = fields.index("ratio")
        low, high = float(fields[i + 2].strip("[,")), float(fields[i + 3].strip("]"))
        assert low <= float(fields[i + 1]) <= high


@pytest.mark.parametrize("moved,named", [
    ("mila", ["_variant_cell mila n=1024", "_variant_cell mila n=4096"]),
    ("layer_norm", ["layer_norm+adjoint n=4096 d=8", "layer_norm+adjoint n=16384 d=8"]),
    ("train_toy", ["train_toy averaging=off"]),
    ("forward", ["forward tiny_224 batch=1 images", "forward ablation off b=256 table"]),
    ("forms_max_diff", ["forms_max_diff n=256 d=8 c=8"]),
    ("sema", ["sema_attention n=65536 d=64 w=8"]),
])
def test_differing_outputs_are_named_and_fail(ab_ops, tmp_path, monkeypatch, capsys, moved,
                                              named):
    monkeypatch.setattr(ab_ops, "BATCH_S", 0.001)
    assert ab_ops.main(_stub_trees(tmp_path, differ=moved) + ["--pairs", "1"]) == 1
    differ = [label for label, fields in _lines(capsys, 1).items() if "DIFFER" in fields]
    assert differ == named


@pytest.mark.parametrize("differ,status", [(None, 0), ("sema", 1)])
def test_only_reruns_the_call_of_one_label(ab_ops, tmp_path, monkeypatch, capsys, differ, status):
    monkeypatch.setattr(ab_ops, "BATCH_S", 0.001)
    label = "sema_attention n=65536 d=64 w=8"
    assert ab_ops.main(_stub_trees(tmp_path, differ) + ["--pairs", "2", "--only", label]) == status
    assert list(_lines(capsys, 2)) == [label]
    assert gc.get_freeze_count() == 0  # the heap frozen for the pairs is handed back


def test_only_an_unknown_label_is_one_error_line(ab_ops, tmp_path, capsys):
    assert ab_ops.main(_stub_trees(tmp_path) + ["--only", "softmax_attention"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "'softmax_attention'" in err


def test_each_tree_loads_its_own_package(ab_ops, tmp_path):
    parent, change = _stub_trees(tmp_path)
    loaded = [ab_ops.load(name, Path(tree)) for name, tree in (("a_pkg", parent), ("b_pkg", change))]
    assert [ab_ops.sub(pkg, "analysis").TREE for pkg in loaded] == ["parent", "change"]
    assert ab_ops.sub(loaded[1], "analysis").WORK == 20000


def test_unusable_arguments(ab_ops, tmp_path):
    trees = _stub_trees(tmp_path)
    assert ab_ops.main([trees[0], str(tmp_path / "none")]) == 2
    assert ab_ops.main(trees + ["--pairs", "0"]) == 2


@pytest.mark.parametrize("a,b", [(0.0, -0.0), (float("nan"), struct.unpack("<d", struct.pack(
    "<Q", 0x7FF8000000000001))[0]), (np.zeros(2), np.zeros((1, 2)))])
def test_bits_tell_apart_what_equality_does_not(ab_ops, a, b):
    assert ab_ops.bits((a, [a])) == ab_ops.bits((a, [a]))
    assert ab_ops.bits((a, [a])) != ab_ops.bits((b, [b]))


def test_bits_compare_dicts_key_by_key(ab_ops):
    params = {"w": np.ones((2, 2)), "b": np.zeros(2)}
    assert ab_ops.bits(params) == ab_ops.bits({"b": np.zeros(2), "w": np.ones((2, 2))})
    for other in ({"w": np.ones((2, 2)), "b": np.full(2, -0.0)}, {"w": np.ones((2, 2))},
                  {"w": np.ones((2, 2)), "c": np.zeros(2)}):
        assert ab_ops.bits(params) != ab_ops.bits(other)
