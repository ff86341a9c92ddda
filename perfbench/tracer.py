"""Spans and counters recorded by wrapping dispersionlab's functions from outside.

The library has no profiling hooks, so the traced run replaces every binding
that callers resolve at call time with a wrapper:

- module attributes, including by-name imports (``model.rope_angles`` is the
  same function object as ``posenc.rope_angles``, so both are wrapped);
- class methods (``Tensor.__init__``, ``Tape.push``, ``BoundedSampler.draw``);
- the entries of ``autograd.ADJOINTS``, which time each op's backward.

Each wrapper records a span ``[name, start, end, parent]``, in process CPU
seconds like the workloads' timings, and updates counters at the same
boundary. Spans stay in memory until the run ends. ``Patches``
remembers every original, and ``restore`` puts them all back, so the untraced
run executes the library exactly as shipped.
"""

from __future__ import annotations

import sys
import tracemalloc
import weakref
from collections import defaultdict
from time import process_time as clock

MIB = float(1 << 20)

ATTENTION_KERNELS = ("softmax_attention", "window_attention", "homogeneous_mix",
                     "sema_attention", "linear_attention_fast", "mila_attention")
# complexity_estimate's name for each kernel; mila has no cost model
_COST_MODEL = {"softmax_attention": "full", "window_attention": "window",
               "homogeneous_mix": "homogeneous_mix", "sema_attention": "sema",
               "linear_attention_fast": "linear"}
SWEEP_VARIANTS = ("softmax", "linear", "focused", "mila", "window")
SSM_FUNCTIONS = ("ssm_scan", "ssm_closed_form", "mamba_as_attention", "forgetting_horizon")
AUTOGRAD_OPS = ("matmul", "add", "layer_norm", "gelu", "blocked_softmax_attention",
                "blocked_mean_broadcast", "broadcast_row", "permute_rows", "cols",
                "concat_cols", "rope_rotate", "depthwise_conv", "group_rows",
                "cross_entropy")


class Patches:
    """Replaced bindings and their originals; ``restore`` undoes every one."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, key, new) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._saved.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, new)

    def replace_everywhere(self, original, new) -> int:
        """Rebind every dispersionlab module attribute that is ``original``."""
        count = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dispersionlab"
                                   or mod_name.startswith("dispersionlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, new)
                    count += 1
        return count

    def restore(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


class Tracer:
    """In-memory span recorder; single-threaded, like the closed loop it traces."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.peaks: defaultdict[str, float] = defaultdict(float)  # bytes
        self._stack: list[int] = []
        self._mem: list[list[float]] = []  # [base, highest peak seen by children]

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = clock()
        return span

    def close(self, span: list) -> None:
        span[2] = clock()
        self._stack.pop()

    def enclosing(self, suffix: str) -> str | None:
        """Name of the innermost open span ending in ``suffix``."""
        for idx in reversed(self._stack):
            name = self.spans[idx][0]
            if name.endswith(suffix):
                return name
        return None

    # -- allocation peaks (tracemalloc runs only inside metered calls) -------

    def _mem_enter(self) -> None:
        if not self._mem:
            tracemalloc.start()
        else:
            self._mem[-1][1] = max(self._mem[-1][1], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        self._mem.append([tracemalloc.get_traced_memory()[0], 0.0])

    def _mem_exit(self, name: str) -> None:
        base, seen = self._mem.pop()
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        self.peaks[name] = max(self.peaks[name], peak - base)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        else:
            tracemalloc.stop()

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn, name, after=None, metered=None):
        """Wrapper recording a span around ``fn``.

        ``name`` is a string or ``name(tracer, args, kwargs)``; ``after(tracer,
        name, args, kwargs, result)`` updates counters; ``metered(args)`` says
        whether to record the call's allocation peak.
        """
        tracer = self

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(tracer, args, kwargs)
            meter = metered is not None and metered(args)
            if meter:
                tracer._mem_enter()
            span = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.counts[f"{label}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                tracer.close(span)
                if meter:
                    tracer._mem_exit(label)
            if after is not None:
                after(tracer, label, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


# ---------------------------------------------------------------------------
# self time


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: defaultdict[int, list[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[idx]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# installing the wrappers


def install(tracer: Tracer, cell_peak_n: int) -> Patches:
    """Wrap every layer boundary named in the per-layer metric table."""
    from dispersionlab import analysis, attention, autograd, model, posenc, ssm, tensor

    patches = Patches()

    def everywhere(fn, name, after=None, metered=None):
        patches.replace_everywhere(fn, tracer.wrap(fn, name, after, metered))

    # tensor: every construction copies its input
    def tensor_bytes(tr, label, args, kwargs, result):
        tr.counts["tensor.bytes_copied"] += args[0].array.nbytes

    init = tensor.Tensor.__dict__["__init__"]
    patches.replace(tensor.Tensor, "__init__",
                    tracer.wrap(init, "tensor.construct", tensor_bytes))

    # posenc, including its by-name imports in attention, autograd, model, traced
    for fn_name in ("rope_angles", "depthwise_conv_grid", "rotate_pairs"):
        everywhere(getattr(posenc, fn_name), f"posenc.{fn_name}")

    # attention kernels, with multiply-adds from the closed-form cost model
    def kernel_madds(kernel):
        def after(tr, label, args, kwargs, result):
            n, d = args[0].shape
            win = args[3] if len(args) > 3 else kwargs.get("win")
            w = win.w if win is not None else None
            tr.counts[label + ".madds"] += analysis.complexity_estimate(_COST_MODEL[kernel], n, d, w)
        return after

    for kernel in ATTENTION_KERNELS:
        after = kernel_madds(kernel) if kernel in _COST_MODEL else None
        everywhere(getattr(attention, kernel), f"attention.{kernel}", after,
                   metered=lambda args: True)

    # analysis: whole sweeps, seeded draws, and the per-draw coefficient cells
    everywhere(analysis.measure_dispersion,
               lambda tr, args, kwargs: f"analysis.{args[0]}.sweep")

    def draw_name(tr, args, kwargs):
        sweep = tr.enclosing(".sweep")
        return sweep[: -len("sweep")] + "draw" if sweep else "analysis.unattributed.draw"

    patches.replace(analysis.BoundedSampler, "draw",
                    tracer.wrap(analysis.BoundedSampler.__dict__["draw"], draw_name))

    def cell_counts(tr, label, args, kwargs, result):
        tr.counts["analysis.cells"] += 1
        tr.counts["analysis.coeffs_checked"] += result[0].size

    patches.replace(analysis, "_variant_cell", tracer.wrap(
        analysis._variant_cell, lambda tr, args, kwargs: f"analysis.{args[0]}.cell",
        cell_counts, metered=lambda args: args[2].shape[0] >= cell_peak_n))

    # ssm: steps are sequence positions (m for the closed form at step m)
    def ssm_steps(fn_name):
        def after(tr, label, args, kwargs, result):
            steps = args[2] if fn_name == "ssm_closed_form" else args[0].n
            tr.counts[label + ".steps"] += steps
        return after

    for fn_name in SSM_FUNCTIONS:
        everywhere(getattr(ssm, fn_name), f"ssm.{fn_name}", ssm_steps(fn_name))

    # autograd: forward ops, their adjoints, backward, and every tape node
    def out_bytes(tr, label, args, kwargs, result):
        tr.counts[label + ".out_bytes"] += result.value.nbytes

    for op in AUTOGRAD_OPS:
        everywhere(getattr(autograd, op), f"autograd.{op}", out_bytes)
        patches.replace(autograd.ADJOINTS, op,
                        tracer.wrap(autograd.ADJOINTS[op], f"autograd.{op}.bwd"))

    tape_bytes: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def push_counts(tr, label, args, kwargs, result):
        tape = args[0]
        nbytes = tape.nodes[-1].value.nbytes
        tape_bytes[tape] = tape_bytes.get(tape, 0) + nbytes
        tr.counts["autograd.tape_nodes"] += 1
        tr.counts["autograd.tape_bytes"] += nbytes

    def backward_counts(tr, label, args, kwargs, result):
        tr.counts["autograd.tape_bytes_backward"] += tape_bytes.get(args[0].tape, 0)

    patches.replace(autograd.Tape, "push",
                    tracer.wrap(autograd.Tape.__dict__["push"], "autograd.push", push_counts))
    everywhere(autograd.backward, "autograd.backward", backward_counts)

    # model
    for fn_name in ("forward", "train_toy", "make_dataset", "init_params"):
        everywhere(getattr(model, fn_name), f"model.{fn_name}")
    return patches


def install_perturbation(qualified: str, epsilon: float) -> Patches:
    """Negative control: add ``epsilon`` to every output of one function."""
    import importlib

    from dispersionlab.tensor import Tensor

    mod_name, fn_name = qualified.rsplit(".", 1)
    original = getattr(importlib.import_module(f"dispersionlab.{mod_name}"), fn_name)

    def perturbed(*args, **kwargs):
        return Tensor(original(*args, **kwargs).array + epsilon)

    patches = Patches()
    if not patches.replace_everywhere(original, perturbed):
        raise ValueError(f"no binding of dispersionlab.{qualified} to perturb")
    return patches


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``; 0 where unused."""
    spans = tracer.spans
    own = self_times(spans)
    calls: defaultdict[str, int] = defaultdict(int)
    total: defaultdict[str, float] = defaultdict(float)
    self_s: defaultdict[str, float] = defaultdict(float)
    for (name, start, end, _), s in zip(spans, own):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += s
    counts, peaks = tracer.counts, tracer.peaks

    def rate(num: float, seconds: float) -> float:
        return num / seconds if seconds > 0 else 0.0

    m: dict[str, tuple[float, str]] = {}
    m["tensor.construct_calls"] = (calls["tensor.construct"], "count")
    m["tensor.construct_s"] = (total["tensor.construct"], "s")
    m["tensor.bytes_copied"] = (counts["tensor.bytes_copied"], "B")

    m["posenc.rope_angles.calls"] = (calls["posenc.rope_angles"], "count")
    m["posenc.rope_angles.s"] = (total["posenc.rope_angles"], "s")
    m["posenc.depthwise_conv_grid.calls"] = (calls["posenc.depthwise_conv_grid"], "count")
    m["posenc.depthwise_conv_grid.s"] = (total["posenc.depthwise_conv_grid"], "s")
    m["posenc.rotate_pairs.s"] = (total["posenc.rotate_pairs"], "s")

    for k in ATTENTION_KERNELS:
        key = f"attention.{k}"
        m[f"{key}.calls"] = (calls[key], "count")
        m[f"{key}.self_s"] = (self_s[key], "s")
        m[f"{key}.peak_alloc_mb"] = (peaks[key] / MIB, "MB")
        if k in _COST_MODEL:
            m[f"{key}.madds_per_s"] = (rate(counts[key + ".madds"], total[key]), "1/s")

    for v in SWEEP_VARIANTS:
        key = f"analysis.{v}"
        m[f"{key}.sweep_s"] = (total[key + ".sweep"], "s")
        m[f"{key}.draw_s"] = (total[key + ".draw"], "s")
        m[f"{key}.cell_peak_alloc_mb"] = (peaks[key + ".cell"] / MIB, "MB")
    m["analysis.cells"] = (counts["analysis.cells"], "count")
    m["analysis.coeffs_checked"] = (counts["analysis.coeffs_checked"], "count")
    m["analysis.bound_violations"] = (sum(
        n for key, n in counts.items()
        if key.startswith("analysis.") and key.endswith(".raised.BoundViolationError")), "count")

    for f in SSM_FUNCTIONS:
        key = f"ssm.{f}"
        m[f"{key}.calls"] = (calls[key], "count")
        m[f"{key}.s"] = (total[key], "s")
        m[f"{key}.steps_per_s"] = (rate(counts[key + ".steps"], total[key]), "1/s")

    for op in AUTOGRAD_OPS:
        key = f"autograd.{op}"
        m[f"{key}.calls"] = (calls[key], "count")
        m[f"{key}.fwd_s"] = (total[key], "s")
        m[f"{key}.bwd_s"] = (total[key + ".bwd"], "s")
        m[f"{key}.out_bytes"] = (counts[key + ".out_bytes"], "B")
    m["autograd.backward_s"] = (total["autograd.backward"], "s")
    m["autograd.tape_nodes"] = (counts["autograd.tape_nodes"], "count")
    m["autograd.tape_mb"] = (counts["autograd.tape_bytes"] / MIB, "MB")
    m["autograd.tape_mb_discarded"] = (
        (counts["autograd.tape_bytes"] - counts["autograd.tape_bytes_backward"]) / MIB, "MB")

    m["model.forward.calls"] = (calls["model.forward"], "count")
    m["model.forward.s"] = (total["model.forward"], "s")
    m["model.train_toy.self_s"] = (self_s["model.train_toy"], "s")
    m["model.eval_share"] = (rate(_time_inside(spans, "model.forward", "model.train_toy"),
                                  total["model.train_toy"]), "ratio")
    m["model.make_dataset.s"] = (total["model.make_dataset"], "s")
    m["model.init_params.s"] = (total["model.init_params"], "s")
    return m


def _time_inside(spans, name: str, ancestor: str) -> float:
    """Total duration of ``name`` spans that run inside an ``ancestor`` span."""
    seconds = 0.0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        if parent >= 0:
            seconds += span[2] - span[1]
    return seconds
