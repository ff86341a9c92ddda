import dataclasses
import itertools
import math
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispersionlab import analysis, attention, posenc
from dispersionlab import autograd as ag
from dispersionlab.analysis import (
    TIMED_KERNELS,
    VARIANTS,
    BoundedSampler,
    DispersionReport,
    coefficient_bounds,
    complexity_estimate,
    default_kernel,
    fit_decay_slope,
    instrumented_counts,
    measure_dispersion,
    remark_counterexample,
    scaling_fit,
)
from dispersionlab.attention import KernelSpec, WindowSpec
from dispersionlab.errors import BoundViolationError, ConfigurationError, KernelDomainError
from dispersionlab.rng import rng_for


class TestCoefficientBounds:
    def test_constant_kernel_collapses_to_uniform(self):
        for n in (1, 10, 1000):
            lo, hi = coefficient_bounds(KernelSpec.softmax(), 0.5, 0.5, n, 0.0)
            assert lo == hi == pytest.approx(1.0 / n)

    def test_exp_kernel_on_unit_logit_range(self):
        lo, hi = coefficient_bounds(KernelSpec.softmax(), -1.0, 1.0, 10, 0.0)
        assert lo == pytest.approx(math.exp(-2) / 10, abs=1e-6)
        assert hi == pytest.approx(math.exp(2) / 10, abs=1e-6)

    def test_stabilizer_joins_only_the_lower_denominator(self):
        lo, hi = coefficient_bounds(KernelSpec.linear(), 1.0, 2.0, 4, 1e-6)
        assert lo == 1.0 / (4 * 2.0 + 1e-6) and hi == 2.0 / (4 * 1.0)

    def test_validation(self):
        # phi(a) = 0, phi(a) > phi(b) and phi(b) = inf give no bound
        for kernel, lo, hi in ((KernelSpec.linear(), 0.0, 1.0), (KernelSpec.softmax(), 1.0, -1.0),
                               (KernelSpec.softmax(), 0.0, 1000.0)):
            with np.errstate(over="ignore"), pytest.raises(
                    KernelDomainError, match="^phi overflows or underflows"):
                coefficient_bounds(kernel, lo, hi, 4, 0.0)


class TestFitDecaySlope:
    def _report(self, n_values, max_coeff):
        return DispersionReport(variant="softmax", n_values=list(n_values),
                                max_coeff=list(max_coeff),
                                min_coeff=list(max_coeff),
                                upper_bound=list(max_coeff),
                                lower_bound=list(max_coeff),
                                slope=0.0, samples=1, seed=0)

    def test_exact_inverse_law(self):
        ns = [16, 32, 64, 128]
        slope = fit_decay_slope(self._report(ns, [3.0 / n for n in ns]))
        assert slope == pytest.approx(-1.0, abs=1e-10)

    def test_constant_gives_zero(self):
        assert fit_decay_slope(self._report([8, 16, 32], [0.25] * 3)) == 0.0

    def test_inverse_sqrt_law(self):
        ns = [16, 64, 256, 1024]
        slope = fit_decay_slope(self._report(ns, [2.0 / math.sqrt(n) for n in ns]))
        assert slope == pytest.approx(-0.5, abs=1e-10)

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            fit_decay_slope(self._report([8, 16], [1.0, 0.5]))


class TestRemarkCounterexample:
    def test_single_key(self):
        first, bound = remark_counterexample(1)
        assert first == 1.0
        assert bound == pytest.approx(6 / math.pi**2)

    def test_three_keys_analytic_partial_sum(self):
        first, _ = remark_counterexample(3)
        assert first == pytest.approx(36 / 49, abs=1e-12)

    def test_converges_to_limit_at_1e6(self):
        first, bound = remark_counterexample(10**6)
        assert abs(first - bound) < 1e-5

    def test_strictly_decreasing_and_above_limit(self):
        values = [remark_counterexample(n)[0] for n in (1, 2, 3, 5, 10, 100, 10000)]
        bound = 6 / math.pi**2
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > bound for v in values)


class TestMeasureDispersion:
    def test_uniform_logits_exact_inverse_n(self):
        sampler = BoundedSampler(d=4, zero_queries=True)
        report = measure_dispersion("softmax", None, sampler, [4, 8, 16], 3, seed=1)
        for n, mx, mn in zip(report.n_values, report.max_coeff, report.min_coeff):
            assert mx == mn == 1.0 / n

    @pytest.mark.parametrize("variant", ["softmax", "linear", "focused", "mila"])
    def test_bound_containment_small_sweep(self, variant):
        sampler = BoundedSampler(d=8, nonneg=variant == "focused")
        report = measure_dispersion(variant, None, sampler, [8, 16, 32], 4, seed=2)
        for mx, mn, hi, lo in zip(report.max_coeff, report.min_coeff,
                                  report.upper_bound, report.lower_bound):
            assert lo <= mn <= mx <= hi

    @pytest.mark.parametrize("changes", [
        {"phi": "exp", "psi_q": "identity", "psi_k": "identity"},
        {"phi": "power", "phi_p": 3.0}, {"phi": "power", "phi_p": 1e6},
        {"epsilon": 1000.0}, {"psi_q": "focused", "psi_k": "focused"},
    ], ids=["exp", "power-3", "power-1e6", "epsilon-1000", "focused"])
    def test_mila_sweep_needs_identity_phi(self, changes):
        # the MILA cell has its own elu+1 features and stabilized ratio but took
        # its bounds from phi: exp reported a violation, a cubed phi passed on
        # wide bounds, an overflowing one failed a cell, epsilon was ignored and
        # focused features failed a cell on phi(a) = 0
        kernel = dataclasses.replace(KernelSpec.linear(), **changes)
        with pytest.raises(ConfigurationError, match="^mila normalizes its logits") as info:
            measure_dispersion("mila", kernel, BoundedSampler(d=4), [8, 16, 32], 1, seed=3)
        message = str(info.value)
        assert message.count("(not ") == len(changes)
        assert all(f"{name} {value!r} (not " in message for name, value in changes.items())

    @pytest.mark.parametrize("n_values,win,message", [
        ([8, 12, 16], WindowSpec(8), "window 8 does not divide n=12"),
        ([6, 12, 24], WindowSpec(4), "window 4 does not divide n=6"),
        ([8, 16, 32], None, "a window sweep needs a WindowSpec"),
    ], ids=["misfit-after-a-fit", "misfit-first", "no-windowspec"])
    def test_window_sweeps_are_checked_before_any_cell(self, n_values, win, message,
                                                       monkeypatch):
        # both failed from inside a cell, the misfit only after the cells of every n before it
        cells = []
        monkeypatch.setattr(analysis, "_variant_cell", lambda *args: cells.append(args))
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            measure_dispersion("window", None, BoundedSampler(4), n_values, 1, seed=0, win=win)
        assert cells == []

    def test_window_fixed_content_bitwise_constant(self):
        sampler = BoundedSampler(d=4, tile_rows=4)
        report = measure_dispersion("window", None, sampler, [8, 16, 32], 2, seed=3,
                                    win=WindowSpec(4))
        assert report.max_coeff[0] == report.max_coeff[1] == report.max_coeff[2]
        assert report.slope == 0.0

    def test_median_max_coeff_non_increasing_for_softmax(self):
        sampler = BoundedSampler(d=8)
        report = measure_dispersion("softmax", None, sampler, [16, 32, 64, 128], 8, seed=4)
        med = report.max_coeff_median
        assert all(a >= b for a, b in zip(med, med[1:]))

    def test_report_serialization(self):
        sampler = BoundedSampler(d=4)
        report = measure_dispersion("linear", None, sampler, [8, 16, 32], 2, seed=6)
        back = DispersionReport(**json.loads(report.to_json()))
        assert back == report
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "n,max_coeff,min_coeff,lower,upper"
        assert len(csv_text.splitlines()) == 4

    @pytest.mark.parametrize("kwargs", [{"d": 0}, {"logit_bound": 0.0},
                                        {"logit_bound": -1.0}])
    def test_degenerate_sampler_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            BoundedSampler(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"d": 2.5}, {"d": True}, {"tile_rows": 0},
                                        {"tile_rows": -4}, {"tile_rows": 4.0},
                                        {"tile_rows": True}])
    def test_non_integer_sampler_sizes_rejected(self, kwargs):
        # each failed later, inside numpy or with a ZeroDivisionError in draw
        with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
            BoundedSampler(**kwargs)

    def test_ascending_n_required(self):
        with pytest.raises(ValueError):
            measure_dispersion("softmax", None, BoundedSampler(d=4), [16, 8], 2, seed=0)

    @pytest.mark.parametrize("n_values", [[0, 8, 16], [-4, 8, 16]])
    def test_positive_n_required(self, n_values):
        # n = 0 ended in a phi overflow, n = -4 in numpy's negative-size error
        with pytest.raises(ValueError, match=f"^n_values must be >= 1, got {n_values[0]}$"):
            measure_dispersion("softmax", None, BoundedSampler(d=4), n_values, 2, seed=0)

    @pytest.mark.parametrize("trials", [0, -2])
    def test_positive_trials_required(self, trials):
        # both ended in an unpack error from zip(*results) of no cells
        with pytest.raises(ValueError, match=f"^trials must be >= 1, got {trials}$"):
            measure_dispersion("softmax", None, BoundedSampler(d=4), [8, 16, 32], trials, seed=0)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_violation_names_the_seed(self, variant, monkeypatch):
        # bounds shrunk to the uniform value: every non-uniform draw violates them
        monkeypatch.setattr(analysis, "coefficient_bounds",
                            lambda kernel, lo, hi, n, stabilizer: (1.0 / n, 1.0 / n))
        win = WindowSpec(4) if variant == "window" else None
        with pytest.raises(BoundViolationError, match=rf"^{variant}: .* n=8, trial=0, seed=11:"):
            measure_dispersion(variant, None, BoundedSampler(d=4, nonneg=variant == "focused"),
                               [8, 16, 32], 2, seed=11, win=win)

    @pytest.mark.parametrize("inset", [(1e-12, 0.0), (0.0, 1e-12), (0.0, 0.0)],
                             ids=["lower", "upper", "exact"])
    def test_containment_has_no_slack(self, inset, monkeypatch):
        # bounds 1e-12 inside the observed extrema must fail: a slack of 1e-9
        # would let the central check lose six orders of magnitude unnoticed
        cell = analysis._variant_cell

        def tight_cell(*args):
            extrema, _ = cell(*args)
            return extrema, (extrema.cmin + inset[0], extrema.cmax - inset[1])

        monkeypatch.setattr(analysis, "_variant_cell", tight_cell)
        sweep = lambda: measure_dispersion("softmax", None, BoundedSampler(d=4), [8, 16, 32],
                                           2, seed=0)
        if inset == (0.0, 0.0):
            sweep()
        else:
            with pytest.raises(BoundViolationError, match="^softmax: coefficient outside"):
                sweep()

    def test_max_coeff_median_is_a_median(self, monkeypatch):
        # one outlying trial moves the mean of these maxima to 0.26, not the median
        maxima = iter([0.1, 0.1, 0.1, 0.1, 0.9] * 3)
        monkeypatch.setattr(analysis, "_variant_cell", lambda *args: (
            analysis.CellExtrema(0.05, next(maxima), 1), (0.01, 1.0)))
        report = measure_dispersion("softmax", None, BoundedSampler(d=4), [8, 16, 32], 5,
                                    seed=0)
        assert report.max_coeff_median == [0.1, 0.1, 0.1]


_OTHER_KERNELS = {
    "temperature": KernelSpec.softmax_temperature(0.5),
    "power": KernelSpec(phi="power", phi_p=2, psi_q="elu_plus_one", psi_k="elu_plus_one"),
}


def _companion_coefficients(variant, q, k, win, kernel):
    """The variant's whole coefficient matrix from its public attention companion."""
    if kernel != default_kernel(variant):
        if variant == "window":
            return attention.window_attention_coefficients(q, k, win, kernel)
        return attention.generalized_attention_coefficients(q, k, kernel)
    if variant == "softmax":
        return attention.softmax_attention_coefficients(q, k)
    if variant == "linear":
        return attention.linear_attention_coefficients(q, k)
    if variant == "focused":
        return attention.focused_attention_coefficients(q, k)
    if variant == "mila":
        return attention.mila_coefficients(q, k, gated=False)
    return attention.window_attention_coefficients(q, k, win)


@settings(max_examples=80, deadline=None)
@given(variant=st.sampled_from(VARIANTS), seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 260), d=st.integers(1, 16), w=st.integers(1, 8),
       phi=st.sampled_from([None, *_OTHER_KERNELS]))
@example(variant="softmax", seed=0, n=97, d=16, w=1, phi=None)  # lone last row: 48 and 49
@example(variant="mila", seed=1, n=145, d=3, w=1, phi=None)
@example(variant="softmax", seed=2, n=250, d=5, w=1, phi="temperature")  # 48 x 5 and 10
@example(variant="window", seed=3, n=60, d=4, w=6, phi="temperature")
@example(variant="linear", seed=4, n=241, d=7, w=1, phi="power")  # 48 x 4 and 49
@example(variant="focused", seed=5, n=200, d=6, w=1, phi="power")
@example(variant="window", seed=6, n=64, d=3, w=8, phi="power")
def check_streamed_cells(variant, seed, n, d, w, phi):
    """A cell streamed in blocks of _ROW_TILE rows equals the whole matrix, bitwise.

    posenc._RUN = 1 makes every block one _ROW_TILE high. Its phi-weighted
    blocks stacked and divided by their row sums (plus the stabilizer for
    MILA) are the public companion's matrix, its extrema are that matrix's,
    and its bounds are those of the same cell at the real run budget (one
    block up to n = 128; 260 rows are three blocks of 96, 96 and 68). phi
    names a kernel other than the variant's default; MILA takes only its own.
    """
    win = WindowSpec(w) if variant == "window" else None
    n = max(w, n - n % w) if win else n
    q, k = BoundedSampler(d, nonneg=variant == "focused").draw(rng_for(seed, "streamed-cell"), n)
    kernel = default_kernel(variant) if phi is None or variant == "mila" else _OTHER_KERNELS[phi]
    streamed, row_blocks = [], analysis._row_blocks

    def keep_weighted_blocks(*args):
        for rows, block in row_blocks(*args):
            yield rows, block
            streamed.append(block.copy())  # the cell has applied phi in place

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(posenc, "_RUN", 1)
        mp.setattr(analysis, "_row_blocks", keep_weighted_blocks)
        extrema, bounds = analysis._variant_cell(variant, kernel, q, k, win)
    whole = _companion_coefficients(variant, q, k, win, kernel).array
    assert extrema.cmin == whole.min() and extrema.cmax == whole.max()
    assert extrema.size == whole.size
    assert bounds == analysis._variant_cell(variant, kernel, q, k, win)[1]
    block = w if win else n  # a window cell's rows are all one run
    assert len(streamed) == max(1, -(-(block - 1) // attention._ROW_TILE))
    weights = np.concatenate(streamed, axis=-2)
    sums = weights.sum(axis=-1, keepdims=True)
    if variant == "mila":
        sums += attention._EPSILON
    assert np.array_equal((weights / sums).reshape(whole.shape), whole)


class TestStreamedCells:
    """The sweep streams query-row blocks; its extrema must be the whole matrix's."""

    def test_streamed_cells_equal_whole_matrices(self):
        # A threaded BLAS splits the whole product at boundaries of its own and
        # rounds the split rows differently, so the bitwise claim is checked in
        # a child process with one BLAS thread, as perfbench runs.
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        code = (f"import sys; sys.path.insert(0, {str(tests)!r}); "
                "import test_analysis; test_analysis.check_streamed_cells()")
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True)
        assert child.returncode == 0, child.stderr[-3000:]

    @staticmethod
    def record_blocks(monkeypatch, module):
        """The (start, height) of every block that module's _row_blocks yields from now on."""
        blocks, row_blocks = [], module._row_blocks

        def record(*args):
            for rows, block in row_blocks(*args):
                blocks.append((rows.start, block.shape[-2]))
                yield rows, block

        monkeypatch.setattr(module, "_row_blocks", record)
        return blocks

    def linear_cell_heights(self, monkeypatch, n):
        blocks = self.record_blocks(monkeypatch, analysis)
        q, k = BoundedSampler(2, nonneg=True).draw(rng_for(0, "cell-blocks"), n)
        analysis._variant_cell("linear", KernelSpec.linear(), q, k, None)
        starts, heights = map(list, zip(*blocks))
        assert starts == [sum(heights[:i]) for i in range(len(heights))]  # consecutive
        assert all(start % attention._ROW_TILE == 0 for start in starts)
        return heights

    @pytest.mark.parametrize("n,heights", [(250, [48] * 5 + [10]), (241, [48] * 4 + [49]),
                                           (48, [48]), (1, [1])])
    def test_small_budget_spans_many_ragged_blocks(self, n, heights, monkeypatch):
        # a lone last row joins the block before it
        monkeypatch.setattr(posenc, "_RUN", 1)
        assert self.linear_cell_heights(monkeypatch, n) == heights

    @pytest.mark.parametrize("n,heights", [(4096, [48] * 85 + [16]), (1024, [48] * 21 + [16]),
                                           (260, [96, 96, 68]), (128, [128])])
    def test_cells_stream_run_sized_blocks(self, n, heights, monkeypatch):
        # posenc._run_rows(n, 48): 1.5 MB of logits at n = 1,024 and 4,096
        assert self.linear_cell_heights(monkeypatch, n) == heights

    @pytest.mark.parametrize("form", ["softmax_attention", "window_attention", "tape"])
    @pytest.mark.parametrize("n,heights", [(250, [64] * 3 + [58]), (129, [64, 65]),
                                           (64, [64]), (1, [1])])
    def test_global_attention_keeps_its_tile_one_blocks(self, n, heights, form, monkeypatch):
        # _CHUNK_BUDGET, not posenc._RUN, sets these heights: at least 64 rows of every
        # block, also in windows wider than a run and on a tape that keeps no weights
        monkeypatch.setattr(attention, "_CHUNK_BUDGET", 1)
        monkeypatch.setattr(posenc, "_RUN", 1)
        blocks = self.record_blocks(monkeypatch, attention)
        q = np.ones((n, 2))
        if form == "softmax_attention":
            attention.softmax_attention(q, q, q)
        elif form == "window_attention":  # two windows of n rows, streamed side by side
            q2 = np.ones((2 * n, 2))
            attention.window_attention(q2, q2, q2, WindowSpec(n))
        else:
            tape = ag.Tape(record=False)
            ag.blocked_softmax_attention(*(ag.leaf(tape, q) for _ in range(3)), n)
        assert [height for _, height in blocks] == heights

    def test_window_cell_is_one_run(self, monkeypatch):
        # all 512 windows of 8 rows at n = 4,096 are one batched product, as in window_attention
        blocks = self.record_blocks(monkeypatch, analysis)
        q, k = BoundedSampler(16, tile_rows=8).draw(rng_for(0, "window-cell"), 4096)
        analysis._variant_cell("window", KernelSpec.softmax(), q, k, WindowSpec(8))
        assert blocks == [(0, 8)]

    @pytest.mark.parametrize("kernel", [attention.window_attention, attention.sema_attention])
    def test_narrow_windows_are_one_run(self, kernel, monkeypatch):
        # 8-row windows at n = 65,536: one product over every block, whose bits the digest pins
        blocks = self.record_blocks(monkeypatch, attention)
        x = np.ones((65536, 2))
        kernel(x, x, x, WindowSpec(8))
        assert blocks == [(0, 8)]

    def test_recording_tape_keeps_every_weight_in_one_run(self, monkeypatch):
        # the adjoint reads the whole (n / block, heads, block, block) weights, whatever the budget
        monkeypatch.setattr(attention, "_CHUNK_BUDGET", 1)
        blocks = self.record_blocks(monkeypatch, attention)
        x = rng_for(0, "kept-weights").standard_normal((4 * 130, 2 * 3))
        tape = ag.Tape()
        out = ag.blocked_softmax_attention(*(ag.leaf(tape, x) for _ in range(3)), 130, heads=2)
        coeff = out.node.ctx["coeff"]
        assert blocks == [(0, 130)] and coeff.shape == (4, 2, 130, 130)
        xb = attention._blocks(x, 130, 2)
        assert np.array_equal(coeff, attention._block_coefficients(xb, xb, KernelSpec.softmax()))

    @pytest.mark.parametrize("variant,kernel", [
        ("softmax", KernelSpec.softmax_temperature(1e-300)),
        ("window", KernelSpec.softmax_temperature(1e-300)),
        ("linear", KernelSpec(phi="power", phi_p=1e6, psi_q="elu_plus_one",
                              psi_k="elu_plus_one")),
    ])
    def test_overflowing_phi_raises_naming_the_cell(self, variant, kernel):
        # exp(logit / 1e-300) and logit ** 1e6 leave the floats: no bound can be checked
        sampler = BoundedSampler(d=4, tile_rows=4 if variant == "window" else None)
        win = WindowSpec(4) if variant == "window" else None
        with pytest.raises(KernelDomainError, match=f"^{variant}: .*overflows or underflows.* "
                                                    "at n=8, trial=0, seed=3$"):
            measure_dispersion(variant, kernel, sampler, [8, 16, 32], 2, seed=3, win=win)

    @pytest.mark.parametrize("variant,d,bound,at", [
        ("softmax", 16, 600.0, "n=128, trial=0, seed=42"),
        ("softmax", 16, 700.0, "n=128, trial=0, seed=42"),
        ("linear", 64, 1e308, "n=64, trial=0, seed=42"),
        ("window", 16, 800.0, "n=128, trial=1, seed=42"),
    ])
    def test_an_underflowing_lower_bound_raises_naming_the_cell(self, variant, d, bound, at):
        # a lower bound of 0.0 contains everything, and a coefficient of 0.0 ended
        # in a DispersionReport traceback; softmax at 600 has a smallest
        # coefficient of 8.5e-305 under its zero bound at n = 128
        sampler = BoundedSampler(d=d, logit_bound=bound)
        win = WindowSpec(8) if variant == "window" else None
        with pytest.raises(KernelDomainError, match=rf"^{variant}: the lower bound or the "
                                                    rf"smallest coefficient underflows.* at {at}$"):
            measure_dispersion(variant, None, sampler, [64, 128, 256], 2, seed=42, win=win)

    def test_a_zero_coefficient_above_a_positive_bound_raises(self, monkeypatch):
        # each of the two conditions raises on its own
        def cell(variant, kernel, q, k, win):
            return analysis.CellExtrema(0.0, 0.5, 4), (1e-300, 1.0)

        monkeypatch.setattr(analysis, "_variant_cell", cell)
        with pytest.raises(KernelDomainError, match=r"got lower bound 1e-300 and smallest "
                                                    r"coefficient 0.0 at n=4, trial=0, seed=1$"):
            measure_dispersion("softmax", None, BoundedSampler(d=4), [4], 1, seed=1)

    def test_zero_queries_still_raise_from_streamed_focused_cells(self, monkeypatch):
        monkeypatch.setattr(posenc, "_RUN", 1)
        heights, phi_rows = [], analysis._phi_rows

        def record(kernel, logits, *rows):
            heights.append(logits.shape[-2])
            return phi_rows(kernel, logits, *rows)

        monkeypatch.setattr(analysis, "_phi_rows", record)
        sampler = BoundedSampler(d=8, nonneg=True, zero_queries=True)
        with pytest.raises(KernelDomainError, match="denominator"):
            measure_dispersion("focused", None, sampler, [64, 128, 256], 1, seed=0)
        assert heights == [48]  # streamed: the first of n = 64's blocks (48 and 16 rows) raises


_SOFTMAX = KernelSpec.softmax()
_POWER = KernelSpec(phi="power", phi_p=2.0, psi_q="elu_plus_one", psi_k="elu_plus_one")
_EXP_KERNELS = [_SOFTMAX, KernelSpec.softmax_temperature(0.5),
                KernelSpec.softmax_temperature(1e-300)]

# a logit block: ordinary rows, signed zeros, a NaN, a +inf among finite logits,
# all -inf, and logits whose row max / 1e-300 overflows to +inf or to -inf
_SPECIAL_LOGITS = np.array([
    [0.3, -1.2, 0.7, 0.0],
    [-700.0, -710.0, -745.0, -800.0],
    [-0.0, 0.0, -0.0, 0.0],
    [0.1, np.nan, 0.5, -0.2],
    [1.0, np.inf, -3.0, 0.0],
    [-np.inf] * 4,
    [2e8, 1e8, -3e8, 5.0],
    [-2e8, -3e8, -4e8, -5e8],
])


def _real_row_extrema(weights):
    return (np.minimum.reduce(weights, axis=-1, keepdims=True),
            np.maximum.reduce(weights, axis=-1, keepdims=True))


def _check_weight_extrema(monkeypatch):
    """Make every block of a cell check its weights' extrema against real passes;
    returns the list of checked block heights."""
    checked, weight_extrema = [], analysis._weight_extrema

    def check(kernel, logits, lo, hi):
        out = weight_extrema(kernel, logits, lo, hi)
        real = _real_row_extrema(logits)  # logits now hold the weights
        assert attention._same_bits(out[0], real[0]) and attention._same_bits(out[1], real[1])
        checked.append(logits.size // logits.shape[-1])  # rows over all blocks
        return out

    monkeypatch.setattr(analysis, "_weight_extrema", check)
    return checked


class TestExpRowMax:
    """An exp cell skips the max pass over its weights: each row's max is exp(c - c)."""

    @pytest.mark.parametrize("kernel", _EXP_KERNELS)
    def test_skipped_pass_equals_a_max_pass(self, kernel):
        logits = _SPECIAL_LOGITS.copy()
        lo, hi = _real_row_extrema(logits)
        with np.errstate(all="ignore"):
            w_lo, w_hi, _ = analysis._weight_extrema(kernel, logits, lo, hi)
        real_lo, real_hi = _real_row_extrema(logits)
        assert attention._same_bits(w_hi, real_hi) and attention._same_bits(w_lo, real_lo)
        # finite shifts give exactly 1, the others NaN
        assert np.isnan(w_hi).any() and (w_hi[~np.isnan(w_hi)] == 1.0).all()

    @pytest.mark.parametrize("variant,kernel",
                             itertools.product(("softmax", "window"), _EXP_KERNELS[:2]))
    def test_streamed_cells_check_every_block(self, variant, kernel, monkeypatch):
        monkeypatch.setattr(posenc, "_RUN", 1)
        checked = _check_weight_extrema(monkeypatch)
        win = WindowSpec(8) if variant == "window" else None
        q, k = BoundedSampler(6).draw(rng_for(0, "exp-row-max"), 248)
        analysis._variant_cell(variant, kernel, q, k, win)
        assert checked == ([248] if win else [48] * 5 + [8])

    @pytest.mark.parametrize("case", ["nan row", "inf row", "all -inf row", "overflow"])
    def test_streamed_special_rows_check_every_block(self, case, monkeypatch):
        monkeypatch.setattr(posenc, "_RUN", 1)
        checked = _check_weight_extrema(monkeypatch)
        q, k = BoundedSampler(4, logit_bound=1e18 if case == "overflow" else 1.0).draw(
            rng_for(1, "exp-row-max"), 150)
        if case == "nan row":
            q[100, 2] = np.nan
        elif case == "inf row":  # one logit of row 60 overflows to +inf, the others stay finite
            q[60], k[:, 0], k[7, 0] = [1e308, 0.0, 0.0, 0.0], 0.5, 4.0
        elif case == "all -inf row":
            q[10], k[:, 1] = [0.0, -1e308, 0.0, 0.0], 4.0
        kernel = KernelSpec.softmax_temperature(1e-300) if case == "overflow" else _SOFTMAX
        with np.errstate(all="ignore"), pytest.raises(KernelDomainError, match="overflows"):
            analysis._variant_cell("softmax", kernel, q, k, None)
        assert checked == [48, 48, 48, 6]


class TestRowMinDomainCheck:
    """Identity and power cells take their domain check from the row minima."""

    @pytest.fixture(autouse=True)
    def signed_logits(self, monkeypatch):
        # the nonnegative feature maps never give a negative logit; without them the check can fire
        monkeypatch.setattr(analysis, "_apply_psi", lambda x, psi, p: x)

    @pytest.mark.parametrize("kernel", [KernelSpec.linear(), _POWER])
    def test_negative_logit_raises_the_full_checks_message(self, kernel):
        q, k = BoundedSampler(4).draw(rng_for(0, "row-min"), 64)
        logits = q @ k.T  # n = 64 is one block
        assert logits.min() < 0 and not np.isnan(logits).any()
        with pytest.raises(KernelDomainError) as info:
            analysis._variant_cell("linear", kernel, q, k, None)
        assert str(info.value) == (f"phi={kernel.phi!r} requires nonnegative logits, "
                                   f"got min {logits.min()}")
        with pytest.raises(KernelDomainError) as full:
            attention._phi_rows(kernel, logits.copy())
        assert str(full.value) == str(info.value)

    @pytest.mark.parametrize("kernel", [KernelSpec.linear(), _POWER])
    def test_a_nan_row_with_a_negative_logit_still_raises(self, kernel):
        # logits [[inf * 0, -inf], [1, 0]]: row 0's min is NaN, and it holds -inf
        q, k = np.array([[np.inf, -1.0], [0.0, 1.0]]), np.array([[0.0, 1.0], [-1.0, 0.0]])
        with np.errstate(all="ignore"):
            logits = q @ k.T
            lo = np.minimum.reduce(logits, axis=-1, keepdims=True)
            assert np.isnan(lo[0, 0]) and lo[1, 0] == 0.0 and logits[0, 1] == -np.inf
            with pytest.raises(KernelDomainError, match="requires nonnegative logits, got min nan"):
                attention._phi_rows(kernel, logits, row_min=lo)
            with pytest.raises(KernelDomainError, match="requires nonnegative logits, got min nan"):
                analysis._variant_cell("linear", kernel, q, k, None)

    def test_nonnegative_rows_pass_the_row_min_check(self):
        logits = np.array([[0.0, 2.0, 1.0], [-0.0, 0.5, 3.0]])
        lo = np.minimum.reduce(logits, axis=-1, keepdims=True)
        sums = attention._phi_rows(KernelSpec.linear(), logits.copy(), row_min=lo)
        assert np.array_equal(sums, attention._phi_rows(KernelSpec.linear(), logits.copy()))

    @pytest.mark.parametrize("kernel", [None, _POWER])
    def test_measure_dispersion_names_the_cell(self, kernel):
        phi = "identity" if kernel is None else "power"
        with pytest.raises(KernelDomainError, match=f"^linear: phi='{phi}' requires nonnegative "
                                                    "logits, got min -.* at n=8, trial=0, seed=3$"):
            measure_dispersion("linear", kernel, BoundedSampler(d=4), [8, 16, 32], 2, seed=3)


class TestComplexity:
    def test_sema_at_full_window_is_full_plus_mix(self):
        n, d = 32, 8
        assert (complexity_estimate("sema", n, d, n)
                == complexity_estimate("full", n, d) + n * d)

    def test_sema_linear_in_n(self):
        d, w = 16, 8
        assert complexity_estimate("sema", 128, d, w) == 2 * complexity_estimate("sema", 64, d, w)

    @pytest.mark.parametrize("d", [16, 64])  # 64: criterion 08's width
    @pytest.mark.parametrize("variant,w", [("full", None), ("window", 8),
                                           ("homogeneous_mix", None), ("sema", 8),
                                           ("linear", None)])
    def test_matches_instrumented_counter(self, variant, w, d):
        assert complexity_estimate(variant, 64, d, w) == instrumented_counts(variant, 64, d, w)

    def test_window_requires_w(self):
        with pytest.raises(ValueError):
            complexity_estimate("window", 64, 16)

    def test_full_counts_quadratic(self):
        assert complexity_estimate("full", 64, 16) == 2 * 64 * 64 * 16
        assert complexity_estimate("linear", 64, 16) == 2 * 64 * 16 * 16

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(ValueError, match="'mix'") as info:
            complexity_estimate("mix", 64, 16)
        assert all(repr(name) in str(info.value) for name in TIMED_KERNELS)


class TestTimedKernels:
    DIRECT = {
        "full": lambda q, k, v: attention.softmax_attention(q, k, v),
        "window": lambda q, k, v: attention.window_attention(q, k, v, WindowSpec(8)),
        "homogeneous_mix": lambda q, k, v: attention.homogeneous_mix(v),
        "sema": lambda q, k, v: attention.sema_attention(q, k, v, WindowSpec(8)),
        "linear": lambda q, k, v: attention.linear_attention_fast(q, k, v),
    }

    def test_every_registry_name_is_covered(self):
        assert list(TIMED_KERNELS) == list(self.DIRECT)

    @pytest.mark.parametrize("name", list(DIRECT))
    def test_registry_call_is_the_public_kernel(self, name):
        q, k, v = rng_for(0, "timed-kernels", name).standard_normal((3, 64, 8))
        direct = self.DIRECT[name](q, k, v).array
        assert np.array_equal(TIMED_KERNELS[name](q, k, v, 8).array, direct)
        assert complexity_estimate(name, 64, 8, 8) == instrumented_counts(name, 64, 8, 8)

    def test_scaling_fit_smoke(self):
        names = ("linear", "sema", "full")
        seconds, exponents, counters = scaling_fit(names, [64, 128, 256], 8, 8, 0)
        assert list(seconds) == list(exponents) == list(counters) == list(names)
        assert all(len(times) == 3 and min(times) > 0 for times in seconds.values())
        assert all(counters.values())

    def test_scaling_fit_rule_on_a_stub_clock(self, monkeypatch):
        # the stub advances a fake CPU clock by preset durations: 1 s for the warm-up, n / 64 s
        # for the last call of the second pass, 50 s otherwise, so the rule is checked, not the host
        per_pass = {256: 22, 512: 6, 1024: 2, 2048: 2}  # ceil(max(5, 2**22 // n**2) / 3)
        clock, order = [0.0], []

        def stub(q, k, v, w):
            n = q.shape[0]
            order.append(n)
            call = order.count(n) - 1  # 0 is the warm-up
            clock[0] += 1.0 if call == 0 else n / 64 if call == 2 * per_pass[n] else 50.0

        collects = []
        monkeypatch.setitem(TIMED_KERNELS, "homogeneous_mix", stub)
        monkeypatch.setattr(analysis, "time", SimpleNamespace(process_time=lambda: clock[0]))
        monkeypatch.setattr(analysis, "gc", SimpleNamespace(collect=lambda: collects.append(1)))
        seconds, exponents, _ = scaling_fit(("homogeneous_mix",), list(per_pass), 1, 8, 0)
        # three passes over the whole n grid, the warm-up in the first only
        runs = [(n, len(list(group))) for n, group in itertools.groupby(order)]
        assert runs == ([(n, c + 1) for n, c in per_pass.items()]
                        + [(n, c) for n, c in per_pass.items()] * 2)
        assert len(collects) == 3 * len(per_pass)
        assert seconds["homogeneous_mix"] == [n / 64 for n in per_pass]  # the minimum of all passes
        assert exponents["homogeneous_mix"] == pytest.approx(1.0, abs=1e-12)

    def test_scaling_fit_rejects_a_repeated_name(self):
        with pytest.raises(ValueError, match="repeated"):
            scaling_fit(("sema", "sema"), [64, 128, 256], 8, 8, 0)
