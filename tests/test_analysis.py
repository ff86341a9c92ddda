import dataclasses
import math
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispersionlab import analysis, attention
from dispersionlab.analysis import (
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

    def test_schedule_independence(self, monkeypatch):
        sampler = BoundedSampler(d=4)
        monkeypatch.setenv("DISPERSION_LAB_THREADS", "1")
        a = measure_dispersion("softmax", None, sampler, [8, 16, 32], 4, seed=5)
        monkeypatch.setenv("DISPERSION_LAB_THREADS", "4")
        b = measure_dispersion("softmax", None, sampler, [8, 16, 32], 4, seed=5)
        assert a.max_coeff == b.max_coeff and a.min_coeff == b.min_coeff

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

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5", ""])
    def test_bad_thread_variable_rejected(self, value, monkeypatch):
        monkeypatch.setenv("DISPERSION_LAB_THREADS", value)
        with pytest.raises(ConfigurationError, match="DISPERSION_LAB_THREADS"):
            measure_dispersion("softmax", None, BoundedSampler(d=4), [8, 16, 32], 2, seed=0)

    def test_thread_variable_sets_the_worker_count(self, monkeypatch):
        sampler = BoundedSampler(d=4)
        serial = measure_dispersion("softmax", None, sampler, [8, 16, 32], 3, seed=5)
        monkeypatch.setenv("DISPERSION_LAB_THREADS", "3")
        assert measure_dispersion("softmax", None, sampler, [8, 16, 32], 3, seed=5) == serial


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

    Its phi-weighted blocks stacked and divided by their row sums (plus the
    stabilizer for MILA) are the public companion's matrix, its extrema are
    that matrix's, and its bounds are those of the same cell in one block
    (n <= 260 fits one block at the real budget). phi names a kernel other
    than the variant's default; MILA takes only its own.
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
        mp.setattr(attention, "_CHUNK_BUDGET", 1)
        mp.setattr(analysis, "_row_blocks", keep_weighted_blocks)
        extrema, bounds = analysis._variant_cell(variant, kernel, q, k, win)
    whole = _companion_coefficients(variant, q, k, win, kernel).array
    assert extrema.cmin == whole.min() and extrema.cmax == whole.max()
    assert extrema.size == whole.size
    assert bounds == analysis._variant_cell(variant, kernel, q, k, win)[1]
    if variant != "window":  # one batched n x w array, not streamed
        assert len(streamed) == max(1, -(-(n - 1) // attention._ROW_TILE))
        weights = np.concatenate(streamed)
        sums = weights.sum(axis=-1, keepdims=True)
        if variant == "mila":
            sums += attention._EPSILON
        assert np.array_equal(weights / sums, whole)


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

    @pytest.mark.parametrize("n,heights", [(250, [48] * 5 + [10]), (241, [48] * 4 + [49]),
                                           (48, [48]), (1, [1])])
    def test_small_budget_spans_many_ragged_blocks(self, n, heights, monkeypatch):
        # a lone last row joins the block before it
        monkeypatch.setattr(attention, "_CHUNK_BUDGET", 1)
        a = np.ones((n, 2))
        blocks = list(attention._row_blocks(a, a, attention._ROW_TILE))
        assert [block.shape[0] for _, block in blocks] == heights
        assert [rows.start for rows, _ in blocks] == [48 * i for i in range(len(heights))]

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

    def test_zero_queries_still_raise_from_streamed_focused_cells(self, monkeypatch):
        monkeypatch.setattr(attention, "_CHUNK_BUDGET", 1)
        sampler = BoundedSampler(d=8, nonneg=True, zero_queries=True)
        with pytest.raises(KernelDomainError, match="denominator"):
            measure_dispersion("focused", None, sampler, [64, 128, 256], 1, seed=0)


class TestComplexity:
    def test_sema_at_full_window_is_full_plus_mix(self):
        n, d = 32, 8
        assert (complexity_estimate("sema", n, d, n)
                == complexity_estimate("full", n, d) + n * d)

    def test_sema_linear_in_n(self):
        d, w = 16, 8
        assert complexity_estimate("sema", 128, d, w) == 2 * complexity_estimate("sema", 64, d, w)

    @pytest.mark.parametrize("variant,w", [("full", None), ("window", 8),
                                           ("homogeneous_mix", None), ("sema", 8),
                                           ("linear", None)])
    def test_matches_instrumented_counter(self, variant, w):
        n, d = 64, 16
        rng = rng_for(0, "counter-test")
        q = rng.standard_normal((n, d))
        analytic = complexity_estimate(variant, n, d, w)
        measured = instrumented_counts(variant, q, q, q, w)
        assert analytic == measured

    def test_window_requires_w(self):
        with pytest.raises(ValueError):
            complexity_estimate("window", 64, 16)

    def test_full_counts_quadratic(self):
        assert complexity_estimate("full", 64, 16) == 2 * 64 * 64 * 16
        assert complexity_estimate("linear", 64, 16) == 2 * 64 * 16 * 16
