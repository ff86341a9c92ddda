import math

import pytest

from dispersionlab.analysis import (
    BoundSpec,
    BoundedSampler,
    DispersionReport,
    coefficient_bounds,
    complexity_estimate,
    fit_decay_slope,
    instrumented_counts,
    measure_dispersion,
    remark_counterexample,
)
from dispersionlab.attention import KernelSpec, WindowSpec
from dispersionlab.errors import ConfigurationError
from dispersionlab.rng import rng_for


class TestCoefficientBounds:
    def test_constant_kernel_collapses_to_uniform(self):
        for n in (1, 10, 1000):
            lo, hi = coefficient_bounds(BoundSpec("softmax", 2.0, 2.0, n))
            assert lo == hi == pytest.approx(1.0 / n)

    def test_exp_kernel_on_unit_logit_range(self):
        spec = BoundSpec.from_logit_range("softmax", KernelSpec.softmax(), -1.0, 1.0, 10)
        lo, hi = coefficient_bounds(spec)
        assert lo == pytest.approx(math.exp(-2) / 10, abs=1e-6)
        assert hi == pytest.approx(math.exp(2) / 10, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundSpec("softmax", 0.0, 1.0, 4)
        with pytest.raises(ValueError):
            BoundSpec("softmax", 2.0, 1.0, 4)
        with pytest.raises(ValueError):
            BoundSpec("softmax", 1.0, 2.0, 0)


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

    def test_schedule_independence(self):
        sampler = BoundedSampler(d=4)
        a = measure_dispersion("softmax", None, sampler, [8, 16, 32], 4, seed=5, threads=1)
        b = measure_dispersion("softmax", None, sampler, [8, 16, 32], 4, seed=5, threads=4)
        assert a.max_coeff == b.max_coeff and a.min_coeff == b.min_coeff

    def test_report_serialization(self):
        sampler = BoundedSampler(d=4)
        report = measure_dispersion("linear", None, sampler, [8, 16, 32], 2, seed=6)
        back = DispersionReport.from_json(report.to_json())
        assert back.max_coeff == report.max_coeff
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
