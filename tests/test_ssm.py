import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersionlab import ssm
from dispersionlab.errors import DimensionError, PreconditionError
from dispersionlab.rng import rng_for
from dispersionlab.ssm import (
    SsmParams,
    causal_linear_masked,
    causal_linear_recursive,
    decayed_key_magnitudes,
    forgetting_horizon,
    forms_max_diff,
    mamba_as_attention,
    ssm_closed_form,
    ssm_scan,
)
from dispersionlab.tensor import Tensor


def make_params(rng, n=5, d_state=3, channels=2, **kw):
    return SsmParams.random(rng, n, d_state, channels, **kw)


class TestScanAndClosedForm:
    def test_base_case_matches_recursion_by_hand(self):
        rng = rng_for(0, "base")
        p = make_params(rng, n=1)
        x = rng.standard_normal((1, p.channels))
        h_seq, y = ssm_scan(p, x)
        inject = p.B[0] @ (p.Delta[0] * x[0])[None, :]
        expected_h1 = p.A_tilde[0] * p.h0 + inject
        np.testing.assert_allclose(h_seq[0].array, expected_h1, atol=1e-15)
        np.testing.assert_allclose(y.array[0], (p.C_out[0] @ expected_h1)[0] + p.D[0] * x[0],
                                   atol=1e-15)

    def test_no_forgetting_accumulates_injections(self):
        rng = rng_for(1, "ones")
        n, d_state, channels = 6, 3, 2
        p = SsmParams(
            A_tilde=np.ones((n, d_state, channels)),
            B=rng.standard_normal((n, d_state, 1)),
            C_out=rng.standard_normal((n, 1, d_state)),
            D=np.zeros((1, channels)),
            Delta=np.ones((n, channels)),
            h0=np.zeros((d_state, channels)),
        )
        x = rng.standard_normal((n, channels))
        h_seq, _ = ssm_scan(p, x)
        running = np.zeros((d_state, channels))
        for i in range(n):
            running += p.B[i] @ x[i][None, :]
            np.testing.assert_allclose(h_seq[i].array, running, atol=1e-12)

    def test_closed_form_matches_scan_every_prefix(self):
        rng = rng_for(2, "scan")
        p = make_params(rng, n=5)
        x = rng.standard_normal((5, p.channels))
        h_seq, y = ssm_scan(p, x)
        for m in range(1, 6):
            h_m, y_m = ssm_closed_form(p, x, m)
            assert np.abs(h_m.array - h_seq[m - 1].array).max() < 1e-12
            assert np.abs(y_m.array[0] - y.array[m - 1]).max() < 1e-12

    def test_homogeneous_solution(self):
        rng = rng_for(3, "hom")
        p = make_params(rng, n=4)
        x = np.zeros((4, p.channels))
        for m in (1, 3, 4):
            h_m, _ = ssm_closed_form(p, x, m)
            expected = np.prod(p.A_tilde[:m], axis=0) * p.h0
            np.testing.assert_allclose(h_m.array, expected, atol=1e-14)

    def test_agreement_on_twenty_random_instances(self):
        for inst in range(20):
            rng = rng_for(4, "agree", inst)
            n = int(rng.integers(1, 9))
            p = make_params(rng, n=n, d_state=int(rng.integers(1, 5)),
                            channels=int(rng.integers(1, 5)))
            x = rng.standard_normal((n, p.channels))
            h_seq, y = ssm_scan(p, x)
            for m in range(1, n + 1):
                h_m, y_m = ssm_closed_form(p, x, m)
                assert np.abs(h_m.array - h_seq[m - 1].array).max() < 1e-12
                assert np.abs(y_m.array[0] - y.array[m - 1]).max() < 1e-12

    def test_causality_appending_token_keeps_prefix(self):
        rng = rng_for(5, "causal")
        p_small = make_params(rng, n=4)
        x = rng.standard_normal((5, p_small.channels))
        extra_rng = rng_for(5, "extra")
        p_big = SsmParams(
            A_tilde=np.concatenate([p_small.A_tilde,
                                    extra_rng.uniform(0.1, 1.0, (1,) + p_small.A_tilde.shape[1:])]),
            B=np.concatenate([p_small.B, extra_rng.standard_normal((1,) + p_small.B.shape[1:])]),
            C_out=np.concatenate([p_small.C_out,
                                  extra_rng.standard_normal((1,) + p_small.C_out.shape[1:])]),
            D=p_small.D, Delta=np.concatenate([p_small.Delta, extra_rng.uniform(0.1, 1, (1, p_small.channels))]),
            h0=p_small.h0,
        )
        _, y_small = ssm_scan(p_small, x[:4])
        _, y_big = ssm_scan(p_big, x)
        assert np.array_equal(y_big.array[:4], y_small.array)

    def test_index_out_of_range(self):
        rng = rng_for(6, "idx")
        p = make_params(rng, n=3)
        x = rng.standard_normal((3, p.channels))
        with pytest.raises(IndexError):
            ssm_closed_form(p, x, 4)

    def test_decay_range_validation(self):
        with pytest.raises(ValueError):
            SsmParams(A_tilde=np.full((2, 2, 2), 1.5), B=np.zeros((2, 2, 1)),
                      C_out=np.zeros((2, 1, 2)), D=np.zeros((1, 2)),
                      Delta=np.zeros((2, 2)), h0=np.zeros((2, 2)))

    @pytest.mark.parametrize("field", ["A_tilde", "B", "C_out", "D", "Delta", "h0"])
    def test_non_finite_entry_names_its_field(self, field):
        # a NaN in A_tilde passed the (0, 1] test, whose comparisons are both false
        p = make_params(rng_for(0, "finite"), n=3)
        fields = {name: getattr(p, name).copy() for name in
                  ("A_tilde", "B", "C_out", "D", "Delta", "h0")}
        fields[field].flat[-1] = np.nan
        with pytest.raises(ValueError, match=f"^{field} entries must be finite"):
            SsmParams(**fields)

    @pytest.mark.parametrize("n,d_state,channels", [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
    def test_zero_dimension_names_a_tilde(self, n, d_state, channels):
        # every other field is shaped to match, so only the zero size is wrong
        with pytest.raises(DimensionError,
                           match=re.escape(f"A_tilde needs n, d_state and C >= 1, got "
                                           f"{(n, d_state, channels)}")):
            SsmParams(A_tilde=np.ones((n, d_state, channels)), B=np.ones((n, d_state, 1)),
                      C_out=np.ones((n, 1, d_state)), D=np.ones((1, channels)),
                      Delta=np.ones((n, channels)), h0=np.zeros((d_state, channels)))

    def test_golden_fixture(self):
        path = os.path.join(os.path.dirname(__file__), "fixtures", "ssm_golden.json")
        with open(path) as fh:
            fixture = json.load(fh)
        p = SsmParams.from_json(json.dumps(fixture["params"]))
        h_seq, y = ssm_scan(p, np.asarray(fixture["x"]))
        np.testing.assert_allclose(y.array, fixture["expected_y"], atol=1e-15)
        np.testing.assert_allclose(h_seq[-1].array, fixture["expected_h_last"], atol=1e-15)

    def test_forms_golden_fixture(self):
        """The closed form at every m and the attention form, bit for bit."""
        fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
        with open(os.path.join(fixtures, "ssm_golden.json")) as fh:
            instance = json.load(fh)
        with open(os.path.join(fixtures, "ssm_forms_golden.json")) as fh:
            expected = json.load(fh)
        p = SsmParams.from_json(json.dumps(instance["params"]))
        x = np.asarray(instance["x"])
        for m in range(1, p.n + 1):
            h_m, y_m = ssm_closed_form(p, x, m)
            assert np.array_equal(h_m.array, expected["closed_form_h"][m - 1])
            assert np.array_equal(y_m.array, expected["closed_form_y"][m - 1])
        p0 = SsmParams(p.A_tilde, p.B, p.C_out, p.D, p.Delta, np.zeros_like(p.h0))
        assert np.array_equal(mamba_as_attention(p0, x).array, expected["attention_y"])


class TestThreeForms:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 48), d_state=st.integers(1, 8),
           channels=st.integers(1, 8),
           decay_range=st.sampled_from([(0.05, 1.0), (0.5, 1.0), (1.0, 1.0)]))
    def test_scan_closed_and_attention_forms_agree(self, seed, n, d_state, channels,
                                                   decay_range):
        rng = rng_for(seed, "three-forms", n, d_state, channels)
        p = make_params(rng, n=n, d_state=d_state, channels=channels, decay_range=decay_range)
        x = rng.standard_normal((n, channels))
        h_seq, y = ssm_scan(p, x)
        for m in range(1, n + 1):
            h_m, y_m = ssm_closed_form(p, x, m)
            assert np.abs(h_m.array - h_seq[m - 1].array).max() < 1e-12
            assert np.abs(y_m.array[0] - y.array[m - 1]).max() < 1e-12
            assert decayed_key_magnitudes(p, m)[m - 1] == np.abs(p.B[m - 1]).max()
        p0 = SsmParams(p.A_tilde, p.B, p.C_out, p.D, p.Delta, np.zeros_like(p.h0))
        _, y0 = ssm_scan(p0, x)
        assert np.abs(mamba_as_attention(p0, x).array - y0.array).max() < 1e-12

    @pytest.mark.parametrize("d_state,channels", [(1, 1), (3, 2), (8, 8)])
    def test_sums_follow_step_order(self, d_state, channels):
        """Both forms add their terms one at a time, bit for bit, in step order."""
        rng = rng_for(20, "step-order", d_state, channels)
        n = 40
        p = make_params(rng, n=n, d_state=d_state, channels=channels, zero_h0=True)
        x = rng.standard_normal((n, p.channels))
        v = p.Delta * x
        y_attn = mamba_as_attention(p, x).array
        for m in range(1, n + 1):
            decay = [np.ones((p.d_state, p.channels))]
            for i in range(m - 1, 0, -1):  # the product grows backwards from step m
                decay.append(decay[-1] * p.A_tilde[i])
            decay = decay[::-1]  # decay[i] = A[i + 1] (*) ... (*) A[m - 1]
            driven = np.zeros((p.d_state, p.channels))
            for i in range(m):  # oldest injection first
                driven = driven + decay[i] * (p.B[i] @ v[i][None, :])
            acc = np.zeros(p.channels)
            for i in range(m - 1, -1, -1):  # newest key first
                acc = acc + (p.C_out[m - 1] @ (decay[i] * p.B[i] * v[i]))[0]
            assert np.array_equal(ssm_closed_form(p, x, m)[0].array, driven)
            assert np.array_equal(y_attn[m - 1], acc + p.D[0] * x[m - 1])


    def test_signed_zero_injections(self):
        """Zero inputs inject +0, as the matmul B_i @ (Delta_i x_i) does, so a -0 in h0 turns +0."""
        rng = rng_for(21, "signed-zeros")
        n, d_state, channels = 6, 3, 4
        p = make_params(rng, n=n, d_state=d_state, channels=channels)
        B = p.B.copy()
        B[::2] = -0.0
        p = SsmParams(p.A_tilde, B, p.C_out, p.D, p.Delta, np.full((d_state, channels), -0.0))
        x = rng.standard_normal((n, channels))
        x[1::2, ::2] = 0.0
        inject = p.B @ (p.Delta * x)[:, None, :]
        h = p.h0
        h_seq, _ = ssm_scan(p, x)
        for m in range(1, n + 1):
            h = p.A_tilde[m - 1] * h + inject[m - 1]
            np.testing.assert_array_equal(h_seq[m - 1].array.view(np.uint64), h.view(np.uint64))
            s = np.ones((m + 1, d_state, channels))  # the suffix products, grown from A[m - 1]
            s[:m] = np.cumprod(p.A_tilde[m - 1::-1], axis=0)[::-1]
            closed = s[0] * p.h0 + np.cumsum(s[1:] * inject[:m], axis=0)[-1]
            got = ssm_closed_form(p, x, m)[0].array
            np.testing.assert_array_equal(got.view(np.uint64), closed.view(np.uint64))
        assert not np.signbit(h_seq[0].array).any()  # no -0 survives the first step


class TestFormsMaxDiff:
    """The triple check must see a fault in each of its three comparisons."""

    @staticmethod
    def instance():
        rng = rng_for(21, "forms-max-diff")
        p = make_params(rng, n=6, d_state=3, channels=2)
        return p, rng.standard_normal((6, 2))

    def test_unperturbed_forms_agree(self):
        assert forms_max_diff(*self.instance()) < 1e-12

    @pytest.mark.parametrize("part", ["closed_h", "closed_y", "attention"])
    def test_each_comparison_sees_a_perturbation(self, part, monkeypatch):
        closed, attention = ssm.ssm_closed_form, ssm.mamba_as_attention
        if part == "attention":
            monkeypatch.setattr(ssm, "mamba_as_attention",
                                lambda p, x: Tensor(attention(p, x).array + 1e-9))
        else:
            def perturbed(p, x, m):
                h, y = closed(p, x, m)
                if part == "closed_h":
                    return Tensor(h.array + 1e-9), y
                return h, Tensor(y.array + 1e-9)

            monkeypatch.setattr(ssm, "ssm_closed_form", perturbed)
        assert forms_max_diff(*self.instance()) >= 1e-9


class TestCausalLinear:
    def test_first_output_is_first_value(self):
        rng = rng_for(8, "first")
        q, k, v = rng.standard_normal((3, 4, 3))
        out = causal_linear_recursive(q, k, v).array
        np.testing.assert_allclose(out[0], v[0], atol=1e-5)  # epsilon-level slack

    def test_matches_masked_oracle(self):
        rng = rng_for(9, "masked")
        q, k, v = rng.standard_normal((3, 6, 3))
        rec = causal_linear_recursive(q, k, v).array
        oracle = causal_linear_masked(q, k, v).array
        assert np.abs(rec - oracle).max() < 1e-10

    def test_equal_keys_give_prefix_means(self):
        rng = rng_for(10, "prefix")
        q = rng.standard_normal((5, 3))
        k = np.tile(rng.standard_normal(3), (5, 1))
        v = rng.standard_normal((5, 3))
        out = causal_linear_recursive(q, k, v).array
        for i in range(5):
            np.testing.assert_allclose(out[i], v[: i + 1].mean(axis=0), atol=1e-5)

    @pytest.mark.parametrize("form", [causal_linear_recursive, causal_linear_masked])
    def test_key_count_must_match_queries(self, form):
        # the masked form used to return a 4 x 2 result from 6 keys
        rng = rng_for(21, "causal-shape")
        with pytest.raises(DimensionError):
            form(rng.standard_normal((4, 3)), rng.standard_normal((6, 3)),
                 rng.standard_normal((6, 2)))

    def test_appending_token_keeps_prefix(self):
        rng = rng_for(11, "append")
        q, k, v = rng.standard_normal((3, 6, 3))
        base = causal_linear_recursive(q[:5], k[:5], v[:5]).array
        grown = causal_linear_recursive(q, k, v).array
        assert np.array_equal(grown[:5], base)


class TestMambaAsAttention:
    def test_first_step_formula(self):
        rng = rng_for(12, "m1")
        p = make_params(rng, n=1, zero_h0=True)
        x = rng.standard_normal((1, p.channels))
        y = mamba_as_attention(p, x).array
        expected = (p.C_out[0] @ (p.B[0] @ (p.Delta[0] * x[0])[None, :]))[0] + p.D[0] * x[0]
        np.testing.assert_allclose(y[0], expected, atol=1e-14)

    def test_requires_zero_initial_state(self):
        rng = rng_for(13, "h0")
        p = make_params(rng, n=3)
        assert np.any(p.h0 != 0)
        with pytest.raises(PreconditionError):
            mamba_as_attention(p, rng.standard_normal((3, p.channels)))

    def test_no_forgetting_is_unnormalized_causal_attention(self):
        rng = rng_for(14, "ones")
        n, d_state, channels = 5, 3, 2
        p = SsmParams(
            A_tilde=np.ones((n, d_state, channels)),
            B=rng.standard_normal((n, d_state, 1)),
            C_out=rng.standard_normal((n, 1, d_state)),
            D=rng.standard_normal((1, channels)),
            Delta=rng.uniform(0.1, 1.0, (n, channels)),
            h0=np.zeros((d_state, channels)),
        )
        x = rng.standard_normal((n, channels))
        y = mamba_as_attention(p, x).array
        for m in range(n):
            acc = np.zeros(channels)
            for i in range(m + 1):
                acc += (p.C_out[m] @ (p.B[i] @ (p.Delta[i] * x[i])[None, :]))[0]
            np.testing.assert_allclose(y[m], acc + p.D[0] * x[m], atol=1e-12)

    def test_equals_scan_on_random_instance(self):
        rng = rng_for(15, "scan-eq")
        p = make_params(rng, n=6, zero_h0=True)
        x = rng.standard_normal((6, p.channels))
        _, y = ssm_scan(p, x)
        assert np.abs(mamba_as_attention(p, x).array - y.array).max() < 1e-12

    def test_decayed_keys_bound_geometric(self):
        rng = rng_for(16, "decay")
        rho = 0.7
        n = 8
        p = SsmParams(
            A_tilde=rng.uniform(0.2, rho, (n, 2, 2)),
            B=rng.uniform(-1, 1, (n, 2, 1)),
            C_out=rng.standard_normal((n, 1, 2)),
            D=np.zeros((1, 2)),
            Delta=np.ones((n, 2)),
            h0=np.zeros((2, 2)),
        )
        mags = decayed_key_magnitudes(p, n)
        b_max = np.abs(p.B).max()
        for i in range(n):
            assert mags[i] <= rho ** (n - (i + 1)) * b_max + 1e-12


class TestForgettingHorizon:
    def test_geometric_decay(self):
        n = 14
        p = SsmParams(A_tilde=np.full((n, 2, 2), 0.5), B=np.ones((n, 2, 1)),
                      C_out=np.ones((n, 1, 2)), D=np.zeros((1, 2)),
                      Delta=np.ones((n, 2)), h0=np.zeros((2, 2)))
        horizons = forgetting_horizon(p, 2.0**-10)
        assert horizons == [min(m, 10) for m in range(1, n + 1)]

    def test_no_forgetting_limit(self):
        n = 6
        p = SsmParams(A_tilde=np.full((n, 2, 2), 1.0), B=np.ones((n, 2, 1)),
                      C_out=np.ones((n, 1, 2)), D=np.zeros((1, 2)),
                      Delta=np.ones((n, 2)), h0=np.zeros((2, 2)))
        assert forgetting_horizon(p, 0.5) == list(range(1, n + 1))

    def test_against_brute_force(self):
        rng = rng_for(17, "brute")
        p = make_params(rng, n=7, d_state=2, channels=3, decay_range=(0.2, 0.95))
        threshold = 0.3
        horizons = forgetting_horizon(p, threshold)
        for m in range(1, 8):
            best = 0
            for lag in range(1, m + 1):
                prod = np.prod(p.A_tilde[m - lag : m], axis=0)
                if prod.max() >= threshold:
                    best = lag
            assert horizons[m - 1] == best

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), d_state=st.integers(1, 4),
           channels=st.integers(1, 4),
           decay_range=st.sampled_from([(0.05, 1.0), (0.5, 1.0), (0.9, 1.0), (1.0, 1.0)]),
           threshold=st.sampled_from([1.0, 0.5, 1e-3, 1e-12]))
    def test_equals_cumprod_reference(self, seed, n, d_state, channels, decay_range, threshold):
        rng = rng_for(seed, "horizon", n, d_state, channels)
        p = make_params(rng, n=n, d_state=d_state, channels=channels, decay_range=decay_range)
        want = []
        for m in range(1, n + 1):
            # running products newest factor first, as the function multiplies them
            peaks = np.cumprod(p.A_tilde[m - 1::-1], axis=0).max(axis=(1, 2))
            below = np.flatnonzero(peaks < threshold)
            want.append(int(below[0]) if below.size else m)
        assert forgetting_horizon(p, threshold) == want

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, np.nan])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        p = make_params(rng_for(22, "threshold"), n=3)
        with pytest.raises(ValueError, match="threshold must lie in"):
            forgetting_horizon(p, threshold)

    def test_threshold_one_accepted(self):
        p = make_params(rng_for(22, "threshold"), n=3, decay_range=(1.0, 1.0))
        assert forgetting_horizon(p, 1.0) == [1, 2, 3]

    def test_threshold_monotonicity(self):
        rng = rng_for(18, "mono")
        p = make_params(rng, n=6, decay_range=(0.3, 0.9))
        loose = forgetting_horizon(p, 0.05)
        tight = forgetting_horizon(p, 0.5)
        assert all(t <= l for t, l in zip(tight, loose))

    def test_shape_validation(self):
        rng = rng_for(19, "shape")
        p = make_params(rng, n=3)
        with pytest.raises(DimensionError):
            ssm_scan(p, np.zeros((4, p.channels)))
