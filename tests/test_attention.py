import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersionlab.attention import (
    KernelSpec,
    WindowSpec,
    elu_plus_one,
    focused_attention,
    focused_map,
    generalized_attention,
    generalized_attention_coefficients,
    homogeneous_mix,
    linear_attention,
    linear_attention_coefficients,
    linear_attention_fast,
    mila_attention,
    mila_coefficients,
    phi_normalize,
    sema_attention,
    softmax_attention,
    softmax_attention_coefficients,
    window_attention,
    window_attention_coefficients,
)
from dispersionlab.errors import KernelDomainError, WindowPartitionError
from dispersionlab.posenc import GridSpec

FOCUSED_P2 = KernelSpec(phi="identity", psi_q="focused", psi_k="focused", psi_p=2)


def phi_of(kernel, x):
    if kernel.phi == "exp":
        return np.exp(x)
    if kernel.phi == "exp_temperature":
        return np.exp(x / kernel.theta)
    if kernel.phi == "identity":
        return x
    return x**kernel.phi_p


def psi_of(kernel, which, x):
    name = kernel.psi_q if which == "q" else kernel.psi_k
    if name == "identity":
        return x
    if name == "elu_plus_one":
        return np.where(x > 0, x + 1.0, np.exp(x))
    r = np.maximum(x, 0.0)
    rp = r**kernel.psi_p
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        nrm = np.linalg.norm(rp[i])
        if nrm > 0:
            out[i] = rp[i] * np.linalg.norm(r[i]) / nrm
    return out


def generalized_oracle(q, k, v, kernel):
    """Per-element double loop evaluating the defining formula directly."""
    fq, fk = psi_of(kernel, "q", q), psi_of(kernel, "k", k)
    n, d = v.shape
    out = np.zeros((n, d))
    for i in range(n):
        weights = np.array([phi_of(kernel, float(fq[i] @ fk[j])) for j in range(n)])
        out[i] = weights @ v / weights.sum()
    return out


class TestPhiNormalize:
    def test_constant_logits_any_kernel(self):
        for kernel in (KernelSpec.softmax(), KernelSpec.linear(),
                       KernelSpec.softmax_temperature(0.5)):
            logits = np.full(4, 2.0)
            out = phi_normalize(logits, kernel).array
            np.testing.assert_allclose(out, [0.25] * 4, atol=1e-15)

    def test_remark_logits(self):
        # logits log(1/j^2): phi values 1, 1/4, 1/9 normalize to j^-2 * 36/49
        logits = np.log(1.0 / np.arange(1.0, 4.0) ** 2)
        out = phi_normalize(logits, KernelSpec.softmax()).array
        np.testing.assert_allclose(out, [36 / 49, 9 / 49, 4 / 49], atol=1e-12)
        assert out[0] > 6 / np.pi**2

    def test_identity_kernel_ratio(self):
        out = phi_normalize([1.0, 3.0], KernelSpec.linear()).array
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = phi_normalize(rng.uniform(-5, 5, 7), KernelSpec.softmax()).array
            assert abs(out.sum() - 1.0) < 1e-12
            assert (out >= 0).all() and (out <= 1).all()

    def test_identity_on_negative_logits_rejected(self):
        with pytest.raises(KernelDomainError):
            phi_normalize([-1.0, 2.0], KernelSpec.linear())


class TestKernelSpec:
    def test_identity_phi_requires_nonneg_features(self):
        with pytest.raises(ValueError, match="nonnegative"):
            KernelSpec(phi="identity", psi_q="identity", psi_k="identity")
        with pytest.raises(ValueError):
            KernelSpec(phi="power", phi_p=2, psi_q="elu_plus_one", psi_k="identity")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(phi="exp_temperature", theta=0.0)
        with pytest.raises(ValueError):
            KernelSpec(phi="identity", psi_q="focused", psi_k="focused", psi_p=0)
        with pytest.raises(ValueError):
            KernelSpec(phi="nope")

    def test_json_round_trip(self):
        for text, spec in (
            ('{}', KernelSpec.softmax()),
            ('{"phi": "exp", "psi": "identity", "epsilon": 1e-06}', KernelSpec.softmax()),
            ('{"phi": "identity", "psi": "elu_plus_one"}', KernelSpec.linear()),
            ('{"phi": "identity", "psi": "focused", "psi_p": 2}', FOCUSED_P2),
            ('{"phi": "exp_temperature", "theta": 0.3}', KernelSpec.softmax_temperature(0.3)),
            ('{"phi": "power", "phi_p": 2, "psi_q": "elu_plus_one", "psi_k": "focused"}',
             KernelSpec(phi="power", phi_p=2.0, psi_q="elu_plus_one", psi_k="focused")),
            # a side that names its own map keeps it; psi fills the other side
            ('{"phi": "identity", "psi": "focused", "psi_q": "elu_plus_one"}',
             KernelSpec(phi="identity", psi_q="elu_plus_one", psi_k="focused")),
        ):
            assert KernelSpec.from_json(text) == spec, text

    @pytest.mark.parametrize("field,value", [("theta", float("nan")), ("theta", float("inf")),
                                             ("phi_p", float("nan")), ("phi_p", float("inf")),
                                             ("psi_p", float("nan")), ("epsilon", float("nan")),
                                             ("epsilon", float("inf"))])
    def test_non_finite_numbers_rejected(self, field, value):
        # NaN fails every comparison, so a "< 0" test alone let it through
        base = {"theta": {"phi": "exp_temperature"},
                "phi_p": {"phi": "power", "psi_q": "elu_plus_one", "psi_k": "elu_plus_one"},
                "psi_p": {"psi_q": "focused", "psi_k": "focused"}}.get(field, {})
        with pytest.raises(ValueError, match=field):
            KernelSpec(**base, **{field: value})

    def test_json_unknown_key_named(self):
        with pytest.raises(ValueError, match="'thta'"):
            KernelSpec.from_json('{"phi": "exp_temperature", "thta": 0.01}')
        with pytest.raises(ValueError, match="theta"):
            KernelSpec.from_json('{"phi": "exp_temperature", "theta": NaN}')

    def test_json_null_psi_refused(self):
        with pytest.raises(ValueError, match="unknown psi None"):
            KernelSpec.from_json('{"psi": null}')

    def test_json_wire_format(self):
        # the --kernel example of the README
        text = '{"phi": "exp_temperature", "theta": 0.5, "psi": "identity", "epsilon": 1e-06}'
        assert KernelSpec.from_json(text) == KernelSpec.softmax_temperature(0.5)

    def test_window_spec(self):
        assert WindowSpec(7).w == 7
        with pytest.raises(ValueError):
            WindowSpec(0)

    @pytest.mark.parametrize("w", [True, 4.0, "4", None, 0, -2])
    def test_window_spec_rejects_non_integer_sizes(self, w):
        # True and 4.0 failed later, inside numpy, with a TypeError
        with pytest.raises(ValueError, match="window size must be an integer"):
            WindowSpec(w)


class TestGeneralizedAttention:
    def test_single_key_returns_value(self):
        rng = np.random.default_rng(1)
        q, k, v = rng.standard_normal((3, 1, 4))
        out = generalized_attention(q, k, v, KernelSpec.softmax())
        np.testing.assert_allclose(out.array, v, atol=1e-15)

    def test_zero_queries_give_value_mean(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((5, 3))
        k = rng.standard_normal((5, 3))
        out = generalized_attention(np.zeros((5, 3)), k, v, KernelSpec.softmax())
        np.testing.assert_allclose(out.array, np.tile(v.mean(axis=0), (5, 1)), atol=1e-12)

    @pytest.mark.parametrize("kernel", [KernelSpec.softmax(), KernelSpec.linear(),
                                        KernelSpec.softmax_temperature(0.7),
                                        KernelSpec.focused()])
    def test_against_double_loop_oracle(self, kernel):
        rng = np.random.default_rng(3)
        q, k, v = rng.standard_normal((3, 4, 2))
        if "focused" in (kernel.psi_q, kernel.psi_k):
            q, k = np.abs(q), np.abs(k)  # relu features need nonnegative support
        out = generalized_attention(q, k, v, kernel).array
        np.testing.assert_allclose(out, generalized_oracle(q, k, v, kernel), atol=1e-12)

    def test_coefficient_rows_on_simplex(self):
        rng = np.random.default_rng(4)
        for kernel in (KernelSpec.softmax(), KernelSpec.linear(), FOCUSED_P2):
            q, k = rng.standard_normal((2, 6, 5))
            if "focused" in (kernel.psi_q, kernel.psi_k):
                q, k = np.abs(q), np.abs(k)
            coeff = generalized_attention_coefficients(q, k, kernel).array
            assert (coeff >= 0).all()
            np.testing.assert_allclose(coeff.sum(axis=1), 1.0, atol=1e-9)


class TestSoftmaxAttention:
    def test_matrix_route_equals_generalized_route(self):
        rng = np.random.default_rng(5)
        q, k, v = rng.standard_normal((3, 6, 3))
        a = softmax_attention(q, k, v).array
        b = generalized_attention(q, k, v, KernelSpec.softmax()).array
        assert np.abs(a - b).max() < 1e-12

    def test_single_token(self):
        rng = np.random.default_rng(6)
        q, k, v = rng.standard_normal((3, 1, 2))
        np.testing.assert_allclose(softmax_attention(q, k, v).array, v, atol=1e-15)

    def test_dominant_key_saturates(self):
        # one key with a logit margin >= 30 soaks up all the weight
        d = 4
        k = np.zeros((5, d))
        k[2] = [40.0, 0, 0, 0]
        q = np.tile([1.0, 0, 0, 0], (5, 1))
        v = np.random.default_rng(7).standard_normal((5, d))
        out = softmax_attention(q, k, v).array
        np.testing.assert_allclose(out, np.tile(v[2], (5, 1)), atol=1e-10)

    def test_coefficients_extreme_logits_no_overflow(self):
        # first-row logits 1000 and 0: exp(1000) overflows unless each row is shifted
        out = softmax_attention_coefficients([[1000.0], [0.0]], [[1.0], [0.0]]).array
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert out[0, 1] < 1e-300
        np.testing.assert_array_equal(out[1], [0.5, 0.5])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        q, k, v = rng.standard_normal((3, 7, 3))
        perm = rng.permutation(7)
        base = softmax_attention(q, k, v).array
        permuted = softmax_attention(q[perm], k[perm], v[perm]).array
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


class TestEluPlusOne:
    def test_bitwise_equal_to_two_branch_form(self):
        # the one-pass form exp(min(x, 0)) + max(x, 0) must keep every bit of the
        # np.where form, including the payload-bearing NaNs and the exp overflow edge
        special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 709.0, 710.0, -710.0,
                            -745.2, -746.0, 5e-324, -5e-324, 1e-320, 1e308, -1e308])
        payload_nans = np.array([0x7FF8000000000001, 0xFFF8000000000123, 0x7FF4000000000000],
                                dtype=np.uint64).view(np.float64)
        rng = np.random.default_rng(33)
        # more than 2^15 entries, so it goes through in cache-sized runs, with the
        # specials spread over every run; then the same values F-ordered and strided
        long = rng.standard_normal((3001, 17)) * 30
        long.flat[rng.choice(long.size, 400, replace=False)] = np.resize(special, 400)
        for x in (rng.standard_normal((257, 16)) * 30, rng.standard_normal(7), np.array(-0.5),
                  np.concatenate([special, payload_nans]), long, np.asfortranarray(long),
                  long[::2, 1:]):
            with np.errstate(invalid="ignore"):  # the signalling NaN, in both forms
                want = np.where(x > 0, x + 1.0, np.exp(np.minimum(x, 0.0)))
                got = elu_plus_one(x)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("x", [np.array(-0.5), np.float32([[1.5, -2.0]]),
                                   np.asfortranarray(np.arange(-3.0, 3.0).reshape(2, 3)),
                                   np.arange(-4.0, 4.0)[::3]],
                             ids=["0-d", "float32", "fortran", "strided"])
    def test_returns_fresh_c_ordered_float64(self, x):
        got = elu_plus_one(x)
        assert got.shape == x.shape and got.dtype == np.float64 and got.flags.c_contiguous
        assert not np.shares_memory(got, x)

    @pytest.mark.parametrize("kernel", [linear_attention_fast, mila_attention, linear_attention])
    def test_kernels_ignore_input_layout(self, kernel):
        # the 1,100 x 40 draw of test_bitwise_equal_to_two_feature_form
        rng = np.random.default_rng(14)
        q, k, v = rng.standard_normal((3, 2200, 40))
        qc, kc, v = q[::2].copy(), k[1::2].copy(), v[::2]
        want = kernel(qc, kc, v).array
        fq, fk = np.asfortranarray(qc), np.asfortranarray(kc)
        for qq, kk in ((fq, kc), (qc, fk), (fq, fk), (q[::2], k[1::2])):
            got = kernel(qq, kk, v).array
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestLinearAttention:
    def test_identical_keys_mean_values(self):
        rng = np.random.default_rng(9)
        q = rng.standard_normal((5, 3))
        k = np.tile(rng.standard_normal(3), (5, 1))
        v = rng.standard_normal((5, 3))
        out = linear_attention(q, k, v).array
        np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (5, 1)), atol=1e-12)

    def test_single_token(self):
        rng = np.random.default_rng(10)
        q, k, v = rng.standard_normal((3, 1, 4))
        np.testing.assert_allclose(linear_attention(q, k, v).array, v, atol=1e-14)

    def test_quadratic_vs_associative_forms(self):
        rng = np.random.default_rng(11)
        q, k, v = rng.standard_normal((3, 8, 4))
        quad = linear_attention(q, k, v).array
        fast = linear_attention_fast(q, k, v).array
        assert np.abs(quad - fast).max() < 1e-10

    @pytest.mark.parametrize("layout", ["fresh", "self", "fortran_q", "fortran_k", "strided"])
    def test_bitwise_equal_to_two_feature_form(self, layout):
        # 1,100 x 40 features pass elu_plus_one in runs, and u reuses w's buffer
        rng = np.random.default_rng(14)
        q, k, v = rng.standard_normal((3, 2200, 40))
        q, k, v = {"fresh": (q[:1100], k[:1100], v[:1100]),
                   "self": (q[:1100], q[:1100], v[:1100]),
                   "fortran_q": (np.asfortranarray(q[:1100]), k[:1100], v[:1100]),
                   "fortran_k": (q[:1100], np.asfortranarray(k[:1100]), v[:1100]),
                   "strided": (q[::2], k[1::2], v[::2])}[layout]
        # C-ordered features, whatever the layout of q and k
        u, w = (np.exp(np.minimum(a, 0.0)) + np.maximum(a, 0.0)
                for a in map(np.ascontiguousarray, (q, k)))
        want = u @ (w.T @ v)
        want /= (u @ w.sum(axis=0))[:, None]
        got = linear_attention_fast(q, k, v).array
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_matches_generalized(self):
        rng = np.random.default_rng(12)
        q, k, v = rng.standard_normal((3, 5, 3))
        a = linear_attention(q, k, v).array
        b = generalized_attention(q, k, v, KernelSpec.linear()).array
        assert np.abs(a - b).max() < 1e-12


class TestFocusedAttention:
    def test_feature_map_preserves_norm(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((10, 6))
        mapped = focused_map(x, 3).array
        relu = np.maximum(x, 0.0)
        np.testing.assert_allclose(np.linalg.norm(mapped, axis=1),
                                   np.linalg.norm(relu, axis=1), atol=1e-12)

    def test_p1_is_identity_on_nonnegative(self):
        rng = np.random.default_rng(14)
        x = np.abs(rng.standard_normal((5, 4)))
        np.testing.assert_allclose(focused_map(x, 1).array, x, atol=1e-12)

    def test_zero_row_maps_to_zero(self):
        x = np.array([[-1.0, -2.0, -3.0], [1.0, 2.0, 2.0]])
        mapped = focused_map(x, 3).array
        np.testing.assert_array_equal(mapped[0], np.zeros(3))

    def test_equals_generalized_with_focused_features(self):
        rng = np.random.default_rng(15)
        q, k = np.abs(rng.standard_normal((2, 6, 4)))
        v = rng.standard_normal((6, 4))
        plain = generalized_attention(q, k, v, KernelSpec.focused()).array
        np.testing.assert_allclose(focused_attention(q, k, v).array, plain, atol=1e-15)


class TestWindowAttention:
    def test_full_window_equals_generalized(self):
        rng = np.random.default_rng(17)
        q, k, v = rng.standard_normal((3, 6, 3))
        for kernel in (KernelSpec.softmax(), KernelSpec.linear()):
            a = window_attention(q, k, v, WindowSpec(6), kernel).array
            b = generalized_attention(q, k, v, kernel).array
            assert np.abs(a - b).max() < 1e-15

    def test_window_one_returns_values(self):
        rng = np.random.default_rng(18)
        q, k, v = rng.standard_normal((3, 5, 2))
        np.testing.assert_allclose(window_attention(q, k, v, WindowSpec(1)).array,
                                   v, atol=1e-15)

    def test_blocks_equal_stacked_small_attentions(self):
        rng = np.random.default_rng(19)
        q, k, v = rng.standard_normal((3, 4, 3))
        out = window_attention(q, k, v, WindowSpec(2)).array
        top = softmax_attention(q[:2], k[:2], v[:2]).array
        bottom = softmax_attention(q[2:], k[2:], v[2:]).array
        np.testing.assert_allclose(out, np.vstack([top, bottom]), atol=1e-15)

    def test_indivisible_window_rejected(self):
        with pytest.raises(WindowPartitionError):
            window_attention(np.ones((5, 2)), np.ones((5, 2)), np.ones((5, 2)),
                             WindowSpec(2))

    def test_rows_independent_of_appended_tokens(self):
        rng = np.random.default_rng(20)
        q, k, v = rng.standard_normal((3, 8, 3))
        w = WindowSpec(4)
        base = window_attention(q, k, v, w).array
        extq = np.vstack([q, rng.standard_normal((4, 3))])
        extk = np.vstack([k, rng.standard_normal((4, 3))])
        extv = np.vstack([v, rng.standard_normal((4, 3))])
        grown = window_attention(extq, extk, extv, w).array
        assert np.array_equal(grown[:8], base)  # bit-identical

    def test_coefficients_shape_and_simplex(self):
        rng = np.random.default_rng(21)
        q, k = rng.standard_normal((2, 8, 3))
        coeff = window_attention_coefficients(q, k, WindowSpec(4)).array
        assert coeff.shape == (8, 4)
        np.testing.assert_allclose(coeff.sum(axis=1), 1.0, atol=1e-9)


class TestHomogeneousMix:
    def test_identical_rows_unchanged(self):
        v = np.tile([1.0, -2.0], (6, 1))
        np.testing.assert_array_equal(homogeneous_mix(v).array, v)

    def test_hand_arithmetic(self):
        out = homogeneous_mix([[1.0, 0.0], [0.0, 1.0]]).array
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.5, 0.5]])

    def test_centering_identity(self):
        rng = np.random.default_rng(22)
        v = rng.standard_normal((9, 4))
        residual = v - homogeneous_mix(v).array
        np.testing.assert_allclose(residual.sum(axis=0), np.zeros(4), atol=1e-12)


class TestSemaAttention:
    def test_constant_values_double(self):
        rng = np.random.default_rng(23)
        q, k = rng.standard_normal((2, 6, 3))
        v = np.tile([0.5, -1.0, 2.0], (6, 1))
        out = sema_attention(q, k, v, WindowSpec(3)).array
        np.testing.assert_allclose(out, 2 * v, atol=1e-12)

    def test_single_window_degeneracy(self):
        rng = np.random.default_rng(24)
        q, k, v = rng.standard_normal((3, 6, 3))
        out = sema_attention(q, k, v, WindowSpec(6)).array
        expect = softmax_attention(q, k, v).array + homogeneous_mix(v).array
        np.testing.assert_allclose(out, expect, atol=1e-15)

    def test_decomposition_within_tolerance(self):
        rng = np.random.default_rng(25)
        q, k, v = rng.standard_normal((3, 8, 3))
        w = WindowSpec(4)
        diff = sema_attention(q, k, v, w).array - window_attention(q, k, v, w).array
        np.testing.assert_allclose(diff, np.tile(v.mean(axis=0), (8, 1)), atol=1e-12)

    def test_decomposition_exact_expression_tree(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            q, k, v = rng.standard_normal((3, 8, 3))
            w = WindowSpec(4)
            sema = sema_attention(q, k, v, w).array
            rebuilt = window_attention(q, k, v, w).array + homogeneous_mix(v).array
            assert np.array_equal(sema, rebuilt)  # identical floats, diff 0.0


def rope_oracle(x, positions):
    n, d = x.shape
    t = np.arange(d // 2)
    theta = 10000.0 ** (-2.0 * t / d)
    ang = np.asarray(positions)[:, None] * theta
    out = np.empty_like(x)
    out[:, 0::2] = x[:, 0::2] * np.cos(ang) - x[:, 1::2] * np.sin(ang)
    out[:, 1::2] = x[:, 0::2] * np.sin(ang) + x[:, 1::2] * np.cos(ang)
    return out


def mila_oracle(q, k, v, positions, epsilon=1e-6):
    """Implements the gated/ungated ratio equation element by element."""
    u = np.where(q > 0, q + 1.0, np.exp(q))
    w = np.where(k > 0, k + 1.0, np.exp(k))
    ur, wr = rope_oracle(u, positions), rope_oracle(w, positions)
    n, d = v.shape
    out = np.zeros((n, d))
    for i in range(n):
        den = sum(float(u[i] @ w[l]) for l in range(n)) + epsilon
        for j in range(n):
            out[i] += float(ur[i] @ wr[j]) * v[j] / den
    return out


class TestMilaAttention:
    def test_single_token_near_value(self):
        rng = np.random.default_rng(27)
        q, k, v = rng.standard_normal((3, 1, 4))
        out = mila_attention(q, k, v).array
        np.testing.assert_allclose(out, v, atol=1e-5)  # epsilon-level slack

    def test_zero_positions_reduce_to_linear(self):
        rng = np.random.default_rng(28)
        q, k, v = rng.standard_normal((3, 5, 4))
        out = mila_attention(q, k, v, positions=np.zeros(5)).array
        lin = linear_attention(q, k, v).array
        np.testing.assert_allclose(out, lin, atol=1e-5)

    def test_against_equation_oracle(self):
        rng = np.random.default_rng(29)
        q, k, v = rng.standard_normal((3, 6, 4))
        out = mila_attention(q, k, v).array
        np.testing.assert_allclose(out, mila_oracle(q, k, v, np.arange(6.0)), atol=1e-12)

    def test_ungated_coefficient_rows_near_simplex(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            q = rng.uniform(-1, 1, (6, 4)) * 10 / np.sqrt(4 * 6)
            k = rng.uniform(-1, 1, (6, 4)) * 10 / np.sqrt(4 * 6)
            coeff = mila_coefficients(q, k).array
            assert (coeff >= 0).all()
            sums = coeff.sum(axis=1)
            assert (sums >= 1 - 1e-3).all() and (sums <= 1 + 1e-3).all()

    def test_gated_coefficients_differ(self):
        rng = np.random.default_rng(32)
        q, k = rng.standard_normal((2, 6, 4))
        gated = mila_coefficients(q, k, gated=True).array
        ungated = mila_coefficients(q, k, gated=False).array
        assert np.abs(gated - ungated).max() > 1e-3

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), height=st.integers(1, 6), width=st.integers(1, 24),
           pairs=st.integers(1, 6), two_d=st.booleans(),
           positions=st.sampled_from(["grid", "zero", "permuted"]))
    def test_associative_order_equals_quadratic_oracle(self, seed, height, width, pairs, two_d,
                                                       positions):
        # the associative forward against the n x n matrix it replaced
        n, d = height * width, 2 * pairs * (2 if two_d else 1)  # a 2-D split needs 4 | d
        grid = GridSpec.grid(height, width) if two_d else GridSpec.linear(n)
        rng = np.random.default_rng(seed)
        q, k, v = rng.standard_normal((3, n, d))
        pos = {"grid": None, "zero": np.zeros(n), "permuted": rng.permutation(n)}[positions]
        out = mila_attention(q, k, v, grid, positions=pos).array
        want = mila_coefficients(q, k, grid, gated=True, positions=pos).array @ v
        assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()
