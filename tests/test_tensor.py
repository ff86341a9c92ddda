import numpy as np
import pytest

from dispersionlab import attention, posenc
from dispersionlab.attention import KernelSpec, SemaParams, WindowSpec, homogeneous_mix
from dispersionlab.errors import DimensionError
from dispersionlab.posenc import DepthwiseKernel, GridSpec
from dispersionlab.tensor import Tensor

_TAPS = DepthwiseKernel(np.arange(36.0).reshape(4, 3, 3) / 36.0)
_WIN = WindowSpec(4)

# name -> (kernel of q, k, v; the inputs it reads)
PUBLIC_KERNELS = {
    "softmax": (attention.softmax_attention, "qkv"),
    "generalized": (lambda q, k, v: attention.generalized_attention(
        q, k, v, KernelSpec.softmax_temperature(2.0)), "qkv"),
    "linear": (attention.linear_attention, "qkv"),
    "linear_fast": (attention.linear_attention_fast, "qkv"),
    "focused": (lambda q, k, v: attention.focused_attention(
        q, k, v, 3, _TAPS, GridSpec.grid(2, 4)), "qkv"),
    "window": (lambda q, k, v: attention.window_attention(q, k, v, _WIN), "qkv"),
    "homogeneous_mix": (lambda q, k, v: homogeneous_mix(v), "v"),
    "sema": (lambda q, k, v: attention.sema_attention(q, k, v, _WIN), "qkv"),
    "sema_full": (lambda q, k, v: attention.sema_attention_full(
        q, SemaParams.identity(4, _TAPS), _WIN, GridSpec.grid(2, 4)), "q"),
    "mila": (lambda q, k, v: attention.mila_attention(q, k, v, lepe_kernel=_TAPS), "qkv"),
    "rope_apply": (lambda q, k, v: posenc.rope_apply(q, GridSpec.grid(2, 4)), "q"),
    "lepe": (lambda q, k, v: posenc.lepe(v, _TAPS, GridSpec.grid(2, 4)), "v"),
    "phi_normalize": (lambda q, k, v: attention.phi_normalize(q[0], KernelSpec.softmax()), "q"),
    "focused_map": (lambda q, k, v: attention.focused_map(q, 3), "q"),
}


def _qkv():
    # positive entries, so focused features leave no all-zero row
    return list(np.random.default_rng(0).uniform(0.1, 1.0, (3, 8, 4)))


class TestTensorType:
    def test_rank_and_shape_validation(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 2, 2, 2, 2)))
        with pytest.raises(ValueError):
            Tensor([np.nan, 1.0])

    def test_immutable(self):
        results = [Tensor([1.0, 2.0])]
        results += [PUBLIC_KERNELS[name][0](*_qkv())
                    for name in ("softmax", "homogeneous_mix", "rope_apply")]
        for t in results:
            assert not t.array.flags.writeable
            with pytest.raises(ValueError):
                t.array[0] = 5.0

    def test_constructor_copies_caller_data(self):
        src = np.array([[1.0, 2.0], [3.0, 4.0]])
        t = Tensor(src)
        src[0, 0] = 99.0
        assert t.array[0, 0] == 1.0
        assert src.flags.writeable
        assert not np.shares_memory(t.array, src)

    def test_owning_wrap_does_not_copy(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        t = Tensor._own(arr)
        assert t.array is arr
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            Tensor._own(np.array([np.inf]))

    def test_json_round_trip(self):
        t = Tensor([[1.0, 2.5], [3.0, -4.0]])
        back = Tensor.from_json(t.to_json())
        assert back == t
        assert '"shape": [2, 2]' in t.to_json()

    def test_json_length_mismatch(self):
        with pytest.raises(DimensionError):
            Tensor.from_json('{"shape": [2, 2], "data": [1, 2, 3]}')

    def test_ops_return_fresh_tensors(self):
        v = np.array([[1.0, 2.0], [5.0, 0.0]])
        for a in (Tensor(v), v):
            out = homogeneous_mix(a)
            assert out is not a
            assert not np.shares_memory(out.array, v)
            assert not out.array.flags.writeable
            np.testing.assert_array_equal(out.array, [[3.0, 1.0], [3.0, 1.0]])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name,slot", [(name, slot) for name, (_, reads) in
                                       sorted(PUBLIC_KERNELS.items()) for slot in reads])
def test_public_kernels_reject_non_finite_input(name, slot, bad):
    q, k, v = _qkv()
    {"q": q, "k": k, "v": v}[slot][0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        PUBLIC_KERNELS[name][0](q, k, v)
