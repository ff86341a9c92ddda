import numpy as np
import pytest

from dispersionlab.attention import homogeneous_mix
from dispersionlab.errors import DimensionError
from dispersionlab.tensor import Tensor


class TestTensorType:
    def test_rank_and_shape_validation(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 2, 2, 2, 2)))
        with pytest.raises(ValueError):
            Tensor([np.nan, 1.0])

    def test_immutable(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.array[0] = 5.0

    def test_json_round_trip(self):
        t = Tensor([[1.0, 2.5], [3.0, -4.0]])
        back = Tensor.from_json(t.to_json())
        assert back == t
        assert '"shape": [2, 2]' in t.to_json()

    def test_json_length_mismatch(self):
        with pytest.raises(DimensionError):
            Tensor.from_json('{"shape": [2, 2], "data": [1, 2, 3]}')

    def test_float32_option(self):
        t = Tensor([[1.0]], dtype="float32")
        assert t.dtype == "float32"

    def test_ops_return_fresh_tensors(self):
        a = Tensor([[1.0, 2.0]])
        out = homogeneous_mix(a)
        assert out is not a
        assert out.array.base is None or out.array.base is not a.array
