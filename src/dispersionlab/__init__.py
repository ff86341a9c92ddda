"""dispersionlab: a numerical laboratory for attention dispersion.

Library layout:
  tensor     dense immutable, finiteness-checked float64 arrays
  posenc     rotary embeddings, grids, depthwise positional kernels
  attention  the attention variant family (softmax, linear, focused,
             window, SEMA, MILA) with coefficient extraction, all built on
             one batched blocked-coefficient kernel
  analysis   dispersion bounds, sweeps, the counterexample, cost models
  ssm        the discrete state-space recursion and its attention form
  autograd   tape-based reverse mode plus gradcheck; every attention
             variant is one or two tape ops that forward through the numpy
             kernels (the blocked ops fold heads into the batch axis)
  model      toy SEMA backbone, receptive-field probes, toy training
  cli        the `dispersion-lab` experiment runner
"""

__version__ = "0.1.0"

from .tensor import Tensor  # noqa: F401
from .posenc import DepthwiseKernel, GridSpec, lepe, rope_apply  # noqa: F401
from .attention import (  # noqa: F401
    KernelSpec,
    WindowSpec,
    focused_attention,
    focused_map,
    generalized_attention,
    homogeneous_mix,
    linear_attention,
    linear_attention_fast,
    mila_attention,
    phi_normalize,
    sema_attention,
    softmax_attention,
    window_attention,
)
from .analysis import (  # noqa: F401
    BoundedSampler,
    DispersionReport,
    coefficient_bounds,
    complexity_estimate,
    fit_decay_slope,
    measure_dispersion,
    remark_counterexample,
)
from .ssm import (  # noqa: F401
    SsmParams,
    causal_linear_recursive,
    forgetting_horizon,
    forms_max_diff,
    mamba_as_attention,
    ssm_closed_form,
    ssm_scan,
)
from .autograd import Tape, backward, gradcheck, leaf  # noqa: F401
from .model import (  # noqa: F401
    ModelConfig,
    SyntheticTask,
    forward,
    init_params,
    parameter_count,
    train_toy,
)
