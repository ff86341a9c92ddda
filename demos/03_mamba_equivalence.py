"""Three faces of the same recursion.

The discrete state-space scan, its closed-form product-sum solution, and
the causal-attention rewriting all compute the same outputs; the decay
factors give the mechanism a finite memory (a forgetting horizon) instead
of the dispersion that global attention suffers.
"""

import numpy as np

from dispersionlab import (
    SsmParams,
    causal_linear_recursive,
    forgetting_horizon,
    forms_max_diff,
)
from dispersionlab.rng import rng_for
from dispersionlab.ssm import causal_linear_masked, decayed_key_magnitudes

rng = rng_for(42, "mamba-demo")
n, d_state, channels = 10, 4, 3
params = SsmParams.random(rng, n, d_state, channels, zero_h0=True)
x = rng.standard_normal((n, channels))

print("= Scan vs closed form vs attention form " + "=" * 33)
print(f"  worst difference between the three forms: {forms_max_diff(params, x):.2e}")

print("\n= Exponential forgetting " + "=" * 49)
# the decayed key magnitudes fall geometrically with the lag
mags = decayed_key_magnitudes(params, n)
print("  |decayed key| by lag (newest last):")
print("  " + "  ".join(f"{m:.4f}" for m in mags))
for threshold in (0.5, 0.1, 0.01):
    horizons = forgetting_horizon(params, threshold)
    print(f"  threshold {threshold:5.2f}: horizon at the last step = {horizons[-1]} tokens")

print("\n= Causal linear attention shares the recursion shape " + "=" * 20)
q, k, v = rng.standard_normal((3, 8, 4))
rec = causal_linear_recursive(q, k, v).array
masked = causal_linear_masked(q, k, v).array
print(f"  recursive state form vs masked quadratic form: "
      f"{np.abs(rec - masked).max():.2e}")
print("  (same prefix attention, computed in O(n d^2) instead of O(n^2 d))")
