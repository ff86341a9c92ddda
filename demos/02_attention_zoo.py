"""The attention variant family on one shared input.

Shows how one normalized-kernel definition specializes to softmax and
linear attention, how the focused power map sharpens weights, how SEMA
decomposes exactly into window attention plus a broadcast value mean, and
how far rotary gating moves MILA away from plain linear attention.
"""

import numpy as np

from dispersionlab import (
    GridSpec,
    KernelSpec,
    WindowSpec,
    generalized_attention,
    homogeneous_mix,
    linear_attention,
    mila_attention,
    sema_attention,
    softmax_attention,
    window_attention,
)
from dispersionlab.attention import (
    focused_attention_coefficients,
    linear_attention_coefficients,
    softmax_attention_coefficients,
)
from dispersionlab.rng import rng_for

rng = rng_for(42, "zoo")
n, d = 8, 4
q, k, v = rng.standard_normal((3, n, d))

print("= One definition, many variants " + "=" * 40)
soft = softmax_attention(q, k, v).array
gen_soft = generalized_attention(q, k, v, KernelSpec.softmax()).array
lin = linear_attention(q, k, v).array
gen_lin = generalized_attention(q, k, v, KernelSpec.linear()).array
print(f"  softmax vs generalized(exp, identity):   {np.abs(soft - gen_soft).max():.2e}")
print(f"  linear  vs generalized(identity, elu+1): {np.abs(lin - gen_lin).max():.2e}")

print("\n= Focus: how peaked is each variant? " + "=" * 35)
qa, ka = np.abs(q), np.abs(k)
for name, coeff in (
    ("softmax", softmax_attention_coefficients(qa, ka).array),
    ("linear", linear_attention_coefficients(qa, ka).array),
    ("focused p=3", focused_attention_coefficients(qa, ka).array),
):
    print(f"  {name:12s} max weight {coeff.max():.4f}   entropy "
          f"{-(coeff * np.log(coeff + 1e-12)).sum(axis=1).mean():.3f}")

print("\n= SEMA = window attention + homogeneous mixing " + "=" * 25)
w = WindowSpec(4)
sema = sema_attention(q, k, v, w).array
rebuilt = window_attention(q, k, v, w).array + homogeneous_mix(v).array
print(f"  exact decomposition diff: {np.abs(sema - rebuilt).max()}")
mean_part = sema - window_attention(q, k, v, w).array
print(f"  every row of (sema - window) equals the value mean: "
      f"{np.abs(mean_part - v.mean(axis=0)).max():.2e}")

print("\n= MILA: rotary gating on top of linear attention " + "=" * 23)
grid = GridSpec.linear(n)
mila = mila_attention(q, k, v, grid).array
mila_pos0 = mila_attention(q, k, v, grid, positions=np.zeros(n)).array
print(f"  with positions zeroed, MILA is linear attention: "
      f"{np.abs(mila_pos0 - lin).max():.2e}")
print(f"  with real positions it moves by {np.abs(mila - lin).max():.3f} "
      "(the gate carries relative position)")
