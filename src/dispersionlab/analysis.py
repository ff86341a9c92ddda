"""Dispersion theory made executable.

Theoretical coefficient bounds per attention variant, empirical dispersion
sweeps over growing sequence lengths (the max coefficient must decay like
1/n for every normalized global variant, and must not decay at all for
windowed attention with fixed window content), the heavy-tailed-logit
counterexample where a query keeps attending to the first key, and
multiply-add cost models for the complexity claims.

A sweep cell streams query rows through one scratch block, applies phi in
place without dividing, and keeps only the coefficient and logit extrema, the
former from per-row extrema and row sums; perfbench's tracer binds
_variant_cell by name.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .attention import (KernelSpec, WindowSpec, phi_values, _apply_psi, _blocks, _EPSILON,
                        _phi_rows, _row_blocks, _ROW_TILE)
from .errors import BoundViolationError, ConfigurationError, DimensionError, KernelDomainError
from .rng import rng_for

VARIANTS = ("softmax", "linear", "focused", "mila", "window")

_DEFAULT_KERNELS = {
    "softmax": KernelSpec.softmax,
    "linear": KernelSpec.linear,
    "focused": KernelSpec.focused,
    "window": KernelSpec.softmax,
    "mila": KernelSpec.linear,
}


def default_kernel(variant: str) -> KernelSpec:
    if variant not in _DEFAULT_KERNELS:
        raise ValueError(f"unknown variant {variant!r}, choose from {VARIANTS}")
    return _DEFAULT_KERNELS[variant]()


def coefficient_bounds(kernel: KernelSpec, lo: float, hi: float, n: int,
                       stabilizer: float) -> tuple[float, float]:
    """Theoretical (lower, upper) for one coefficient normalized over n keys
    whose logits lie in [lo, hi]:
    phi(a)/(n phi(b) + stabilizer) <= alpha <= phi(b)/(n phi(a)).

    stabilizer is the constant the normalizer adds to its denominator (MILA's
    epsilon, 0 for a plain ratio). A phi that overflows or underflows on the
    logit range gives no bound: KernelDomainError.
    """
    # every supported phi is nondecreasing, so the extremizers are the endpoints
    pa, pb = float(phi_values(kernel, lo)), float(phi_values(kernel, hi))
    if not 0 < pa <= pb < math.inf:
        raise KernelDomainError(
            "phi overflows or underflows on the logit range: need 0 < phi(a) <= phi(b) "
            f"< inf, got phi(a)={pa!r}, phi(b)={pb!r}")
    return (pa / (n * pb + stabilizer), pb / (n * pa))


@dataclass(frozen=True)
class BoundedSampler:
    """Draws (q, k) with every logit q_i . k_j bounded by logit_bound.

    Rows are random directions with norms in (0, sqrt(M)], so |q_i . k_j| <= M
    by Cauchy-Schwarz. Options support the degenerate sweep modes: nonneg
    draws elementwise-nonnegative rows (required by relu-based features),
    tile_rows repeats one fixed block of rows so window content is identical
    at every sequence length, and zero_queries zeroes q for uniform logits.
    """

    d: int = 16
    logit_bound: float = 1.0
    nonneg: bool = False
    tile_rows: int | None = None
    zero_queries: bool = False

    def __post_init__(self):
        if self.d < 1 or not 0 < self.logit_bound < math.inf:
            raise ConfigurationError("sampler needs d >= 1 and a positive, finite logit_bound; "
                                     f"got d={self.d}, logit_bound={self.logit_bound}")

    def _rows(self, rng: np.random.Generator, count: int) -> np.ndarray:
        x = rng.standard_normal((count, self.d))
        if self.nonneg:
            x = np.abs(x)
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        radius = rng.uniform(0.2, 1.0, (count, 1)) * math.sqrt(self.logit_bound)
        return x * radius / norms

    def draw(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        if self.tile_rows is not None:
            if n % self.tile_rows != 0:
                raise DimensionError(f"tile_rows {self.tile_rows} does not divide n={n}")
            reps = n // self.tile_rows
            q = np.tile(self._rows(rng, self.tile_rows), (reps, 1))
            k = np.tile(self._rows(rng, self.tile_rows), (reps, 1))
        else:
            q, k = self._rows(rng, n), self._rows(rng, n)
        if self.zero_queries:
            q = np.zeros_like(q)
        return q, k


@dataclass
class DispersionReport:
    """Per-n extreme coefficients, their theoretical bounds, and the decay fit."""

    variant: str
    n_values: list[int]
    max_coeff: list[float]
    min_coeff: list[float]
    upper_bound: list[float]
    lower_bound: list[float]
    slope: float
    samples: int
    seed: int
    max_coeff_median: list[float] = field(default_factory=list)

    def __post_init__(self):
        lengths = {len(self.n_values), len(self.max_coeff), len(self.min_coeff),
                   len(self.upper_bound), len(self.lower_bound)}
        if lengths != {len(self.n_values)}:
            raise ValueError("report columns must share one length")
        # normalized coefficients are strictly positive weights
        for mx, mn in zip(self.max_coeff, self.min_coeff):
            if not mx >= mn > 0:
                raise ValueError(f"expected max >= min > 0, got ({mx}, {mn})")

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "max_coeff", "min_coeff", "lower", "upper"])
        for i, n in enumerate(self.n_values):
            writer.writerow([n, repr(self.max_coeff[i]), repr(self.min_coeff[i]),
                             repr(self.lower_bound[i]), repr(self.upper_bound[i])])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)


@dataclass(frozen=True)
class CellExtrema:
    """Smallest and largest coefficient of one draw; size counts the coefficients."""

    cmin: float
    cmax: float
    size: int


def _variant_cell(variant: str, kernel: KernelSpec, q: np.ndarray, k: np.ndarray,
                  win: WindowSpec | None):
    """Coefficient extrema plus their sample-specific rigorous bounds for one draw.

    Global variants stream query rows through attention._row_blocks. Each
    block of logits gives its row minima and maxima (the logit extrema), has
    phi applied in place by attention._phi_rows (every row passes the
    kernel's domain checks) and gives its row sums s, but is never divided.
    Division by a positive s is correctly rounded, hence monotone, so
    min_j fl(w_j / s) == fl(min_j w_j / s) and likewise for the max: the
    coefficient extrema come from n row extrema of the weights w, which are
    the logit row extrema for identity phi. No n x n array is built and,
    with one BLAS thread, the extrema are bitwise those of the whole
    normalized matrix. The bound comes from the global logit extrema.
    perfbench wraps this function by name, labels a call by args[0], meters
    it by args[2].shape[0] and counts result[0].size coefficients: the name,
    signature and CellExtrema.size are an interface.
    """
    n = q.shape[0]
    fq = _apply_psi(q, kernel.psi_q, kernel.psi_p)
    fk = _apply_psi(k, kernel.psi_k, kernel.psi_p)
    if variant == "window":
        if win is None:
            raise ValueError("window variant requires a WindowSpec")
        if n % win.w != 0:
            raise DimensionError(f"window {win.w} does not divide n={n}")
        block = win.w
        chunks = [(None, _blocks(fq, block) @ _blocks(fk, block).transpose(0, 2, 1))]
    else:
        block = n
        chunks = _row_blocks(fq, fk, _ROW_TILE)
    # numpy extrema propagate a NaN, as a min over the whole matrix would
    lo_logit, hi_logit, cmin, cmax = np.inf, -np.inf, np.inf, -np.inf
    for _, logits in chunks:
        lo = logits.min(axis=-1, keepdims=True)
        hi = logits.max(axis=-1, keepdims=True)
        lo_logit = np.minimum(lo_logit, lo.min())
        hi_logit = np.maximum(hi_logit, hi.max())
        if variant == "mila":
            # un-gated ratio with the stabilizer in the denominator, not a
            # threshold; the epsilon keeps the true coefficient at or below the
            # textbook lower bound, so the rigorous lower bound carries it too
            sums = logits.sum(axis=-1, keepdims=True) + _EPSILON
        else:
            sums = _phi_rows(kernel, logits, hi)
            if kernel.phi != "identity":  # the weights are no longer the logits
                lo, hi = logits.min(axis=-1, keepdims=True), logits.max(axis=-1, keepdims=True)
        cmin = np.minimum(cmin, (lo / sums).min())
        cmax = np.maximum(cmax, (hi / sums).max())
    bounds = coefficient_bounds(kernel, float(lo_logit), float(hi_logit), block,
                                _EPSILON if variant == "mila" else 0.0)
    return CellExtrema(float(cmin), float(cmax), n * block), bounds


def _env_threads() -> int:
    """Sweep worker count from DISPERSION_LAB_THREADS: an integer >= 1, default 1."""
    text = os.environ.get("DISPERSION_LAB_THREADS", "1")
    if not text.isdecimal() or int(text) < 1:
        raise ConfigurationError(f"DISPERSION_LAB_THREADS must be an integer >= 1, got {text!r}")
    return int(text)


def measure_dispersion(variant: str, kernel: KernelSpec | None, sampler: BoundedSampler,
                       n_values, trials: int, seed: int,
                       win: WindowSpec | None = None) -> DispersionReport:
    """Empirical dispersion sweep with per-sample bound containment.

    For each n, draws `trials` seeded (q, k) pairs, streams the variant's
    coefficients, and checks every coefficient against the bounds computed
    from that draw's own logit extrema. A violation raises
    BoundViolationError naming n, trial and seed: the bounds are a test
    oracle, not advice. The recorded per-n bounds are the loosest per-trial
    bounds. DISPERSION_LAB_THREADS sets the worker count. The MILA cell has
    its own elu+1 features and stabilized ratio, so a MILA sweep takes only
    KernelSpec.linear().
    """
    if variant not in VARIANTS:
        raise ValueError(f"cannot sweep variant {variant!r}")
    kernel = kernel or default_kernel(variant)
    linear = KernelSpec.linear()
    if variant == "mila" and kernel != linear:
        pairs = [(f.name, getattr(kernel, f.name), getattr(linear, f.name))
                 for f in fields(KernelSpec)]
        differ = [f"{name} {got!r} (not {want!r})" for name, got, want in pairs if got != want]
        raise ConfigurationError("mila normalizes its logits by their sum; it takes only "
                                 f"KernelSpec.linear(), got {', '.join(differ)}")
    n_values = [int(n) for n in n_values]
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly ascending")
    if any(n < 1 for n in n_values):
        raise ValueError(f"n_values must be >= 1, got {min(n_values)}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    def run_cell(n: int, trial: int):
        # fixed window content must not depend on n, or it would not be fixed
        if sampler.tile_rows is not None:
            rng = rng_for(seed, variant, "tile", trial)
        else:
            rng = rng_for(seed, variant, n, trial)
        q, k = sampler.draw(rng, n)
        try:
            # a cell checks its own results, so numpy's float warnings add nothing
            with np.errstate(all="ignore"):
                extrema, (lo, hi) = _variant_cell(variant, kernel, q, k, win)
        except KernelDomainError as exc:
            raise KernelDomainError(
                f"{variant}: {exc} at n={n}, trial={trial}, seed={seed}") from None
        cmin, cmax = extrema.cmin, extrema.cmax
        if cmin < lo - 1e-15 or cmax > hi + 1e-15:
            raise BoundViolationError(
                f"{variant}: coefficient outside bounds at n={n}, trial={trial}, seed={seed}: "
                f"observed [{cmin}, {cmax}], bounds [{lo}, {hi}]"
            )
        return cmin, cmax, lo, hi

    threads = _env_threads()
    max_c, min_c, ub, lb, med = [], [], [], [], []
    for n in n_values:
        cells = list(range(trials))
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(lambda t: run_cell(n, t), cells))
        else:
            results = [run_cell(n, t) for t in cells]
        mins, maxs, los, his = zip(*results)
        max_c.append(max(maxs))
        min_c.append(min(mins))
        lb.append(min(los))
        ub.append(max(his))
        med.append(float(np.median(maxs)))
    report = DispersionReport(variant=variant, n_values=n_values, max_coeff=max_c,
                              min_coeff=min_c, upper_bound=ub, lower_bound=lb,
                              slope=0.0, samples=trials, seed=seed,
                              max_coeff_median=med)
    report.slope = fit_decay_slope(report)
    return report


def fit_decay_slope(report: DispersionReport) -> float:
    """Least-squares slope of log(max coefficient) against log(n).

    Bitwise-constant coefficients (the windowed non-dispersion case) return
    an exact slope of 0.
    """
    if len(report.n_values) < 3:
        raise ValueError("need at least 3 sequence lengths to fit a slope")
    y = np.asarray(report.max_coeff, dtype=np.float64)
    if np.any(y <= 0):
        raise ValueError("slope fit requires positive coefficients")
    if np.all(y == y[0]):
        return 0.0
    x = np.log(np.asarray(report.n_values, dtype=np.float64))
    return float(np.polyfit(x, np.log(y), 1)[0])


def remark_counterexample(n: int) -> tuple[float, float]:
    """First coefficient under the heavy-tailed logits log(1/j^2).

    With an exp kernel the first coefficient is 1 / sum_{j<=n} j^-2, which
    stays strictly above its n -> infinity limit 6/pi^2. Unbounded logits
    escape the dispersion theorem: this query never stops attending to the
    first key.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    j = np.arange(1, n + 1, dtype=np.float64)
    partial = float(np.sum(1.0 / (j * j)))
    return 1.0 / partial, 6.0 / math.pi**2


_COMPLEXITY_VARIANTS = ("full", "window", "homogeneous_mix", "sema", "linear")


def complexity_estimate(variant: str, n: int, d: int, w: int | None = None) -> int:
    """Closed-form multiply-add count of coefficient computation plus value
    aggregation (projections and the exp/divide of normalization excluded)."""
    if variant not in _COMPLEXITY_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, choose from {_COMPLEXITY_VARIANTS}")
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if variant in ("window", "sema"):
        if w is None or w < 1:
            raise ValueError(f"variant {variant!r} requires a window size")
        if n % w != 0:
            raise ValueError(f"window {w} does not divide n={n}")
    if variant == "full":
        return 2 * n * n * d
    if variant == "window":
        return 2 * n * w * d
    if variant == "homogeneous_mix":
        return n * d
    if variant == "sema":
        return 2 * n * w * d + n * d
    return 2 * n * d * d  # linear, associative form


def instrumented_counts(variant: str, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                        w: int | None = None) -> int:
    """Count multiply-adds by actually iterating the computation loops.

    Independent oracle for complexity_estimate: the count emerges from loop
    structure, not from a formula. Counts the numerator path only, matching
    the cost-model scope (no exp, no divides).
    """
    n, d = q.shape
    count = 0
    if variant == "full":
        for i in range(n):
            for j in range(n):
                for l in range(d):
                    count += 1  # logit accumulation q[i,l]*k[j,l]
        for i in range(n):
            for j in range(n):
                for c in range(d):
                    count += 1  # value aggregation coeff[i,j]*v[j,c]
        return count
    if variant == "window":
        for _ in range(n // w):
            for i in range(w):
                for j in range(w):
                    for l in range(d):
                        count += 1
            for i in range(w):
                for j in range(w):
                    for c in range(d):
                        count += 1
        return count
    if variant == "homogeneous_mix":
        for i in range(n):
            for c in range(d):
                count += 1  # running sum of value rows
        return count
    if variant == "sema":
        return instrumented_counts("window", q, k, v, w) + instrumented_counts(
            "homogeneous_mix", q, k, v
        )
    if variant == "linear":
        for i in range(n):
            for a in range(d):
                for b in range(d):
                    count += 1  # state accumulation k[i,a]*v[i,b]
        for i in range(n):
            for a in range(d):
                for b in range(d):
                    count += 1  # query contraction q[i,a]*S[a,b]
        return count
    raise ValueError(f"unknown variant {variant!r}")
