"""Dispersion theory made executable.

Theoretical coefficient bounds per attention variant, empirical dispersion
sweeps over growing sequence lengths (the max coefficient must decay like
1/n for every normalized global variant, and must not decay at all for
windowed attention with fixed window content), the heavy-tailed-logit
counterexample where a query keeps attending to the first key, and
multiply-add cost models for the complexity claims.

A sweep cell, window or global, streams the query rows of its key blocks
through one scratch run, applies phi in place without dividing, and keeps only
the coefficient and logit extrema, the former from per-row extrema and row
sums; perfbench's tracer binds _variant_cell by name.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .attention import (KernelSpec, WindowSpec, homogeneous_mix, linear_attention_fast, phi_values,
                        sema_attention, softmax_attention, window_attention, _apply_psi, _blocks,
                        _EPSILON, _exp_shift, _FOCUSED, _LINEAR, _phi_rows, _row_blocks, _row_fold,
                        _ROW_TILE, _SOFTMAX)
from .errors import (BoundViolationError, ConfigurationError, DimensionError, KernelDomainError,
                     is_int)
from .posenc import _run_rows
from .rng import rng_for

VARIANTS = ("softmax", "linear", "focused", "mila", "window")

_DEFAULT_KERNELS = {"softmax": _SOFTMAX, "linear": _LINEAR, "focused": _FOCUSED,
                    "window": _SOFTMAX, "mila": _LINEAR}


def default_kernel(variant: str) -> KernelSpec:
    if variant not in _DEFAULT_KERNELS:
        raise ValueError(f"unknown variant {variant!r}, choose from {VARIANTS}")
    return _DEFAULT_KERNELS[variant]


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
        if not is_int(self.d) or self.d < 1 or not 0 < self.logit_bound < math.inf:
            raise ConfigurationError("sampler needs integer d >= 1 and a positive, finite "
                                     f"logit_bound; got d={self.d}, logit_bound={self.logit_bound}")
        if self.tile_rows is not None and not (is_int(self.tile_rows) and self.tile_rows >= 1):
            raise ConfigurationError(f"tile_rows must be an integer >= 1, got {self.tile_rows!r}")

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


def _weight_extrema(kernel: KernelSpec, logits: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """phi applied in place to a block of logits whose row min and max are lo and hi;
    returns the weights' row min, row max and row sums.

    An exp row's largest weight is exp(c - c), c its shift: exactly 1 for a
    finite c and NaN otherwise, as a max pass would give. Its row min is
    taken again, since numpy's exp is not promised to be monotone.
    """
    sums = _phi_rows(kernel, logits, hi, lo)
    if kernel.phi == "identity":  # the weights are the logits
        return lo, hi, sums
    if kernel.phi == "power":
        return _row_fold(np.minimum, logits), _row_fold(np.maximum, logits), sums
    shift = _exp_shift(kernel, hi)
    return _row_fold(np.minimum, logits), np.exp(shift - shift), sums


def _variant_cell(variant: str, kernel: KernelSpec, q: np.ndarray, k: np.ndarray,
                  win: WindowSpec | None):
    """Coefficient extrema plus their sample-specific rigorous bounds for one draw.

    Each query row is normalized over one block of keys: all n, or its window of win.w.
    The psi-mapped rows, as attention._blocks views of that block, stream through
    attention._row_blocks in runs of posenc._run_rows(block, _ROW_TILE) rows; a window
    cell is one run. Each run of logits gives its row minima and maxima (the logit
    extrema, by attention._row_fold), has phi applied in place by attention._phi_rows
    (every row passes the kernel's domain checks, identity and power ones answered by
    the row minima) and gives its row sums s, but is never divided. Division by a
    positive s is correctly rounded, hence monotone, so min_j fl(w_j / s) ==
    fl(min_j w_j / s) and likewise for the max: the coefficient extrema come from the
    row extrema of the weights w (_weight_extrema). No n x n array is built and, with
    one BLAS thread, the extrema are bitwise those of the whole normalized matrix. The
    bound comes from the cell's logit extrema. perfbench wraps this function by name,
    labels a call by args[0], meters it by args[2].shape[0] and counts result[0].size
    coefficients: the name, signature and CellExtrema.size are an interface.
    """
    block = win.w if variant == "window" else len(q)
    qb = _blocks(_apply_psi(q, kernel.psi_q, kernel.psi_p), block)
    kb = _blocks(_apply_psi(k, kernel.psi_k, kernel.psi_p), block)
    # numpy extrema propagate a NaN, as a min over the whole matrix would
    lo_logit, hi_logit, cmin, cmax = np.inf, -np.inf, np.inf, -np.inf
    for _, logits in _row_blocks(qb, kb, _run_rows(block, _ROW_TILE)):
        lo, hi = _row_fold(np.minimum, logits), _row_fold(np.maximum, logits)
        lo_logit = np.minimum(lo_logit, lo.min())
        hi_logit = np.maximum(hi_logit, hi.max())
        if variant == "mila":
            # un-gated ratio with the stabilizer in the denominator, not a
            # threshold; the epsilon keeps the true coefficient at or below the
            # textbook lower bound, so the rigorous lower bound carries it too
            sums = logits.sum(axis=-1, keepdims=True) + _EPSILON
        else:
            lo, hi, sums = _weight_extrema(kernel, logits, lo, hi)
        cmin = np.minimum(cmin, (lo / sums).min())
        cmax = np.maximum(cmax, (hi / sums).max())
    bounds = coefficient_bounds(kernel, float(lo_logit), float(hi_logit), block,
                                _EPSILON if variant == "mila" else 0.0)
    return CellExtrema(float(cmin), float(cmax), len(q) * block), bounds


def _check_window_sweep(variant: str, n_values, win: WindowSpec | None) -> None:
    """A window sweep needs a WindowSpec whose w divides every n: ConfigurationError."""
    if variant == "window" and win is None:
        raise ConfigurationError("a window sweep needs a WindowSpec")
    misfit = [n for n in n_values if n % win.w] if variant == "window" else []
    if misfit:
        raise ConfigurationError(f"window {win.w} does not divide n={misfit[0]}")


def measure_dispersion(variant: str, kernel: KernelSpec | None, sampler: BoundedSampler,
                       n_values, trials: int, seed: int,
                       win: WindowSpec | None = None) -> DispersionReport:
    """Empirical dispersion sweep with per-sample bound containment.

    For each n, draws `trials` seeded (q, k) pairs, streams the variant's
    coefficients, and checks every coefficient against the bounds computed
    from that draw's own logit extrema. A violation raises
    BoundViolationError naming n, trial and seed: the bounds are a test
    oracle, not advice. A lower bound or smallest coefficient that
    underflows to 0 would make that check vacuous: KernelDomainError, naming
    the same. The recorded per-n bounds are the loosest per-trial bounds.
    The MILA cell has its own elu+1 features and stabilized ratio, so a MILA
    sweep takes only the KernelSpec.linear preset.
    """
    if variant not in VARIANTS:
        raise ValueError(f"cannot sweep variant {variant!r}")
    kernel = kernel or default_kernel(variant)
    if variant == "mila" and kernel != _LINEAR:
        pairs = [(f.name, getattr(kernel, f.name), getattr(_LINEAR, f.name))
                 for f in fields(KernelSpec)]
        differ = [f"{name} {got!r} (not {want!r})" for name, got, want in pairs if got != want]
        raise ConfigurationError("mila normalizes its logits by their sum; it takes only "
                                 f"the KernelSpec.linear preset, got {', '.join(differ)}")
    n_values = [int(n) for n in n_values]
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly ascending")
    if any(n < 1 for n in n_values):
        raise ValueError(f"n_values must be >= 1, got {min(n_values)}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_window_sweep(variant, n_values, win)

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
            if not (lo > 0 and extrema.cmin > 0):  # a zero lower bound contains nothing
                raise KernelDomainError(
                    "the lower bound or the smallest coefficient underflows: need both > 0, "
                    f"got lower bound {lo!r} and smallest coefficient {extrema.cmin!r}")
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

    max_c, min_c, ub, lb, med = [], [], [], [], []
    for n in n_values:
        mins, maxs, los, his = zip(*[run_cell(n, t) for t in range(trials)])
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


# Each complexity_estimate cost model and a (q, k, v, w) call of the kernel it counts
TIMED_KERNELS = {
    "full": lambda q, k, v, w: softmax_attention(q, k, v),
    "window": lambda q, k, v, w: window_attention(q, k, v, WindowSpec(w)),
    "homogeneous_mix": lambda q, k, v, w: homogeneous_mix(v),
    "sema": lambda q, k, v, w: sema_attention(q, k, v, WindowSpec(w)),
    "linear": lambda q, k, v, w: linear_attention_fast(q, k, v),
}


def complexity_estimate(variant: str, n: int, d: int, w: int | None = None) -> int:
    """Closed-form multiply-add count of coefficient computation plus value
    aggregation (projections and the exp/divide of normalization excluded)."""
    if variant not in TIMED_KERNELS:
        raise ValueError(f"unknown variant {variant!r}, choose from {tuple(TIMED_KERNELS)}")
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


def instrumented_counts(variant: str, n: int, d: int, w: int | None = None) -> int:
    """Count multiply-adds by actually iterating the computation loops.

    Independent oracle for complexity_estimate, with the same arguments: the
    count emerges from loop structure, not from a formula. Counts the
    numerator path only, matching the cost-model scope (no exp, no divides).
    """
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
        return instrumented_counts("window", n, d, w) + instrumented_counts("homogeneous_mix", n, d)
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


def scaling_fit(kernels, n_values: list[int], d: int, w: int, seed: int) -> tuple[dict, dict, dict]:
    """CPU-time scaling of the named TIMED_KERNELS, with their counter check.

    At each n the kernels share one seeded (q, k, v) draw. Three passes go over
    the n grid, each running the kernels at each n in the order given: gc.collect(),
    a warm-up call in the first pass only, then ceil(max(5, 2**22 // n**2) / 3) >= 2
    timed calls. A time is the minimum process CPU time over all passes (the least
    noisy estimate; a burst of contention spoils one pass, not a point). Returns
    (seconds, exponents, counters) keyed by name: the times per n, the polyfit slope
    of log time against log n, and whether complexity_estimate equals
    instrumented_counts at n = 64.
    """
    if len(set(kernels)) != len(kernels):
        raise ValueError(f"repeated kernel name in {list(kernels)}")
    counters = {name: complexity_estimate(name, 64, d, w) == instrumented_counts(name, 64, d, w)
                for name in kernels}  # checks every name and w before any timing
    seconds = {name: [math.inf] * len(n_values) for name in kernels}
    for first in (True, False, False):
        for i, n in enumerate(n_values):
            q, k, v = rng_for(seed, "scaling-fit", n).standard_normal((3, n, d))
            calls = -(-max(5, (1 << 22) // (n * n)) // 3)  # ceil(... / 3)
            for name in kernels:
                fn = TIMED_KERNELS[name]
                gc.collect()
                if first:
                    fn(q, k, v, w)  # warm-up: exclude first-call allocation noise
                for _ in range(calls):
                    t0 = time.process_time()
                    fn(q, k, v, w)
                    seconds[name][i] = min(seconds[name][i], time.process_time() - t0)
    logs = np.log(n_values)
    exponents = {name: float(np.polyfit(logs, np.log(times), 1)[0])
                 for name, times in seconds.items()}
    return seconds, exponents, counters
