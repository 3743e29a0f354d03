"""Condensed-density estimators for pooled pencil eigenvalues.

The eigenvalue cloud of R replications is summarized three ways: a weighted
histogram (the empirical condensed density), a Gaussian kernel estimate with
a plug-in bandwidth (binned and convolved by FFT on the histogram's grid),
and the proposed estimate that replaces the Gaussian kernel by the exact
ratio-of-Gaussians density, one component per real eigenvalue, sharing a
pooled pair correlation and a bandwidth chosen from the density's own
evolution equation. That bandwidth rule reads a pilot: a single ratio
density fitted to the histogram by least squares, with the package's own
projected Levenberg-Marquardt search.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import pde as _pde
from .ratio_density import TWO_PI, _derivs_erf_raw, _RatioKernel

# components per chunk when broadcasting kernels against evaluation grids
CHUNK = 512
# the proposed mixture cuts each component where its Gaussian exponent passes
# -_KERNEL_REACH: what it drops is below e^-45 (2.9e-20) of the component's own
# scale, and the bound on the mixture's error is about 1e-17 of its peak on the
# model2 paper config and at most 1.7e-16, about an ulp, on model1's. At 40 it
# is 1.9e-15 on model2, several ulps
_KERNEL_REACH = 45.0
# multi-start count for the reference fit
N_STARTS = 6
# a histogram of n bins with k = n // COARSE_BINS >= _MIN_MERGE, k dividing n,
# runs the reference fit's starts on a copy with k adjacent bins merged
COARSE_BINS = 1024
_MIN_MERGE = 4
GL_NODES = 128
WINDOW_EXTEND = 0.20
# most grid points or bins accepted; the paper uses at most 8,192
MAX_POINTS = 2**20
# the binned Gaussian comparator samples its kernel out to where the exponent
# passes -_GAUSS_REACH, about 9 sd: the tail it drops is below e^-40 (4e-18) of
# the peak
_GAUSS_REACH = 40.0
# linear binning errs by at most about (spacing / sd)^2 / 10 of the peak
# (measured 0.05-0.11 times that on the paper configs and a 64-point grid), so
# bins at most sd / _GAUSS_REFINE apart keep it under 2e-6
_GAUSS_REFINE = 250.0
# longest transform the binned comparator runs; past it the exact sum runs.
# At MAX_POINTS and model1's t+ the kernel's two reaches alone are about 8M bins
MAX_FFT = 2**22
# grid nodes off uniform spacing by more than this many sd move a binned value
# by about as much of the peak; such grids take the exact sum
_UNIFORM_SD = 1e-9

__all__ = [
    "RatioSample",
    "EigenSample",
    "DensityGrid",
    "FitResult",
    "Mode",
    "FitNonConvergenceError",
    "empirical_density",
    "count_outside",
    "gaussian_estimate",
    "GaussianPlan",
    "gaussian_plan",
    "binned_gaussian_estimate",
    "gaussian_bandwidth",
    "pooled_correlation",
    "fit_reference",
    "bandwidth_t_star_details",
    "ProposedGrid",
    "proposed_estimate",
    "extract_modes",
]


class FitNonConvergenceError(RuntimeError):
    """All multi-starts of the reference fit hit the iteration cap."""

    def __init__(self, message: str, best: "FitResult"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class Mode:
    x: float
    height: float


class RatioSample:
    """The real eigenvalue ratios of R replications, pooled, without their pairs.

    ratio holds every replication's ratios end to end, in replication order:
    replication r is the slice offsets[r]:offsets[r + 1]. weight is each
    eigenvalue's mass 1/(R p_r), p_r its replication's count. blocks_total
    is the nominal eigenvalue count R*p before complex and infinite
    eigenvalues were discarded; 0 means unknown. The histogram and the
    outside count read no more.
    """

    def __init__(self, ratio, blocks_total: int = 0):
        """The sample of the per-replication sequences ratio[r]."""
        sizes = [len(a) for a in ratio]
        self.ratio = np.concatenate([[], *ratio], dtype=float)
        self.offsets = np.cumsum([0, *sizes])
        # an empty replication repeats no weight, so its divisor only has to be nonzero
        self.weight = np.repeat(1.0 / (self.R * np.maximum(sizes, 1)), sizes)
        self.blocks_total = blocks_total

    @property
    def R(self) -> int:
        return self.offsets.size - 1

    def bounds(self):
        """(start, end) of each replication that kept an eigenvalue, in replication order."""
        offsets = self.offsets.tolist()
        return [(a, b) for a, b in zip(offsets[:-1], offsets[1:]) if a < b]


class EigenSample(RatioSample):
    """The sign-normalized real Schur pairs of R replications and their ratios, pooled.

    s and t hold every replication's pairs end to end, aligned with ratio
    (RatioSample), which the estimates and their bandwidths read with them.
    """

    def __init__(self, s, t, ratio, blocks_total: int = 0):
        """The sample of the per-replication sequences s[r], t[r] and ratio[r]."""
        if not len(s) == len(t) == len(ratio):
            raise ValueError("per-replication lists must have equal length")
        sizes = [len(a) for a in ratio]
        if [len(a) for a in s] != sizes or [len(a) for a in t] != sizes:
            raise ValueError("each replication needs as many s and t values as ratios")
        super().__init__(ratio, blocks_total)
        self.s, self.t = (np.concatenate([[], *parts], dtype=float) for parts in (s, t))


@dataclass
class DensityGrid:
    """Density values y >= 0 sampled on a strictly increasing grid x."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if self.x.size >= 2 and not np.all(np.diff(self.x) > 0.0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("density values must be finite")


@dataclass(frozen=True)
class FitResult:
    """Reference-density fit: variance t0, mean ratio mu0, correlation rho0."""

    t0: float
    mu0: float
    rho0: float
    objective: float
    converged: bool = True
    # diagnostics for metadata.json: residual evaluations per search (the
    # starts, then the polish if any), searches that converged, whether t0
    # sits at the variance cap span^2, and the bins the starts searched
    nfev: tuple = ()
    n_converged: int = 0
    at_t_cap: bool = False
    search_bins: int = 0

    @property
    def rho_near_boundary(self) -> bool:
        """1 - |rho0| < 1e-6: the fit ran to rho -> +-1, also short of the transform cap."""
        return 1.0 - abs(self.rho0) < _RHO_BOUNDARY


def _bin_grid(window, bins: int):
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError(f"window must be increasing, got {window}")
    if not 2 <= bins <= MAX_POINTS:
        raise ValueError(f"need 2 to {MAX_POINTS} bins, got {bins}")
    # empirical_density divides by edges[1] - edges[0] and DensityGrid wants
    # finite, strictly increasing centres: near the float range a width or a
    # centre overflows, and a few ulps wide a width or a spacing rounds to 0.0
    if not math.isfinite(hi - lo):
        raise ValueError(f"window {window} is wider than the float range")
    edges = np.linspace(lo, hi, bins + 1)
    with np.errstate(over="ignore"):
        centers = 0.5 * (edges[:-1] + edges[1:])
    if not (
        edges[1] > edges[0]
        and np.all(centers[1:] > centers[:-1])
        and np.all(np.isfinite(centers[[0, -1]]))
    ):
        raise ValueError(f"window {window} has no {bins} distinct finite bins")
    return edges, centers


def empirical_density(sample: RatioSample, window, bins: int) -> DensityGrid:
    """Weighted histogram of pooled eigenvalue ratios on bin centers.

    Each eigenvalue of replication r carries mass 1/(R p_r); values outside
    the window are dropped, so the grid integrates to the captured fraction.
    """
    edges, centers = _bin_grid(window, bins)
    if sample.ratio.size == 0:
        raise ValueError("empty eigenvalue sample")
    width = edges[1] - edges[0]
    hist, _ = np.histogram(sample.ratio, bins=edges, weights=sample.weight)
    return DensityGrid(x=centers, y=hist / width)


def count_outside(sample: RatioSample, window) -> int:
    """Eigenvalues excluded from the window by empirical_density."""
    lo, hi = float(window[0]), float(window[1])
    return int(np.count_nonzero((sample.ratio < lo) | (sample.ratio > hi)))


def gaussian_estimate(sample: EigenSample, grid_x: np.ndarray, t: float) -> DensityGrid:
    """Gaussian kernel mixture with variance t over the pooled eigenvalues.

    Accumulates one replication at a time, weight 1/(R p_r) applied to the
    replication subtotal, so merging two samples under power-of-two R-weights
    reproduces the weighted average of the separate estimates bit for bit.
    Each chunk's exponents -(x - mu)^2 / (2t) are written into one buffer as
    (x - mu)^2 / (-2t), the same bits, as IEEE division is sign-symmetric.
    """
    if t <= 0.0:
        raise ValueError(f"bandwidth t must be positive, got {t}")
    grid_x = np.asarray(grid_x, dtype=float)
    y = np.zeros(grid_x.size)
    norm = 1.0 / math.sqrt(2.0 * math.pi * t)
    R = sample.R
    buf = np.empty((min(CHUNK, np.diff(sample.offsets).max(initial=0)), grid_x.size))
    for start, end in sample.bounds():
        pts = sample.ratio[start:end]
        acc = np.zeros(grid_x.size)
        for k in range(0, pts.size, CHUNK):
            mu = pts[k : k + CHUNK, None]
            u = buf[: mu.shape[0]]
            np.subtract(grid_x, mu, out=u)
            np.square(u, out=u)
            np.divide(u, -2.0 * t, out=u)
            acc += np.exp(u, out=u).sum(axis=0)
        y += (norm / (R * pts.size)) * acc
    return DensityGrid(x=grid_x, y=y)


@dataclass(frozen=True)
class GaussianPlan:
    """How binned_gaussian_estimate evaluates a grid, for metadata.json.

    path is "binned" or "exact". On the binned path refine is the number of
    fine nodes per grid spacing, reach_bins the kernel's half-width in fine
    nodes and fft_len the transform's length; all three are 0 on the exact one.
    """

    path: str
    fft_len: int = 0
    refine: int = 0
    reach_bins: int = 0


def _fft_length(n: int) -> int:
    """The least 2-3-5-smooth integer >= n."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def gaussian_plan(grid_x: np.ndarray, t: float) -> GaussianPlan:
    """The plan of binned_gaussian_estimate on grid_x at variance t.

    The binned path needs at least two nodes spaced uniformly to within
    _UNIFORM_SD sd. Its fine grid divides each spacing into the least k with
    spacing / k <= sd / _GAUSS_REFINE, and extends past either end by the
    kernel's reach, sqrt(2 _GAUSS_REACH t); its transform is the least
    2-3-5-smooth length that holds the extended grid. An uneven grid, and one
    whose extended grid would pass MAX_FFT nodes, take the exact sum; a float
    bound turns the largest sizes away before any is rounded to an integer.
    """
    exact = GaussianPlan("exact")
    n = grid_x.size
    if n < 2:
        return exact
    sd = math.sqrt(t)
    with np.errstate(over="ignore", invalid="ignore"):
        spacing = (grid_x[-1] - grid_x[0]) / (n - 1)
        off = np.max(np.abs(grid_x - (grid_x[0] + spacing * np.arange(n))))
    if not (spacing > 0.0 and off <= _UNIFORM_SD * sd):
        return exact
    refine = _GAUSS_REFINE * spacing / sd
    reach = math.sqrt(2.0 * _GAUSS_REACH * t) / spacing
    if not (n - 1 + 2.0 * reach) * max(refine, 1.0) <= MAX_FFT:
        return exact
    refine = max(1, math.ceil(refine))
    reach = math.ceil(reach * refine)
    nodes = (n - 1) * refine + 2 * reach + 1
    if nodes > MAX_FFT:
        return exact
    # MAX_FFT is 2-3-5-smooth, so no transform is longer
    return GaussianPlan("binned", fft_len=_fft_length(nodes), refine=refine, reach_bins=reach)


def binned_gaussian_estimate(sample: EigenSample, grid_x: np.ndarray, t: float) -> DensityGrid:
    """gaussian_estimate on a uniform grid, by linear binning and one FFT convolution.

    The Gaussian kernel is shift-invariant, so the mixture is the convolution
    of the eigenvalue weights with the kernel (Silverman, Appl. Stat. 1982,
    AS 176; Wand, JCGS 1994). Each weight 1/(R p_r) is split between the two
    nearest nodes of gaussian_plan's fine grid in proportion to proximity, in
    one np.bincount; eigenvalues beyond the grid's reach are dropped first,
    so a far-off value is never scaled or cast to an integer. One rfft/irfft
    pair convolves the weights with the kernel sampled at the fine spacing.
    The transform needs no room past the extended grid: a weight that wraps
    around it lands farther than the kernel's reach from every grid node. The
    values at the grid's own nodes are kept, clamped at 0.0 against the
    transform's round-off in empty tails (about -1e-16 of the peak).

    The values differ from gaussian_estimate's by about 1e-6 of the peak.
    Grids gaussian_plan gives the exact path get gaussian_estimate itself.
    """
    if t <= 0.0:
        raise ValueError(f"bandwidth t must be positive, got {t}")
    grid_x = np.asarray(grid_x, dtype=float)
    plan = gaussian_plan(grid_x, t)
    if plan.path == "exact":
        return gaussian_estimate(sample, grid_x, t)
    k, reach, size = plan.refine, plan.reach_bins, plan.fft_len
    n = grid_x.size
    h = (grid_x[-1] - grid_x[0]) / ((n - 1) * k)
    nodes = (n - 1) * k + 2 * reach + 1
    lo = grid_x[0] - reach * h
    ratio = sample.ratio
    keep = (ratio >= lo) & (ratio <= lo + (nodes - 1) * h)
    u = np.clip((ratio[keep] - lo) / h, 0.0, nodes - 1)
    j = np.minimum(u.astype(np.intp), nodes - 2)
    frac = u - j
    w = sample.weight[keep]
    mass = np.bincount(
        np.concatenate((j, j + 1)), np.concatenate((w * (1.0 - frac), w * frac)), minlength=size
    )
    kernel = np.zeros(size)
    offsets = np.arange(reach + 1) * h
    kernel[: reach + 1] = np.exp(offsets * offsets / (-2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    kernel[size - reach :] = kernel[reach:0:-1]
    conv = np.fft.irfft(np.fft.rfft(mass) * np.fft.rfft(kernel), size)
    return DensityGrid(x=grid_x, y=np.maximum(conv[reach : reach + (n - 1) * k + 1 : k], 0.0))


def _quartiles(a: np.ndarray) -> tuple:
    """(q25, q75) of a, by np.percentile's default 'linear' rule on a sorted copy.

    Each is a lerp at (n - 1) q with numpy's operations, so the values are
    np.percentile's; only a zero quartile's sign may differ, where -0.0 and
    0.0 tie. np.percentile partitions through np.unique, which imports
    numpy.ma (about 1.3 MiB).
    """
    s = np.sort(a)
    out = []
    for q in (0.25, 0.75):
        v = (s.size - 1) * q
        i = math.floor(v)
        t = v - i
        lo, hi = s[i], s[i + 1]
        diff = hi - lo
        out.append(hi - diff * (1 - t) if t >= 0.5 else lo + diff * t)
    return tuple(out)


def gaussian_bandwidth(sample: EigenSample) -> float:
    """Rule-of-thumb Gaussian bandwidth (variance parametrization).

    t+ = (0.9 A N^(-1/5))^2 with A = min(sd, IQR/1.349) over the pooled
    ratio vector. Near-singular pencils throw wild ratios, so the raw
    standard deviation can be arbitrarily inflated by a single block and the
    quartile spread takes over. N is sample.blocks_total (the nominal pencil
    size R*p, counting the discarded complex pairs toward the resolution the
    sample was drawn at) when known, else the kept count.
    """
    pooled = sample.ratio
    if pooled.size < 2:
        raise ValueError("need at least two eigenvalues for a bandwidth")
    q25, q75 = _quartiles(pooled)
    scale = min(float(np.std(pooled)), float(q75 - q25) / 1.349)
    if scale <= 0.0:
        raise ValueError("degenerate sample: zero scale")
    n_nominal = int(sample.blocks_total or pooled.size)
    if n_nominal < 2:
        raise ValueError(f"invalid nominal sample size {n_nominal}")
    return (0.9 * scale * n_nominal ** (-0.2)) ** 2


def pooled_correlation(sample: EigenSample) -> float:
    """Sample correlation of all sign-normalized (s, t) pairs pooled."""
    s, t = sample.s, sample.t
    if s.size < 2:
        raise ValueError("need at least two pairs for a correlation")
    sd_s = np.std(s)
    sd_t = np.std(t)
    if sd_s == 0.0 or sd_t == 0.0:
        raise ValueError("degenerate pairs: zero variance")
    return float(np.corrcoef(s, t)[0, 1])


# transform bounds: t in [1e-18, 1e18], |rho| <= 1 - 1e-10
_LOG_T_CAP = 41.0
_ARHO_CAP = 11.8
# 1 - |rho0| below this flags a fit at the rho -> +-1 boundary (metadata.json)
_RHO_BOUNDARY = 1e-6
# t0 within this relative distance of t_cap counts as pinned at the cap
_CAP_RTOL = 1e-6


def _theta_to_params(theta):
    log_t, mu, arho = theta
    t = math.exp(min(max(log_t, -_LOG_T_CAP), _LOG_T_CAP))
    rho = math.tanh(min(max(arho, -_ARHO_CAP), _ARHO_CAP))
    return t, float(mu), rho


class _FitObjective(_RatioKernel):
    """The reference fit's objective on one histogram, evaluated in place.

    Each evaluation prepares the kernel at (t, rho), writes one row over all
    the bin centres and sums the squared residuals: the IEEE operations of
    _h_erf_raw(centers, t, 1.0, mu, rho) and of the residual sum, with the
    kernel's shortcuts.
    """

    def __init__(self, centers, target, width, t_cap):
        super().__init__(centers)
        self.target = target
        self.width = width
        self.t_cap = t_cap

    def residuals(self, theta):
        """(objective, h - target) at theta; no residuals where the objective is 1e300."""
        t, mu, rho = _theta_to_params(theta)
        if t > self.t_cap:
            return 1e300, None
        self.prepare(t, rho)
        h = self.row(mu, self.cauchy_exp(mu), 0, self.x.size)
        res = h - self.target
        total = (res * res).sum()
        # a finite sum of squares proves every h finite; only otherwise look
        if not math.isfinite(total) and not np.all(np.isfinite(h)):
            return 1e300, None
        return float(total * self.width), res


# Levenberg-Marquardt stopping rule of the reference fit: a start ends when an
# accepted step moves no coordinate by more than _XATOL and lowers the
# objective by at most _FATOL, or when no damped step lowers it; a start that
# computes _LM_MAXITER Jacobians without stopping has not converged
_XATOL = 1e-7
_FATOL = 1e-13
_LM_MAXITER = 500
# damping: 1 at each start, /10 after an accepted step, *10 after a rejected
# one; past _LAMBDA_MAX no damped step lowers the objective
_LAMBDA_MAX = 1e16
# forward-difference step of the Jacobian, relative to max(1, |theta_j|)
_FD_STEP = 2.0**-26


def _log_t_max(t_cap):
    """The largest double u <= _LOG_T_CAP with exp(u) <= t_cap, bisected up from log(t_cap)."""

    def below(u):
        return u <= _LOG_T_CAP and math.exp(u) <= t_cap

    lo = min(math.log(t_cap), _LOG_T_CAP)
    while not below(lo):
        lo = math.nextafter(lo, -math.inf)
    step = 2.0**-40 * max(1.0, abs(lo))
    while below(lo + step):
        step *= 2.0
    hi = lo + step
    while True:
        mid = lo + 0.5 * (hi - lo)
        if mid in (lo, hi):
            return lo
        lo, hi = (mid, hi) if below(mid) else (lo, mid)


def _levenberg_marquardt(objective, x, lower, upper):
    """(x, fun, nfev, converged) of a projected Levenberg-Marquardt search from x.

    Minimizes objective.residuals' sum of squares in the box [lower, upper]
    by damped Gauss-Newton steps (Levenberg 1944, Marquardt 1963): the
    Jacobian by forward differences (backward at an upper bound), the damping
    scaled by diag(J^T J), each step projected onto the box, and a coordinate
    that sits on a bound the gradient pushes past held for that step. A step
    is accepted only if it strictly lowers the objective, compared as
    objective.residuals computes it. nfev counts residual evaluations,
    Jacobian columns included.

    Only the residuals, J^T r, J^T J and the solve are numpy's; the point,
    the box and the tests on them are Python floats, which round as numpy's
    float64 does, so the search takes the same steps. objective.residuals
    gets the point as a list of floats; x is returned as an array.
    """
    x, lower, upper = ([float(v) for v in a] for a in (x, lower, upper))
    fun, res = objective.residuals(x)
    nfev = 1
    if res is None:
        return np.array(x), fun, nfev, False
    lam = 1.0
    dim = range(len(x))
    jac = np.empty((res.size, len(x)))
    for _ in range(_LM_MAXITER):
        for j in dim:
            h = _FD_STEP * max(1.0, abs(x[j]))
            xj = x.copy()
            xj[j] = x[j] + h if x[j] + h <= upper[j] else x[j] - h
            res_j = objective.residuals(xj)[1]
            nfev += 1
            if res_j is None:
                jac[:, j] = 0.0
            else:
                # (res_j - res) / h, with res_j as the scratch: no temporaries
                np.subtract(res_j, res, out=res_j)
                np.divide(res_j, xj[j] - x[j], out=jac[:, j])
        grad = (jac.T @ res).tolist()
        jtj = (jac.T @ jac).tolist()
        # held: a coordinate the Jacobian does not see, or on a bound the descent points past
        free = [
            i
            for i in dim
            if jtj[i][i] > 0.0
            and not (x[i] <= lower[i] and grad[i] > 0.0)
            and not (x[i] >= upper[i] and grad[i] < 0.0)
        ]
        block = [[jtj[i][j] for j in free] for i in free]
        rhs = [-grad[i] for i in free]
        while True:
            damped = [row.copy() for row in block]
            for k, i in enumerate(free):
                damped[k][k] += lam * jtj[i][i]
            step = [0.0] * len(x)
            if free:
                for i, s in zip(free, np.linalg.solve(damped, rhs).tolist()):
                    step[i] = s
            x_new = [_clip(a + s, lo, hi) for a, s, lo, hi in zip(x, step, lower, upper)]
            if lam > _LAMBDA_MAX or x_new == x:
                return np.array(x), fun, nfev, True
            fun_new, res_new = objective.residuals(x_new)
            nfev += 1
            if fun_new < fun:
                break
            lam *= 10.0
        lam /= 10.0
        done = all(abs(a - b) <= _XATOL for a, b in zip(x_new, x)) and fun - fun_new <= _FATOL
        x, fun, res = x_new, fun_new, res_new
        if done:
            return np.array(x), fun, nfev, True
    return np.array(x), fun, nfev, False


def _clip(v, lo, hi):
    """np.clip(v, lo, hi) of floats, the same value: NaN stays NaN, ties keep the bound."""
    if v == v:
        v = v if v > lo else lo
        v = v if v < hi else hi
    return v


def _coarse_copy(centers, target, width):
    """(centers, target, width) with k = n // COARSE_BINS adjacent bins merged, or None.

    A merged bin's centre and density are the means of its k bins', and its
    width is k times theirs. None, and the starts search the histogram
    itself, unless k >= _MIN_MERGE divides n and the copy keeps at least 8
    nonzero bins, as fit_reference requires of the histogram.
    """
    n = centers.size
    k = n // COARSE_BINS
    if k < _MIN_MERGE or n % k:
        return None
    target = target.reshape(-1, k).mean(axis=1)
    if np.count_nonzero(target) < 8:
        return None
    return centers.reshape(-1, k).mean(axis=1), target, k * width


def fit_reference(h_e: DensityGrid) -> FitResult:
    """Least-squares fit of a single ratio density to the empirical histogram.

    Minimizes the discrete L2 distance over (t, mu, rho) in transformed
    coordinates (log t, mu, atanh rho) with a projected Levenberg-Marquardt
    search (_levenberg_marquardt) from N_STARTS starts, and reports the best.
    The search is the package's own, because importing scipy.optimize would
    cost every process about 17 MiB of memory and 0.2 s. Its box keeps log t
    in [-41, log t_cap], rounded down so that t0 <= t_cap, and |atanh rho|
    <= 11.8; mu is free. nfev counts each search's residual evaluations,
    Jacobian columns included, and FitNonConvergenceError means that every
    search reached the iteration cap.

    A histogram that has a coarse copy (_coarse_copy; 8,192 bins have one,
    2,048 or fewer do not) is searched coarse to fine: the starts run on the
    copy, and one more search from the best of them, on the histogram
    itself, gives the reported fit and objective. The starts, the box and
    t_cap still come from the histogram itself.

    The variance is restricted to t <= span^2 where span is the histogram
    window width. Without the bound the problem is not identified: densities
    with t q(mu, rho) held constant are near-identical humps, the family
    extends to arbitrarily large t as rho -> 1, and the objective keeps
    creeping down along it, so the reported t would be an optimizer artifact
    rather than a property of the data. The bound pins the fit at the window
    scale; when the unconstrained drift is active the fit lands on the
    boundary with rho0 well inside (-1, 1).
    """
    centers = h_e.x
    target = h_e.y
    if centers.size < 8 or np.count_nonzero(target) < 8:
        raise ValueError("histogram too sparse for a reference fit")
    width = float(centers[1] - centers[0])
    span = float(centers[-1] - centers[0]) + width
    t_cap = span * span

    mass = target.sum() * width
    mean = float((centers * target).sum() * width / mass)
    var = max(float(((centers - mean) ** 2 * target).sum() * width / mass), 1e-12)
    var = min(var, t_cap)
    mode = float(centers[np.argmax(target)])

    starts = [
        (math.log(0.1 * var), mode, 0.0),
        (math.log(var), mode, 0.0),
        (math.log(0.1 * var), mean, math.atanh(0.5)),
        (math.log(var), mean, math.atanh(-0.5)),
        (math.log(0.1 * var), mode, math.atanh(0.5)),
        (math.log(0.9 * t_cap), mode, math.atanh(0.9)),
    ]
    assert len(starts) == N_STARTS

    objective = _FitObjective(centers, target, width, t_cap)
    coarse = _coarse_copy(centers, target, width)
    search = objective if coarse is None else _FitObjective(*coarse, t_cap)
    lower = np.array([-_LOG_T_CAP, -np.inf, -_ARHO_CAP])
    upper = np.array([_log_t_max(t_cap), np.inf, _ARHO_CAP])
    best_x = best_fun = None
    nfev = []
    n_converged = 0
    for x0 in starts:
        x0 = np.clip(x0, lower, upper)
        x, fun, n, success = _levenberg_marquardt(search, x0, lower, upper)
        if best_fun is None or fun < best_fun:
            best_x, best_fun = x, fun
        nfev.append(n)
        n_converged += success
    if coarse is not None:
        best_x, best_fun, n, success = _levenberg_marquardt(objective, best_x, lower, upper)
        nfev.append(n)
        n_converged += success

    t0, mu0, rho0 = _theta_to_params(best_x)
    fit = FitResult(
        t0=t0,
        mu0=mu0,
        rho0=rho0,
        objective=float(best_fun),
        converged=n_converged > 0,
        nfev=tuple(nfev),
        n_converged=n_converged,
        at_t_cap=t0 >= t_cap * (1.0 - _CAP_RTOL),
        search_bins=centers.size if coarse is None else coarse[0].size,
    )
    if not fit.converged:
        raise FitNonConvergenceError("no Levenberg-Marquardt search converged", fit)
    return fit


@functools.cache
def _leggauss():
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per process, read-only."""
    u, w = np.polynomial.legendre.leggauss(GL_NODES)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _gl_nodes(window):
    lo, hi = float(window[0]), float(window[1])
    pad = WINDOW_EXTEND * 0.5 * (hi - lo)
    lo -= pad
    hi += pad
    u, w = _leggauss()
    nodes = 0.5 * (hi - lo) * u + 0.5 * (hi + lo)
    weights = 0.5 * (hi - lo) * w
    return nodes, weights


def bandwidth_t_star_details(sample: EigenSample, fit: FitResult, rho_hat: float, window):
    """(t_star, skipped) from the evolution-equation bandwidth rule.

    t* = ( E[1/sqrt(D)] / (2 R sqrt(pi) ||h_t||^2) )^(2/5). The expectation
    averages 1/sqrt(D) over the eigenvalue sample with weights 1/(R p_r),
    with the diffusion coefficient D of the unit-denominator pair at the
    pooled correlation rho_hat, variance fit.t0, evaluated at the
    eigenvalue's own position (pde._diffusion_at_centers); eigenvalues where
    D is not finite or not positive, as where the eigenvalue equals rho_hat,
    are skipped and counted. ||h_t||^2 is the squared L2 norm, over the window
    extended by WINDOW_EXTEND, of the variance derivative of the fitted
    reference density itself at (fit.t0, fit.mu0, fit.rho0), from the erf
    closed form (ratio_density._derivs_erf_raw).
    """
    t0 = float(fit.t0)
    rho = float(rho_hat)
    if t0 <= 0.0:
        raise ValueError(f"pilot variance t0 must be positive, got {t0}")
    if not -1.0 < rho < 1.0:
        raise ValueError(f"correlation must satisfy |rho| < 1, got {rho}")
    if sample.ratio.size == 0:
        raise ValueError("empty eigenvalue sample")
    weights = sample.weight

    # E[1/sqrt(D)]: D at the eigenvalue's own position x = ratio
    d = _pde._diffusion_at_centers(rho, t0, sample.ratio)
    valid = np.isfinite(d) & (d > 0.0)
    skipped = int(np.count_nonzero(~valid))
    if not np.any(valid):
        raise ValueError("no component has positive diffusion at its center")
    inv_sqrt = 1.0 / np.sqrt(d[valid])
    e_term = float((weights[valid] * inv_sqrt).sum() / weights[valid].sum())

    # || d/dt h ||_2^2 of the fitted reference density
    nodes, gl_w = _gl_nodes(window)
    h_t, _, _ = _derivs_erf_raw(nodes, t0, 1.0, fit.mu0, fit.rho0)
    norm_term = float((h_t * h_t) @ gl_w)

    if norm_term <= 0.0:
        raise ValueError("degenerate evolution norm")
    t_star = (e_term / (2.0 * sample.R * math.sqrt(math.pi) * norm_term)) ** 0.4
    return t_star, skipped


def _kernel_supports(mu: np.ndarray, grid_x: np.ndarray, t: float, rho: float):
    """Per component, the slices (a, b) of grid_x off which its Gaussian exponent is below -K.

    With K = _KERNEL_REACH, a component's Gaussian factor
    exp(-(mu - x)^2 / (2 t q(x))), q = x^2 - 2 rho x + 1, has its exponent
    below -K where (1 - c) x^2 - 2 (mu - c rho) x + mu^2 - c > 0 with
    c = 2 t K. Its real roots exist where the discriminant
    c q(mu) - c^2 (1 - rho^2) is positive, so where
    q(mu) / (2 t (1 - rho^2)) > K: the component's Cauchy factor
    e2 = exp(-q(mu) / (2 t (1 - rho^2))) is then below e^-K. If c < 1 the
    quadratic opens upward and the support lies between its roots, widened a
    little against their own rounding. If c > 1 it opens downward, the roots
    swap, and the support is the grid minus the interval between them, in at
    most two slices; that interval shrinks by the same margin. Components
    whose roots are not finite, and every component when c == 1, keep the
    whole grid. So every point off a support has its exponent below -K, and
    a support is bounded only where e2 < e^-K.
    """
    n = grid_x.size
    out = [((0, n),)] * mu.size
    c = 2.0 * t * _KERNEL_REACH
    if c == 1.0:
        return out
    centre = mu - c * rho
    with np.errstate(over="ignore", invalid="ignore"):
        # discriminant c q(mu) - c^2 (1 - rho^2), written without cancellation
        half = np.sqrt(c * ((mu - rho) ** 2 + (1.0 - rho * rho) * (1.0 - c)))
        # widens the support between the roots, or shrinks the dropped interval
        pad = 1e-9 * (np.abs(centre) + half)
        if c > 1.0:
            pad = -pad
        left = (centre - half - pad) / (1.0 - c)
        right = (centre + half + pad) / (1.0 - c)
    band = np.isfinite(left) & np.isfinite(right)
    if c > 1.0:
        left, right = right, left
    lo = np.searchsorted(grid_x, left, side="left").tolist()
    hi = np.searchsorted(grid_x, right, side="right").tolist()
    for k in np.flatnonzero(band).tolist():
        if c < 1.0:
            out[k] = ((lo[k], hi[k]),) if lo[k] < hi[k] else ()
        elif lo[k] < hi[k]:
            out[k] = tuple((a, b) for a, b in ((0, lo[k]), (hi[k], n)) if a < b)
    return out


@dataclass
class ProposedGrid(DensityGrid):
    """proposed_estimate's mixture, with what its kernel cut computed and left out.

    rows counts the kernel rows computed, one per slice of a support, and
    values the kernel values computed, the sum of the slices' widths. bound
    is an upper bound on |y - the uncut mixture| over the whole grid, beside
    rounding; 0.0 when every support is the whole grid.
    """

    rows: int
    values: int
    bound: float


def _cut_bound(grid_x, t, rho, mu, weight) -> float:
    """The largest bound over grid_x on what dropping the off-support points of mu costs.

    Component k is below e^-K (|lin_k(x)| / (q sqrt(2 pi t q)) +
    sqrt(1 - rho^2) / (pi q)) off its support, and |lin_k(x)| is at most
    |1 - rho x| + |mu_k| |x - rho|; weight holds the components' weights.
    """
    if mu.size == 0:
        return 0.0
    q = (grid_x - rho) ** 2 + (1.0 - rho * rho)
    total, moment = float(weight.sum()), float((weight * np.abs(mu)).sum())
    lin = total * np.abs(1.0 - rho * grid_x) + moment * np.abs(grid_x - rho)
    bound = lin / (q * np.sqrt(TWO_PI * t * q)) + total * math.sqrt(1.0 - rho * rho) / (np.pi * q)
    return math.exp(-_KERNEL_REACH) * float(bound.max())


def proposed_estimate(
    sample: EigenSample, grid_x: np.ndarray, t_star: float, rho: float
) -> ProposedGrid:
    """Mixture of exact ratio densities, one per eigenvalue, at variance t*.

    Component k of replication r contributes weight 1/(R p_r) times the
    equal-variance density with unit denominator mean, numerator mean equal
    to the eigenvalue ratio mu_k, and the pooled correlation rho.

    Each component is evaluated in place only on its support
    (_kernel_supports), where its Gaussian exponent is at least -K with
    K = _KERNEL_REACH, and added into its chunk's sum in component order, the
    order of the dense chunked column sums. Off its support component k is
    below e^-K (|lin_k(x)| / (q sqrt(2 pi t* q)) + sqrt(1 - rho^2) / (pi q)),
    with lin_k(x) = (1 - rho x) + mu_k (x - rho) and q = q(x): its Gaussian
    factor is below e^-K there, and its Cauchy factor e2_k is below e^-K
    wherever its support is bounded. The weights sum to at most 1, so the
    mixture differs from the uncut one by at most e^-K times the largest such
    bracket, beside rounding; the result's bound is that bound over the grid
    (_cut_bound). The supports and the Cauchy exponentials are elementwise in
    the components, so they are computed once for all of them.
    """
    if t_star <= 0.0:
        raise ValueError(f"bandwidth t* must be positive, got {t_star}")
    if not -1.0 < rho < 1.0:
        raise ValueError(f"correlation must satisfy |rho| < 1, got {rho}")
    grid_x = np.asarray(grid_x, dtype=float)
    kernel = _RatioKernel(grid_x)
    kernel.prepare(t_star, rho)
    mus = sample.ratio.tolist()
    e2 = kernel.cauchy_exp(sample.ratio).tolist()
    spans = _kernel_supports(sample.ratio, grid_x, t_star, rho)
    y = np.zeros(grid_x.size)
    chunk_sum = np.empty(grid_x.size)
    R = sample.R
    # same per-replication accumulation as gaussian_estimate, for the same
    # bit-for-bit mixture-merge property
    for start, end in sample.bounds():
        acc = np.zeros(grid_x.size)
        for k in range(start, end, CHUNK):
            chunk_sum.fill(0.0)
            stop = min(k + CHUNK, end)
            for m, e, slices in zip(mus[k:stop], e2[k:stop], spans[k:stop]):
                for a, b in slices:
                    chunk_sum[a:b] += kernel.row(m, e, a, b)
            acc += chunk_sum
        y += acc / (R * (end - start))
    whole = ((0, grid_x.size),)
    cut = np.array([s != whole for s in spans], dtype=bool)
    return ProposedGrid(
        x=grid_x,
        y=y,
        rows=sum(map(len, spans)),
        values=sum(b - a for s in spans for a, b in s),
        bound=_cut_bound(grid_x, t_star, rho, sample.ratio[cut], sample.weight[cut]),
    )


def _check_tau(tau) -> None:
    """ValueError unless the mode threshold tau is finite and positive."""
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be finite and positive, got {tau}")


def extract_modes(grid: DensityGrid, tau: float) -> list:
    """Strict interior local maxima above tau; flat tops yield their midpoint.

    A maximal run of equal values counts as one mode when both neighbours are
    strictly lower and the run does not touch the grid boundary. The runs are
    found with array operations, by comparing each value with the next.
    """
    x, y = grid.x, grid.y
    m = y.size
    if m < 3:
        return []
    # first and last index of each maximal run of equal values, then the interior runs
    i = np.flatnonzero(np.concatenate(([True], y[1:] != y[:-1])))
    j = np.append(i[1:] - 1, m - 1)
    interior = (i > 0) & (j < m - 1)
    i, j = i[interior], j[interior]
    top = y[i]
    peak = (y[i - 1] < top) & (y[j + 1] < top) & (top > tau)
    i, j = i[peak], j[peak]
    return [Mode(x=a, height=b) for a, b in zip((0.5 * (x[i] + x[j])).tolist(), y[i].tolist())]
