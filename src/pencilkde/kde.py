"""Condensed-density estimators for pooled pencil eigenvalues.

The eigenvalue cloud of R replications is summarized three ways: a weighted
histogram (the empirical condensed density), a Gaussian kernel estimate with
a plug-in bandwidth, and the proposed estimate that replaces the Gaussian
kernel by the exact ratio-of-Gaussians density, one component per real
eigenvalue, sharing a pooled pair correlation and a bandwidth chosen from
the density's own evolution equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import pde as _pde
from .ratio_density import _derivs_raw, _RatioKernel

# components per chunk when broadcasting kernels against evaluation grids
CHUNK = 512
# exp(u) is exactly 0.0 for u < -745.14; kernel supports end where u = -750
_EXP_ZERO = 750.0
# multi-start count for the reference fit
N_STARTS = 6
GL_NODES = 128
WINDOW_EXTEND = 0.20

__all__ = [
    "EigenSample",
    "DensityGrid",
    "FitResult",
    "Mode",
    "FitNonConvergenceError",
    "empirical_density",
    "count_outside",
    "gaussian_estimate",
    "gaussian_bandwidth",
    "pooled_correlation",
    "fit_reference",
    "bandwidth_t_star_details",
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


@dataclass
class EigenSample:
    """Per-replication sign-normalized real Schur pairs and their ratios.

    blocks_total is the nominal eigenvalue count R*p before complex and
    infinite pairs were discarded; 0 means unknown.
    """

    s: list
    t: list
    ratio: list
    blocks_total: int = 0

    def __post_init__(self):
        if not (len(self.s) == len(self.t) == len(self.ratio)):
            raise ValueError("per-replication lists must have equal length")
        self.s = [np.asarray(a, dtype=float) for a in self.s]
        self.t = [np.asarray(a, dtype=float) for a in self.t]
        self.ratio = [np.asarray(a, dtype=float) for a in self.ratio]

    @property
    def R(self) -> int:
        return len(self.ratio)

    def pooled(self):
        """(ratios, weights) flattened; weight 1/(R p_r) per eigenvalue."""
        R = self.R
        parts, weights = [], []
        for arr in self.ratio:
            if arr.size == 0:
                continue
            parts.append(arr)
            weights.append(np.full(arr.size, 1.0 / (R * arr.size)))
        if not parts:
            return np.array([]), np.array([])
        return np.concatenate(parts), np.concatenate(weights)


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
    # diagnostics for metadata.json: objective evaluations per start, starts
    # that converged, whether t0 sits at the variance cap span^2, and whether
    # the minimizer's |atanh rho| is at or beyond its transform cap
    nfev: tuple = ()
    n_converged: int = 0
    at_t_cap: bool = False
    at_rho_cap: bool = False

    @property
    def rho_near_boundary(self) -> bool:
        """1 - |rho0| < 1e-6: the fit ran to rho -> +-1, also short of the transform cap."""
        return 1.0 - abs(self.rho0) < _RHO_BOUNDARY


def _bin_grid(window, bins: int):
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError(f"window must be increasing, got {window}")
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
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


def empirical_density(sample: EigenSample, window, bins: int) -> DensityGrid:
    """Weighted histogram of pooled eigenvalue ratios on bin centers.

    Each eigenvalue of replication r carries mass 1/(R p_r); values outside
    the window are dropped, so the grid integrates to the captured fraction.
    """
    edges, centers = _bin_grid(window, bins)
    pooled, weights = sample.pooled()
    if pooled.size == 0:
        raise ValueError("empty eigenvalue sample")
    width = edges[1] - edges[0]
    hist, _ = np.histogram(pooled, bins=edges, weights=weights)
    return DensityGrid(x=centers, y=hist / width)


def count_outside(sample: EigenSample, window) -> int:
    """Eigenvalues excluded from the window by empirical_density."""
    lo, hi = float(window[0]), float(window[1])
    total = 0
    for arr in sample.ratio:
        total += int(np.count_nonzero((arr < lo) | (arr > hi)))
    return total


def gaussian_estimate(sample: EigenSample, grid_x: np.ndarray, t: float) -> DensityGrid:
    """Gaussian kernel mixture with variance t over the pooled eigenvalues.

    Accumulates one replication at a time, weight 1/(R p_r) applied to the
    replication subtotal, so merging two samples under power-of-two R-weights
    reproduces the weighted average of the separate estimates bit for bit.
    """
    if t <= 0.0:
        raise ValueError(f"bandwidth t must be positive, got {t}")
    grid_x = np.asarray(grid_x, dtype=float)
    y = np.zeros(grid_x.size)
    norm = 1.0 / math.sqrt(2.0 * math.pi * t)
    R = sample.R
    for pts in sample.ratio:
        if pts.size == 0:
            continue
        acc = np.zeros(grid_x.size)
        for k in range(0, pts.size, CHUNK):
            mu = pts[k : k + CHUNK, None]
            acc += np.exp(-((grid_x[None, :] - mu) ** 2) / (2.0 * t)).sum(axis=0)
        y += (norm / (R * pts.size)) * acc
    return DensityGrid(x=grid_x, y=y)


def gaussian_bandwidth(sample: EigenSample) -> float:
    """Rule-of-thumb Gaussian bandwidth (variance parametrization).

    t+ = (0.9 A N^(-1/5))^2 with A = min(sd, IQR/1.349) over the pooled
    ratio vector. Near-singular pencils throw wild ratios, so the raw
    standard deviation can be arbitrarily inflated by a single block and the
    quartile spread takes over. N is sample.blocks_total (the nominal pencil
    size R*p, counting the discarded complex pairs toward the resolution the
    sample was drawn at) when known, else the kept count.
    """
    pooled, _ = sample.pooled()
    if pooled.size < 2:
        raise ValueError("need at least two eigenvalues for a bandwidth")
    q25, q75 = np.percentile(pooled, [25.0, 75.0])
    scale = min(float(np.std(pooled)), float(q75 - q25) / 1.349)
    if scale <= 0.0:
        raise ValueError("degenerate sample: zero scale")
    n_nominal = int(sample.blocks_total or pooled.size)
    if n_nominal < 2:
        raise ValueError(f"invalid nominal sample size {n_nominal}")
    return (0.9 * scale * n_nominal ** (-0.2)) ** 2


def pooled_correlation(sample: EigenSample) -> float:
    """Sample correlation of all sign-normalized (s, t) pairs pooled."""
    s = np.concatenate([a for a in sample.s]) if sample.s else np.array([])
    t = np.concatenate([a for a in sample.t]) if sample.t else np.array([])
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
    the bin centres and sums the squared residuals into a preallocated
    buffer: the IEEE operations of _h_erf_raw(centers, t, 1.0, mu, rho) and
    of the residual sum, with the kernel's shortcuts.
    """

    def __init__(self, centers, target, width, t_cap):
        super().__init__(centers)
        self.target = target
        self.width = width
        self.t_cap = t_cap
        self._res = np.empty(centers.size)

    def __call__(self, theta) -> float:
        t, mu, rho = _theta_to_params(theta)
        if t > self.t_cap:
            return 1e300
        self.prepare(t, rho)
        h = self.row(mu, self.cauchy_exp(mu), 0, self.x.size)
        res = self._res
        np.subtract(h, self.target, out=res)
        np.multiply(res, res, out=res)
        total = res.sum()
        # a finite sum of squares proves every h finite; only otherwise look
        if not math.isfinite(total) and not np.all(np.isfinite(h)):
            return 1e300
        return float(total * self.width)


# Nelder-Mead stopping rule of the reference fit
_NM_XATOL = 1e-7
_NM_FATOL = 1e-13
_NM_MAXITER = 4000
_NM_MAXFEV = 6000


class _MaxFevReached(Exception):
    pass


# _nelder_mead is ported from SciPy 1.17, whose licence it keeps:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
def _nelder_mead(func, x0):
    """(x, fun, nfev, success) of a Nelder-Mead simplex search for a minimum of func.

    Ported from scipy.optimize._optimize._minimize_neldermead (BSD-3-Clause,
    notice above), keeping only what fit_reference uses: no bounds, the
    standard coefficients (reflection 1, expansion 2, contraction 1/2,
    shrink 1/2) and the _NM_* stopping rule. The operations and their order
    are scipy's, so each evaluation point, the result and the count of
    evaluations match scipy.optimize.minimize(func, x0, method="Nelder-Mead")
    with those options bit for bit: the initial steps of 5% and 0.00025, the
    argsort/take re-sorts that order tied values, the centroid sum, the stop
    after _NM_MAXFEV evaluations even inside a shrink, and success meaning
    that neither cap was reached.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= _NM_MAXFEV:
            raise _MaxFevReached
        nfev += 1
        return func(x)

    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full(n + 1, np.inf)
    for k in range(n + 1):
        fsim[k] = f(sim[k])
    # scipy sorts twice here; argsort may reorder ties, so the second sort stays
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    iterations = 1
    while nfev < _NM_MAXFEV and iterations < _NM_MAXITER:
        if (
            np.max(np.abs(sim[1:] - sim[0])) <= _NM_XATOL
            and np.max(np.abs(fsim[0] - fsim[1:])) <= _NM_FATOL
        ):
            break
        try:
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
                else:
                    sim[-1], fsim[-1] = xc, fxc
            iterations += 1
        except _MaxFevReached:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    return sim[0], np.min(fsim), nfev, nfev < _NM_MAXFEV and iterations < _NM_MAXITER


def fit_reference(h_e: DensityGrid) -> FitResult:
    """Least-squares fit of a single ratio density to the empirical histogram.

    Minimizes the discrete L2 distance over (t, mu, rho) in transformed
    coordinates (log t, mu, atanh rho) with Nelder-Mead from N_STARTS starts.
    The simplex search is the package's own port of scipy's (_nelder_mead),
    bit for bit the same, because importing scipy.optimize for it would cost
    every process about 17 MiB of memory and 0.2 s.

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
    best_x = best_fun = None
    nfev = []
    n_converged = 0
    for x0 in starts:
        x, fun, n, success = _nelder_mead(objective, x0)
        if best_fun is None or fun < best_fun:
            best_x, best_fun = x, fun
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
        at_rho_cap=abs(float(best_x[2])) >= _ARHO_CAP,
    )
    if not fit.converged:
        raise FitNonConvergenceError("no Nelder-Mead start converged", fit)
    return fit


def _gl_nodes(window):
    lo, hi = float(window[0]), float(window[1])
    pad = WINDOW_EXTEND * 0.5 * (hi - lo)
    lo -= pad
    hi += pad
    u, w = np.polynomial.legendre.leggauss(GL_NODES)
    nodes = 0.5 * (hi - lo) * u + 0.5 * (hi + lo)
    weights = 0.5 * (hi - lo) * w
    return nodes, weights


def bandwidth_t_star_details(sample: EigenSample, fit: FitResult, rho_hat: float, window):
    """(t_star, skipped) from the evolution-equation bandwidth rule.

    t* = ( E[1/sqrt(D)] / (2 R sqrt(pi) ||h_t||^2) )^(2/5). The expectation
    averages 1/sqrt(D) over the eigenvalue sample with weights 1/(R p_r),
    with the diffusion coefficient D of the unit-denominator pair at the
    pooled correlation rho_hat, variance fit.t0, evaluated at the
    eigenvalue's own position; eigenvalues with nonpositive or singular D
    there are skipped and counted. ||h_t||^2 is the squared L2 norm, over
    the window extended by WINDOW_EXTEND, of the variance derivative of the
    fitted reference density itself at (fit.t0, fit.mu0, fit.rho0).
    """
    t0 = float(fit.t0)
    rho = float(rho_hat)
    if t0 <= 0.0:
        raise ValueError(f"pilot variance t0 must be positive, got {t0}")
    if not -1.0 < rho < 1.0:
        raise ValueError(f"correlation must satisfy |rho| < 1, got {rho}")
    pooled, weights = sample.pooled()
    if pooled.size == 0:
        raise ValueError("empty eigenvalue sample")
    R = sample.R

    # E[1/sqrt(D)]: D at the eigenvalue's own position x = ratio
    d, den, scale = _pde._diffusion_at_centers(rho, t0, pooled)
    valid = (np.abs(den) > _pde.EPS_DENOM * np.maximum(scale, 1e-300)) & (d > 0.0)
    skipped = int(np.count_nonzero(~valid))
    if not np.any(valid):
        raise ValueError("no component has positive diffusion at its center")
    inv_sqrt = 1.0 / np.sqrt(d[valid])
    e_term = float((weights[valid] * inv_sqrt).sum() / weights[valid].sum())

    # || d/dt h ||_2^2 of the fitted reference density
    nodes, gl_w = _gl_nodes(window)
    h_t, _, _ = _derivs_raw(nodes, t0, 1.0, fit.mu0, fit.rho0)
    norm_term = float((h_t * h_t) @ gl_w)

    if norm_term <= 0.0:
        raise ValueError("degenerate evolution norm")
    t_star = (e_term / (2.0 * R * math.sqrt(math.pi) * norm_term)) ** 0.4
    return t_star, skipped


def _kernel_supports(mu: np.ndarray, grid_x: np.ndarray, t: float, rho: float):
    """Per component, the slices (a, b) of grid_x off which it is exactly 0.0.

    A component's Gaussian factor exp(-(mu - x)^2 / (2 t q(x))),
    q = x^2 - 2 rho x + 1, is exactly 0.0 where its exponent drops below
    -_EXP_ZERO, that is where (1 - c) x^2 - 2 (mu - c rho) x + mu^2 - c > 0
    with c = 2 t _EXP_ZERO. Its real roots exist where the discriminant
    c q(mu) - c^2 (1 - rho^2) is positive, so where
    q(mu) / (2 t (1 - rho^2)) > _EXP_ZERO: the component's Cauchy term
    exp(-q(mu) / (2 t (1 - rho^2))) is then exactly 0.0 as well. If c < 1 the
    quadratic opens upward and the support lies between its roots, widened a
    little against their own rounding. If c > 1 it opens downward, the roots
    swap, and the support is the grid minus the interval between them, in at
    most two slices; that interval shrinks by the same margin. Components
    whose roots are not finite, and every component when c == 1, keep the
    whole grid. The rounding left over sits well inside the margin of
    _EXP_ZERO over the exp underflow at 745.14.
    """
    n = grid_x.size
    out = [((0, n),)] * mu.size
    c = 2.0 * t * _EXP_ZERO
    if c == 1.0:
        return out
    centre = mu - c * rho
    with np.errstate(over="ignore", invalid="ignore"):
        # discriminant c q(mu) - c^2 (1 - rho^2), written without cancellation
        half = np.sqrt(c * ((mu - rho) ** 2 + (1.0 - rho * rho) * (1.0 - c)))
        # widens the support between the roots, or shrinks the zero interval
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


def proposed_estimate(
    sample: EigenSample, grid_x: np.ndarray, t_star: float, rho: float
) -> DensityGrid:
    """Mixture of exact ratio densities, one per eigenvalue, at variance t*.

    Component k of replication r contributes weight 1/(R p_r) times the
    equal-variance density with unit denominator mean, numerator mean equal
    to the eigenvalue ratio, and the pooled correlation rho.

    Each component is evaluated in place only on its support
    (_kernel_supports), off which its value is provably 0.0, and added into
    its chunk's sum in component order, the order of the dense chunked
    column sums, so skipping the exact zeros leaves the bits unchanged.
    """
    if t_star <= 0.0:
        raise ValueError(f"bandwidth t* must be positive, got {t_star}")
    if not -1.0 < rho < 1.0:
        raise ValueError(f"correlation must satisfy |rho| < 1, got {rho}")
    grid_x = np.asarray(grid_x, dtype=float)
    kernel = _RatioKernel(grid_x)
    kernel.prepare(t_star, rho)
    y = np.zeros(grid_x.size)
    chunk_sum = np.empty(grid_x.size)
    R = sample.R
    # same per-replication accumulation as gaussian_estimate, for the same
    # bit-for-bit mixture-merge property
    for pts in sample.ratio:
        if pts.size == 0:
            continue
        acc = np.zeros(grid_x.size)
        for k in range(0, pts.size, CHUNK):
            mu = pts[k : k + CHUNK]
            e2 = kernel.cauchy_exp(mu)
            chunk_sum.fill(0.0)
            spans = _kernel_supports(mu, grid_x, t_star, rho)
            for m, e, slices in zip(mu.tolist(), e2.tolist(), spans):
                for a, b in slices:
                    chunk_sum[a:b] += kernel.row(m, e, a, b)
            acc += chunk_sum
        y += acc / (R * pts.size)
    return DensityGrid(x=grid_x, y=y)


def extract_modes(grid: DensityGrid, tau: float) -> list:
    """Strict interior local maxima above tau; flat tops yield their midpoint.

    A maximal run of equal values counts as one mode when both neighbours are
    strictly lower and the run does not touch the grid boundary.
    """
    x, y = grid.x, grid.y
    m = y.size
    modes = []
    i = 0
    while i < m:
        j = i
        while j + 1 < m and y[j + 1] == y[i]:
            j += 1
        interior = i > 0 and j < m - 1
        if interior and y[i - 1] < y[i] and y[j + 1] < y[i] and y[i] > tau:
            modes.append(Mode(x=float(0.5 * (x[i] + x[j])), height=float(y[i])))
        i = j + 1
    return modes
