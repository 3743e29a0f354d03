"""Condensed-density estimators: histogram, Gaussian baseline, PDE mixture."""

import math
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from scipy import special
from scipy.integrate import trapezoid

from pencilkde import kde, pde, ratio_density
from pencilkde.harness import (
    ExperimentConfig,
    available_cpus,
    decompose_replications,
    estimate_pipeline,
    sample_from_pairs,
)
from pencilkde.multiexp import SignalModel
from pencilkde.kde import (
    DensityGrid,
    EigenSample,
    FitResult,
    bandwidth_t_star_details,
    binned_gaussian_estimate,
    count_outside,
    empirical_density,
    extract_modes,
    fit_reference,
    gaussian_bandwidth,
    gaussian_estimate,
    gaussian_plan,
    pooled_correlation,
    proposed_estimate,
)
from pencilkde.ratio_density import EqualVarSpec, _derivs_raw, _h_erf_raw, density_equal_var

from conftest import term_relative_residual

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def single_replication(points):
    pts = np.asarray(points, dtype=float)
    return EigenSample(s=[pts], t=[np.ones_like(pts)], ratio=[pts])


def reference_sample(seed, size, spec):
    """Ratios drawn from the exact equal-variance model, one replication."""
    rng = np.random.default_rng(seed)
    cov = spec.t * np.array([[1.0, spec.rho], [spec.rho, 1.0]])
    vw = rng.multivariate_normal([spec.nu_v, spec.nu_w], cov, size=size, method="cholesky")
    return EigenSample(s=[vw[:, 1]], t=[vw[:, 0]], ratio=[vw[:, 1] / vw[:, 0]])


def split(sample, field="ratio"):
    """One of sample's flat arrays cut into its replications, as views."""
    a, offsets = getattr(sample, field), sample.offsets.tolist()
    return [a[i:j] for i, j in zip(offsets[:-1], offsets[1:])]


def merge(*samples):
    """One sample holding the replications of samples, in order."""
    fields = ("s", "t", "ratio")
    return EigenSample(**{f: [r for x in samples for r in split(x, f)] for f in fields})


def pooled_oracle(ratio):
    """Reference: the (ratios, weights) EigenSample.pooled() built from per-replication arrays."""
    R = len(ratio)
    parts, weights = [], []
    for arr in (np.asarray(a, dtype=float) for a in ratio):
        if arr.size == 0:
            continue
        parts.append(arr)
        weights.append(np.full(arr.size, 1.0 / (R * arr.size)))
    if not parts:
        return np.array([]), np.array([])
    return np.concatenate(parts), np.concatenate(weights)


def loop_t_star_details(sample, fit, rho_hat, window):
    """Reference: the per-eigenvalue loop bandwidth_t_star_details replaced."""
    t0, rho = float(fit.t0), float(rho_hat)
    pooled, weights = sample.ratio, sample.weight
    inv_sqrt = np.empty(pooled.size)
    valid = np.zeros(pooled.size, dtype=bool)
    for i, xi in enumerate(pooled):
        d, _, _, den, scale, _ = pde._coeffs_raw(1.0, float(xi), rho, t0, float(xi))
        if abs(den) > pde.EPS_DENOM * max(scale, 1e-300) and d > 0.0:
            inv_sqrt[i] = 1.0 / math.sqrt(d)
            valid[i] = True
    e_term = float((weights[valid] * inv_sqrt[valid]).sum() / weights[valid].sum())
    nodes, gl_w = kde._gl_nodes(window)
    h_t, _, _ = _derivs_raw(nodes, t0, 1.0, fit.mu0, fit.rho0)
    norm_term = float((h_t * h_t) @ gl_w)
    t_star = (e_term / (2.0 * sample.R * math.sqrt(math.pi) * norm_term)) ** 0.4
    return t_star, int(np.count_nonzero(~valid))


@contextmanager
def plain_erf():
    """Route the kernel's erf to scipy.special.erf everywhere, unsaturated."""
    saved = ratio_density._erf
    ratio_density._erf = special.erf
    try:
        yield
    finally:
        ratio_density._erf = saved


def dense_proposed(sample, grid_x, t_star, rho, chunk=512):
    """Reference: the dense chunked mixture proposed_estimate replaced, plain erf."""
    y = np.zeros(grid_x.size)
    with plain_erf():
        for pts in split(sample):
            if pts.size == 0:
                continue
            acc = np.zeros(grid_x.size)
            for k in range(0, pts.size, chunk):
                mu = pts[k : k + chunk, None]
                acc += _h_erf_raw(grid_x[None, :], t_star, 1.0, mu, rho).sum(axis=0)
            y += acc / (sample.R * pts.size)
    return y


def reference_residuals(theta, centers, target, width, t_cap):
    """Reference: the fit's objective and residuals before _FitObjective, built on _h_erf_raw."""
    t, mu, rho = kde._theta_to_params(theta)
    if t > t_cap:
        return 1e300, None
    h = _h_erf_raw(centers, t, 1.0, mu, rho)
    if not np.all(np.isfinite(h)):
        return 1e300, None
    return float(((h - target) ** 2).sum() * width), h - target


def reference_objective(theta, centers, target, width, t_cap):
    return reference_residuals(theta, centers, target, width, t_cap)[0]


class ReferenceObjective:
    """Drop-in for kde._FitObjective that evaluates reference_residuals."""

    def __init__(self, centers, target, width, t_cap):
        self.args = (centers, target, width, t_cap)

    def residuals(self, theta):
        return reference_residuals(theta, *self.args)


def synthetic_histogram(rng, centres, weights, sd, window, bins, size=20_000):
    """Histogram of a Gaussian mixture over a uniform background, like a pencil sample."""
    comp = rng.choice(len(centres), size=size, p=np.asarray(weights) / np.sum(weights))
    pts = np.asarray(centres)[comp] + sd * rng.standard_normal(size)
    pts = np.concatenate([pts, rng.uniform(window[0] - 0.1, window[1] + 0.1, size // 10)])
    return empirical_density(single_replication(pts), window, bins)


def model1_like_histogram():
    """Three close peaks in model1's (0.75, 1.0) window, which pins t0 at its cap."""
    rng = np.random.default_rng(1)
    return synthetic_histogram(rng, [0.8, 0.9, 0.95], [1, 1, 1], 0.01, (0.75, 1.0), 256)


def model2_like_histogram(bins=2048):
    """Five peaks in model2's window; rho0 runs to its cap. 2048 bins by default, not 8192."""
    rng = np.random.default_rng(2)
    return synthetic_histogram(
        rng, [0.88, 0.9, 0.91, 0.92, 0.94], [1, 10, 10, 10, 1], 2e-3, (0.85, 0.96), bins
    )


def same_bits(a, b):
    """Bit equality; np.array_equal would let -0.0 stand for +0.0, which densities.csv prints apart."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def replications(rng, sizes, lo, hi):
    ratio = [rng.uniform(lo, hi, n) for n in sizes]
    ones = [np.ones_like(r) for r in ratio]
    return EigenSample(s=[r.copy() for r in ratio], t=ones, ratio=ratio)


# centres across and beyond a grid in (0.85, 0.96): at 2 t 750 > 1 the interval
# where a component's Gaussian factor is 0.0 then lies inside the grid, touches
# either end or covers it; shuffled, they fill three chunks of one replication
# whose sums all reach the grid
SWEEP = np.random.default_rng(7).permutation(np.linspace(-1.0, 3.0, 1201))


def with_sweep(sample):
    """The sample with one more replication, SWEEP."""
    return merge(sample, single_replication(SWEEP))


@pytest.fixture(scope="module")
def model2_pairs():
    """20 replications of configs/model2.json at seed 0 and its 8,192-point grid."""
    config = ExperimentConfig.from_json_file(CONFIGS / "model2.json")
    sample, _ = sample_from_pairs(decompose_replications(config.model, 0, 20))
    return sample, kde._bin_grid(config.window, config.points)[1]


class TestEigenSample:
    def test_rejects_mismatched_lists(self):
        with pytest.raises(ValueError):
            EigenSample(s=[[1.0]], t=[[1.0], [2.0]], ratio=[[1.0]])

    def test_rejects_mismatched_replication_sizes(self):
        with pytest.raises(ValueError):
            EigenSample(s=[[1.0, 2.0]], t=[[1.0]], ratio=[[1.0, 2.0]])
        with pytest.raises(ValueError):
            EigenSample(s=[[1.0], []], t=[[1.0], []], ratio=[[], [1.0]])

    def test_pooled_weights(self):
        sample = EigenSample(
            s=[[1.0, 2.0], [3.0, 4.0, 5.0]],
            t=[[1.0, 1.0], [1.0, 1.0, 1.0]],
            ratio=[[1.0, 2.0], [3.0, 4.0, 5.0]],
        )
        assert sample.ratio.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert sample.offsets.tolist() == [0, 2, 5]
        assert sample.R == 2
        assert sample.weight.tolist() == pytest.approx([0.25, 0.25, 1 / 6, 1 / 6, 1 / 6])
        assert sample.weight.sum() == pytest.approx(1.0, rel=1e-15)

    def test_empty_replication_carries_no_weight(self):
        # the empty replication still divides: total mass drops to 1/R
        sample = EigenSample(s=[[1.0], []], t=[[1.0], []], ratio=[[0.5], []])
        assert sample.ratio.tolist() == [0.5]
        assert sample.weight.tolist() == [0.5]
        assert sample.offsets.tolist() == [0, 1, 1]
        assert sample.bounds() == [(0, 1)]

    def test_empty_sample(self):
        sample = EigenSample(s=[], t=[], ratio=[])
        assert sample.R == 0
        assert sample.offsets.tolist() == [0]
        for a in (sample.s, sample.t, sample.ratio, sample.weight):
            assert a.dtype == np.float64 and a.size == 0

    @pytest.mark.parametrize("sizes", [[7, 0, 3, 12], [0, 0, 5], [0], [1] * 3, [4, 0] * 6 + [9]])
    def test_bit_equal_to_pooled_formula(self, rng, sizes):
        # R = 4, 3, 1, 3 and 13; empty replications first, inside and alone
        ratio = [rng.normal(0.9, 0.05, n) for n in sizes]
        s = [rng.normal(size=n) for n in sizes]
        t = [rng.normal(size=n) for n in sizes]
        sample = EigenSample(s=s, t=t, ratio=ratio, blocks_total=99)
        want_ratio, want_weight = pooled_oracle(ratio)
        assert same_bits(sample.ratio, want_ratio)
        assert same_bits(sample.weight, want_weight)
        assert same_bits(sample.s, pooled_oracle(s)[0])
        assert same_bits(sample.t, pooled_oracle(t)[0])
        assert sample.offsets.tolist() == np.cumsum([0, *sizes]).tolist()
        assert (sample.R, sample.blocks_total) == (len(sizes), 99)
        for got, want in zip(split(sample), ratio, strict=True):
            assert same_bits(got, want)

    def test_bit_equal_to_pooled_formula_on_model2_pairs(self, model2_pairs):
        sample = model2_pairs[0]
        pairs = decompose_replications(
            ExperimentConfig.from_json_file(CONFIGS / "model2.json").model, 0, 20
        )
        want_ratio, want_weight = pooled_oracle([p.ratio for p in pairs])
        assert same_bits(sample.ratio, want_ratio)
        assert same_bits(sample.weight, want_weight)


class TestEmpiricalDensity:
    def test_single_point_two_bins(self):
        h = empirical_density(single_replication([0.5]), (0.0, 1.0), 2)
        assert sorted(h.y.tolist()) == [0.0, 2.0]

    def test_symmetric_pair(self):
        h = empirical_density(single_replication([0.3, 0.7]), (0.0, 1.0), 4)
        assert h.y.tolist() == h.y.tolist()[::-1]
        assert h.y.sum() * 0.25 == pytest.approx(1.0, rel=1e-15)

    def test_mass_equals_captured_weight(self, rng):
        ratio = [rng.uniform(0.5, 1.2, rng.integers(1, 6)) for _ in range(40)]
        sample = EigenSample(
            s=[r.copy() for r in ratio], t=[np.ones_like(r) for r in ratio], ratio=ratio
        )
        window = (0.75, 1.0)
        h = empirical_density(sample, window, 256)
        width = h.x[1] - h.x[0]
        pooled, weights = pooled_oracle(ratio)
        captured = weights[(pooled >= window[0]) & (pooled < window[1])].sum()
        assert h.y.sum() * width == pytest.approx(captured, rel=1e-12)

    def test_count_outside(self):
        sample = EigenSample(
            s=[[1.0, 1.0], [1.0]],
            t=[[1.0, 1.0], [1.0]],
            ratio=[[0.5, 0.9], [1.5]],
        )
        assert count_outside(sample, (0.0, 1.0)) == 1

    def test_count_outside_matches_per_replication_loop(self, rng):
        ratio = [rng.uniform(0.6, 1.1, n) for n in rng.integers(0, 9, 30)]
        sample = EigenSample(s=ratio, t=ratio, ratio=ratio)
        # a window whose ends are sample values, which count as inside
        ends = tuple(np.sort(sample.ratio)[[10, 60]])
        for window in ((0.75, 1.0), (0.85, 0.96), ends):
            want = sum(int(np.count_nonzero((r < window[0]) | (r > window[1]))) for r in ratio)
            assert count_outside(sample, window) == want

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            empirical_density(EigenSample(s=[], t=[], ratio=[]), (0.0, 1.0), 4)

    def test_rejects_bad_window_or_bins(self):
        sample = single_replication([0.5])
        with pytest.raises(ValueError):
            empirical_density(sample, (1.0, 1.0), 4)
        with pytest.raises(ValueError):
            empirical_density(sample, (0.0, 1.0), 1)
        with pytest.raises(ValueError):
            empirical_density(sample, (0.0, 1.0), kde.MAX_POINTS + 1)

    @pytest.mark.parametrize(
        "window",
        [(0.5, math.nextafter(0.5, 1.0)), (0.0, 5e-324), (-1e308, 1e308), (1e308, 1.5e308)],
    )
    @pytest.mark.parametrize("bins", [2, 256])
    def test_rejects_unresolvable_window_without_warnings(self, window, bins):
        # a zero or non-finite bin width made numpy warn before the ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="window"):
                empirical_density(single_replication([0.5]), window, bins)


class TestGaussianEstimate:
    def test_kernel_peak_value(self):
        h = gaussian_estimate(single_replication([0.0]), np.array([0.0]), 1.0)
        assert h.y[0] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)

    def test_two_equal_points_match_one(self):
        grid = np.linspace(-1.0, 2.0, 101)
        one = gaussian_estimate(single_replication([0.5]), grid, 0.2)
        two = gaussian_estimate(single_replication([0.5, 0.5]), grid, 0.2)
        assert np.array_equal(one.y, two.y)

    def test_total_mass(self, rng):
        sample = single_replication(rng.normal(0.9, 0.2, 300))
        grid = np.linspace(-6.0, 8.0, 2001)
        h = gaussian_estimate(sample, grid, 0.05)
        assert trapezoid(h.y, grid) == pytest.approx(1.0, abs=1e-6)

    def test_heat_equation_residual(self):
        rng = np.random.default_rng(3)
        sample = single_replication(rng.normal(0.9, 0.1, 200))
        grid = np.linspace(0.5, 1.3, 161)
        t0, dt, dx = 0.02, 1e-6, 1e-4
        h_t = (
            gaussian_estimate(sample, grid, t0 + dt).y
            - gaussian_estimate(sample, grid, t0 - dt).y
        ) / (2.0 * dt)
        h_xx = (
            gaussian_estimate(sample, grid + dx, t0).y
            - 2.0 * gaussian_estimate(sample, grid, t0).y
            + gaussian_estimate(sample, grid - dx, t0).y
        ) / (dx * dx)
        res = np.abs(h_t - 0.5 * h_xx)
        scale = np.max(np.abs(h_t) + 0.5 * np.abs(h_xx))
        assert res.max() / scale <= 1e-5

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            gaussian_estimate(single_replication([0.5]), np.array([0.0]), 0.0)

    @pytest.mark.parametrize("sizes", [[7, 0, 3, 12], [kde.CHUNK + 5, 1], []])
    def test_matches_temporaries(self, rng, sizes):
        # reference: the chunked expression with temporaries that the buffer replaced
        ratio = [rng.normal(0.9, 0.05, n) for n in sizes]
        sample = EigenSample(s=ratio, t=ratio, ratio=ratio)
        grid = np.linspace(0.7, 1.1, 301)
        t = 2e-4
        want = np.zeros(grid.size)
        for pts in ratio:
            if pts.size:
                acc = np.zeros(grid.size)
                for k in range(0, pts.size, kde.CHUNK):
                    mu = pts[k : k + kde.CHUNK, None]
                    acc += np.exp(-((grid[None, :] - mu) ** 2) / (2.0 * t)).sum(axis=0)
                want += (1.0 / math.sqrt(2.0 * math.pi * t) / (len(ratio) * pts.size)) * acc
        assert gaussian_estimate(sample, grid, t).y.tobytes() == want.tobytes()

    def test_mixture_merge_is_exact(self):
        grid = np.linspace(0.0, 2.0, 257)
        a = single_replication([0.8, 0.85, 0.9])
        b = single_replication([0.7])
        merged = merge(a, b)
        ya = gaussian_estimate(a, grid, 0.03).y
        yb = gaussian_estimate(b, grid, 0.03).y
        ym = gaussian_estimate(merged, grid, 0.03).y
        assert np.array_equal(ym, (ya + yb) / 2.0)


@pytest.fixture(scope="module", params=[("model1", 0), ("model1", 1), ("model2", 0), ("model2", 1)],
                ids=lambda p: f"{p[0]}-seed{p[1]}")
def paper_estimation(request):
    """A paper config at a seed and its estimation sample, the first R records, as in run()."""
    name, seed = request.param
    config = ExperimentConfig.from_json_file(CONFIGS / f"{name}.json")
    pairs = decompose_replications(config.model, seed, config.R, available_cpus())
    return config, sample_from_pairs(pairs)[0]


def relative_error(binned, exact):
    """max |binned - exact| over the exact estimate's peak."""
    return float(np.max(np.abs(binned.y - exact.y)) / exact.y.max())


def mode_positions(grid, tau):
    return [m.x for m in extract_modes(grid, tau)]


class TestBinnedGaussian:
    def test_paper_configs_match_the_exact_sum(self, paper_estimation):
        config, sample = paper_estimation
        grid = kde._bin_grid(config.window, config.points)[1]
        t = gaussian_bandwidth(sample)
        binned = binned_gaussian_estimate(sample, grid, t)
        exact = gaussian_estimate(sample, grid, t)
        assert relative_error(binned, exact) <= 1e-5
        assert mode_positions(binned, config.tau) == mode_positions(exact, config.tau)

    def test_paper_configs_take_the_binned_path(self, paper_estimation):
        config, sample = paper_estimation
        est = estimate_pipeline(sample, config.window, config.points, config.tau, "gaussian")
        plan = est["gaussian_plan"]
        assert plan == gaussian_plan(est["empirical"].x, est["t_plus"])
        assert plan.path == "binned" and plan.refine >= 1 and plan.reach_bins > 0
        assert config.points <= plan.fft_len <= kde.MAX_FFT

    def test_coarse_grid_is_refined(self):
        # 64 points at sd / spacing of about 9: binned on the grid itself, the error is 1.3e-3
        model = SignalModel(zeta=(0.5, 0.9), f=(1.0, 1.0), sigma=1e-3, n=8)
        grid = kde._bin_grid((0.3, 1.1), 64)[1]
        for seed in (0, 7):
            sample, _ = sample_from_pairs(decompose_replications(model, seed, 20))
            t = gaussian_bandwidth(sample)
            assert 8.0 < math.sqrt(t) / (grid[1] - grid[0]) < 10.0
            binned = binned_gaussian_estimate(sample, grid, t)
            exact = gaussian_estimate(sample, grid, t)
            assert relative_error(binned, exact) <= 1e-5
            assert gaussian_plan(grid, t).refine > 1
            assert mode_positions(binned, 0.5) == mode_positions(exact, 0.5)

    def test_empty_tails_are_zero_not_negative(self):
        # the transform leaves about -1e-15 in the empty tails (1,768 of 4,096 values here)
        pts = np.random.default_rng(0).normal(0.9, 0.005, 200)
        centres = kde._bin_grid((0.5, 1.5), 4096)[1]
        binned = binned_gaussian_estimate(single_replication(pts), centres, 2e-5)
        assert same_bits(binned.x, centres)
        assert np.all(np.isfinite(binned.y)) and np.all(binned.y >= 0.0)
        assert np.count_nonzero(binned.y == 0.0) > 1000
        exact = gaussian_estimate(single_replication(pts), centres, 2e-5)
        assert relative_error(binned, exact) <= 1e-5

    def test_far_off_eigenvalues(self):
        # dropped before scaling: no overflow to inf, no cast of a value past the int64 range
        pts = np.random.default_rng(1).normal(0.9, 0.02, 100)
        far = [1e300, -1e300, 1e19, -1e19, 5.0, np.finfo(float).max, -np.finfo(float).max]
        sample = merge(single_replication(pts), single_replication(far))
        grid = kde._bin_grid((0.85, 0.96), 1024)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            binned = binned_gaussian_estimate(sample, grid, 1e-5)
        # the far values' replication adds nothing on the grid: half the near sample's estimate
        near = binned_gaussian_estimate(single_replication(pts), grid, 1e-5)
        assert np.allclose(binned.y, 0.5 * near.y, rtol=1e-12, atol=1e-12 * near.y.max())

    def test_guard_falls_back_to_the_exact_sum(self, monkeypatch):
        # MAX_POINTS points in model1's window at its t+: the kernel's reach alone is about 8M bins
        grid = kde._bin_grid((0.75, 1.0), kde.MAX_POINTS)[1]
        plan = gaussian_plan(grid, 1.232e-2)
        assert plan == kde.GaussianPlan("exact")
        monkeypatch.setattr(kde, "gaussian_estimate", lambda sample, grid_x, t: "exact sum")
        monkeypatch.setattr(np.fft, "rfft", None)
        sample = single_replication([0.8, 0.9, 0.95])
        assert binned_gaussian_estimate(sample, grid, 1.232e-2) == "exact sum"
        # 64 times fewer points fit
        plan = gaussian_plan(kde._bin_grid((0.75, 1.0), kde.MAX_POINTS // 64)[1], 1.232e-2)
        assert plan.path == "binned" and plan.fft_len <= kde.MAX_FFT

    @pytest.mark.parametrize("t", [math.inf, 1e300, 1e-300, 5e-324])
    def test_sizes_past_any_bound_are_never_rounded(self, t):
        # an infinite reach or refinement would raise OverflowError from math.ceil
        assert gaussian_plan(np.linspace(0.0, 1.0, 11), t) == kde.GaussianPlan("exact")

    def test_guard_counts_the_refined_grid(self, monkeypatch):
        # sd / spacing = 247.5 refines by 2: 2,000 nodes with their reach are 6,491 by
        # the unrefined count and 12,855 refined, past an 8,192 bound
        grid = np.linspace(0.0, 1.0, 2000)
        t = (247.5 / 1999) ** 2
        assert gaussian_plan(grid, t).refine == 2
        monkeypatch.setattr(kde, "MAX_FFT", 8192)
        assert gaussian_plan(grid, t) == kde.GaussianPlan("exact")

    def test_uneven_grid_takes_the_exact_sum(self, rng):
        sample = single_replication(rng.normal(0.9, 0.05, 50))
        grid = np.linspace(0.7, 1.1, 201)
        grid[100] += 1e-6
        assert gaussian_plan(grid, 1e-3).path == "exact"
        want = gaussian_estimate(sample, grid, 1e-3).y
        assert same_bits(binned_gaussian_estimate(sample, grid, 1e-3).y, want)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            binned_gaussian_estimate(single_replication([0.5]), np.linspace(0.0, 1.0, 9), 0.0)

    def test_fft_length_is_the_least_smooth_integer(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        want = [next(m for m in range(n, 2 * n + 2) if smooth(m)) for n in range(1, 3000)]
        assert [kde._fft_length(n) for n in range(1, 3000)] == want


class TestGaussianBandwidth:
    def test_normal_reference_scale(self):
        pts = np.random.default_rng(7).standard_normal(1000)
        t_plus = gaussian_bandwidth(single_replication(pts))
        amise = (4.0 / (3.0 * 1000)) ** 0.4 * np.var(pts, ddof=1)
        assert 0.5 < t_plus / amise < 2.0

    def test_scale_equivariance(self, rng):
        pts = rng.normal(0.9, 0.05, 400)
        base = gaussian_bandwidth(single_replication(pts))
        assert gaussian_bandwidth(single_replication(2.0 * pts)) == 4.0 * base
        scaled = gaussian_bandwidth(single_replication(0.3 * pts))
        assert scaled == pytest.approx(0.09 * base, rel=1e-12)

    def test_quartiles_are_np_percentile_values(self):
        # the values of np.percentile(a, [25, 75]), ties, n = 2, 3 and signed zeros
        # included; a zero's sign may differ, as -0.0 and 0.0 tie in the sort
        rng = np.random.default_rng(16)
        arrays = [[1.0, -2.0], [0.5, 0.5, 3.0], [-0.0, 0.0], [0.0, -0.0, 0.0],
                  [-1.0, -0.0, 0.0, 1.0], [1e308, -1e308, 3.0], [5e-324, -5e-324, 0.0]]
        for n in range(2, 60):
            arrays += [rng.normal(0.9, 0.05, n), rng.integers(-2, 3, n).astype(float),
                       rng.choice([-0.0, 0.0, 1.0, -1.0], n), np.exp(rng.normal(0, 30, n))]
        for a in map(np.array, arrays):
            before = a.copy()
            got = kde._quartiles(a)
            assert np.array_equal(got, np.percentile(a, [25.0, 75.0]), equal_nan=True)
            assert np.array_equal(a, before)

    def test_bit_equal_to_percentile_formula(self, model2_pairs, rng):
        def oracle(sample):
            pooled = pooled_oracle(split(sample))[0]
            q25, q75 = np.percentile(pooled, [25.0, 75.0])
            scale = min(float(np.std(pooled)), float(q75 - q25) / 1.349)
            return (0.9 * scale * int(sample.blocks_total or pooled.size) ** (-0.2)) ** 2

        samples = [model2_pairs[0], single_replication(rng.normal(0.9, 0.05, 401)),
                   single_replication(rng.integers(0, 7, 250) / 8.0),
                   single_replication([0.5, 2.0]), single_replication([0.1, 0.2, 0.4])]
        for sample in samples:
            assert gaussian_bandwidth(sample).hex() == oracle(sample).hex()

    def test_rejects_degenerate_samples(self):
        with pytest.raises(ValueError):
            gaussian_bandwidth(single_replication([0.9, 0.9, 0.9]))
        with pytest.raises(ValueError):
            gaussian_bandwidth(single_replication([0.9]))


class TestPooledCorrelation:
    def test_collinear_pairs(self):
        t = np.linspace(1.0, 2.0, 20)
        sample = EigenSample(s=[3.0 * t], t=[t], ratio=[3.0 * np.ones_like(t)])
        assert pooled_correlation(sample) == pytest.approx(1.0, abs=1e-12)

    def test_bivariate_oracle(self):
        rng = np.random.default_rng(11)
        cov = [[1.0, 0.8], [0.8, 1.0]]
        st = rng.multivariate_normal([0.0, 0.0], cov, size=100_000)
        sample = EigenSample(
            s=[st[:, 0]], t=[st[:, 1]], ratio=[np.ones(st.shape[0])]
        )
        assert pooled_correlation(sample) == pytest.approx(0.8, abs=0.01)

    def test_rejects_zero_variance(self):
        sample = EigenSample(
            s=[[1.0, 1.0, 1.0]], t=[[1.0, 2.0, 3.0]], ratio=[[1.0, 0.5, 1 / 3]]
        )
        with pytest.raises(ValueError):
            pooled_correlation(sample)

    def test_rejects_single_pair(self):
        with pytest.raises(ValueError):
            pooled_correlation(single_replication([0.9]))


@pytest.fixture(scope="module")
def oracle_fit():
    spec = EqualVarSpec(nu_v=1.0, nu_w=0.9, rho=0.3, t=0.05)
    sample = reference_sample(42, 100_000, spec)
    h_e = empirical_density(sample, (-0.5, 2.3), 256)
    return spec, h_e, fit_reference(h_e)


class TestFitReference:
    def test_recovers_generating_parameters(self, oracle_fit):
        spec, _, fit = oracle_fit
        assert fit.t0 == pytest.approx(spec.t, rel=0.20)
        assert fit.mu0 == pytest.approx(spec.nu_w, abs=0.01)
        assert fit.rho0 == pytest.approx(spec.rho, abs=0.1)
        assert fit.converged

    def test_objective_reproducible_from_reported_minimizer(self, oracle_fit):
        _, h_e, fit = oracle_fit
        width = h_e.x[1] - h_e.x[0]
        h = density_equal_var(EqualVarSpec(1.0, fit.mu0, fit.rho0, fit.t0), h_e.x)
        assert float(((h - h_e.y) ** 2).sum() * width) == fit.objective

    def test_reported_point_is_a_local_minimum(self, oracle_fit):
        _, h_e, fit = oracle_fit
        width = h_e.x[1] - h_e.x[0]

        def objective(t, mu, rho):
            h = density_equal_var(EqualVarSpec(1.0, mu, rho, t), h_e.x)
            return float(((h - h_e.y) ** 2).sum() * width)

        for t, mu, rho in [
            (fit.t0 * 1.2, fit.mu0, fit.rho0),
            (fit.t0 / 1.2, fit.mu0, fit.rho0),
            (fit.t0, fit.mu0 + 0.02, fit.rho0),
            (fit.t0, fit.mu0 - 0.02, fit.rho0),
            (fit.t0, fit.mu0, fit.rho0 + 0.1),
            (fit.t0, fit.mu0, fit.rho0 - 0.1),
        ]:
            assert objective(t, mu, rho) >= fit.objective

    def test_objective_decreases_along_accepted_steps(self, monkeypatch):
        evaluations, searches = [], []

        class Recorded(kde._FitObjective):
            def residuals(self, theta):
                fun, res = super().residuals(theta)
                evaluations.append((tuple(theta.tolist()), fun))
                return fun, res

        def recorded(objective, x0, lower, upper):
            evaluations.clear()
            out = levenberg_marquardt(objective, x0, lower, upper)
            searches.append((accepted_objectives(evaluations), len(evaluations), out))
            return out

        levenberg_marquardt = kde._levenberg_marquardt
        monkeypatch.setattr(kde, "_FitObjective", Recorded)
        monkeypatch.setattr(kde, "_levenberg_marquardt", recorded)
        fit = fit_reference(model1_like_histogram())
        assert len(searches) == kde.N_STARTS
        for accepted, evaluated, (_, fun, nfev, converged) in searches:
            assert converged and nfev == evaluated
            assert len(accepted) > 10
            assert all(b < a for a, b in zip(accepted, accepted[1:]))
            assert fun <= accepted[-1]
        assert fit.objective == min(out[1] for _, _, out in searches)

    def test_rejects_sparse_histogram(self):
        x = np.linspace(0.0, 1.0, 16)
        y = np.zeros(16)
        y[3] = y[7] = y[11] = 1.0
        with pytest.raises(ValueError):
            fit_reference(DensityGrid(x=x, y=y))

    def test_at_rho_cap(self, oracle_fit):
        assert not oracle_fit[2].at_rho_cap
        fit = fit_reference(model2_like_histogram())
        assert fit.at_rho_cap and fit.rho_near_boundary and not fit.at_t_cap
        assert abs(math.atanh(fit.rho0)) > 0.99 * kde._ARHO_CAP

    def test_iteration_cap_means_no_convergence(self, monkeypatch):
        monkeypatch.setattr(kde, "_LM_MAXITER", 1)
        with pytest.raises(kde.FitNonConvergenceError) as err:
            fit_reference(model1_like_histogram())
        assert err.value.best.n_converged == 0 and len(err.value.best.nfev) == kde.N_STARTS

    @pytest.mark.parametrize("t_cap", [0.0625, 0.0121, 1.0, 2.0, 1e-17, 1e-300, 1e18, math.inf])
    def test_log_t_max(self, t_cap):
        u = kde._log_t_max(t_cap)
        assert u <= kde._LOG_T_CAP and math.exp(u) <= t_cap
        assert u == kde._LOG_T_CAP or math.exp(math.nextafter(u, math.inf)) > t_cap


def accepted_objectives(evaluations):
    """The objective at each point a search took a Jacobian at, from its (theta, fun) in order.

    A Jacobian is three evaluations at x + h_j e_j, j = 0, 1, 2, each off x in
    coordinate j alone, where x was evaluated before: as the start or as the
    trial step just accepted.
    """
    seen, out, i = {}, [], 0
    while i < len(evaluations):
        jacobian = [theta for theta, _ in evaluations[i : i + 3]]
        if len(jacobian) == 3:
            a, b, c = jacobian
            x = (b[0], a[1], a[2])
            moved = [tuple(p != q for p, q in zip(theta, x)) for theta in jacobian]
            if x in seen and moved == [tuple(k == j for k in range(3)) for j in range(3)]:
                out.append(seen[x])
                i += 3
                continue
        seen[evaluations[i][0]] = evaluations[i][1]
        i += 1
    return out


NM_OPTIONS = {"xatol": 1e-7, "fatol": 1e-13, "maxiter": 4000, "maxfev": 6000}


def objective_branch(centers, theta, target=None):
    """Assert _FitObjective bit-equal to the reference; return the erf branch it took.

    Besides the given target (zeros by default), the reference density at
    theta itself is used as a target: the reference objective is then 0.0,
    and any grid point whose density differs by a bit makes it positive.
    """
    centers = np.asarray(centers, dtype=float)
    width = float(centers[1] - centers[0])
    t_cap = (float(centers[-1] - centers[0]) + width) ** 2
    targets = [np.zeros_like(centers) if target is None else target]
    t, mu, rho = kde._theta_to_params(theta)
    if t <= t_cap:
        h = _h_erf_raw(centers, t, 1.0, mu, rho)
        if np.all(np.isfinite(h)):
            targets.append(h)
    for y in targets:
        obj = kde._FitObjective(centers, y, width, t_cap)
        assert obj.residuals(theta)[0] == reference_objective(theta, centers, y, width, t_cap)
    if t > t_cap:
        return None
    return obj._saturated_sign(mu, 0, centers.size)


def theta(t, mu, rho=None, arho=None):
    return np.array([math.log(t), mu, math.atanh(rho) if arho is None else arho])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
class TestFitObjective:
    def test_random_theta_across_the_caps(self, rng, oracle_fit):
        _, h_e, _ = oracle_fit
        for _ in range(400):
            log_t = rng.uniform(-45.0, 10.0)
            mu = rng.choice([rng.uniform(-3.0, 3.0), rng.uniform(0.5, 1.3), 10.0 ** rng.uniform(1, 300)])
            arho = rng.choice([rng.uniform(-3.0, 3.0), rng.uniform(-14.0, 14.0)])
            objective_branch(h_e.x, np.array([log_t, mu * rng.choice([-1, 1]), arho]), h_e.y)

    @pytest.mark.parametrize("arho", [-kde._ARHO_CAP, kde._ARHO_CAP, -13.0, 13.0])
    def test_rho_at_the_cap(self, rng, arho):
        x = np.linspace(0.85, 0.96, 1024)
        for log_t in rng.uniform(-41.0, -2.0, 40):
            for mu in (0.9, 0.99, float(np.tanh(arho)), -0.5):
                objective_branch(x, np.array([log_t, mu, arho]))

    def test_t_above_cap(self):
        x = np.linspace(0.75, 1.0, 256)
        width = float(x[1] - x[0])
        t_cap = (float(x[-1] - x[0]) + width) ** 2
        obj = kde._FitObjective(x, np.ones_like(x), width, t_cap)
        assert obj.residuals(theta(t_cap * 1.001, 0.9, 0.3)) == (1e300, None)
        assert obj.residuals(np.array([60.0, 0.9, 0.0])) == (1e300, None)
        assert objective_branch(x, theta(t_cap * (1.0 - 1e-9), 0.9, 0.3)) == 0.0

    @pytest.mark.parametrize("mu", [1.4e154, 1e200, -1e200])
    def test_far_off_mean_gives_a_value(self, mu):
        # mu^2 overflows; Python's float power raised OverflowError here
        x = np.linspace(0.75, 1.0, 256)
        obj = kde._FitObjective(x, np.ones_like(x), x[1] - x[0], 1.0)
        got, _ = obj.residuals(theta(1e-3, mu, 0.3))
        assert got == float(np.ones_like(x).sum() * (x[1] - x[0]))
        objective_branch(x, theta(1e-3, mu, 0.3))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_density_gives_1e300(self):
        # 2 mu rho overflows too: the Cauchy term's exponent is NaN
        x = np.linspace(0.75, 1.0, 256)
        obj = kde._FitObjective(x, np.ones_like(x), x[1] - x[0], 1.0)
        assert obj.residuals(theta(1e-3, 1e308, 0.3)) == (1e300, None)
        objective_branch(x, theta(1e-3, 1e308, 0.3))

    def test_unsaturated_branch(self, oracle_fit):
        _, h_e, fit = oracle_fit
        th = theta(fit.t0, fit.mu0, fit.rho0)
        assert objective_branch(h_e.x, th, h_e.y) == 0.0
        # the Cauchy term is not 0.0 here
        assert math.exp(-(1.0 - 2 * fit.mu0 * fit.rho0 + fit.mu0**2) / (2 * fit.t0)) > 0.0

    @pytest.mark.parametrize(
        "grid, th, sign",
        [
            # lin = 1 + 0.9 x around the density's peak
            ((0.7, 1.1), theta(1e-4, 0.9, 0.0), 1.0),
            # lin = 1.54 - 1.5 x, negative past its root 1.03, away from the peak
            # at x = mu; |z| >= 10 and the density about 1e-13 on the grid
            ((3.0, 4.0), theta(0.05, -0.6, 0.9), -1.0),
        ],
    )
    def test_saturated_branch(self, grid, th, sign):
        assert objective_branch(np.linspace(*grid, 512), th) == sign

    @pytest.mark.parametrize("mu, grid", [(1.0, (-1.5, 2.0)), (-1.0, (-2.0, 1.5))])
    def test_lin_changes_sign_inside_the_grid(self, mu, grid):
        # rho = 0: lin = 1 + mu x has its root at -1/mu inside the grid, |lin| >= 0.5
        # at both ends (6 sqrt(c q_max) = 0.42 is below that), and the density
        # peaks at x = mu on the other side of the root
        x = np.linspace(*grid, 1024)
        assert objective_branch(x, theta(5e-4, mu, 0.0)) == 0.0

    def test_lin_tiny_at_both_ends(self):
        x = np.linspace(0.5, 1.5, 1024)
        arho = kde._ARHO_CAP
        rho = math.tanh(arho)
        # mu = rho: lin is 1 - rho^2 = 2.25e-10 everywhere, saturated for t <= 1e-11
        assert objective_branch(x, np.array([math.log(1e-12), rho, arho])) == 1.0
        assert objective_branch(x, np.array([math.log(1e-9), rho, arho])) == 0.0
        # lin = 1e-13 at x = 0.5: 6 sqrt(c q_max) is below it at t = 2e-18, but
        # the rounding of lin is not 200 times below it, so erf is evaluated
        delta = (1.0 - rho * rho - 1e-13) / (rho - 0.5)
        th = np.array([math.log(2e-18), rho + delta, arho])
        assert objective_branch(x, th) == 0.0

    @pytest.mark.parametrize("z_end", [5.5, 5.93, 5.99])
    def test_end_z_below_the_bound(self, z_end):
        # rho = 0, mu = 1: z = (1 + x) / sqrt(2 t (1 + x^2)) is z_end at x = 0,
        # below 6 q_max^(1/2) there, so erf is evaluated; scipy's erf is exactly
        # 1.0 only from 5.9216 on
        x = np.linspace(0.0, 0.15, 256)
        t = 1.0 / (2.0 * z_end**2)
        assert objective_branch(x, theta(t, 1.0, 0.0)) == 0.0


class TestFitReferenceObjective:
    """fit_reference with _FitObjective takes the reference objective's search path."""

    def fits(self, h_e, monkeypatch):
        got = fit_reference(h_e)
        with monkeypatch.context() as m:
            m.setattr(kde, "_FitObjective", ReferenceObjective)
            want = fit_reference(h_e)
        return got, want

    def test_oracle_histogram(self, oracle_fit, monkeypatch):
        _, h_e, fit = oracle_fit
        got, want = self.fits(h_e, monkeypatch)
        assert got == want == fit
        assert got.nfev == want.nfev and len(got.nfev) == kde.N_STARTS

    def test_model1_like_histogram(self, monkeypatch):
        h_e = model1_like_histogram()
        got, want = self.fits(h_e, monkeypatch)
        assert got == want
        assert got.nfev == want.nfev
        # as on model1, the (0.75, 1.0) window pins t0 at its cap span^2, on
        # the projection's bound and never past it
        t_cap = (float(h_e.x[-1] - h_e.x[0]) + float(h_e.x[1] - h_e.x[0])) ** 2
        assert got.at_t_cap and got.t0 == pytest.approx(0.25**2, rel=1e-9)
        assert got.t0 == math.exp(kde._log_t_max(t_cap)) <= t_cap

    def test_model2_like_histogram(self, monkeypatch):
        # like model2's fit, rho0 runs to the cap and every evaluation takes the
        # saturated branch
        got, want = self.fits(model2_like_histogram(), monkeypatch)
        assert got == want
        assert got.nfev == want.nfev

    @pytest.mark.parametrize("histogram", ["oracle", "model1", "model2"])
    def test_at_or_below_scipy_nelder_mead(self, histogram, oracle_fit, monkeypatch):
        # scipy's Nelder-Mead from the same starts, stopped at the fit's xatol and fatol
        h_e = {
            "oracle": lambda: oracle_fit[1],
            "model1": model1_like_histogram,
            "model2": model2_like_histogram,
        }[histogram]()
        starts = []

        def recorded(objective, x0, lower, upper):
            starts.append((objective, x0.copy()))
            return levenberg_marquardt(objective, x0, lower, upper)

        levenberg_marquardt = kde._levenberg_marquardt
        monkeypatch.setattr(kde, "_levenberg_marquardt", recorded)
        fit = fit_reference(h_e)
        assert len(starts) == kde.N_STARTS
        runs = [
            scipy.optimize.minimize(
                lambda th: objective.residuals(th)[0], x0, method="Nelder-Mead", options=NM_OPTIONS
            )
            for objective, x0 in starts
        ]
        assert fit.objective <= min(r.fun for r in runs) * (1.0 + 1e-9)
        assert 2 * sum(fit.nfev) <= sum(r.nfev for r in runs)

    def test_diagnostics(self, oracle_fit):
        _, _, fit = oracle_fit
        assert len(fit.nfev) == kde.N_STARTS and all(n > 0 for n in fit.nfev)
        assert 1 <= fit.n_converged <= kde.N_STARTS
        assert not fit.at_t_cap


def counted_searches(monkeypatch):
    """The objectives _levenberg_marquardt is called with, in call order, as fit_reference runs."""
    calls = []

    def counted(objective, x0, lower, upper):
        calls.append(objective)
        return levenberg_marquardt(objective, x0, lower, upper)

    levenberg_marquardt = kde._levenberg_marquardt
    monkeypatch.setattr(kde, "_levenberg_marquardt", counted)
    return calls


class TestCoarseSearch:
    """fit_reference searches a histogram of 8,192 bins on 1,024 merged bins, then polishes."""

    @pytest.fixture(scope="class")
    def model2_histogram(self, model2_pairs):
        sample, grid = model2_pairs
        return empirical_density(sample, (0.85, 0.96), grid.size)

    def full_search(self, h_e, monkeypatch):
        with monkeypatch.context() as m:
            # k = n // COARSE_BINS = 0: the starts search the histogram itself
            m.setattr(kde, "COARSE_BINS", kde.MAX_POINTS + 1)
            return fit_reference(h_e)

    @pytest.mark.parametrize("histogram", ["model2_pairs", "model2_like"])
    def test_matches_the_full_search(self, histogram, model2_histogram, monkeypatch):
        h_e = model2_histogram if histogram == "model2_pairs" else model2_like_histogram(8192)
        assert h_e.x.size == 8192
        want = self.full_search(h_e, monkeypatch)
        calls = counted_searches(monkeypatch)
        got = fit_reference(h_e)
        assert got.objective <= want.objective * (1.0 + 1e-12)
        assert got.at_t_cap == want.at_t_cap
        assert got.rho_near_boundary == want.rho_near_boundary
        if histogram == "model2_pairs":
            assert got.at_rho_cap == want.at_rho_cap
        # on the synthetic histogram both searches end where rho -> -1 and the
        # objective is flat to an ulp: the full search stops at |atanh rho0| =
        # 11.34 and the coarse one on the bound 11.8, t0 7e-9 apart
        # six starts on the merged copy, then the polish on the histogram itself
        assert [c.x.size for c in calls] == [kde.COARSE_BINS] * kde.N_STARTS + [8192]
        assert len(got.nfev) == kde.N_STARTS + 1 and got.search_bins == kde.COARSE_BINS
        assert want.search_bins == 8192 and len(want.nfev) == kde.N_STARTS

    def test_polish_reports_the_full_objective(self, model2_histogram):
        h_e = model2_histogram
        fit = fit_reference(h_e)
        width = float(h_e.x[1] - h_e.x[0])
        t_cap = (float(h_e.x[-1] - h_e.x[0]) + width) ** 2
        objective = kde._FitObjective(h_e.x, h_e.y, width, t_cap)
        th = np.array([math.log(fit.t0), fit.mu0, math.atanh(fit.rho0)])
        assert objective.residuals(th)[0] == pytest.approx(fit.objective, rel=1e-12)

    @pytest.mark.parametrize("histogram", ["model1", "model2"])
    def test_small_histograms_search_every_bin(self, histogram, monkeypatch):
        h_e = model1_like_histogram() if histogram == "model1" else model2_like_histogram()
        assert h_e.x.size in (256, 2048)
        calls = counted_searches(monkeypatch)
        fit = fit_reference(h_e)
        assert len(calls) == kde.N_STARTS and all(c.x.size == h_e.x.size for c in calls)
        assert fit.search_bins == h_e.x.size and len(fit.nfev) == kde.N_STARTS

    def test_coarse_copy_merges_adjacent_bins(self):
        h_e = model2_like_histogram(8192)
        width = float(h_e.x[1] - h_e.x[0])
        centers, target, coarse_width = kde._coarse_copy(h_e.x, h_e.y, width)
        assert centers.size == target.size == kde.COARSE_BINS and coarse_width == 8 * width
        assert centers[0] == pytest.approx(h_e.x[:8].mean(), rel=1e-15)
        assert target[100] == pytest.approx(h_e.y[800:808].mean(), rel=1e-15)
        # the merged copy keeps the histogram's mass
        assert target.sum() * coarse_width == pytest.approx(h_e.y.sum() * width, rel=1e-12)

    @pytest.mark.parametrize("bins", [8192, 5001])
    def test_histograms_without_a_coarse_copy(self, bins, monkeypatch):
        # at 8,192 bins: twelve nonzero bins fall into two merged bins, too few
        # for a fit; 5,001 bins have no k >= 4 that divides them
        window = (0.85, 0.96)
        if bins == 8192:
            x = kde._bin_grid(window, bins)[1]
            y = np.zeros(bins)
            y[4090:4102] = np.exp(-0.5 * ((np.arange(12) - 5.5) / 3.0) ** 2)
            h_e = DensityGrid(x=x, y=y)
            assert np.count_nonzero(y.reshape(-1, 8).sum(axis=1)) == 2
        else:
            h_e = model2_like_histogram(bins)
        assert kde._coarse_copy(h_e.x, h_e.y, float(h_e.x[1] - h_e.x[0])) is None
        calls = counted_searches(monkeypatch)
        fit = fit_reference(h_e)
        assert len(calls) == kde.N_STARTS and all(c.x.size == bins for c in calls)
        assert fit.search_bins == bins and len(fit.nfev) == kde.N_STARTS


class TestBandwidthTStar:
    WINDOW = (0.5, 1.3)

    def fit(self, t0=0.05, mu0=0.9, rho0=0.3):
        return FitResult(t0=t0, mu0=mu0, rho0=rho0, objective=0.0)

    def test_single_component_formula(self):
        # independent arithmetic: D at the component center over an adaptive
        # quadrature of the squared variance derivative of the fitted density
        from scipy.integrate import quad

        from pencilkde.pde import pde_coefficients
        from pencilkde.ratio_density import derivatives

        fit = self.fit()
        d_center = pde_coefficients(EqualVarSpec(1.0, 0.9, fit.rho0, fit.t0), 0.9)[0]
        pad = kde.WINDOW_EXTEND * 0.5 * (self.WINDOW[1] - self.WINDOW[0])
        fspec = EqualVarSpec(1.0, fit.mu0, fit.rho0, fit.t0)
        norm, _ = quad(
            lambda x: derivatives(fspec, x)[0] ** 2,
            self.WINDOW[0] - pad,
            self.WINDOW[1] + pad,
            limit=400,
        )
        want = (1.0 / math.sqrt(d_center) / (2.0 * math.sqrt(math.pi) * norm)) ** 0.4
        got = bandwidth_t_star_details(single_replication([0.9]), fit, fit.rho0, self.WINDOW)[0]
        assert got == pytest.approx(want, rel=1e-9)

    def test_replication_count_exponent(self):
        fit = self.fit()
        one = bandwidth_t_star_details(single_replication([0.9]), fit, 0.3, self.WINDOW)[0]
        many = EigenSample(s=[[0.9]] * 16, t=[[1.0]] * 16, ratio=[[0.9]] * 16)
        got = bandwidth_t_star_details(many, fit, 0.3, self.WINDOW)[0]
        assert got == pytest.approx(one * 16.0**-0.4, rel=1e-12)

    def test_skips_components_with_bad_diffusion(self):
        # at rho = 0.9 the diffusion coefficient at x = 0.9 is negative for
        # a component centered there, so only the 0.5 component counts
        sample = EigenSample(s=[[0.5, 0.9]], t=[[1.0, 1.0]], ratio=[[0.5, 0.9]])
        _, skipped = bandwidth_t_star_details(sample, self.fit(), 0.9, self.WINDOW)
        assert skipped == 1

    @pytest.mark.parametrize("rho", [-0.6, 0.0, 0.3, 0.99])
    def test_matches_per_eigenvalue_loop(self, rng, rho):
        sample = replications(rng, rng.integers(0, 12, 40), 0.4, 1.4)
        for t0 in (1e-4, 0.05, 2.0):
            fit = self.fit(t0=t0, rho0=rho)
            got = bandwidth_t_star_details(sample, fit, rho, self.WINDOW)
            assert got == loop_t_star_details(sample, fit, rho, self.WINDOW)

    def test_matches_loop_with_skipped_components(self, rng):
        # x = rho makes the leading P3 coefficient vanish, so polymul trims it
        sample = replications(rng, [30, 5, 0, 17], 0.3, 1.2)
        split(sample)[1][0] = 0.9
        fit = self.fit()
        got = bandwidth_t_star_details(sample, fit, 0.9, self.WINDOW)
        assert got[1] > 0
        assert got == loop_t_star_details(sample, fit, 0.9, self.WINDOW)

    def test_all_components_skipped(self):
        with pytest.raises(ValueError):
            bandwidth_t_star_details(single_replication([0.9]), self.fit(), 0.9, self.WINDOW)

    def test_rejects_bad_parameters(self):
        sample = single_replication([0.9])
        with pytest.raises(ValueError):
            bandwidth_t_star_details(sample, self.fit(t0=0.0), 0.3, self.WINDOW)
        with pytest.raises(ValueError):
            bandwidth_t_star_details(sample, self.fit(), 1.0, self.WINDOW)
        with pytest.raises(ValueError):
            bandwidth_t_star_details(EigenSample(s=[], t=[], ratio=[]), self.fit(), 0.3, self.WINDOW)


class TestProposedEstimate:
    def test_single_component_concentrates_at_center(self):
        grid = np.linspace(0.75, 1.0, 256)
        h = proposed_estimate(single_replication([0.9]), grid, 1e-3, 0.3)
        modes = extract_modes(h, 0.5)
        assert len(modes) == 1
        assert modes[0].x == pytest.approx(0.9, abs=0.005)

    def test_two_separated_components(self):
        grid = np.linspace(-0.5, 2.5, 512)
        h = proposed_estimate(single_replication([0.3, 1.7]), grid, 1e-3, 0.0)
        modes = extract_modes(h, 0.2)
        assert len(modes) == 2
        assert modes[0].x == pytest.approx(0.3, abs=0.01)
        assert modes[1].x == pytest.approx(1.7, abs=0.01)

    def test_nonnegative(self, rng):
        grid = np.linspace(0.0, 2.0, 301)
        sample = single_replication(rng.uniform(0.7, 1.1, 50))
        h = proposed_estimate(sample, grid, 0.01, 0.5)
        assert np.all(h.y >= 0.0)

    def test_mixture_merge_is_exact_singletons(self):
        grid = np.linspace(0.5, 1.3, 257)
        a = single_replication([0.8])
        b = single_replication([0.9])
        merged = merge(a, b)
        ya = proposed_estimate(a, grid, 0.01, 0.4).y
        yb = proposed_estimate(b, grid, 0.01, 0.4).y
        ym = proposed_estimate(merged, grid, 0.01, 0.4).y
        assert np.array_equal(ym, (ya + yb) / 2.0)

    def test_mixture_merge_is_exact_multipoint(self):
        grid = np.linspace(0.5, 1.3, 257)
        a = single_replication([0.8, 0.85, 0.9])
        b = single_replication([0.7])
        merged = merge(a, b)
        ya = proposed_estimate(a, grid, 0.01, 0.4).y
        yb = proposed_estimate(b, grid, 0.01, 0.4).y
        ym = proposed_estimate(merged, grid, 0.01, 0.4).y
        assert np.array_equal(ym, (ya + yb) / 2.0)

    @pytest.mark.parametrize(
        "t_star, rho",
        [
            (3.8e-5, 0.99),  # model2-like: most of each row is banded away
            (1e-9, 0.3),  # every row banded to a few points or none
            (2e-4, -0.7),
            (1.0 / 1500.0, 0.99),  # 2 t 750 = 1: no band
            (2e-3, -0.9),  # 2 t 750 > 1, no zero interval meets the grid
            (0.012, 0.5),  # model1-like: no band
            # 2 t 750 > 1: the zero interval inside the grid, touching either
            # end, covering it, and centres near rho whose Cauchy term is not 0.0
            (2.5e-3, 0.99),
            (0.01, 0.97),  # the most centres with the interval inside the grid
            (1e-3, 0.99),  # touching each end for dozens of centres
            (1.35e-3, 0.9998),  # model2 at its t cap
        ],
    )
    def test_matches_dense_chunked_mixture(self, rng, t_star, rho):
        grid = np.linspace(0.85, 0.96, 2048)
        sample = replications(rng, rng.integers(0, 10, 30), 0.8, 1.0)
        if 2.0 * t_star * kde._EXP_ZERO > 1.0:
            sample = with_sweep(sample)
        got = proposed_estimate(sample, grid, t_star, rho).y
        assert same_bits(got, dense_proposed(sample, grid, t_star, rho))

    def test_supports_take_every_shape(self):
        # the sweep at (2.5e-3, 0.99) on the grid above: the slices of the
        # support show where the zero interval lies
        grid = np.linspace(0.85, 0.96, 2048)
        n = grid.size
        shapes = kde._kernel_supports(SWEEP, grid, 2.5e-3, 0.99)
        assert any(len(s) == 2 for s in shapes)  # inside
        assert any(len(s) == 1 and s[0][0] > 0 and s[0][1] == n for s in shapes)  # at the low end
        assert any(len(s) == 1 and s[0][0] == 0 and s[0][1] < n for s in shapes)  # at the high end
        assert any(s == () for s in shapes)  # covering the grid

    @pytest.mark.parametrize("t_star, rho", [(2.5e-3, 0.99), (1.35e-3, 0.9998), (0.01, 0.97)])
    def test_cauchy_term_is_zero_off_the_support(self, t_star, rho):
        # a zero interval has real roots only where q(mu) / (2 t (1 - rho^2)) > 750,
        # so every component that skips grid points has its Cauchy term 0.0
        grid = np.linspace(0.85, 0.96, 2048)
        e2 = np.exp((-1.0 + 2.0 * SWEEP * rho - SWEEP**2) / (2.0 * t_star * (1.0 - rho * rho)))
        shapes = kde._kernel_supports(SWEEP, grid, t_star, rho)
        assert np.any(e2 != 0.0)
        assert all(e == 0.0 for e, s in zip(e2, shapes) if s != ((0, grid.size),))

    @pytest.mark.parametrize("t_star", [1.35e-3, 3.85e-5])
    def test_matches_dense_on_model2_pairs(self, model2_pairs, t_star):
        # model2 at its t cap (2 t 750 > 1) and with band supports, at its rho_hat
        sample, grid = model2_pairs
        got = proposed_estimate(sample, grid, t_star, 0.9998).y
        assert same_bits(got, dense_proposed(sample, grid, t_star, 0.9998))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_matches_dense_with_all_zero_rows(self, rng):
        # centres far off the grid give rows that are exactly 0.0 throughout;
        # one replication lies wholly outside, one centre has infinite roots
        grid = np.linspace(0.85, 0.96, 1024)
        sample = replications(rng, [6, 4, 5], 0.84, 0.97)
        first, second, _ = split(sample)
        first[:3] = [5.0, -3.0, 1e200]
        second[:] = [2.0, 2.5, -1.0, 40.0]
        for t_star in (3.8e-5, 1e-9):
            got = proposed_estimate(sample, grid, t_star, 0.95).y
            assert same_bits(got, dense_proposed(sample, grid, t_star, 0.95))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_centre_still_rejected(self, bad):
        # the dense mixture turns such a row into NaN; no support may hide it
        sample = single_replication([0.9, bad])
        grid = np.linspace(0.85, 0.96, 64)
        with pytest.raises(ValueError):
            proposed_estimate(sample, grid, 1e-9, -0.3)

    def test_matches_dense_beyond_one_chunk(self, rng):
        grid = np.linspace(0.5, 1.3, 200)
        sample = replications(rng, [kde.CHUNK + 300, 3], 0.4, 1.4)
        for t_star in (1e-5, 0.01):
            got = proposed_estimate(sample, grid, t_star, 0.4).y
            assert same_bits(got, dense_proposed(sample, grid, t_star, 0.4))

    def test_component_evolution_residuals(self):
        # five random components at pipeline-like correlation and bandwidths
        centers = np.random.default_rng(77).uniform(0.78, 0.97, 5)
        xs = np.linspace(0.75, 1.0, 64)
        for t_star in (0.0119, 1.75e-4):
            for c in centers:
                spec = EqualVarSpec(1.0, float(c), 0.99, t_star)
                assert term_relative_residual(spec, xs) <= 1e-8

    def test_rejects_bad_parameters(self):
        sample = single_replication([0.9])
        grid = np.linspace(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            proposed_estimate(sample, grid, 0.0, 0.3)
        with pytest.raises(ValueError):
            proposed_estimate(sample, grid, 0.01, 1.0)


class TestExtractModes:
    def grid(self, y):
        y = np.asarray(y, dtype=float)
        return DensityGrid(x=np.arange(y.size, dtype=float), y=y)

    def test_single_peak(self):
        modes = extract_modes(self.grid([0.0, 1.0, 3.0, 1.0, 0.0]), 2.0)
        assert [(m.x, m.height) for m in modes] == [(2.0, 3.0)]

    def test_peak_below_threshold(self):
        assert extract_modes(self.grid([0.0, 1.0, 3.0, 1.0, 0.0]), 5.0) == []

    def test_plateau_midpoint(self):
        modes = extract_modes(self.grid([0.0, 1.0, 3.0, 3.0, 3.0, 1.0, 0.0]), 2.0)
        assert [(m.x, m.height) for m in modes] == [(3.0, 3.0)]

    def test_boundary_maxima_excluded(self):
        assert extract_modes(self.grid([0.0, 1.0, 2.0, 3.0, 4.0]), 0.5) == []

    def test_two_peaks_ordered(self):
        modes = extract_modes(self.grid([0.0, 4.0, 1.0, 5.0, 0.0]), 0.5)
        assert [m.x for m in modes] == [1.0, 3.0]

    @pytest.mark.parametrize("c", [3.0, 0.25])
    def test_rescale_invariance(self, c):
        y = [0.0, 4.0, 1.0, 5.0, 0.0, 2.5, 1.0]
        base = extract_modes(self.grid(y), 0.5)
        scaled = extract_modes(self.grid([c * v for v in y]), c * 0.5)
        assert [m.x for m in scaled] == [m.x for m in base]

    def test_short_grid_has_no_interior_maxima(self):
        assert extract_modes(self.grid([1.0, 2.0]), 0.5) == []

    @staticmethod
    def loop_modes(grid, tau):
        """Reference: the scan over runs of equal values that extract_modes replaced."""
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
                modes.append(kde.Mode(x=float(0.5 * (x[i] + x[j])), height=float(y[i])))
            i = j + 1
        return modes

    def assert_loop_modes(self, grid, tau):
        got = [(m.x.hex(), m.height.hex()) for m in extract_modes(grid, tau)]
        want = [(m.x.hex(), m.height.hex()) for m in self.loop_modes(grid, tau)]
        assert got == want

    @pytest.mark.parametrize(
        "y, tau",
        [
            ([], 0.5),
            ([3.0], 0.5),
            ([1.0, 3.0], 0.5),
            ([3.0, 3.0], 0.5),
            # plateaus that touch an end are no modes, however high
            ([5.0, 5.0, 5.0, 1.0, 2.0, 0.0], 0.5),
            ([0.0, 2.0, 1.0, 5.0, 5.0], 0.5),
            ([5.0, 5.0, 5.0], 0.5),
            # interior plateaus, of two and of several points, next to each other
            ([0.0, 2.0, 2.0, 1.0, 3.0, 3.0, 3.0, 3.0, 0.0], 0.5),
            ([0.0, 2.0, 2.0, 3.0, 3.0, 1.0], 0.5),
            # tau equal to a peak: only strictly higher peaks count
            ([0.0, 2.0, 1.0, 3.0, 0.0, 2.0, 2.0, 0.0], 2.0),
            ([0.0, 2.0, 0.0], 2.0),
            ([0.0, -0.0, 1.0, 0.0, -0.0], 0.5),
        ],
    )
    def test_matches_loop(self, y, tau):
        self.assert_loop_modes(self.grid(y), tau)

    def test_matches_loop_on_random_plateaus(self, rng):
        for size in range(3, 40):
            for _ in range(20):
                y = rng.integers(0, 4, size).astype(float)
                x = np.cumsum(rng.uniform(0.01, 1.0, size))
                tau = float(rng.choice([0.0, 1.0, 2.0, 2.5]))
                self.assert_loop_modes(DensityGrid(x=x, y=y), tau)
