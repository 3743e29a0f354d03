"""Exact ratio-of-Gaussians density: forms, limits, derivatives."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from pencilkde.oracles import (
    GeneralGaussianSpec,
    abc_general,
    density_equal_var_hyp,
    density_general,
    density_general_hyp,
    integrate_density,
)
from pencilkde.ratio_density import (
    _abc_equal_var,
    _erf,
    _h_erf_raw,
    _RatioKernel,
    EqualVarSpec,
    density_equal_var,
    derivatives,
)

from conftest import random_equal_var_spec, random_general_spec, sample_ratios


class TestSpecs:
    def test_general_rejects_nonpositive_det(self):
        with pytest.raises(ValueError):
            GeneralGaussianSpec(nu_v=0, nu_w=0, sigma2_v=1.0, sigma2_w=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            GeneralGaussianSpec(nu_v=0, nu_w=0, sigma2_v=-1.0, sigma2_w=1.0, gamma=0.0)
        with pytest.raises(ValueError):
            GeneralGaussianSpec(nu_v=0, nu_w=0, sigma2_v=1.0, sigma2_w=0.0, gamma=0.0)

    def test_equal_var_rejects_bad_rho_t(self):
        with pytest.raises(ValueError):
            EqualVarSpec(nu_v=1, nu_w=0, rho=1.0, t=1.0)
        with pytest.raises(ValueError):
            EqualVarSpec(nu_v=1, nu_w=0, rho=-1.2, t=1.0)
        with pytest.raises(ValueError):
            EqualVarSpec(nu_v=1, nu_w=0, rho=0.0, t=0.0)

    def test_det_property(self):
        spec = GeneralGaussianSpec(nu_v=0, nu_w=0, sigma2_v=2.0, sigma2_w=3.0, gamma=1.0)
        assert spec.det == pytest.approx(5.0)


class TestAbc:
    def test_standard_case(self):
        spec = GeneralGaussianSpec(nu_v=0, nu_w=0, sigma2_v=1, sigma2_w=1, gamma=0)
        assert abc_general(spec, 0.0) == pytest.approx((0.5, 0.0, 0.0, 1.0))

    def test_hand_values(self):
        spec = GeneralGaussianSpec(nu_v=1, nu_w=2, sigma2_v=1, sigma2_w=1, gamma=0.5)
        assert abc_general(spec, 1.0) == pytest.approx((2.0 / 3.0, 1.0, 2.0, 0.75), rel=1e-14)

    def test_c_independent_of_x(self):
        spec = GeneralGaussianSpec(nu_v=0.5, nu_w=-1, sigma2_v=2, sigma2_w=1, gamma=0.3)
        cs = {abc_general(spec, x)[2] for x in (-3.0, 0.0, 1.7)}
        assert max(cs) - min(cs) <= 1e-14 * max(cs)

    def test_a_positive_everywhere(self, rng):
        for _ in range(20):
            spec = random_general_spec(rng)
            for x in rng.uniform(-10, 10, size=8):
                assert abc_general(spec, float(x))[0] > 0

    def test_equal_var_consistency(self, rng):
        for _ in range(20):
            es = random_equal_var_spec(rng)
            gs = GeneralGaussianSpec(
                nu_v=es.nu_v, nu_w=es.nu_w,
                sigma2_v=es.t, sigma2_w=es.t, gamma=es.rho * es.t,
            )
            x = float(rng.uniform(-2, 3))
            ce = (*_abc_equal_var(x, es.t, es.nu_v, es.nu_w, es.rho),
                  (1.0 - es.rho * es.rho) * es.t * es.t)
            assert abc_general(gs, x) == pytest.approx(ce, rel=1e-12)


class TestDensityGeneral:
    @pytest.mark.parametrize("x", [0.0, 1.0, -3.0])
    def test_cauchy_case(self, x):
        spec = GeneralGaussianSpec(nu_v=0, nu_w=0, sigma2_v=0.7, sigma2_w=0.7, gamma=0)
        assert density_general(spec, x) == pytest.approx(
            1.0 / (math.pi * (1 + x * x)), abs=1e-14
        )

    def test_concentration_small_t(self):
        t = 1e-6
        spec = GeneralGaussianSpec(nu_v=1, nu_w=0.9, sigma2_v=t, sigma2_w=t, gamma=0)
        mass, _ = integrate.quad(lambda x: density_general(spec, x), 0.85, 0.95,
                                 points=[0.9], limit=200)
        assert mass >= 0.99

    def test_monte_carlo_histogram(self, rng):
        spec = GeneralGaussianSpec(nu_v=1.0, nu_w=0.6, sigma2_v=0.4, sigma2_w=0.3,
                                   gamma=0.2)
        ratios = sample_ratios(rng, spec, 1_000_000)
        edges = np.linspace(-2.0, 3.0, 65)
        counts, _ = np.histogram(ratios, bins=edges)
        n = ratios.size
        for k in range(64):
            p, _ = integrate.quad(lambda x: density_general(spec, x),
                                  edges[k], edges[k + 1])
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(counts[k] / n - p) <= 6 * se + 2e-5, f"bin {k}"

    def test_hyp_form_agrees(self, rng):
        for _ in range(10):
            spec = random_general_spec(rng)
            for x in rng.uniform(-4, 4, size=8):
                a = density_general(spec, float(x))
                b = density_general_hyp(spec, float(x))
                assert b == pytest.approx(a, rel=1e-10, abs=1e-300)


class TestDensityEqualVar:
    def test_origin_value(self):
        for t in (0.1, 1.0, 7.3):
            spec = EqualVarSpec(nu_v=0, nu_w=0, rho=0, t=t)
            assert density_equal_var(spec, 0.0) == pytest.approx(1 / math.pi, rel=1e-14)

    def test_peak_cross_form(self):
        spec = EqualVarSpec(nu_v=1, nu_w=0.9, rho=0, t=2.25e-6)
        a = density_equal_var(spec, 0.9)
        b = density_equal_var_hyp(spec, 0.9)
        assert b == pytest.approx(a, rel=1e-10)

    def test_stationary_hand_value(self):
        spec = EqualVarSpec(nu_v=0, nu_w=0, rho=0.5, t=1.0)
        assert density_equal_var(spec, 1.0) == pytest.approx(
            math.sqrt(0.75) / math.pi, rel=1e-13
        )

    def test_nonnegative(self, rng):
        for _ in range(10):
            spec = random_equal_var_spec(rng)
            xs = np.linspace(-5, 5, 101)
            assert np.all(density_equal_var(spec, xs) >= 0)

    def test_hyp_form_agrees_sharp_peaks(self):
        # small t with nonzero means drives the 1F1 argument into the
        # thousands; both forms must stay finite and equal
        for t in (1e-3, 1e-5, 1e-7):
            spec = EqualVarSpec(nu_v=1, nu_w=0.9, rho=0.3, t=t)
            for x in (0.88, 0.9, 0.93):
                a = density_equal_var(spec, x)
                b = density_equal_var_hyp(spec, x)
                assert math.isfinite(b)
                assert b == pytest.approx(a, rel=1e-10)


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("rho", [0.0, 0.3, -0.7])
    def test_far_tail_where_q_overflows(self, rho):
        # q = x^2 - 2 rho x + 1 overflows beyond |x| ~ 1.34e154, where h was nan;
        # h ~ K / x^2 there, with K = x^2 h(x) at x = 1e100 to double precision
        spec = EqualVarSpec(nu_v=1.0, nu_w=0.9, rho=rho, t=1.0)
        k = density_equal_var(spec, 1e100) * 1e200
        xs = np.array([1.4e154, -1.4e154, 1e155, -1e156, 1e300, -1e300, sys.float_info.max])
        h = density_equal_var(spec, xs)
        assert np.all(np.isfinite(h)) and np.all(h >= 0.0)
        assert h[:4] == pytest.approx(k / xs[:4] / xs[:4], rel=1e-9, abs=1e-320)
        assert h[4:].tolist() == [0.0, 0.0, 0.0]
        # an ordinary x in the same call keeps its bits
        mixed = density_equal_var(spec, np.array([0.9, 1e300]))
        assert mixed[0] == density_equal_var(spec, 0.9) and mixed[1] == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("t, x, x_near", [(1.0, 1.3e154, 1.35e154), (1e4, 1e153, 4e151)])
    def test_far_tail_where_2_pi_t_q_overflows(self, t, x, x_near):
        # q is finite at x but 2 pi t q is not: term1 was lost and h read 0.0 at t = 1;
        # x^2 h must match a point nearby where q overflows (t = 1) or nothing does (t = 1e4)
        spec = EqualVarSpec(nu_v=1.0, nu_w=0.9, rho=0.0, t=t)
        assert math.isfinite(x * x - 1.0) and math.isinf(2.0 * math.pi * t * (x * x + 1.0))
        k = x * (x * density_equal_var(spec, x))
        assert k == pytest.approx(x_near * (x_near * density_equal_var(spec, x_near)), rel=1e-12)

    def test_far_tail_without_warnings(self):
        # the direct form overflowed at these points before the far branch replaced them
        spec = EqualVarSpec(nu_v=1.0, nu_w=0.9, rho=0.0, t=1.0)
        xs = [5.4e153, 1.3e154, 1e300, -1e300]
        want = [float.fromhex(v) for v in ("0x0.6919ab3ccf0f4p-1022", "0x0.12226c03291eap-1022")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [density_equal_var(spec, x) for x in xs]
            got_array = density_equal_var(spec, np.array(xs))
        assert got == got_array.tolist() == want + [0.0, 0.0]


class TestSaturatedErf:
    """_erf skips scipy's erf where it is exactly +-1.0; the bits must not move."""

    @staticmethod
    def assert_same_bits(z):
        got = np.asarray(_erf(z))
        want = special.erf(z)
        assert got.shape == np.shape(want)
        assert np.array_equal(got.view(np.uint64), np.asarray(want).view(np.uint64))

    def test_fine_sweep_around_the_cutoff(self):
        z = np.linspace(5.5, 7.0, 150_001)
        self.assert_same_bits(np.concatenate([z, -z]))

    def test_large_magnitudes(self):
        z = np.logspace(3.0, 300.0, 2_971)
        self.assert_same_bits(np.concatenate([z, -z]))

    def test_infinities_and_signed_zeros(self):
        self.assert_same_bits(np.array([np.inf, -np.inf, 0.0, -0.0, 0.5, 6.5]))

    def test_nan_stays_nan(self):
        got = _erf(np.array([np.nan, 7.0, -np.nan, 0.1]))
        assert np.isnan(got[0]) and np.isnan(got[2])
        assert got[1] == 1.0 and got[3] == special.erf(0.1)

    @pytest.mark.parametrize("z", [0.5, -5.9, 6.0, -7.0, 1e300, np.nan])
    def test_scalar_arguments(self, z):
        got, want = _erf(np.float64(z)), special.erf(z)
        assert np.shape(got) == ()
        assert (math.isnan(got) and math.isnan(want)) or (
            got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
        )


class TestRatioKernelKeptFactors:
    """One _RatioKernel driven through prepare and row calls, its kept factors
    reused wherever t, rho, mu or the slice repeat, gives every row the bits of
    a fresh kernel and of _h_erf_raw."""

    X = np.linspace(0.5, 1.5, 301)
    # small t saturates erf and zeroes the Cauchy term; +-0.0 share their factors
    TS = [1e-3, 2e-3, 1e-6, 0.05]
    RHOS = [0.3, -0.5, 0.0, -0.0, 0.99, math.tanh(11.8)]
    MUS = [0.9, 1.1, 0.0, -0.0, 0.7, 20.0]
    SLICES = [(0, 301), (10, 200), (150, 301), (0, 1), (300, 301)]

    def check(self, kernel, t, rho, mu, a, b):
        got = kernel.row(mu, kernel.cauchy_exp(mu), a, b).tobytes()
        fresh = _RatioKernel(self.X)
        fresh.prepare(t, rho)
        assert got == fresh.row(mu, fresh.cauchy_exp(mu), a, b).tobytes(), (t, rho, mu, a, b)
        assert got == _h_erf_raw(self.X[a:b], t, 1.0, mu, rho).tobytes(), (t, rho, mu, a, b)

    def test_jacobian_columns(self):
        # as in the fit: a base point, then each coordinate moved off it alone
        kernel = _RatioKernel(self.X)
        for t, mu, rho in [(1e-3, 0.9, 0.3), (2e-3, 0.95, 0.99), (1e-6, 1.1, -0.5)]:
            for dt, dmu, drho in [(0, 0, 0), (1e-9, 0, 0), (0, 1e-9, 0), (0, 0, 1e-9), (0, 0, 0)]:
                kernel.prepare(t + dt, rho + drho)
                self.check(kernel, t + dt, rho + drho, mu + dmu, 0, self.X.size)

    def test_random_sequence(self, rng):
        kernel = _RatioKernel(self.X)
        t, rho, mu, (a, b) = self.TS[0], self.RHOS[0], self.MUS[0], self.SLICES[0]
        kernel.prepare(t, rho)
        for _ in range(600):
            what = int(rng.integers(0, 5))
            if what == 0:
                t = self.TS[rng.integers(len(self.TS))]
            elif what == 1:
                rho = self.RHOS[rng.integers(len(self.RHOS))]
            elif what == 2:
                mu = self.MUS[rng.integers(len(self.MUS))]
            elif what == 3:
                a, b = self.SLICES[rng.integers(len(self.SLICES))]
            if what in (0, 1, 4):
                kernel.prepare(t, rho)
            self.check(kernel, t, rho, mu, a, b)


def reduced(spec):
    """The spec of the scaling identity h(x, t; nv, nw, r) = h(x, t/nv^2; 1, nw/nv, r)."""
    return EqualVarSpec(nu_v=1.0, nu_w=spec.nu_w / spec.nu_v, rho=spec.rho,
                        t=spec.t / spec.nu_v**2)


def limit_t_inf(rho, x):
    """Large-variance limit of the equal-variance density: sqrt(1-rho^2) / (pi q(x))."""
    return math.sqrt(1.0 - rho * rho) / (np.pi * (x * x - 2.0 * rho * x + 1.0))


class TestDensityScaled:
    def test_half_alpha_example(self):
        spec = EqualVarSpec(nu_v=2, nu_w=1.8, rho=0, t=4.0)
        assert reduced(spec) == EqualVarSpec(nu_v=1, nu_w=0.9, rho=0, t=1.0)
        lhs = density_equal_var(spec, 0.9)
        rhs = density_equal_var(reduced(spec), 0.9)
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_identity_on_random_specs(self, rng):
        worst = 0.0
        for _ in range(50):
            nu_v = float(rng.uniform(0.2, 3.0)) * float(rng.choice([-1.0, 1.0]))
            spec = EqualVarSpec(
                nu_v=nu_v,
                nu_w=float(rng.uniform(-2.0, 2.0)),
                rho=float(rng.uniform(-0.9, 0.9)),
                t=float(10 ** rng.uniform(-3, 1)),
            )
            x = float(rng.uniform(-3, 3))
            a = density_equal_var(reduced(spec), x)
            b = density_equal_var(spec, x)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
        assert worst <= 1e-12


class TestLimitTInf:
    def test_hand_values(self):
        assert limit_t_inf(0.0, 0.0) == pytest.approx(1 / math.pi, rel=1e-15)
        assert limit_t_inf(0.9, 0.9) == pytest.approx(
            math.sqrt(0.19) / (0.19 * math.pi), rel=1e-13
        )

    def test_matches_zero_mean_density_any_t(self):
        for t in (1e-3, 1.0, 1e3):
            spec = EqualVarSpec(nu_v=0, nu_w=0, rho=0.4, t=t)
            for x in (-2.0, 0.3, 1.5):
                assert density_equal_var(spec, x) == pytest.approx(
                    limit_t_inf(0.4, x), rel=1e-12
                )

    def test_large_t_limit(self):
        spec = EqualVarSpec(nu_v=1.0, nu_w=0.5, rho=0.3, t=1e8)
        xs = np.linspace(-5, 5, 101)
        diff = np.abs(density_equal_var(spec, xs) - limit_t_inf(0.3, xs))
        assert float(diff.max()) <= 1e-6

    def test_integrates_to_one(self):
        val, _ = integrate.quad(lambda u: limit_t_inf(0.7, math.tan(u))
                                / math.cos(u) ** 2, -math.pi / 2, math.pi / 2)
        assert val == pytest.approx(1.0, abs=1e-9)


class TestNormalization:
    def test_equal_var_specs(self, rng):
        for _ in range(5):
            spec = random_equal_var_spec(rng)
            assert integrate_density(spec) == pytest.approx(1.0, abs=1e-6)

    def test_general_specs(self, rng):
        for _ in range(5):
            spec = random_general_spec(rng)
            assert integrate_density(spec) == pytest.approx(1.0, abs=1e-6)


class TestWeakDeltaLimit:
    def test_mass_concentrates_at_mean_ratio(self):
        mu = 0.9
        masses = []
        for t in (1e-4, 1e-6, 1e-8):
            spec = EqualVarSpec(nu_v=1.0, nu_w=mu, rho=0.0, t=t)
            mass, _ = integrate.quad(lambda x: density_equal_var(spec, x),
                                     mu - 0.01, mu + 0.01, points=[mu], limit=200)
            masses.append(mass)
        assert masses[0] <= masses[1] <= masses[2] + 1e-12
        assert masses[-1] >= 1 - 1e-3


class TestDerivatives:
    @pytest.mark.parametrize(
        "spec,x",
        [
            (EqualVarSpec(nu_v=1, nu_w=0.9, rho=0.0, t=0.01), 0.9),
            (EqualVarSpec(nu_v=1, nu_w=0.5, rho=0.4, t=0.1), 0.2),
        ],
    )
    def test_finite_difference_triple(self, spec, x):
        h_t, h_x, h_xx = derivatives(spec, x)
        eps = 1e-5
        f = lambda xx: density_equal_var(spec, xx)
        fd_x = (f(x + eps) - f(x - eps)) / (2 * eps)
        fd_xx = (f(x + eps) - 2 * f(x) + f(x - eps)) / eps**2
        ts = spec.t
        g = lambda tt: density_equal_var(
            EqualVarSpec(nu_v=spec.nu_v, nu_w=spec.nu_w, rho=spec.rho, t=tt), x
        )
        dt = 1e-5 * ts
        fd_t = (g(ts + dt) - g(ts - dt)) / (2 * dt)
        scale = abs(h_xx) + abs(h_x) + abs(h_t)
        assert h_x == pytest.approx(fd_x, rel=1e-5, abs=1e-5 * scale)
        assert h_xx == pytest.approx(fd_xx, rel=1e-4, abs=1e-4 * scale)
        assert h_t == pytest.approx(fd_t, rel=1e-5, abs=1e-5 * scale)

    def test_symmetric_case_zero_slope(self):
        spec = EqualVarSpec(nu_v=1.0, nu_w=0.0, rho=0.0, t=0.5)
        _, h_x, _ = derivatives(spec, 0.0)
        assert abs(h_x) <= 1e-14

    def test_rejects_zero_nu_v(self):
        with pytest.raises(ValueError):
            derivatives(EqualVarSpec(nu_v=0.0, nu_w=1.0, rho=0.0, t=1.0), 0.0)

    def test_underflowed_density_has_zero_derivatives(self):
        # the prefactor e^(z-c) is 0.0 while a moment coefficient overflows
        spec = EqualVarSpec(nu_v=1.0, nu_w=1e100, rho=0.3, t=1e-3)
        with np.errstate(all="ignore"):
            got = derivatives(spec, np.array([0.7, 0.9]))
            assert derivatives(spec, 0.7) == (0.0, 0.0, 0.0)
        assert all(np.array_equal(v, [0.0, 0.0]) for v in got)

    @given(st.floats(-0.9, 0.9), st.floats(0.01, 1.0), st.floats(-1.5, 1.5))
    @settings(max_examples=40, deadline=None)
    def test_hx_matches_fd_property(self, rho, t, x):
        spec = EqualVarSpec(nu_v=1.0, nu_w=0.8, rho=rho, t=t)
        _, h_x, h_xx = derivatives(spec, x)
        eps = 1e-6
        fd = (density_equal_var(spec, x + eps) - density_equal_var(spec, x - eps)) / (2 * eps)
        assert h_x == pytest.approx(fd, rel=1e-4, abs=1e-6 * (1 + abs(h_xx)))
