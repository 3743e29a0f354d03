"""Diffusion-equation coefficients, roots, and the residual identity."""

import math

import mpmath
import numpy as np
import pytest

from pencilkde.oracles import _poly_coeff_arrays, _poly_terms, g_coefficients, residual
from pencilkde.pde import (
    SingularPointError,
    _coeffs_raw,
    _diffusion_at_centers,
    cubic_real_roots,
    pde_coefficients,
    singular_mask,
)
from pencilkde.ratio_density import EqualVarSpec, density_equal_var, derivatives

from conftest import random_equal_var_spec, term_relative_residual


def polyval(coeffs, x):
    return np.polynomial.polynomial.polyval(x, coeffs)


def expanded_coeffs(nu_v, nu_w, rho, t, x):
    """(D, C, dD/dx) from the expanded coefficient arrays by the quotient rule; any number type."""
    co = _poly_coeff_arrays(nu_v, nu_w, rho)
    p1, p2, p3, q1, q2, dp3, dq1, dq2 = (
        polyval(co[name], x) for name in ("p1", "p2", "p3", "q1", "q2", "dp3", "dq1", "dq2")
    )
    den = q1 + t * q2
    d_x = dp3 / den - p3 * (dq1 + t * dq2) / (den * den)
    return p3 / den, (p1 + t * p2) / (t * den) - d_x, d_x


def full_cubic(spec):
    """Ascending coefficients of the denominator polynomial at t = spec.t."""
    co = _poly_coeff_arrays(spec.nu_v, spec.nu_w, spec.rho)
    q1 = np.zeros(4)
    q1[: len(co["q1"])] = co["q1"]
    q2 = np.zeros(4)
    q2[: len(co["q2"])] = co["q2"]
    return q1 + spec.t * q2


class TestPolynomials:
    def test_p1_vanishes_at_symmetric_zero(self):
        p1, *_ = _poly_terms(1.0, 0.0, 0.0, 0.0)
        assert p1 == 0.0

    def test_frozen_point_oracle(self):
        # values from an independent symbolic evaluation of the factored forms
        got = _poly_terms(1.0, 0.9, 0.0, 0.9)
        want = (0.0, -1.408723, -5.3367669, 0.0, -3.258)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

        got2 = _poly_terms(1.0, 0.5, 0.6, -0.7)
        want2 = (-1.419264, -20.757271, 9.6037241, -0.18432, -7.48928)
        assert got2 == pytest.approx(want2, rel=1e-12)

    def test_coefficient_arrays_match_factored_forms(self, rng):
        # expanded coefficients evaluated by polyval vs the factored products
        for _ in range(25):
            spec = random_equal_var_spec(rng)
            co = _poly_coeff_arrays(spec.nu_v, spec.nu_w, spec.rho)
            for x in rng.uniform(-3, 3, size=5):
                p1, p2, p3, q1, q2 = _poly_terms(spec.nu_v, spec.nu_w, spec.rho, float(x))
                assert polyval(co["p1"], x) == pytest.approx(p1, rel=1e-10, abs=1e-12)
                assert polyval(co["p2"], x) == pytest.approx(p2, rel=1e-10, abs=1e-12)
                assert polyval(co["p3"], x) == pytest.approx(p3, rel=1e-10, abs=1e-12)
                assert polyval(co["q1"], x) == pytest.approx(q1, rel=1e-10, abs=1e-12)
                assert polyval(co["q2"], x) == pytest.approx(q2, rel=1e-10, abs=1e-12)

    def test_derivative_arrays(self, rng):
        spec = random_equal_var_spec(rng)
        co = _poly_coeff_arrays(spec.nu_v, spec.nu_w, spec.rho)
        eps = 1e-6
        for x in (-1.3, 0.2, 1.9):
            for name in ("p3", "q1", "q2"):
                fd = (polyval(co[name], x + eps) - polyval(co[name], x - eps)) / (2 * eps)
                assert polyval(co["d" + name], x) == pytest.approx(fd, rel=1e-8, abs=1e-8)


class TestCubicRealRoots:
    def test_roots_satisfy_polynomial(self, rng):
        for _ in range(40):
            spec = random_equal_var_spec(rng)
            coeffs = full_cubic(spec)
            scale = float(np.max(np.abs(coeffs)))
            roots = cubic_real_roots(spec, spec.t)
            assert 0 <= len(roots) <= 3
            for r in roots:
                val = polyval(coeffs, r)
                # residual scale grows with |root|^3 away from the unit box
                assert abs(val) <= 1e-9 * scale * max(1.0, abs(r)) ** 3

    def test_count_matches_discriminant(self, rng):
        checked = 0
        while checked < 30:
            spec = random_equal_var_spec(rng)
            a3, a2, a1, a0 = full_cubic(spec)[::-1]
            if abs(a3) < 1e-8 * max(abs(a2), abs(a1), abs(a0)):
                continue
            disc = (
                18 * a3 * a2 * a1 * a0
                - 4 * a2**3 * a0
                + a2**2 * a1**2
                - 4 * a3 * a1**3
                - 27 * a3**2 * a0**2
            )
            scale = max(abs(a3), abs(a2), abs(a1), abs(a0)) ** 4
            if abs(disc) < 1e-9 * scale:
                continue
            n = len(cubic_real_roots(spec, spec.t))
            assert n == (3 if disc > 0 else 1)
            checked += 1

    def test_degenerate_quadratic(self):
        # nu_v = 0 kills the x^3 term; the denominator is a true quadratic
        spec = EqualVarSpec(nu_v=0.0, nu_w=1.0, rho=0.3, t=0.5)
        coeffs = full_cubic(spec)
        assert coeffs[3] == pytest.approx(0.0, abs=1e-12)
        roots = cubic_real_roots(spec, spec.t)
        assert len(roots) <= 2
        for r in roots:
            assert abs(polyval(coeffs, r)) <= 1e-9 * float(np.max(np.abs(coeffs)))

    def test_q1_vanishes_when_nw_equals_nv_rho(self):
        spec = EqualVarSpec(nu_v=1.0, nu_w=0.3, rho=0.3, t=0.7)
        co = _poly_coeff_arrays(spec.nu_v, spec.nu_w, spec.rho)
        assert np.allclose(co["q1"], 0.0, atol=1e-14)
        roots = cubic_real_roots(spec, spec.t)
        coeffs = full_cubic(spec)
        for r in roots:
            assert abs(polyval(coeffs, r)) <= 1e-9 * float(np.max(np.abs(coeffs)))

    def test_identically_zero_denominator_rejected(self):
        spec = EqualVarSpec(nu_v=0.0, nu_w=0.0, rho=0.3, t=0.5)
        with pytest.raises(ValueError):
            cubic_real_roots(spec, spec.t)

    def test_rejects_nonpositive_t(self):
        spec = EqualVarSpec(nu_v=1.0, nu_w=0.5, rho=0.0, t=1.0)
        with pytest.raises(ValueError):
            cubic_real_roots(spec, 0.0)

    def test_sorted_output(self, rng):
        for _ in range(10):
            spec = random_equal_var_spec(rng)
            roots = cubic_real_roots(spec, spec.t)
            assert list(roots) == sorted(roots)


class TestSingularMask:
    def test_tube_membership(self):
        spec = EqualVarSpec(nu_v=1.0, nu_w=0.9, rho=0.2, t=0.05)
        roots = cubic_real_roots(spec, spec.t)
        assert len(roots) >= 1
        r = roots[0]
        xs = np.array([r, r + 5e-4, r - 5e-4, r + 5e-3, r - 5e-3])
        mask = singular_mask(spec, spec.t, xs)
        assert mask.tolist() == [True, True, True, False, False]


class TestPdeCoefficients:
    def test_source_closed_form_and_x_independence(self, rng):
        for _ in range(20):
            spec = random_equal_var_spec(rng)
            nv, nw, r, t = spec.nu_v, spec.nu_w, spec.rho, spec.t
            want = (nv * nv + nw * nw - 2 * r * nv * nw) / (
                2 * t * t * (1 - r * r)
            ) - 1 / t
            xs = [x for x in rng.uniform(-2, 3, size=4)
                  if not singular_mask(spec, t, np.array([x]))[0]]
            vals = [pde_coefficients(spec, x)[2] for x in xs]
            for v in vals:
                assert v == pytest.approx(want, rel=1e-12)
            assert len(set(vals)) <= 1  # bitwise x-independent

    def test_positive_diffusion_near_mean_ratio(self):
        spec = EqualVarSpec(nu_v=1.0, nu_w=0.9, rho=0.99, t=0.11)
        assert pde_coefficients(spec, 0.9)[0] > 0

    def test_error_at_cubic_root(self):
        spec = EqualVarSpec(nu_v=1.0, nu_w=0.9, rho=0.2, t=0.05)
        root = cubic_real_roots(spec, spec.t)[0]
        with pytest.raises(SingularPointError):
            pde_coefficients(spec, root)

    def test_finite_away_from_roots(self, rng):
        for _ in range(10):
            spec = random_equal_var_spec(rng)
            x = float(rng.uniform(-2, 3))
            if singular_mask(spec, spec.t, np.array([x]))[0]:
                continue
            assert all(map(math.isfinite, pde_coefficients(spec, x)))

    @pytest.mark.parametrize(
        "nu_w,rho,t,lo,hi",
        [
            # model2's rho_hat and a t* of its cap seeds, across and below the mean ratio
            (0.91, 0.9998, 3e-5, 0.95, 1.05),
            (0.91, 0.9998, 3e-5, 0.85, 0.96),
            # model1's rho_hat and t*
            (0.9, 0.9996, 0.012, 0.75, 1.0),
        ],
    )
    def test_factored_forms_against_60_digits(self, nu_w, rho, t, lo, hi):
        # the expanded coefficients in doubles erred here by up to 1.2e-3 (D, first grid)
        spec = EqualVarSpec(nu_v=1.0, nu_w=nu_w, rho=rho, t=t)
        x = np.linspace(lo, hi, 201)
        x = x[~singular_mask(spec, t, x)]
        d, c, _, _, _, d_x = _coeffs_raw(1.0, nu_w, rho, t, x)
        worst = np.zeros(3)
        with mpmath.workdps(60):
            args = (mpmath.mpf(1), mpmath.mpf(nu_w), mpmath.mpf(rho), mpmath.mpf(t))
            for i, xk in enumerate(x.tolist()):
                want = expanded_coeffs(*args, mpmath.mpf(xk))
                for j, (g, w) in enumerate(zip((d[i], c[i], d_x[i]), want)):
                    worst[j] = max(worst[j], abs(float(g / w) - 1.0))
        assert np.all(worst <= 1e-9), worst


def moderate_draws(seed, n):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        spec = EqualVarSpec(
            nu_v=1.0,
            nu_w=float(rng.uniform(0.3, 1.2)),
            rho=float(rng.uniform(-0.9, 0.9)),
            t=float(10 ** rng.uniform(-3, 0)),
        )
        sd = math.sqrt(spec.t * (1 + spec.nu_w**2))
        x = float(rng.uniform(spec.nu_w - 3 * sd, spec.nu_w + 3 * sd))
        if np.min(np.abs(x - cubic_real_roots(spec, spec.t)), initial=np.inf) < 5e-3:
            continue
        out.append((spec, x))
    return out


class TestGCoefficients:
    def test_gxx_matches_rational_diffusion(self):
        worst = 0.0
        for spec, x in moderate_draws(2026, 200):
            try:
                d = pde_coefficients(spec, x)[0]
                g_xx = g_coefficients(spec, x)[1]
            except SingularPointError:
                continue
            worst = max(worst, abs(g_xx - d) / max(abs(d), 1e-300))
        assert worst <= 1e-9

    def test_convection_matches_gx_minus_dgxx(self):
        # 5-point stencil; the step keeps truncation below the tolerance
        worst = 0.0
        for spec, x in moderate_draws(2026, 200):
            try:
                c = pde_coefficients(spec, x)[1]
                g_x = g_coefficients(spec, x)[0]
                eps = 3e-5 * max(1.0, abs(x))
                v = [g_coefficients(spec, x + k * eps)[1] for k in (-2, -1, 1, 2)]
            except SingularPointError:
                continue
            dgxx = (v[0] - 8 * v[1] + 8 * v[2] - v[3]) / (12 * eps)
            worst = max(worst, abs((g_x - dgxx) - c) / max(abs(c), 1.0))
        assert worst <= 1e-6

    def test_evolution_identity(self):
        # h_t = S h + G_x h_x + G_xx h_xx, relative to the term magnitudes
        worst = 0.0
        for spec, x in moderate_draws(2026, 200):
            try:
                src = pde_coefficients(spec, x)[2]
                g_x, g_xx = g_coefficients(spec, x)
            except SingularPointError:
                continue
            h = density_equal_var(spec, x)
            h_t, h_x, h_xx = derivatives(spec, x)
            terms = (src * h, g_x * h_x, g_xx * h_xx)
            scale = abs(h_t) + sum(abs(u) for u in terms)
            if scale == 0.0:
                continue
            worst = max(worst, abs(h_t - sum(terms)) / scale)
        assert worst <= 1e-9

    def test_singular_point_raises(self):
        spec = EqualVarSpec(nu_v=1.0, nu_w=0.9, rho=0.2, t=0.05)
        root = cubic_real_roots(spec, spec.t)[0]
        with pytest.raises(SingularPointError):
            g_coefficients(spec, root)


class TestDiffusionDerivative:
    def test_matches_finite_difference(self):
        worst = 0.0
        for spec, x in moderate_draws(2026, 200):
            eps = 3e-5 * max(1.0, abs(x))
            try:
                v = [pde_coefficients(spec, x + k * eps)[0] for k in (-2, -1, 1, 2)]
                dxa = pde_coefficients(spec, x)[3]
            except SingularPointError:
                continue
            fd = (v[0] - 8 * v[1] + 8 * v[2] - v[3]) / (12 * eps)
            worst = max(worst, abs(dxa - fd) / max(abs(dxa), 1.0))
        assert worst <= 1e-6


class TestDiffusionAtCenters:
    """_diffusion_at_centers is P3 / (Q1 + t Q2) of the pair centred at each x."""

    @pytest.mark.parametrize(
        "rho", [0.0, 0.3, -0.7, 0.99, math.tanh(11.8), -math.tanh(11.8), 1.0 - 1e-10]
    )
    @pytest.mark.parametrize("t", [1e-3, 0.0121, 0.0625])
    def test_matches_coeffs_raw(self, rho, t):
        # D of the expanded coefficient arrays, evaluated in 60-digit arithmetic; in
        # doubles it cancels near x = rho = 1
        rng = np.random.default_rng(7)
        # pencil ratios near the decay factors, a wide spread, and the centres
        # x == rho, where Q2 vanishes, and x = 0, +-1
        x = np.concatenate(
            [rng.uniform(0.5, 1.2, 200), rng.uniform(-5.0, 5.0, 50), [rho, 0.0, -1.0, 1.0]]
        )
        got = _diffusion_at_centers(rho, t, x)
        assert np.isnan(got[x == rho]).all() and np.isfinite(got[x != rho]).all()
        worst = 0.0
        with mpmath.workdps(60):
            one, r, tm = mpmath.mpf(1), mpmath.mpf(rho), mpmath.mpf(t)
            for xk, dk in zip(x[x != rho].tolist(), got[x != rho].tolist()):
                want = expanded_coeffs(one, mpmath.mpf(xk), r, tm, mpmath.mpf(xk))[0]
                worst = max(worst, abs(float(dk / want) - 1.0))
        assert worst <= 1e-14

    @pytest.mark.parametrize("seed", [0, 3])
    def test_model2_eigenvalues_against_60_digits(self, model2_report, seed):
        # 300 eigenvalues of the estimation sample at the run's rho_hat and pilot t0.
        # P3 expanded to degree 7 and evaluated near x = rho_hat = 1 erred here by up to
        # 2.7e-5 (seed 0) and 1.3e-4 (seed 3)
        report = model2_report(seed)
        x = np.random.default_rng(0).choice(report.sample.ratio, 300, replace=False)
        rho, t = report.rho_hat, report.fit.t0
        got = _diffusion_at_centers(rho, t, x)
        want = []
        with mpmath.workdps(60):
            one, r, tm = mpmath.mpf(1), mpmath.mpf(rho), mpmath.mpf(t)
            for xk in map(mpmath.mpf, x.tolist()):
                _, _, p3, q1, q2 = _poly_terms(one, xk, r, xk)
                want.append(float(p3 / (q1 + tm * q2)))
        assert np.max(np.abs(got / np.array(want) - 1.0)) <= 1e-9


class TestResidual:
    @pytest.mark.parametrize(
        "nu_w,rho,t,lo,hi",
        [(0.9, 0.0, 0.01, 0.7, 1.1), (0.5, 0.6, 1.0, -2.0, 3.0)],
    )
    def test_canonical_grids_pointwise(self, nu_w, rho, t, lo, hi):
        spec = EqualVarSpec(nu_v=1.0, nu_w=nu_w, rho=rho, t=t)
        xs = np.linspace(lo, hi, 64)
        xs = xs[~singular_mask(spec, t, xs)]
        worst = 0.0
        for x in xs:
            h_t, _, _ = derivatives(spec, x)
            worst = max(worst, abs(residual(spec, x)) / abs(h_t))
        assert worst <= 1e-8

    def test_random_family(self):
        rng = np.random.default_rng(606)
        for _ in range(10):
            nu_w = float(rng.uniform(0.3, 1.2))
            spec = EqualVarSpec(
                nu_v=1.0,
                nu_w=nu_w,
                rho=float(rng.uniform(-0.95, 0.95)),
                t=float(10 ** rng.uniform(-3, 0)),
            )
            sd = math.sqrt(spec.t * (1 + nu_w * nu_w))
            xs = np.linspace(nu_w - 4 * sd, nu_w + 4 * sd, 64)
            assert term_relative_residual(spec, xs) <= 1e-8

    def test_rejects_zero_nu_v(self):
        spec = EqualVarSpec(nu_v=0.0, nu_w=1.0, rho=0.0, t=0.5)
        with pytest.raises(ValueError):
            residual(spec, 0.3)

    @pytest.mark.parametrize(
        "nu_w,rho,t,lo,hi",
        [
            (0.9, 0.99999999, 0.01, 0.7, 1.1),
            (0.91, 0.9998, 3e-5, 0.85, 0.96),
            (0.9, 0.9996, 0.012, 0.75, 1.0),
        ],
    )
    def test_near_unit_correlation(self, nu_w, rho, t, lo, hi):
        # the expanded coefficients left about 3e-9 here
        spec = EqualVarSpec(nu_v=1.0, nu_w=nu_w, rho=rho, t=t)
        assert term_relative_residual(spec, np.linspace(lo, hi, 201)) <= 1e-11

    def test_singular_point_raises(self):
        spec = EqualVarSpec(nu_v=1.0, nu_w=0.9, rho=0.2, t=0.05)
        root = cubic_real_roots(spec, spec.t)[0]
        with pytest.raises(SingularPointError):
            residual(spec, root)
