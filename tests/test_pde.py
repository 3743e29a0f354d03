"""Diffusion-equation coefficients, roots, and the residual identity."""

import math

import numpy as np
import pytest

from pencilkde.oracles import _poly_terms, g_coefficients, residual
from pencilkde.pde import (
    SingularPointError,
    _coeffs_raw,
    _diffusion_at_centers,
    _poly_coeff_arrays,
    cubic_real_roots,
    pde_coefficients,
    singular_mask,
)
from pencilkde.ratio_density import EqualVarSpec, density_equal_var, derivatives

from conftest import random_equal_var_spec, term_relative_residual


def polyval(coeffs, x):
    return np.polynomial.polynomial.polyval(x, coeffs)


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
    """_diffusion_at_centers is _coeffs_raw at each centre, bit for bit."""

    @pytest.mark.parametrize(
        "rho", [0.0, 0.3, -0.7, 0.99, math.tanh(11.8), -math.tanh(11.8), 1.0 - 1e-10]
    )
    @pytest.mark.parametrize("t", [1e-3, 0.0121, 0.0625])
    def test_matches_coeffs_raw(self, rho, t):
        rng = np.random.default_rng(7)
        # pencil ratios near the decay factors, a wide spread, and the centres
        # x == rho, where the cubic's leading coefficient is zero, and x = 0, +-1
        x = np.concatenate(
            [rng.uniform(0.5, 1.2, 200), rng.uniform(-5.0, 5.0, 50), [rho, 0.0, -1.0, 1.0]]
        )
        d, den, scale = _diffusion_at_centers(rho, t, x)
        for k, xk in enumerate(x.tolist()):
            want = _coeffs_raw(1.0, xk, rho, t, xk)
            got = (d[k], den[k], scale[k])
            assert [np.float64(v).tobytes() for v in got] == [
                np.float64(want[i]).tobytes() for i in (0, 3, 4)
            ], (xk, got, want)


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

    def test_singular_point_raises(self):
        spec = EqualVarSpec(nu_v=1.0, nu_w=0.9, rho=0.2, t=0.05)
        root = cubic_real_roots(spec, spec.t)[0]
        with pytest.raises(SingularPointError):
            residual(spec, root)
