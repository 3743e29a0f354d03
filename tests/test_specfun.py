"""Scalar special functions and moment integrals."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from pencilkde.ratio_density import _erf as erf
from pencilkde.specfun import (
    MomentParams,
    hyp1f1_half,
    hyp1f1_half_scaled,
    moment_L,
    moment_recurrence,
    scaled_moments,
)

SUPPORTED_HK = [(1.0, 0.5), (2.0, 0.5), (3.0, 0.5), (2.0, 1.5), (3.0, 1.5),
                (2.5, 0.5), (3.5, 1.5)]


def kummer_series(h, k, z, terms=600):
    """Independent direct power-series oracle, fsum-accumulated."""
    parts = [1.0]
    term = 1.0
    for m in range(terms):
        term *= (h + m) * z / ((k + m) * (m + 1))
        parts.append(term)
        if term <= 1e-18 * math.fsum(parts):
            break
    return math.fsum(parts)


class TestErf:
    """The erf the densities use: scipy's below |z| = 6, the sign beyond."""

    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_limit(self):
        assert erf(10.0) == pytest.approx(1.0, abs=1e-15)
        assert erf(-10.0) == pytest.approx(-1.0, abs=1e-15)

    def test_reference_value(self):
        assert erf(1.0) == pytest.approx(0.8427007929497149, abs=1e-15)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.3, 2.7])
    def test_quadrature_oracle(self, x):
        val, _ = integrate.quad(lambda u: 2.0 / math.sqrt(math.pi) * math.exp(-u * u), 0, x)
        assert erf(x) == pytest.approx(val, abs=1e-14)

    def test_odd_and_bounded(self):
        xs = np.linspace(-6, 6, 101)
        vals = erf(xs)
        assert np.all(np.abs(vals) <= 1.0)
        assert np.allclose(vals, -erf(-xs), atol=0)


class TestHyp1f1Half:
    def test_at_zero(self):
        for h, k in SUPPORTED_HK:
            assert hyp1f1_half(h, k, 0.0) == 1.0

    def test_erf_identity(self):
        # 1F1(1; 1/2; z) = 1 + sqrt(pi z) e^z erf(sqrt z)
        for z in (0.1, 1.0, 4.0):
            ident = 1.0 + math.sqrt(math.pi * z) * math.exp(z) * special.erf(math.sqrt(z))
            assert kummer_series(1.0, 0.5, z) == pytest.approx(ident, rel=1e-13)
            assert hyp1f1_half(1.0, 0.5, z) == pytest.approx(ident, rel=1e-13)

    def test_series_oracle(self):
        assert hyp1f1_half(2.0, 1.5, 2.0) == pytest.approx(
            kummer_series(2.0, 1.5, 2.0), rel=1e-14
        )

    @pytest.mark.parametrize("h,k", SUPPORTED_HK)
    def test_against_scipy_both_branches(self, h, k):
        for z in (0.0, 0.5, 3.0, 29.9, 30.1, 60.0, 200.0, 690.0):
            ref = float(special.hyp1f1(h, k, z))
            assert hyp1f1_half(h, k, z) == pytest.approx(ref, rel=5e-13)

    @pytest.mark.parametrize("h,k", SUPPORTED_HK)
    def test_scaled_matches_mpmath(self, h, k):
        for z in (0.5, 25.0, 40.0, 200.0, 2000.0, 50000.0):
            ref = float(mpmath.exp(-z) * mpmath.hyp1f1(h, k, z))
            assert hyp1f1_half_scaled(h, k, z) == pytest.approx(ref, rel=1e-12)

    def test_scaled_consistent_with_unscaled(self):
        for h, k in SUPPORTED_HK:
            for z in (1.0, 20.0, 100.0, 600.0):
                assert hyp1f1_half_scaled(h, k, z) == pytest.approx(
                    math.exp(-z) * hyp1f1_half(h, k, z), rel=1e-12
                )

    def test_at_least_one(self):
        for h, k in SUPPORTED_HK:
            for z in (0.0, 1e-8, 0.3, 7.0, 45.0):
                assert hyp1f1_half(h, k, z) >= 1.0

    @given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_z(self, z1, z2):
        lo, hi = sorted((z1, z2))
        for h, k in ((1.0, 0.5), (3.0, 1.5)):
            assert hyp1f1_half(h, k, lo) <= hyp1f1_half(h, k, hi) * (1 + 1e-14)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            hyp1f1_half(0.7, 0.5, 1.0)
        with pytest.raises(ValueError):
            hyp1f1_half(-1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            hyp1f1_half(2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            hyp1f1_half(2.0, 0.5, -0.1)
        with pytest.raises(ValueError):
            hyp1f1_half_scaled(2.0, 0.5, math.inf)


def quad_moment(a, b, n):
    val, err = integrate.quad(
        lambda lam: abs(lam) * lam**n * math.exp(-a * lam * lam + 2 * b * lam),
        -np.inf,
        np.inf,
        epsabs=1e-14,
        epsrel=1e-12,
        limit=400,
    )
    return val


class TestMomentL:
    def test_unit_case(self):
        assert moment_L(MomentParams(a=1.0, b=0.0, n=0)) == pytest.approx(1.0, rel=1e-15)

    def test_quadrature_examples(self):
        assert moment_L(MomentParams(a=2.0, b=0.5, n=1)) == pytest.approx(
            quad_moment(2.0, 0.5, 1), rel=1e-10
        )
        assert moment_L(MomentParams(a=1.0, b=1.0, n=2)) == pytest.approx(
            quad_moment(1.0, 1.0, 2), rel=1e-10
        )

    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("b", [-2.0, 0.0, 1.5])
    def test_closed_forms_match_quadrature(self, a, b):
        for n in range(5):
            assert moment_L(MomentParams(a=a, b=b, n=n)) == pytest.approx(
                quad_moment(a, b, n), rel=1e-9
            )

    def test_signs(self):
        assert moment_L(MomentParams(a=1.3, b=-0.7, n=1)) < 0
        assert moment_L(MomentParams(a=1.3, b=0.7, n=3)) > 0
        assert moment_L(MomentParams(a=1.3, b=0.0, n=1)) == 0.0
        for n in (0, 2, 4):
            assert moment_L(MomentParams(a=0.8, b=-1.1, n=n)) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MomentParams(a=0.0, b=0.0, n=0)
        with pytest.raises(ValueError):
            MomentParams(a=-1.0, b=0.0, n=0)
        with pytest.raises(ValueError):
            MomentParams(a=math.inf, b=0.0, n=0)
        with pytest.raises(ValueError):
            MomentParams(a=1.0, b=math.nan, n=0)
        with pytest.raises(ValueError):
            MomentParams(a=1.0, b=0.0, n=-1)
        with pytest.raises(ValueError):
            MomentParams(a=1.0, b=0.0, n=1.5)


class TestMomentRecurrence:
    def test_hand_values(self):
        assert moment_recurrence(1.0, 0.0) == pytest.approx((1.5, 0.0, 0.0, 2.0))
        assert moment_recurrence(2.0, 1.0) == pytest.approx((0.75, 0.5, 0.375, 1.25))

    def test_identity_example(self):
        a, b = 1.3, -0.7
        w1, w2, w3, w4 = moment_recurrence(a, b)
        l1 = moment_L(MomentParams(a=a, b=b, n=1))
        l2 = moment_L(MomentParams(a=a, b=b, n=2))
        l3 = moment_L(MomentParams(a=a, b=b, n=3))
        assert l3 == pytest.approx(w1 * l1 + w2 * l2, rel=1e-10)

    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("b", [-2.0, 0.0, 1.5])
    def test_identities_on_grid(self, a, b):
        w1, w2, w3, w4 = moment_recurrence(a, b)
        L = [moment_L(MomentParams(a=a, b=b, n=n)) for n in range(5)]
        scale = max(abs(L[3]), abs(L[4]), 1e-300)
        assert abs(L[3] - (w1 * L[1] + w2 * L[2])) <= 1e-9 * scale
        assert abs(L[4] - (w3 * L[1] + w4 * L[2])) <= 1e-9 * scale

    @given(st.floats(0.1, 5.0), st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_identity_property(self, a, b):
        w1, w2, _, _ = moment_recurrence(a, b)
        l1 = moment_L(MomentParams(a=a, b=b, n=1))
        l2 = moment_L(MomentParams(a=a, b=b, n=2))
        l3 = moment_L(MomentParams(a=a, b=b, n=3))
        assert abs(l3 - (w1 * l1 + w2 * l2)) <= 1e-9 * max(abs(l3), 1e-300)

    def test_elementwise_arrays(self):
        a = np.array([1.0, 2.0])
        b = np.array([0.0, 1.0])
        w1, w2, w3, w4 = moment_recurrence(a, b)
        assert np.allclose(w1, [1.5, 0.75])
        assert np.allclose(w4, [2.0, 1.25])

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            moment_recurrence(0.0, 1.0)


class TestScaledMoments:
    @pytest.mark.parametrize("a,b", [(1.0, 0.5), (0.3, 1.0), (2.0, -1.5),
                                     (1.0, 6.2), (0.04, 1.26), (1.0, -9.0)])
    def test_matches_unscaled(self, a, b):
        # spans both branches of the split at b^2/a = 40
        z = b * b / a
        lam0, lam1, lam2 = scaled_moments(a, b)
        for n, lam in enumerate((lam0, lam1, lam2)):
            want = math.exp(-z) * moment_L(MomentParams(a=a, b=b, n=n))
            assert lam == pytest.approx(want, rel=1e-11), f"n={n} z={z:.1f}"

    def test_split_boundary_continuity(self):
        a = 1.0
        for b in (math.sqrt(39.9), math.sqrt(40.1)):
            lam = scaled_moments(a, b)
            want = [math.exp(-b * b) * moment_L(MomentParams(a=a, b=b, n=n)) for n in range(3)]
            assert np.allclose(lam, want, rtol=1e-11)

    def test_parity_flip(self):
        a, b = 0.7, 1.3
        p0, p1, p2 = scaled_moments(a, b)
        m0, m1, m2 = scaled_moments(a, -b)
        assert m0 == pytest.approx(p0, rel=1e-13)
        assert m1 == pytest.approx(-p1, rel=1e-13)
        assert m2 == pytest.approx(p2, rel=1e-13)

    def test_huge_z_is_finite(self):
        # the unscaled moments overflow here; the scaled ones must not
        lam = scaled_moments(1e-4, 1.0)
        assert all(np.isfinite(lam))
        assert lam[0] > 0

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            scaled_moments(-1.0, 0.0)
