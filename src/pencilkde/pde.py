"""Evolution equation of the equal-variance ratio density in the variance t.

The density h(x, t) satisfies h_t = d/dx[D(x,t) h_x] + C(x,t) h_x + S(t) h
with a rational diffusion coefficient D = P3(x) / (Q1(x) + t Q2(x)), a
rational convection coefficient C defined by C = G_x - dD/dx, and an
x-independent source S(t).  The denominator cubic can vanish at up to three
real points where D and C blow up; callers must keep clear of those roots.
"""

from __future__ import annotations

import numpy as np

from .ratio_density import (
    EqualVarSpec,
    _abc_equal_var,
    _moment_coefficients,
    density_equal_var,
    derivatives,
)
from .specfun import moment_recurrence

# denominator magnitudes below EPS_DENOM * (largest term) count as singular
EPS_DENOM = 1e-12
# half-width of the exclusion tube around each real denominator root
TUBE_HALF_WIDTH = 1e-3

__all__ = [
    "SingularPointError",
    "cubic_real_roots",
    "pde_coefficients",
    "g_coefficients",
    "residual",
    "singular_mask",
]


class SingularPointError(ArithmeticError):
    """Evaluation point too close to a real root of the denominator cubic."""


def _poly_terms(nu_v, nu_w, rho, x):
    """P1, P2, P3, Q1, Q2 evaluated from the factored forms; broadcasts."""
    q = 1.0 + x * x - 2.0 * x * rho
    r2m1 = rho * rho - 1.0
    wmvx = nu_w - nu_v * x

    p1 = 2.0 * wmvx * wmvx * (nu_v + nu_w * x - (nu_w + nu_v * x) * rho) * r2m1
    p2 = q * (
        nu_w * (rho - x) * (3.0 * x * x - 6.0 * x * rho + 11.0 * rho * rho - 8.0)
        + nu_v
        * (
            2.0
            - 9.0 * x * x
            + 10.0 * x * rho
            + 3.0 * x**3 * rho
            - 5.0 * rho * rho
            - x * rho**3
        )
    )
    p3 = (
        q
        * q
        * (
            nu_w * (1.0 - x * x + 2.0 * x * rho - 2.0 * rho * rho)
            + nu_v * (rho + x * (-2.0 + x * rho))
        )
    )
    q1 = 2.0 * (1.0 - rho * rho) * wmvx * wmvx * (nu_w - nu_v * rho)
    q2 = 2.0 * r2m1 * (
        nu_w * (1.0 + 4.0 * x * x - 8.0 * x * rho + 3.0 * rho * rho)
        - nu_v * (rho + x * (3.0 * x * x - 5.0 * x * rho + rho * rho))
    )
    return p1, p2, p3, q1, q2


def _p3_factor(nv, nw, r) -> list:
    """Ascending coefficients of the cubic with P3 = (1 - 2 r x + x^2)^2 * cubic.

    Entries broadcast, so nw may be an array of numerator means.
    """
    return [nw * (1.0 - 2.0 * r * r) + nv * r, 2.0 * nw * r - 2.0 * nv, -nw + nv * r]


def _q_coeffs(nv, nw, r) -> tuple:
    """Ascending coefficient lists of Q1 and Q2; entries broadcast like _p3_factor."""
    s1 = 2.0 * (1.0 - r * r) * (nw - nv * r)
    s2 = 2.0 * (r * r - 1.0)
    q1 = [s1 * (nw * nw), s1 * (-2.0 * nv * nw), s1 * (nv * nv)]
    q2 = [
        s2 * (nw * (1.0 + 3.0 * r * r) - nv * r),
        s2 * (-8.0 * nw * r - nv * r * r),
        s2 * (4.0 * nw + 5.0 * nv * r),
        s2 * (-3.0 * nv),
    ]
    return q1, q2


def _poly_coeff_arrays(nv: float, nw: float, r: float) -> dict:
    """Expanded coefficient arrays (ascending degree) of P1..Q2 and derivatives."""
    pm = np.polynomial.polynomial.polymul
    quad = np.array([1.0, -2.0 * r, 1.0])  # 1 - 2 r x + x^2
    wmvx2 = np.array([nw * nw, -2.0 * nv * nw, nv * nv])  # (nu_w - nu_v x)^2

    p1 = 2.0 * (r * r - 1.0) * pm(wmvx2, np.array([nv - nw * r, nw - nv * r]))
    inner2 = np.array(
        [
            nw * (11.0 * r**3 - 8.0 * r) + nv * (2.0 - 5.0 * r * r),
            nw * (8.0 - 17.0 * r * r) + nv * (10.0 * r - r**3),
            9.0 * r * nw - 9.0 * nv,
            -3.0 * nw + 3.0 * r * nv,
        ]
    )
    p2 = pm(quad, inner2)
    p3 = pm(pm(quad, quad), np.array(_p3_factor(nv, nw, r)))
    q1, q2 = (np.array(c) for c in _q_coeffs(nv, nw, r))
    pd = np.polynomial.polynomial.polyder
    return {
        "p1": p1,
        "p2": p2,
        "p3": p3,
        "q1": q1,
        "q2": q2,
        "dp3": pd(p3),
        "dq1": pd(q1),
        "dq2": pd(q2),
    }


def _diffusion_at_centers(rho: float, t: float, x):
    """(D, denom, denom_scale) of each unit-denominator pair at its own centre.

    Entry k is _coeffs_raw(1.0, x[k], rho, t, x[k]) for the diffusion
    coefficient D = P3 / (Q1 + t Q2), bit for bit, computed for all k at
    once: Horner runs across the whole array and the rho-only square of
    1 - 2 rho x + x^2 is formed once. P3's coefficients take one np.convolve
    per entry, which sums through BLAS dot, whose rounding a hand-written sum
    does not reproduce. That is polymul's own sum without its series checks:
    polymul trims zero leading coefficients, of its factors and of the
    product, and the cubic's leading coefficient -x + rho (then also the
    product's, times 1.0) is zero only where x == rho, so only there is
    polymul called.
    """
    x = np.asarray(x, dtype=float)
    pm = np.polynomial.polynomial.polymul
    pv = np.polynomial.polynomial.polyval
    quad = np.array([1.0, -2.0 * rho, 1.0])
    quad2 = pm(quad, quad)
    # polymul trims zero leading coefficients; zero padding evaluates the same
    p3c = np.zeros((quad2.size + 2, x.size))
    for k, cubic in enumerate(np.stack(_p3_factor(1.0, x, rho), axis=1)):
        c = np.convolve(quad2, cubic) if cubic[-1] != 0.0 else pm(quad2, cubic)
        p3c[: c.size, k] = c
    q1c, q2c = (np.array(np.broadcast_arrays(*c)) for c in _q_coeffs(1.0, x, rho))
    p3 = pv(x, p3c, tensor=False)
    q1 = pv(x, q1c, tensor=False)
    q2 = pv(x, q2c, tensor=False)
    den = q1 + t * q2
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = p3 / den
    return diff, den, np.maximum(np.abs(q1), np.abs(t * q2))


def cubic_real_roots(spec: EqualVarSpec, t: float) -> np.ndarray:
    """Sorted real roots of the denominator Q1(x) + t Q2(x).

    The leading coefficient vanishes when nu_v == 0, degenerating the cubic;
    near-zero leading coefficients (relative to the largest) are trimmed
    before root finding, and roots are polished with one Newton step.
    """
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    q1, q2 = (np.array(c) for c in _q_coeffs(spec.nu_v, spec.nu_w, spec.rho))
    den = np.zeros(4)
    den[: q1.size] += q1
    den += t * q2
    if not np.all(np.isfinite(den)):
        raise FloatingPointError("the singular-point cubic has non-finite coefficients")
    scale = np.max(np.abs(den))
    if scale == 0.0:
        raise ValueError("denominator is identically zero")
    trimmed = den.copy()
    while trimmed.size > 1 and abs(trimmed[-1]) < 1e-14 * scale:
        trimmed = trimmed[:-1]
    if trimmed.size <= 1:
        return np.array([])
    roots = np.polynomial.polynomial.polyroots(trimmed)
    real = roots[np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots))].real
    if real.size:
        # one Newton polish against the untrimmed cubic
        pv = np.polynomial.polynomial.polyval
        dden = np.polynomial.polynomial.polyder(den)
        slope = pv(real, dden)
        step = np.where(slope != 0.0, pv(real, den) / np.where(slope == 0.0, 1.0, slope), 0.0)
        real = real - step
    return np.sort(real)


def singular_mask(spec: EqualVarSpec, t: float, x):
    """Boolean mask of points within TUBE_HALF_WIDTH of a real denominator root."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    roots = cubic_real_roots(spec, t)
    mask = np.zeros(x_arr.shape, dtype=bool)
    for r in roots:
        mask |= np.abs(x_arr - r) < TUBE_HALF_WIDTH
    return mask


def _coeffs_raw(nu_v, nu_w, rho, t, x):
    """(D, C, S, denom, denom_scale, dD/dx) arrays; C and dD/dx use the quotient rule."""
    co = _poly_coeff_arrays(nu_v, nu_w, rho)
    pv = np.polynomial.polynomial.polyval
    p1 = pv(x, co["p1"])
    p2 = pv(x, co["p2"])
    p3 = pv(x, co["p3"])
    q1 = pv(x, co["q1"])
    q2 = pv(x, co["q2"])
    dp3 = pv(x, co["dp3"])
    dq1 = pv(x, co["dq1"])
    dq2 = pv(x, co["dq2"])

    den = q1 + t * q2
    den_scale = np.maximum(np.abs(q1), np.abs(t * q2))

    # callers reject den inside the singular tube after the fact
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = p3 / den
        dp3_den = dp3 / den
        quot = p3 * (dq1 + t * dq2) / (den * den)
        conv = (p1 + t * p2) / (t * den) - dp3_den + quot
        diff_x = dp3_den - quot
    src = (nu_v * nu_v + nu_w * nu_w - 2.0 * rho * nu_v * nu_w) / (
        2.0 * t * t * (1.0 - rho * rho)
    ) - 1.0 / t
    return diff, conv, src, den, den_scale, diff_x


def pde_coefficients(spec: EqualVarSpec, x) -> tuple:
    """(D, C, S, dD/dx) as floats at scalar x and t = spec.t.

    SingularPointError where the denominator vanishes to within EPS_DENOM.
    """
    xf = float(x)
    d, c, s, den, scale, d_x = _coeffs_raw(spec.nu_v, spec.nu_w, spec.rho, spec.t, xf)
    if abs(den) <= EPS_DENOM * scale:
        raise SingularPointError(
            f"x = {xf} is within the singular tube of the denominator cubic"
        )
    return float(d), float(c), float(s), float(d_x)


def g_coefficients(spec: EqualVarSpec, x) -> tuple:
    """(G_x, G_xx) of the evolution identity h_t = S h + G_x h_x + G_xx h_xx.

    Assembled directly from the moment-coefficient formulas (independent of
    the rational closed forms): with C_xx = A_xx + F_xx W2 + E_xx W4 and
    D_xx = F_xx W1 + E_xx W3,

        G_x  = (A_t D_xx - B_t C_xx) / (A_x D_xx - B_x C_xx)
        G_xx = (A_x B_t - A_t B_x) / (A_x D_xx - B_x C_xx)
    """
    nv, nw, r, t = spec.nu_v, spec.nu_w, spec.rho, spec.t
    xf = float(x)
    a, b, _ = _abc_equal_var(xf, t, nv, nw, r)
    at, bt, _, ax, bx, exx, fxx, axx = _moment_coefficients(xf, t, nv, nw, r)

    w1, w2, w3, w4 = moment_recurrence(a, b)
    cxx = axx + fxx * w2 + exx * w4
    dxx = fxx * w1 + exx * w3

    den = ax * dxx - bx * cxx
    scale = max(abs(ax * dxx), abs(bx * cxx))
    if abs(den) <= EPS_DENOM * scale:
        raise SingularPointError(f"x = {xf} is singular for the derivative elimination")
    return (at * dxx - bt * cxx) / den, (ax * bt - at * bx) / den


def _residual_row(spec: EqualVarSpec, x) -> tuple:
    """(h, h_t, D, C, S, residual) at scalar x; SingularPointError in the tube."""
    xf = float(x)
    d, c, s, d_x = pde_coefficients(spec, xf)
    h = density_equal_var(spec, xf)
    h_t, h_x, h_xx = derivatives(spec, xf)
    return h, h_t, d, c, s, h_t - (d * h_xx + (d_x + c) * h_x + s * h)


def residual(spec: EqualVarSpec, x) -> float:
    """h_t - (d/dx[D h_x] + C h_x + S h) at scalar x; ~0 away from singular tubes."""
    return _residual_row(spec, x)[5]
