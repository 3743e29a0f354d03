"""Evolution equation of the equal-variance ratio density in the variance t.

The density h(x, t) satisfies h_t = d/dx[D(x,t) h_x] + C(x,t) h_x + S(t) h
with a rational diffusion coefficient D = P3(x) / (Q1(x) + t Q2(x)), a
rational convection coefficient C defined by C = G_x - dD/dx, and an
x-independent source S(t).  The denominator cubic can vanish at up to three
real points where D and C blow up; callers must keep clear of those roots.
The expanded coefficient arrays of P1..Q2, the moment-form G_x, G_xx and
the pointwise residual that check these coefficients are in `oracles`.
"""

from __future__ import annotations

import numpy as np

from .ratio_density import EqualVarSpec, density_equal_var, derivatives

# denominator magnitudes below EPS_DENOM * (largest term) count as singular
EPS_DENOM = 1e-12
# half-width of the exclusion tube around each real denominator root
TUBE_HALF_WIDTH = 1e-3

__all__ = [
    "SingularPointError",
    "cubic_real_roots",
    "pde_coefficients",
    "singular_mask",
]


class SingularPointError(ArithmeticError):
    """Evaluation point too close to a real root of the denominator cubic."""


def _diffusion_at_centers(rho: float, t: float, x):
    """D = P3 / (Q1 + t Q2) of each unit-denominator pair at its own centre; NaN where x == rho.

    With nu_v = 1 and nu_w = x, Q1 = 2 (1 - rho^2) (nu_w - nu_v x)^2 (nu_w - nu_v rho)
    is 0 at x, and with q = x^2 - 2 rho x + 1 there P3 = q^2 * cubic factors
    further, cubic = -(x - rho) q, as does Q2 = 2 (rho^2 - 1) (x - rho) q. So
    D = q^2 / (2 t (1 - rho^2)). Formed as q = (x - rho)^2 + (1 - rho) (1 + rho),
    neither q nor 1 - rho^2 cancels near x = rho_hat = 1, so D is within a few
    ulps. At x == rho, where Q2 vanishes, the quotient is 0/0 and the entry is NaN.
    """
    x = np.asarray(x, dtype=float)
    one_m_r2 = (1.0 - rho) * (1.0 + rho)
    q = (x - rho) ** 2 + one_m_r2
    return np.where(x == rho, np.nan, q * q / (2.0 * t * one_m_r2))


def cubic_real_roots(spec: EqualVarSpec, t: float) -> np.ndarray:
    """Sorted real roots of the denominator Q1(x) + t Q2(x).

    In _coeffs_raw's u = x - rho, s = (1 - rho) (1 + rho) and
    k = nu_w - nu_v rho the denominator is the cubic
    2 s [3 t nu_v u^3 + k (nu_v^2 - 4 t) u^2 - 2 k^2 nu_v u + k (k^2 - t s)],
    whose roots are found in u and returned as u + rho. The leading
    coefficient vanishes when nu_v == 0, degenerating the cubic; near-zero
    leading coefficients (relative to the largest) are trimmed before root
    finding, and roots are polished with one Newton step.
    """
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    nv, rho = spec.nu_v, spec.rho
    s = (1.0 - rho) * (1.0 + rho)
    k = spec.nu_w - nv * rho
    den = 2.0 * s * np.array([k * (k * k - t * s), -2.0 * k * k * nv, k * (nv * nv - 4.0 * t),
                              3.0 * t * nv])
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
        slope = pv(real, den[1:] * (1.0, 2.0, 3.0))  # the cubic's derivative
        step = np.where(slope != 0.0, pv(real, den) / np.where(slope == 0.0, 1.0, slope), 0.0)
        real = real - step
    return np.sort(real) + rho


def singular_mask(spec: EqualVarSpec, t: float, x):
    """Boolean mask of points within TUBE_HALF_WIDTH of a real denominator root."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    roots = cubic_real_roots(spec, t)
    mask = np.zeros(x_arr.shape, dtype=bool)
    for r in roots:
        mask |= np.abs(x_arr - r) < TUBE_HALF_WIDTH
    return mask


def _coeffs_raw(nu_v, nu_w, rho, t, x):
    """(D, C, S, denom, denom_scale, dD/dx) arrays; C and dD/dx use the quotient rule.

    P1..Q2 are evaluated from their factored forms in u = x - rho, with
    s = (1 - rho) (1 + rho), k = nu_w - nu_v rho, d = nu_w - nu_v x and
    q = u^2 + s = x^2 - 2 rho x + 1:

      P1 = -2 s d^2 (nu_v s + k u)
      P2 = q (k u (8 s - 3 u^2) + nu_v s (2 s - 9 u^2))
      P3 = q^2 c,  c = k (s - u^2) - 2 nu_v s u
      Q1 = 2 s k d^2
      Q2 = -2 s (k (4 u^2 + s) - 3 nu_v u^3)

    and dP3, dQ1, dQ2 by the product rule; S takes the same s and k. Near
    x = rho -> 1 neither q nor s cancels; the expanded monomial coefficients
    (oracles._poly_coeff_arrays) do, and give D and dD/dx only to about 1e-3
    relative at rho = 0.9998, t = 3e-5.
    """
    x = np.asarray(x, dtype=float)
    s = (1.0 - rho) * (1.0 + rho)
    k = nu_w - nu_v * rho
    u = x - rho
    uu = u * u
    q = uu + s
    d = nu_w - nu_v * x
    dd = d * d
    c = k * (s - uu) - 2.0 * nu_v * s * u
    p1 = -2.0 * s * dd * (nu_v * s + k * u)
    p2 = q * (k * u * (8.0 * s - 3.0 * uu) + nu_v * s * (2.0 * s - 9.0 * uu))
    p3 = q * q * c
    q1 = 2.0 * s * k * dd
    q2 = -2.0 * s * (k * (4.0 * uu + s) - 3.0 * nu_v * uu * u)
    # q' = 2 u and c' = -2 (k u + nu_v s)
    dp3 = q * (4.0 * u * c - 2.0 * q * (k * u + nu_v * s))
    dq1 = -4.0 * s * k * nu_v * d
    dq2 = -2.0 * s * u * (8.0 * k - 9.0 * nu_v * u)

    den = q1 + t * q2
    den_scale = np.maximum(np.abs(q1), np.abs(t * q2))

    # callers reject den inside the singular tube after the fact
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = p3 / den
        dp3_den = dp3 / den
        quot = p3 * (dq1 + t * dq2) / (den * den)
        conv = (p1 + t * p2) / (t * den) - dp3_den + quot
        diff_x = dp3_den - quot
    # nu_v^2 + nu_w^2 - 2 rho nu_v nu_w, as k^2 + nu_v^2 s, does not cancel either
    src = (k * k + nu_v * nu_v * s) / (2.0 * t * t * s) - 1.0 / t
    return diff, conv, src, den, den_scale, diff_x


def pde_coefficients(spec: EqualVarSpec, x) -> tuple:
    """(D, C, S, dD/dx) as floats at scalar x and t = spec.t.

    ValueError for nu_v == 0, where the denominator cubic Q1 + t Q2 loses its
    x^3 term; SingularPointError where it vanishes to within EPS_DENOM.
    """
    if spec.nu_v == 0.0:
        raise ValueError(
            "the evolution-equation coefficients need nu_v != 0: "
            "there the denominator cubic Q1 + t Q2 degenerates to a quadratic"
        )
    xf = float(x)
    d, c, s, den, scale, d_x = _coeffs_raw(spec.nu_v, spec.nu_w, spec.rho, spec.t, xf)
    if abs(den) <= EPS_DENOM * scale:
        raise SingularPointError(
            f"x = {xf} is within the singular tube of the denominator cubic"
        )
    return float(d), float(c), float(s), float(d_x)


def _residual_row(spec: EqualVarSpec, x) -> tuple:
    """(h, h_t, D, C, S, residual) at scalar x; SingularPointError in the tube."""
    xf = float(x)
    d, c, s, d_x = pde_coefficients(spec, xf)
    h = density_equal_var(spec, xf)
    h_t, h_x, h_xx = derivatives(spec, xf)
    return h, h_t, d, c, s, h_t - (d * h_xx + (d_x + c) * h_x + s * h)
