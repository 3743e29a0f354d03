"""Exact density of the ratio of two jointly Gaussian random variables.

For (v, w) bivariate normal the density of x = w/v has a closed form built
from a confluent hypergeometric function of the quadratic/linear/constant
exponent coefficients (a, b, c) and the covariance determinant d.  The
equal-variance family (var v = var w = t, correlation rho) additionally has
an elementary erf closed form, used as the primary evaluation path because
it stays finite where the raw 1F1 factor overflows; closed-form first and
second derivatives in x and the derivative in t are assembled from the
absolute-moment integrals in `specfun`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import erf, hyp1f1_half_scaled, moment_recurrence, scaled_moments

TWO_PI = 2.0 * math.pi
_SQRT_PI = math.sqrt(math.pi)
# erf is exactly +-1.0 in double precision beyond this |z|
_ERF_ONE = 6.0

__all__ = [
    "GeneralGaussianSpec",
    "EqualVarSpec",
    "abc_general",
    "density_general",
    "density_general_hyp",
    "density_equal_var",
    "density_equal_var_hyp",
    "derivatives",
    "integrate_density",
]


@dataclass(frozen=True)
class GeneralGaussianSpec:
    """Means, variances and covariance of (v, w); x = w / v."""

    nu_v: float
    nu_w: float
    sigma2_v: float
    sigma2_w: float
    gamma: float

    def __post_init__(self):
        for name in ("nu_v", "nu_w", "sigma2_v", "sigma2_w", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.sigma2_v <= 0.0 or self.sigma2_w <= 0.0:
            raise ValueError("variances must be positive")
        if self.det <= 0.0:
            raise ValueError("covariance matrix must be positive definite")

    @property
    def det(self) -> float:
        return self.sigma2_v * self.sigma2_w - self.gamma * self.gamma


@dataclass(frozen=True)
class EqualVarSpec:
    """Equal-variance family: var v = var w = t, correlation rho."""

    nu_v: float
    nu_w: float
    rho: float
    t: float

    def __post_init__(self):
        for name in ("nu_v", "nu_w", "rho", "t"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"correlation must satisfy |rho| < 1, got {self.rho}")
        if self.t <= 0.0:
            raise ValueError(f"variance t must be positive, got {self.t}")


def abc_general(spec: GeneralGaussianSpec, x) -> tuple:
    """(a, b, c, d): quadratic a(x) > 0, linear b(x), constant c and determinant d."""
    x = np.asarray(x, dtype=float)
    det = spec.det
    two_det = 2.0 * det
    a = (spec.sigma2_w - 2.0 * spec.gamma * x + spec.sigma2_v * x * x) / two_det
    b = (
        spec.sigma2_w * spec.nu_v
        - spec.gamma * spec.nu_w
        + (spec.sigma2_v * spec.nu_w - spec.gamma * spec.nu_v) * x
    ) / two_det
    c = (
        spec.sigma2_w * spec.nu_v**2
        - 2.0 * spec.gamma * spec.nu_w * spec.nu_v
        + spec.sigma2_v * spec.nu_w**2
    ) / two_det
    if a.ndim == 0:
        return float(a), float(b), c, det
    return a, b, c, det


def _abc_equal_var(x, t, nu_v, nu_w, rho) -> tuple:
    """Exponent coefficients (a, b, c) of the equal-variance family; broadcasts."""
    denom = 2.0 * (1.0 - rho * rho) * t
    a = (1.0 - 2.0 * rho * x + x * x) / denom
    b = (nu_v - rho * nu_w + (nu_w - rho * nu_v) * x) / denom
    c = (nu_v * nu_v - 2.0 * rho * nu_w * nu_v + nu_w * nu_w) / denom
    return a, b, c


def _density_stable(a, b, c, d):
    """h = e^-c/(2 pi sqrt(d) a) 1F1(1; 1/2; b^2/a), factored through erf.

    1F1(1; 1/2; z) = 1 + sqrt(pi z) e^z erf(sqrt z) turns the product into
    e^-c + sqrt(pi) beta erf(beta) e^(z - c) with beta = b/sqrt(a); z - c <= 0
    always (Cauchy-Schwarz on the exponent quadratic form), so nothing
    overflows however sharp the density.
    """
    beta = b / np.sqrt(a)
    z = beta * beta
    core = np.exp(-c) + _SQRT_PI * beta * erf(beta) * np.exp(z - c)
    return core / (TWO_PI * np.sqrt(d) * a)


def density_general(spec: GeneralGaussianSpec, x):
    """Density of w/v for general covariance; scalars or arrays in x."""
    x_arr = np.asarray(x, dtype=float)
    a, b, c, d = abc_general(spec, x_arr)
    out = _density_stable(np.asarray(a), np.asarray(b), c, d)
    if x_arr.ndim == 0:
        return float(out)
    return out


def _density_hyp(a: float, b: float, c: float, d: float) -> float:
    """e^-c / (2 pi sqrt(d) a) 1F1(1; 1/2; b^2/a) from scalar coefficients.

    The exponents are combined as exp(z - c) with z = b^2/a <= c, so the
    evaluation stays finite even when both factors are out of double range.
    """
    z = b * b / a
    return math.exp(z - c) / (TWO_PI * math.sqrt(d) * a) * hyp1f1_half_scaled(1.0, 0.5, z)


def density_general_hyp(spec: GeneralGaussianSpec, x) -> float:
    """Direct 1F1 form of the general density (cross-check path; scalar x)."""
    return _density_hyp(*abc_general(spec, float(x)))


def _erf(z):
    """scipy.special.erf, called only where its value is not exactly +-1.0.

    scipy's erf rounds to exactly +-1.0 from |z| >= 5.9216 on, so beyond
    _ERF_ONE the sign is the whole answer; NaN still goes to erf.
    """
    z = np.asarray(z)
    saturated = np.abs(z) >= _ERF_ONE
    if not saturated.any():
        return erf(z)
    out = np.copysign(1.0, z)
    rest = ~saturated
    if rest.any():
        out[rest] = erf(z[rest])
    return out


def _h_erf_raw(x, t, nu_v, nu_w, rho):
    """Elementary erf closed form of the equal-variance density; broadcasts.

    The means are squared as float64, which gives inf where Python's float
    power would raise OverflowError (|nu| > 1.34e154) and the same bits
    elsewhere. Where |x| > 1 and 2 pi t q overflows (|x| beyond about
    sqrt(2.9e307 / t), and wherever q overflows) the density is the same
    form with numerator and denominator divided by x^2.
    """
    # far points overflow here and are replaced below; callers check any other non-finite h
    with np.errstate(over="ignore", invalid="ignore"):
        q = x * x - 2.0 * rho * x + 1.0
        lin = nu_v * (1.0 - rho * x) + nu_w * (x - rho)
        one_m_r2 = 1.0 - rho * rho
        norm2 = TWO_PI * t * q
        gauss = np.exp(-((nu_w - nu_v * x) ** 2) / (2.0 * t * q)) / np.sqrt(norm2)
        term1 = gauss * (lin / q) * _erf(lin / np.sqrt(2.0 * t * one_m_r2 * q))
        nv2, nw2 = np.float64(nu_v) ** 2, np.float64(nu_w) ** 2
        e2 = np.exp((-nv2 + 2.0 * nu_v * nu_w * rho - nw2) / (2.0 * t * one_m_r2))
        term2 = np.sqrt(one_m_r2) / (np.pi * q) * e2
        h = term1 + term2
    far = np.isinf(norm2) & (np.abs(x) > 1.0) & np.isfinite(x)
    if np.any(far):
        with np.errstate(all="ignore"):  # x = 0 and the other non-far points go unused
            u = 1.0 / x
            qs = 1.0 - 2.0 * rho * u + u * u  # q / x^2
            lin_s = nu_v * (u - rho) + nu_w * (1.0 - rho * u)  # lin / x
            gauss_s = np.exp(-((nu_w * u - nu_v) ** 2) / (2.0 * t * qs)) / np.sqrt(TWO_PI * t * qs)
            erf_s = _erf(np.sign(x) * lin_s / np.sqrt(2.0 * t * one_m_r2 * qs))
            # term1 = gauss_s |u| (lin_s u / qs) erf_s, term2 = sqrt(1 - rho^2) u^2 / (pi qs) e2
            far_h = gauss_s * (lin_s / qs) * erf_s * (np.abs(u) * u)
            far_h = far_h + np.sqrt(one_m_r2) / (np.pi * qs) * e2 * (u * u)
        h = np.where(far, far_h, h)
    return h


class _RatioKernel:
    """_h_erf_raw(x, t, 1.0, mu, rho) evaluated in place on a fixed increasing grid x.

    prepare(t, rho) fills the per-grid factors; row(mu, e2, a, b) then writes
    h for one centre mu on the slice x[a:b] into a preallocated buffer, with
    e2 = cauchy_exp(mu). Per point it does the IEEE operations of _h_erf_raw,
    with four shortcuts that keep every bit: the multiplications by
    nu_v = 1.0 are left out; the exponent's negation moves into the per-grid
    divisor, d^2 / ((-2t) q), as IEEE division is sign-symmetric; the Cauchy
    term is left out when e2 is 0.0, since it is then +0.0
    (q >= 1 - rho^2 > 0) and term1 is never -0.0; and erf is left out where
    _saturated_sign proves it is sign(lin) on the whole slice.

    Each factor is computed once per value of what it depends on, and kept
    until that changes: q, 1 - rho x, x - rho and the Cauchy factor
    sqrt(1 - rho^2) / (pi q) until rho changes; -2 t q, sqrt(2 pi t q) and
    sqrt(2 t (1 - rho^2) q) until t or rho changes; lin and lin / q until
    mu, rho or the slice changes. The Cauchy factor and sqrt(2 t (1 - rho^2) q)
    are built on first use. A kept factor has the bits that recomputing it
    would give, since it is the same IEEE operation on equal operands. rho
    and mu are compared with ==, so +0.0 reuses the factors of -0.0; those
    differ at most in the sign of a zero x - rho or mu (x - rho), which lin
    adds to 1 - rho x (never -0.0), so h keeps its bits. t > 0 in every
    caller.
    """

    def __init__(self, x):
        self.x = x
        self._x_sq = x * x
        n = x.size
        # per grid: q, 1 - rho x, x - rho, -2 t q, sqrt(2 pi t q)
        self._q, self._omrx, self._xmr, self._m2tq, self._norm = (np.empty(n) for _ in range(5))
        # per row: lin, lin / q, h, scratch
        self._lin, self._lin_q, self._h, self._tmp = (np.empty(n) for _ in range(4))
        # sqrt(c q) and sqrt(1 - rho^2) / (pi q), filled on first use after prepare
        self._root, self._cauchy = np.empty(n), np.empty(n)
        # the values the kept factors were computed for; None before the first
        self.t = self.rho = self._lin_key = None

    def prepare(self, t, rho):
        if rho != self.rho:
            x, q = self.x, self._q
            # q = x^2 - 2 rho x + 1
            np.multiply(x, 2.0 * rho, out=q)
            np.subtract(self._x_sq, q, out=q)
            q += 1.0
            np.multiply(x, rho, out=self._omrx)
            np.subtract(1.0, self._omrx, out=self._omrx)
            np.subtract(x, rho, out=self._xmr)
            self.rho = rho
            self.one_m_r2 = 1.0 - rho * rho
            self._have_cauchy = False
            self.t = self._lin_key = None
        if t != self.t:
            np.multiply(self._q, -2.0 * t, out=self._m2tq)
            np.multiply(self._q, TWO_PI * t, out=self._norm)
            np.sqrt(self._norm, out=self._norm)
            self.t = t
            self.c = 2.0 * t * self.one_m_r2
            self._have_root = False

    def cauchy_exp(self, mu):
        """The Cauchy term's exp(-(1 - 2 mu rho + mu^2) / (2 t (1 - rho^2))).

        As in _h_erf_raw, a scalar mu is squared by pow and an array mu
        elementwise, which differ in the last bit on some doubles.
        """
        return np.exp((-1.0 + 2.0 * mu * self.rho - np.float64(mu) ** 2) / self.c)

    def _saturated_sign(self, mu, a, b):
        """s = +-1.0 when erf(lin_i / sqrt(c q_i)) is exactly s on all of x[a:b], else 0.0.

        Reads lin of the last row and c = 2 t (1 - rho^2) of prepare. With
        u = 2^-53 and X = max |x| on the slice, which an end has, as the slice
        is increasing:
        - lin: the computed lin_i is within E = 4u (1 + X)(1 + |mu|) of the
          linear l(x) = (1 - rho x) + mu (x - rho) (five roundings, |rho| < 1).
          If both computed ends have sign s and m = min |lin_end| >= 200 E,
          then s l >= m - E on the whole slice, and s lin_i >= m - 2E >= 0.99 m,
          however near the slice l has its root.
        - q: the computed q_i is within 4u (1 + X)^2 of the convex
          q(x) = (x - rho)^2 + 1 - rho^2, so q_i <= q_max + 8u (1 + X)^2 with
          q_max the larger computed end. As q >= (|x| - 1)^2 and, under the
          rho cap, q >= 1 - rho^2 >= 2.25e-10, (1 + X)^2 <= 7.2e10 q_max, so
          q_i <= q_max (1 + 1e-4) also where q nears 1 - rho^2.
        - z: sqrt(c q_i) rounds up by at most (1 + u)^1.5; with
          m >= 6 sqrt(c q_max) (three roundings) every computed
          |z_i| >= 0.99 * 6 / (1 + 6e-5) > 5.939, where scipy's erf is exactly
          +-1.0 (from 5.9216 on), with the sign s of lin_i.
        """
        last = b - 1
        lin0, lin1 = float(self._lin[a]), float(self._lin[last])
        if lin0 > 0.0 and lin1 > 0.0:
            sign = 1.0
        elif lin0 < 0.0 and lin1 < 0.0:
            sign = -1.0
        else:
            return 0.0
        m = min(abs(lin0), abs(lin1))
        q_max = max(float(self._q[a]), float(self._q[last]))
        one_x = 1.0 + max(abs(float(self.x[a])), abs(float(self.x[last])))
        err = 2.0**-51 * one_x * (1.0 + abs(mu))
        if 6.0 * math.sqrt(self.c * q_max) <= m < math.inf and m >= 200.0 * err:
            return sign
        return 0.0

    def row(self, mu, e2, a, b):
        """h on x[a:b] for centre mu, a view of a buffer that the next row overwrites."""
        q, lin, lin_q = self._q[a:b], self._lin[a:b], self._lin_q[a:b]
        h, tmp = self._h[a:b], self._tmp[a:b]
        # gauss = exp(-(mu - x)^2 / (2 t q)) / sqrt(2 pi t q), times lin / q
        np.subtract(mu, self.x[a:b], out=h)
        np.multiply(h, h, out=h)
        np.divide(h, self._m2tq[a:b], out=h)
        np.exp(h, out=h)
        np.divide(h, self._norm[a:b], out=h)
        if (mu, a, b) != self._lin_key:
            # lin = (1 - rho x) + mu (x - rho)
            np.multiply(self._xmr[a:b], mu, out=lin)
            lin += self._omrx[a:b]
            np.divide(lin, q, out=lin_q)
            self._lin_key = (mu, a, b)
        h *= lin_q
        # term1 = gauss (lin / q) erf(lin / sqrt(2 t (1 - rho^2) q))
        sign = self._saturated_sign(mu, a, b)
        if sign < 0.0:
            np.negative(h, out=h)
        elif sign == 0.0:
            if not self._have_root:
                np.multiply(self._q, self.c, out=self._root)
                np.sqrt(self._root, out=self._root)
                self._have_root = True
            np.divide(lin, self._root[a:b], out=tmp)
            h *= _erf(tmp)
        # term2 = sqrt(1 - rho^2) / (pi q) e2
        if e2 != 0.0:
            if not self._have_cauchy:
                np.multiply(self._q, np.pi, out=self._cauchy)
                np.divide(np.sqrt(self.one_m_r2), self._cauchy, out=self._cauchy)
                self._have_cauchy = True
            np.multiply(self._cauchy[a:b], e2, out=tmp)
            h += tmp
        return h


def density_equal_var(spec: EqualVarSpec, x):
    """Equal-variance ratio density via the erf closed form (primary path)."""
    x_arr = np.asarray(x, dtype=float)
    out = _h_erf_raw(x_arr, spec.t, spec.nu_v, spec.nu_w, spec.rho)
    if x_arr.ndim == 0:
        return float(out)
    return out


def density_equal_var_hyp(spec: EqualVarSpec, x) -> float:
    """1F1 form of the equal-variance density (cross-check path; scalar x)."""
    a, b, c = _abc_equal_var(float(x), spec.t, spec.nu_v, spec.nu_w, spec.rho)
    return _density_hyp(a, b, c, (1.0 - spec.rho * spec.rho) * spec.t * spec.t)


def _moment_coefficients(x, t, nu_v, nu_w, rho) -> tuple:
    """(A_t, B_t, C_t, A_x, B_x, E_xx, F_xx, A_xx) of the moment assembly; broadcasts.

    The means are squared as float64, as in _h_erf_raw, so |nu| > 1.34e154
    gives inf rather than Python's OverflowError, with the same bits elsewhere.
    """
    one_m_r2 = 1.0 - rho * rho
    s32 = one_m_r2**1.5
    s52 = one_m_r2**2.5
    t2 = t * t
    t3 = t2 * t
    nv2, nw2 = np.float64(nu_v) ** 2, np.float64(nu_w) ** 2
    return (
        (1.0 + x * x - 2.0 * x * rho) / (2.0 * t3 * s32),
        -(nu_v + nu_w * x - (nu_w + nu_v * x) * rho) / (t3 * s32),
        (nv2 + nw2 - 2.0 * nu_v * nu_w * rho + 2.0 * t * (rho * rho - 1.0)) / (2.0 * t3 * s32),
        (rho - x) / (t2 * s32),
        (nu_w - nu_v * rho) / (t2 * s32),
        (x - rho) ** 2 / (t3 * s52),
        2.0 * (x - rho) * (-nu_w + nu_v * rho) / (t3 * s52),
        (np.float64(nu_w - nu_v * rho) ** 2 + t * (rho * rho - 1.0)) / (t3 * s52),
    )


def _derivs_raw(x, t, nu_v, nu_w, rho):
    """(h_t, h_x, h_xx) for the equal-variance family; broadcasts over arrays.

    Assembled from the moment integrals: with Lam_n = e^(-b^2/a) L_n(a, b),

      h_t  = e^(z-c)/(2 pi) [A_t Lam2 + B_t Lam1 + C_t Lam0]
      h_x  = e^(z-c)/(2 pi) [A_x Lam2 + B_x Lam1]
      h_xx = e^(z-c)/(2 pi) [(A_xx + F_xx W2 + E_xx W4) Lam2 + (F_xx W1 + E_xx W3) Lam1]

    where the order-3 and order-4 moments were eliminated by the recurrence
    weights W1..W4. Where the prefactor e^(z-c) underflows to 0.0 all three
    are 0.0, though a coefficient may have overflowed there.
    """
    x = np.asarray(x, dtype=float)
    a, b, c = _abc_equal_var(x, t, nu_v, nu_w, rho)
    at, bt, ct, ax, bx, exx, fxx, axx = _moment_coefficients(x, t, nu_v, nu_w, rho)

    w1, w2, w3, w4 = moment_recurrence(a, b)
    lam0, lam1, lam2 = scaled_moments(a, b)

    z = b * b / a
    pref = np.exp(z - c) / TWO_PI

    h_t = pref * (at * lam2 + bt * lam1 + ct * lam0)
    h_x = pref * (ax * lam2 + bx * lam1)
    h_xx = pref * ((axx + fxx * w2 + exx * w4) * lam2 + (fxx * w1 + exx * w3) * lam1)
    zero = pref == 0.0
    return tuple(np.where(zero, 0.0, v) for v in (h_t, h_x, h_xx))


def derivatives(spec: EqualVarSpec, x):
    """Closed-form (h_t, h_x, h_xx) of the equal-variance density.

    The coefficient assembly divides by nu_v, so the zero-mean-denominator
    case is rejected; use the stationary form there instead.
    """
    if spec.nu_v == 0.0:
        raise ValueError("derivative closed forms require nu_v != 0")
    x_arr = np.asarray(x, dtype=float)
    h_t, h_x, h_xx = _derivs_raw(x_arr, spec.t, spec.nu_v, spec.nu_w, spec.rho)
    if x_arr.ndim == 0:
        return float(h_t), float(h_x), float(h_xx)
    return h_t, h_x, h_xx


def _adaptive_simpson(f, lo, hi, tol):
    """Recursive adaptive Simpson on [lo, hi], at most 40 halvings deep."""

    def simpson(a, fa, m, fm, b, fb):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, m, fm, b, fb, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        left = simpson(a, fa, lm, flm, m, fm)
        right = simpson(m, fm, rm, frm, b, fb)
        if depth >= 40 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        half = 0.5 * tol
        return recurse(a, fa, lm, flm, m, fm, left, half, depth + 1) + recurse(
            m, fm, rm, frm, b, fb, right, half, depth + 1
        )

    m = 0.5 * (lo + hi)
    fa, fm, fb = f(lo), f(m), f(hi)
    whole = simpson(lo, fa, m, fm, hi, fb)
    return recurse(lo, fa, m, fm, hi, fb, whole, tol, 0)


def integrate_density(spec) -> float:
    """Total mass of the ratio density over the real line, to within about 1e-9.

    Compactifies with x = tan(u) and integrates adaptively; the transformed
    integrand is smooth because the density decays like 1/x^2.
    """
    if isinstance(spec, EqualVarSpec):
        dens = lambda x: density_equal_var(spec, x)
    elif isinstance(spec, GeneralGaussianSpec):
        dens = lambda x: density_general(spec, x)
    else:
        raise TypeError(f"unsupported spec type {type(spec).__name__}")

    def g(u):
        cu = math.cos(u)
        if cu == 0.0:
            return 0.0
        x = math.tan(u)
        return dens(x) / (cu * cu)

    half_pi = 0.5 * math.pi
    # panel breaks at 0 and at the sharp-peak location nu_w/nu_v so a narrow
    # mode cannot hide inside one coarse panel
    breaks = {-half_pi, 0.0, half_pi}
    if spec.nu_v != 0.0:
        breaks.add(math.atan(spec.nu_w / spec.nu_v))
    pts = sorted(breaks)
    per_panel = 1e-9 / (len(pts) - 1)
    return sum(
        _adaptive_simpson(g, lo, hi, per_panel) for lo, hi in zip(pts[:-1], pts[1:])
    )
