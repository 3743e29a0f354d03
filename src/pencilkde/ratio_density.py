"""Exact density of the ratio of two jointly Gaussian random variables.

For (v, w) bivariate normal the density of x = w/v has a closed form built
from a confluent hypergeometric function of the quadratic/linear/constant
exponent coefficients (a, b, c) and the covariance determinant d.  The
equal-variance family (var v = var w = t, correlation rho) additionally has
an elementary erf closed form, used as the primary evaluation path because
it stays finite where the raw 1F1 factor overflows; its first and second
derivatives in x and its derivative in t are that form's own, differentiated
term by term.  The general-covariance density, the 1F1 forms, the
normalization integral and the moment-integral form of the derivatives,
which only checks evaluate, are in `oracles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import erf

TWO_PI = 2.0 * math.pi
# erf is exactly +-1.0 in double precision beyond this |z|
_ERF_ONE = 6.0

__all__ = [
    "EqualVarSpec",
    "density_equal_var",
    "derivatives",
]


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


def _derivs_erf_raw(x, t, nu_v, nu_w, rho):
    """(h_t, h_x, h_xx) of _h_erf_raw's closed form, differentiated term by term; broadcasts.

    The density is h = g f erf(z) + c e2 with q = x^2 - 2 rho x + 1,
    s = 1 - rho^2, d = nu_w - nu_v x, lin = nu_v (1 - rho x) + nu_w (x - rho),
    g = exp(-d^2 / (2 t q)) / sqrt(2 pi t q), f = lin / q,
    z = lin / sqrt(2 t s q), c = sqrt(s) / (pi q), e2 = exp(-A / (2 t s)) and
    A = nu_v^2 - 2 rho nu_v nu_w + nu_w^2. As d^2 s + lin^2 = A q, erf's
    derivative brings the factor g (2 / sqrt(pi)) exp(-z^2) = w, with
    w = (2 / sqrt(pi)) e2 / sqrt(2 pi t q). With u = (x - rho) / q, k = nu_w - rho nu_v
    and primes for d/dx:

      g'/g = y = (nu_v d + d^2 u) / (t q) - u
      y'   = (-nu_v^2 - 4 nu_v d u + d^2 / q - 4 d^2 u^2) / (t q) - 1 / q + 2 u^2
      f'   = (k - 2 f (x - rho)) / q
      f''  = -(4 k u + 2 f) / q + 8 f u^2
      z'   = s d / (sqrt(2 t s q) q)
      z''  = -s (nu_v q + 3 d (x - rho)) / (sqrt(2 t s q) q^2)

      h_t  = g erf(z) f (d^2 / (2 t^2 q) - 1 / (2 t)) - w f z / (2 t) + c e2 A / (2 t^2 s)
      h_x  = g erf(z) (y f + f') + w f z' - 2 u c e2
      h_xx = g erf(z) ((y^2 + y') f + 2 y f' + f'') + w (f (z'' - 2 z z'^2) + 2 (y f + f') z')
             + c e2 (8 u^2 - 2 / q)

    The erf term's parts are 0.0 where g is, and the others where e2 is, though a
    factor beside them may have overflowed there; so all three are 0.0 wherever
    the density underflows. At rho -> -1, where e2 is 0.0 and erf saturates, h_t
    is the Gaussian factor's own t-derivative, with no cancellation. There is no
    far-tail form: where q overflows (|x| beyond about 1e154) the result is NaN.
    """
    x = np.asarray(x, dtype=float)
    # the parts beside a 0.0 exponential may overflow; they are replaced below
    with np.errstate(over="ignore", invalid="ignore"):
        q = x * x - 2.0 * rho * x + 1.0
        xmr = x - rho
        d = nu_w - nu_v * x
        lin = nu_v * (1.0 - rho * x) + nu_w * xmr
        one_m_r2 = 1.0 - rho * rho
        norm = np.sqrt(TWO_PI * t * q)
        g = np.exp(-(d * d) / (2.0 * t * q)) / norm
        root = np.sqrt(2.0 * t * one_m_r2 * q)
        z, f = lin / root, lin / q
        g_erf = g * _erf(z)
        nv2, nw2 = np.float64(nu_v) ** 2, np.float64(nu_w) ** 2
        minus_a = -nv2 + 2.0 * nu_v * nu_w * rho - nw2
        e2 = np.exp(minus_a / (2.0 * t * one_m_r2))
        c_e2 = math.sqrt(one_m_r2) / (np.pi * q) * e2
        w = (2.0 / math.sqrt(math.pi)) * e2 / norm

        u = xmr / q
        k = nu_w - rho * nu_v
        y = (nu_v * d + d * d * u) / (t * q) - u
        dy = (-nu_v * nu_v - 4.0 * nu_v * d * u + d * d / q - 4.0 * d * d * u * u) / (t * q)
        dy += 2.0 * u * u - 1.0 / q
        df = (k - 2.0 * f * xmr) / q
        ddf = 8.0 * f * u * u - (4.0 * k * u + 2.0 * f) / q
        dz = one_m_r2 * d / (root * q)
        ddz = -one_m_r2 * (nu_v * q + 3.0 * d * xmr) / (root * q * q)
        dx1 = y * f + df

        parts = (
            (g_erf * f * (d * d / (2.0 * t * t * q) - 0.5 / t),
             c_e2 * (-minus_a / (2.0 * t * t * one_m_r2)) - w * f * z / (2.0 * t)),
            (g_erf * dx1, w * f * dz - 2.0 * u * c_e2),
            (g_erf * ((y * y + dy) * f + 2.0 * y * df + ddf),
             w * (f * (ddz - 2.0 * z * dz * dz) + 2.0 * dx1 * dz)
             + c_e2 * (8.0 * u * u - 2.0 / q)),
        )
    no_g, no_e2 = g == 0.0, e2 == 0.0
    return tuple(np.where(no_g, 0.0, a) + np.where(no_e2, 0.0, b) for a, b in parts)


def derivatives(spec: EqualVarSpec, x):
    """Closed-form (h_t, h_x, h_xx) of the equal-variance density (_derivs_erf_raw).

    Defined for every mean, the zero-mean denominator nu_v == 0 included; the
    evolution-equation coefficients, not these derivatives, reject that case.
    """
    x_arr = np.asarray(x, dtype=float)
    h_t, h_x, h_xx = _derivs_erf_raw(x_arr, spec.t, spec.nu_v, spec.nu_w, spec.rho)
    if x_arr.ndim == 0:
        return float(h_t), float(h_x), float(h_xx)
    return h_t, h_x, h_xx
