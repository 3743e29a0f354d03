"""Scalar special functions and Gaussian-weighted absolute-moment integrals.

Everything downstream (densities, their closed-form derivatives, the PDE
coefficients) is assembled from the integrals

    L_n(a, b) = int_R |l| l^n exp(-a l^2 + 2 b l) dl,   a > 0,

which reduce to confluent hypergeometric functions 1F1 with second parameter
1/2 or 3/2.  This module evaluates the restricted 1F1 family, the L_n closed
forms, and the recurrence weights that express L_3, L_4 through L_1, L_2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _special

# power series below this, terminating asymptotic expansion above
SERIES_Z_MAX = 30.0
# term-ratio stopping criterion for the power series
SERIES_RTOL = 1e-16
# exp-scaled moment kernel: erfc-recursion branch above this b^2/a
SCALED_Z_SPLIT = 40.0

_SQRT_PI = math.sqrt(math.pi)

__all__ = [
    "MomentParams",
    "hyp1f1_half",
    "hyp1f1_half_scaled",
    "moment_L",
    "moment_recurrence",
    "scaled_moments",
]


def _gamma_half(two_m: int) -> float:
    """Exact Gamma(two_m / 2) for positive integer two_m."""
    if two_m <= 0:
        raise ValueError(f"need a positive half-integer argument, got {two_m}/2")
    if two_m % 2 == 0:
        return float(math.factorial(two_m // 2 - 1))
    m = (two_m - 1) // 2
    # Gamma(m + 1/2) = (2m)! sqrt(pi) / (4^m m!)
    return math.factorial(2 * m) / (4.0**m * math.factorial(m)) * _SQRT_PI


def _check_hyp_args(h: float, k: float, z: float) -> None:
    two_h = 2.0 * h
    if not (math.isfinite(h) and two_h == round(two_h) and h > 0):
        raise ValueError(f"first parameter must be a positive half-integer, got {h}")
    if k not in (0.5, 1.5):
        raise ValueError(f"second parameter must be 1/2 or 3/2, got {k}")
    if not (math.isfinite(z) and z >= 0.0):
        raise ValueError(f"argument must be finite and nonnegative, got {z}")


def _kummer_series(h: float, k: float, z: float) -> float:
    term = 1.0
    total = 1.0
    m = 0
    while True:
        term *= (h + m) / ((k + m) * (m + 1)) * z
        total += term
        m += 1
        if term <= SERIES_RTOL * total or m > 500:
            return total


def _kummer_asymptotic(h: float, k: float, z: float) -> float:
    """Large-z expansion with the e^z factor left out; z > SERIES_Z_MAX."""
    prefac = _gamma_half(int(round(2 * k))) / _gamma_half(int(round(2 * h)))
    term = 1.0
    total = 1.0
    m = 0
    n_terms = int(h) - 1 if h == int(h) else 200
    while m < n_terms:
        nxt = term * (k - h + m) * (1 - h + m) / ((m + 1) * z)
        if abs(nxt) >= abs(term):
            break  # past the smallest term; stop at optimal truncation
        term = nxt
        total += term
        m += 1
        if abs(term) <= SERIES_RTOL * abs(total):
            break
    return prefac * z ** (h - k) * total


def hyp1f1_half(h: float, k: float, z: float) -> float:
    """Kummer's 1F1(h; k; z) for 2h a positive integer, k in {1/2, 3/2}, z >= 0.

    Power series with all-positive terms for z <= SERIES_Z_MAX; otherwise the
    large-z expansion Gamma(k)/Gamma(h) e^z z^(h-k) sum_m (k-h)_m (1-h)_m / (m! z^m),
    which terminates for integer h and is truncated at its smallest term
    otherwise (the neglected reflection term is O(e^-z) relative).  The true
    value grows like e^z, so this overflows past z ~ 709; callers that pair
    1F1 with a decaying exponential should use hyp1f1_half_scaled instead.
    """
    _check_hyp_args(h, k, z)
    if z <= SERIES_Z_MAX:
        return _kummer_series(h, k, z)
    return math.exp(z) * _kummer_asymptotic(h, k, z)


def hyp1f1_half_scaled(h: float, k: float, z: float) -> float:
    """exp(-z) 1F1(h; k; z), finite for every admissible z.

    Same restrictions as hyp1f1_half; the scaling keeps density evaluations
    representable when the exponent z = b^2/a is in the thousands.
    """
    _check_hyp_args(h, k, z)
    if z <= SERIES_Z_MAX:
        return math.exp(-z) * _kummer_series(h, k, z)
    return _kummer_asymptotic(h, k, z)


@dataclass(frozen=True)
class MomentParams:
    """Parameters of the absolute-moment integral L_n(a, b)."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"quadratic coefficient a must be finite and > 0, got {self.a}")
        if not math.isfinite(self.b):
            raise ValueError(f"linear coefficient b must be finite, got {self.b}")
        if self.n < 0 or self.n != int(self.n):
            raise ValueError(f"moment order n must be a nonnegative integer, got {self.n}")


def moment_L(params: MomentParams) -> float:
    """Closed form of L_n(a, b) = int |l| l^n exp(-a l^2 + 2 b l) dl.

    Even n:  a^-(2+n)/2 Gamma((2+n)/2) 1F1((2+n)/2; 1/2; b^2/a)
    Odd n:  2 b a^-(3+n)/2 Gamma((3+n)/2) 1F1((3+n)/2; 3/2; b^2/a)
    """
    a, b, n = params.a, params.b, params.n
    z = b * b / a
    if n % 2 == 0:
        half = (2 + n) / 2.0
        return a**-half * _gamma_half(2 + n) * hyp1f1_half(half, 0.5, z)
    half = (3 + n) / 2.0
    return 2.0 * b * a**-half * _gamma_half(3 + n) * hyp1f1_half(half, 1.5, z)


def moment_recurrence(a, b):
    """Weights (W1, W2, W3, W4) with L3 = W1 L1 + W2 L2, L4 = W3 L1 + W4 L2.

    Valid for a > 0; accepts arrays elementwise.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0.0):
        raise ValueError("quadratic coefficient a must be > 0")
    w1 = 3.0 / (2.0 * a)
    w2 = b / a
    w3 = 3.0 * b / (2.0 * a**2)
    w4 = (2.0 * a + b * b) / a**2
    if a.ndim == 0 and b.ndim == 0:
        return float(w1), float(w2), float(w3), float(w4)
    return w1, w2, w3, w4


def _scaled_small_z(a, b, z):
    """exp(-z) * (L0, L1, L2) by the 1F1 power series; safe for z < ~700."""
    # three series share the loop; all terms positive, no cancellation
    t0 = np.ones_like(a)
    t1 = np.ones_like(a)
    t2 = np.ones_like(a)
    s0 = np.ones_like(a)
    s1 = np.ones_like(a)
    s2 = np.ones_like(a)
    m = 0
    while True:
        t0 = t0 * (1.0 + m) / ((0.5 + m) * (m + 1)) * z
        t1 = t1 * (2.0 + m) / ((1.5 + m) * (m + 1)) * z
        t2 = t2 * (2.0 + m) / ((0.5 + m) * (m + 1)) * z
        s0 += t0
        s1 += t1
        s2 += t2
        m += 1
        big = np.maximum(np.maximum(t0, t1), t2) <= SERIES_RTOL * np.minimum(np.minimum(s0, s1), s2)
        if np.all(big) or m > 800:
            break
    ez = np.exp(-z)
    lam0 = ez * s0 / a
    lam1 = ez * 2.0 * b * s1 / a**2
    lam2 = ez * s2 / a**2
    return lam0, lam1, lam2


def _scaled_large_z(a, b, z):
    """exp(-z) * (L0, L1, L2) for b >= 0 and large z via the one-sided integrals.

    J_m = exp(-z) int_0^inf l^m exp(-a l^2 + 2 b l) dl obeys
    J_0 = sqrt(pi)/(2 sqrt a) erfc(-b/sqrt a), J_1 = (b/a) J_0 + exp(-z)/(2a),
    J_m = ((m-1) J_{m-2} + 2 b J_{m-1}) / (2a); the mirror integral over
    (-inf, 0] is O(e^-z) relative and dropped (z >= SCALED_Z_SPLIT).
    """
    root_a = np.sqrt(a)
    j0 = _SQRT_PI / (2.0 * root_a) * _special.erfc(-b / root_a)
    ez = np.exp(-z)
    j1 = (b / a) * j0 + ez / (2.0 * a)
    j2 = (j0 + 2.0 * b * j1) / (2.0 * a)
    j3 = (2.0 * j1 + 2.0 * b * j2) / (2.0 * a)
    return j1, j2, j3


def scaled_moments(a, b):
    """exp(-b^2/a) * (L_0, L_1, L_2), elementwise, overflow-free for any b^2/a.

    L_n for n in {3, 4} is reachable through moment_recurrence; the scaled
    values are the stable building blocks for densities and derivatives.
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    scalar = a_arr.ndim == 0 and b_arr.ndim == 0
    a_arr, b_arr = np.broadcast_arrays(a_arr, b_arr)
    a_arr = np.ascontiguousarray(a_arr, dtype=float)
    b_arr = np.ascontiguousarray(b_arr, dtype=float)
    if np.any(a_arr <= 0.0):
        raise ValueError("quadratic coefficient a must be > 0")

    # parity: L_n(a, -b) = (-1)^n L_n(a, b); work with b >= 0
    sign = np.where(b_arr < 0.0, -1.0, 1.0)
    babs = np.abs(b_arr)
    z = babs * babs / a_arr

    lam0 = np.empty_like(a_arr)
    lam1 = np.empty_like(a_arr)
    lam2 = np.empty_like(a_arr)

    small = z < SCALED_Z_SPLIT
    if np.any(small):
        l0, l1, l2 = _scaled_small_z(a_arr[small], babs[small], z[small])
        lam0[small], lam1[small], lam2[small] = l0, l1, l2
    big = ~small
    if np.any(big):
        l0, l1, l2 = _scaled_large_z(a_arr[big], babs[big], z[big])
        lam0[big], lam1[big], lam2[big] = l0, l1, l2

    lam1 *= sign
    if scalar:
        return lam0.item(), lam1.item(), lam2.item()
    return lam0, lam1, lam2
