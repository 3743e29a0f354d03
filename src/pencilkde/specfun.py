"""Scalar special functions and Gaussian-weighted absolute-moment integrals.

Everything downstream (densities, their closed-form derivatives, the PDE
coefficients) is assembled from the integrals

    L_n(a, b) = int_R |l| l^n exp(-a l^2 + 2 b l) dl,   a > 0,

which reduce to confluent hypergeometric functions 1F1 with second parameter
1/2 or 3/2.  This module evaluates the exp-scaled L_0, L_1, L_2 and the
recurrence weights that express L_3, L_4 through L_1, L_2; the restricted
1F1 family and the L_n closed forms, which only checks use, are in `oracles`.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from pathlib import Path

import numpy as np

# term-ratio stopping criterion for the power series
SERIES_RTOL = 1e-16
# exp-scaled moment kernel: erfc-recursion branch above this b^2/a
SCALED_Z_SPLIT = 40.0

_SQRT_PI = math.sqrt(math.pi)

# scipy's package directory, found without importing scipy
_spec = importlib.util.find_spec("scipy")
SCIPY_DIR = None if _spec is None or _spec.origin is None else Path(_spec.origin).parent


def _load_erf() -> tuple:
    """(erf, erfc, ERF): scipy.special's ufuncs from its extension _special_ufuncs alone.

    That costs about 1 MiB, importing scipy.special about 24 MiB. ERF is "extension",
    or "scipy.special" where that file is missing (older scipy keeps erf in _ufuncs).
    """
    name, root = "scipy.special._special_ufuncs", SCIPY_DIR
    paths = [root / "special" / f"_special_ufuncs{x}" for x in EXTENSION_SUFFIXES] if root else []
    try:
        module = sys.modules.get(name)
        if module is None:
            loader = ExtensionFileLoader(name, str(next(p for p in paths if p.is_file())))
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            # creating a single-phase extension module registers it, but a later import of
            # scipy.special would then not bind it as its attribute; unregistered, that
            # import takes it from the interpreter's cache of this module, same ufuncs
            sys.modules.pop(name, None)
        return module.erf, module.erfc, "extension"
    except (StopIteration, ImportError, AttributeError):
        from scipy.special import erf, erfc
        return erf, erfc, "scipy.special"


erf, erfc, ERF = _load_erf()


def scipy_version() -> str:
    """scipy.__version__, from running scipy/version.py alone, where scipy takes it from.

    Importing the bare scipy package for it would cost about 1.4 MiB.
    """
    path = None if SCIPY_DIR is None else SCIPY_DIR / "version.py"
    if path is None or not path.is_file():
        return __import__("scipy").__version__
    spec = importlib.util.spec_from_file_location("_scipy_version", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.version


__all__ = [
    "moment_recurrence",
    "scaled_moments",
]


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
    j0 = _SQRT_PI / (2.0 * root_a) * erfc(-b / root_a)
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
