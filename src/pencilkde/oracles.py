"""Paper formulas that the tests and acceptance criteria 01-08 check the package against.

The estimator needs only the equal-variance erf form of the ratio density
with its derivatives, the diffusion coefficient at each eigenvalue and
eigenvalue-only QZ pairs. The paper's other forms prove its identities, and
live here: the full generalized Schur form of the Hankel pencil with its
residual diagnostics and the Vandermonde amplitude solve; the restricted
1F1 family, the moment integrals L_n, their exp-scaled values and their
recurrence; the general-covariance ratio density and the 1F1 forms of both
densities (Hinkley, Biometrika 1969), with their normalization integral;
the moment-integral form of the derivatives (h_t, h_x, h_xx), with the
moment-form coefficients and residual of the evolution equation; and the
expanded monomial coefficient arrays of that equation's polynomials P1..Q2,
beside their factored products. No module that a run, its emit or a
`pencilkde` subcommand loads imports this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pde import EPS_DENOM, SingularPointError, _q_coeffs, _residual_row
from .pencil import DecompositionError, RealPairs, _keep_real, _normalize_signs, _samples
from .ratio_density import TWO_PI, EqualVarSpec, density_equal_var
from .specfun import erf, erfc

__all__ = [
    "HankelPencil", "SchurPairs", "ExponentialFit", "build_pencil", "qz", "real_pairs",
    "vandermonde_solve", "hyp1f1_half", "hyp1f1_half_scaled", "MomentParams", "moment_L",
    "moment_recurrence", "scaled_moments",
    "GeneralGaussianSpec", "abc_general", "density_general", "density_general_hyp",
    "density_equal_var_hyp", "integrate_density", "g_coefficients", "residual",
]


@dataclass(frozen=True)
class HankelPencil:
    """Matrices (u1, u0) with constant anti-diagonals taken from one signal."""

    u0: np.ndarray
    u1: np.ndarray

    def __post_init__(self):
        for m in (self.u0, self.u1):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("pencil matrices must be square")
        if self.u0.shape != self.u1.shape:
            raise ValueError("pencil matrices must have equal shape")

    @property
    def p(self) -> int:
        return self.u0.shape[0]


@dataclass(frozen=True)
class SchurPairs:
    """Diagonal pairs of the real generalized Schur form, sign-normalized.

    is_real marks 1x1 diagonal blocks; positions covered by a 2x2 block (a
    complex-conjugate eigenvalue pair) are False and keep their raw values.
    """

    s: np.ndarray
    t: np.ndarray
    is_real: np.ndarray
    q_orth_residual: float
    structure_residual: float


@dataclass(frozen=True)
class ExponentialFit:
    """Recovered decay ratios and amplitudes of a multiexponential signal."""

    zeta: np.ndarray
    f: np.ndarray


def build_pencil(data: np.ndarray) -> HankelPencil:
    """Hankel pencil of an even-length sample vector (n = 2p >= 2)."""
    d = _samples(data)
    p = d.size // 2
    ij = np.add.outer(np.arange(p), np.arange(p))
    return HankelPencil(u0=d[ij], u1=d[ij + 1])


def _real_mask_from_subdiag(s_mat: np.ndarray) -> np.ndarray:
    p = s_mat.shape[0]
    is_real = np.ones(p, dtype=bool)
    k = 0
    while k < p - 1:
        if s_mat[k + 1, k] != 0.0:
            is_real[k] = is_real[k + 1] = False
            k += 2
        else:
            k += 1
    return is_real


def qz(pencil: HankelPencil) -> SchurPairs:
    """Real generalized Schur decomposition U1 = Q S Z^T, U0 = Q T Z^T.

    Returns the diagonal pairs with realness flags and residual diagnostics:
    the worst orthogonality defect of Q and Z, and the relative
    reconstruction error of both matrices. It reduces as real_pairs_fast
    does, through the complete QR K = Q_K R of the Hankel data matrix, runs
    scipy's qz on (R[:, 1:], R[:, :p]) and composes Q = Q_K Q'. The residuals
    are still those of the pencil's own matrices, and the diagonal pairs are
    bit for bit those of real_pairs_fast at every p, unless scipy's dgges
    first permutes the reduced pencil, which takes exact zeros in it: 7 of
    3,000 random pencils (p <= 6) with half their samples 0.0 gave other
    pairs, with the same counts; no record of the paper's configs did.
    """
    from scipy.linalg import qz as scipy_qz  # only checks call qz: a run never loads scipy.linalg

    p = pencil.p
    q_k, r = np.linalg.qr(np.hstack([pencil.u0, pencil.u1[:, -1:]]), mode="complete")
    try:
        s_mat, t_mat, q, z = scipy_qz(r[:, 1:], r[:, :p], output="real", lwork=8 * p + 16)
    except Exception as exc:  # scipy raises LinAlgError-ish on no convergence
        raise DecompositionError(f"generalized Schur iteration failed: {exc}") from exc
    q = q_k @ q

    eye = np.eye(p)
    q_orth = max(
        np.linalg.norm(q.T @ q - eye, "fro"), np.linalg.norm(z.T @ z - eye, "fro")
    )
    norm = np.linalg.norm(pencil.u1, "fro") + np.linalg.norm(pencil.u0, "fro")
    recon = np.linalg.norm(pencil.u1 - q @ s_mat @ z.T, "fro") + np.linalg.norm(
        pencil.u0 - q @ t_mat @ z.T, "fro"
    )
    structure = recon / norm if norm > 0.0 else recon

    is_real = _real_mask_from_subdiag(s_mat)
    s_diag, t_diag = _normalize_signs(np.diag(s_mat).copy(), np.diag(t_mat).copy(), is_real)
    return SchurPairs(
        s=s_diag,
        t=t_diag,
        is_real=is_real,
        q_orth_residual=float(q_orth),
        structure_residual=float(structure),
    )


def real_pairs(pairs: SchurPairs) -> RealPairs:
    """Keep finite real pairs; count discarded complex and infinite ones."""
    return _keep_real(pairs.s, pairs.t, pairs.is_real)


def vandermonde_solve(xi: np.ndarray, samples: np.ndarray) -> ExponentialFit:
    """Amplitudes f with sum_j f_j xi_j^k = samples[k], k = 0..p-1.

    xi must be distinct; the solve uses the square Vandermonde system on the
    first p samples and checks its residual.
    """
    xi = np.asarray(xi, dtype=float)
    samples = np.asarray(samples, dtype=float)
    p = xi.size
    if p == 0:
        raise ValueError("need at least one ratio")
    if samples.size < p:
        raise ValueError(f"need at least {p} samples, got {samples.size}")
    order = np.sort(xi)
    if p > 1 and np.min(np.diff(order)) < 1e-12:
        raise ValueError("ratios closer than 1e-12 make the system singular")
    v = np.vander(xi, N=p, increasing=True).T  # v[k, j] = xi_j^k
    rhs = samples[:p]
    f = np.linalg.solve(v, rhs)
    resid = np.linalg.norm(v @ f - rhs)
    scale = np.linalg.norm(rhs)
    if not np.all(np.isfinite(f)) or resid > 1e-8 * max(scale, 1.0):
        raise ValueError(f"vandermonde solve ill-conditioned: residual {resid:.3e}")
    return ExponentialFit(zeta=xi, f=f)


# term-ratio stopping criterion for the power series
SERIES_RTOL = 1e-16
# power series below this, terminating asymptotic expansion above
SERIES_Z_MAX = 30.0
# exp-scaled moment kernel: erfc-recursion branch above this b^2/a
SCALED_Z_SPLIT = 40.0

_SQRT_PI = math.sqrt(math.pi)


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


def _abc_equal_var(x, t, nu_v, nu_w, rho) -> tuple:
    """Exponent coefficients (a, b, c) of the equal-variance family; broadcasts."""
    denom = 2.0 * (1.0 - rho * rho) * t
    a = (1.0 - 2.0 * rho * x + x * x) / denom
    b = (nu_v - rho * nu_w + (nu_w - rho * nu_v) * x) / denom
    c = (nu_v * nu_v - 2.0 * rho * nu_w * nu_v + nu_w * nu_w) / denom
    return a, b, c


def density_equal_var_hyp(spec: EqualVarSpec, x) -> float:
    """1F1 form of the equal-variance density (cross-check path; scalar x)."""
    a, b, c = _abc_equal_var(float(x), spec.t, spec.nu_v, spec.nu_w, spec.rho)
    return _density_hyp(a, b, c, (1.0 - spec.rho * spec.rho) * spec.t * spec.t)


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
    # P3 = (1 - 2 r x + x^2)^2 * cubic
    cubic = np.array([nw * (1.0 - 2.0 * r * r) + nv * r, 2.0 * nw * r - 2.0 * nv, -nw + nv * r])
    p3 = pm(pm(quad, quad), cubic)
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


def residual(spec: EqualVarSpec, x) -> float:
    """h_t - (d/dx[D h_x] + C h_x + S h) at scalar x; ~0 away from singular tubes."""
    return _residual_row(spec, x)[5]
