"""Hankel matrix pencil of a sampled signal and its generalized Schur pairs.

A length-2p sample vector d fills two p x p Hankel matrices U0[i,j] = d[i+j]
and U1[i,j] = d[i+j+1].  The generalized eigenvalues of (U1, U0) estimate the
decay ratios of a multiexponential signal; the real diagonal pairs
(s_kk, t_kk) of the generalized Schur form carry amplitude information and
feed the downstream density estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as _sla
from scipy.linalg import lapack as _lapack

__all__ = [
    "HankelPencil",
    "SchurPairs",
    "RealPairs",
    "ExponentialFit",
    "DecompositionError",
    "build_pencil",
    "qz",
    "real_pairs",
    "real_pairs_fast",
    "vandermonde_solve",
    "error_scale",
]


class DecompositionError(RuntimeError):
    """QZ iteration failed to converge."""


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
class RealPairs:
    """Real pairs kept after discarding complex blocks and infinite ratios."""

    s: np.ndarray
    t: np.ndarray
    ratio: np.ndarray
    n_complex: int
    n_infinite: int


@dataclass(frozen=True)
class ExponentialFit:
    """Recovered decay ratios and amplitudes of a multiexponential signal."""

    zeta: np.ndarray
    f: np.ndarray


def build_pencil(data: np.ndarray) -> HankelPencil:
    """Hankel pencil of an even-length sample vector (n = 2p >= 2)."""
    d = np.asarray(data, dtype=float)
    if d.ndim != 1:
        raise ValueError("data must be one-dimensional")
    n = d.size
    if n < 2 or n % 2 != 0:
        raise ValueError(f"data length must be even and >= 2, got {n}")
    if not np.all(np.isfinite(d)):
        raise ValueError("data must be finite")
    p = n // 2
    u0 = _sla.hankel(d[:p], d[p - 1 : n - 1])
    u1 = _sla.hankel(d[1 : p + 1], d[p:n])
    return HankelPencil(u0=u0, u1=u1)


def _normalize_signs(s_diag, t_diag, is_real):
    flip = is_real & (t_diag < 0.0)
    sign = np.where(flip, -1.0, 1.0)
    return s_diag * sign, t_diag * sign


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
    reconstruction error of both matrices. The workspace is LAPACK's minimal
    one, so the diagonal pairs are bit for bit those of real_pairs_fast at
    every p; the optimal workspace switches to blocked reductions from
    p = 128 on, which changes their last bits.
    """
    p = pencil.p
    try:
        s_mat, t_mat, q, z = _sla.qz(pencil.u1, pencil.u0, output="real", lwork=8 * p + 16)
    except Exception as exc:  # scipy raises LinAlgError-ish on no convergence
        raise DecompositionError(f"generalized Schur iteration failed: {exc}") from exc

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


def _keep_real(s: np.ndarray, t: np.ndarray, is_real: np.ndarray) -> RealPairs:
    n_complex = int(np.count_nonzero(~is_real))
    s = s[is_real]
    t = t[is_real]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = s / t
    finite = np.isfinite(ratio)
    return RealPairs(
        s=s[finite],
        t=t[finite],
        ratio=ratio[finite],
        n_complex=n_complex,
        n_infinite=int(np.count_nonzero(~finite)),
    )


def real_pairs(pairs: SchurPairs) -> RealPairs:
    """Keep finite real pairs; count discarded complex and infinite ones."""
    return _keep_real(pairs.s, pairs.t, pairs.is_real)


def real_pairs_fast(data: np.ndarray) -> RealPairs:
    """build_pencil + qz + real_pairs from an eigenvalue-only QZ.

    LAPACK dggev without eigenvectors permutes and reduces the pencil as the
    generalized Schur routine does, then runs the QZ iteration with job 'E':
    it updates only the active block and forms neither Schur vectors nor the
    rest of S and T.  The diagonal arithmetic is the same, so (alphar, beta),
    with alphai != 0 marking 2x2 complex blocks, are bit for bit the diagonal
    pairs of the real generalized Schur form; only the residual diagnostics
    are skipped.  The bits depend on dggev's default minimal workspace: an
    optimal lwork switches LAPACK to blocked reductions for p >= 128.  qz
    passes the same minimal workspace, so its pairs equal these at every p.
    """
    pencil = build_pencil(data)
    ar, ai, beta, _, _, _, info = _lapack.dggev(
        pencil.u1, pencil.u0, compute_vl=0, compute_vr=0
    )
    if info != 0:
        raise DecompositionError(f"generalized Schur iteration failed: dggev info={info}")
    is_real = ai == 0.0
    s_diag, t_diag = _normalize_signs(ar, beta, is_real)
    return _keep_real(s_diag, t_diag, is_real)


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


def error_scale(f: np.ndarray, zeta: np.ndarray, sigma: float) -> float:
    """Ill-posedness scalar sigma^2 / (prod_i f_i * prod_{i<j} (zeta_i - zeta_j)^6).

    Grows without bound as decay ratios coalesce; duplicate ratios give +inf.
    """
    f = np.asarray(f, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if f.size != zeta.size or f.size == 0:
        raise ValueError("f and zeta must be equal-length, nonempty")
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    denom = float(np.prod(f))
    for i in range(zeta.size):
        for j in range(i + 1, zeta.size):
            denom *= (zeta[i] - zeta[j]) ** 6
    if denom == 0.0:
        return math.inf
    return sigma * sigma / denom
