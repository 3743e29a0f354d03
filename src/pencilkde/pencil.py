"""Hankel matrix pencil of a sampled signal and its generalized Schur pairs.

A length-2p sample vector d fills two p x p Hankel matrices U0[i,j] = d[i+j]
and U1[i,j] = d[i+j+1].  The generalized eigenvalues of (U1, U0) estimate the
decay ratios of a multiexponential signal; the real diagonal pairs
(s_kk, t_kk) of the generalized Schur form carry amplitude information and
feed the downstream density estimators.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .specfun import SCIPY_DIR

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
    "DGGEV",
    "one_blas_thread",
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


class RealPairs(NamedTuple):
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
    ij = np.add.outer(np.arange(p), np.arange(p))
    return HankelPencil(u0=d[ij], u1=d[ij + 1])


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
    from scipy.linalg import qz as _qz  # only checks call qz: a run never loads scipy.linalg

    p = pencil.p
    try:
        s_mat, t_mat, q, z = _qz(pencil.u1, pencil.u0, output="real", lwork=8 * p + 16)
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


# LAPACK dggev, bound once per process, from an OpenBLAS numpy or scipy ships. numpy's
# wheels (numpy >= 2) link an ILP64 OpenBLAS that exports it as scipy_dggev_64_, and
# numpy has mapped that library already; scipy's wheels vendor an LP64 one, the only
# GIL-free dggev beside older numpy. Called through ctypes, dggev releases the GIL,
# so records decompose in parallel on threads, and no process has to import
# scipy.linalg (about 6 MiB) for it. Without either library, f2py's wrapper, which
# holds the GIL, is the fallback.

_NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"
# (directory, file pattern, symbol suffix, LAPACK's integer) of each library, in the
# order tried: the first that exports dggev and the thread count calls is bound
_OPENBLAS_LIBS = (
    (_NUMPY_LIBS, "libscipy_openblas64_*.so*", "64_", np.int64),
    (None if SCIPY_DIR is None else SCIPY_DIR.parent / "scipy.libs",
     "libscipy_openblas*.so*", "", np.intc),
)


class _OpenBLAS(NamedTuple):
    """The dggev, thread count calls and LAPACK integer type of one OpenBLAS library."""

    path: Path
    dggev: object
    get_num_threads: object
    set_num_threads: object
    integer: type


def _load_openblas(candidates):
    """The first library of candidates whose symbols, suffixed, export dggev; or None.

    candidates are (directory, file pattern, symbol suffix, LAPACK's integer)
    tuples, as _OPENBLAS_LIBS; a directory of None has no library.
    """
    for libs, pattern, suffix, integer in candidates:
        for path in sorted(libs.glob(pattern)) if libs is not None else ():
            try:
                lib = ctypes.CDLL(str(path))
                fns = [getattr(lib, f"scipy_{name}{suffix}") for name in
                       ("dggev_", "openblas_get_num_threads", "openblas_set_num_threads")]
            except (OSError, AttributeError):
                continue
            get, set_ = fns[1:]
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return _OpenBLAS(path, *fns, integer)
    return None


def _ctypes_dggev(fn, integer: type):
    """dggev(a, b) -> (alphar, alphai, beta, info) through LAPACK's symbol fn.

    a and b are C-ordered, symmetric p x p float64 arrays, so their C order is
    their Fortran order; dggev overwrites them. LAPACK's integers are of the
    numpy type integer: int64 in an ILP64 library, C int otherwise. JOBVL =
    JOBVR = 'N' and lwork = 8p, the minimal workspace f2py's wrapper passes by
    default: the bits depend on it. Each thread keeps its own workspace.
    """
    ptr = ctypes.c_void_p
    # 17 Fortran arguments by reference, then the two hidden string lengths
    fn.argtypes = [ctypes.c_char_p] * 2 + [ptr] * 15 + [ctypes.c_size_t] * 2
    fn.restype = None
    local = threading.local()

    def dggev(a, b):
        p = a.shape[0]
        for m in (a, b):
            if not (m.dtype == np.float64 and m.shape == (p, p)
                    and m.flags.c_contiguous and m.flags.writeable):
                raise ValueError("dggev needs writeable C-contiguous float64 p x p matrices")
        if getattr(local, "p", None) != p:
            # this thread's n, lwork, ldvl = ldvr and info, then work (8p) and the
            # never-referenced vl = vr; local keeps them, so their addresses hold
            ints = np.array([p, 8 * p, 1, 0], dtype=integer)
            work = np.empty(9 * p)
            n, lwork, ldv, info = (ints.ctypes.data + k * ints.itemsize for k in range(4))
            w = work.ctypes.data
            local.p, local.ints, local.work = p, ints, work
            local.args = (n, ldv, w + 8 * p * work.itemsize, w, lwork, info)
        n, ldv, v, w, lwork, info = local.args
        out = np.empty((3, p))  # alphar, alphai, beta
        o, row = out.ctypes.data, p * out.itemsize
        fn(b"N", b"N", n, a.ctypes.data, n, b.ctypes.data, n, o, o + row, o + 2 * row,
           v, ldv, v, ldv, w, lwork, info, 1, 1)
        return out[0], out[1], out[2], int(local.ints[3])

    return dggev


def _f2py_dggev(a, b):
    """dggev(a, b) -> (alphar, alphai, beta, info) through scipy.linalg.lapack."""
    from scipy.linalg import lapack  # loaded only where the ctypes binding is missing

    ar, ai, beta, _, _, _, info = lapack.dggev(a, b, compute_vl=0, compute_vr=0)
    return ar, ai, beta, info


def _bind_dggev(blas: _OpenBLAS | None) -> tuple:
    """(dggev, binding name): blas's dggev through ctypes, or f2py's without a library."""
    if blas is None:
        return _f2py_dggev, "f2py"
    return _ctypes_dggev(blas.dggev, blas.integer), "ctypes"


_openblas = _load_openblas(_OPENBLAS_LIBS)
# DGGEV names the binding real_pairs_fast calls: "ctypes" (GIL-free) or "f2py"
_dggev, DGGEV = _bind_dggev(_openblas)


@contextmanager
def one_blas_thread():
    """Pin the bound OpenBLAS to one thread inside the context, then restore its count.

    Threads that each run a QZ must not also split their BLAS calls, and a
    matrix product must not depend on the machine's thread count: with
    numpy's library bound, numpy's own products run on it too. Without a
    library this does nothing: the f2py binding runs serially.
    """
    blas = _openblas
    if blas is None:
        yield
        return
    old = blas.get_num_threads()
    blas.set_num_threads(1)
    try:
        yield
    finally:
        blas.set_num_threads(old)


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
    # build_pencil's arrays are fresh, so dggev may overwrite them
    ar, ai, beta, info = _dggev(pencil.u1, pencil.u0)
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
