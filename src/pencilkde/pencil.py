"""Hankel matrix pencil of a sampled signal and its generalized Schur pairs.

A length-2p sample vector d fills two p x p Hankel matrices U0[i,j] = d[i+j]
and U1[i,j] = d[i+j+1].  The generalized eigenvalues of (U1, U0) estimate the
decay ratios of a multiexponential signal; the real diagonal pairs
(s_kk, t_kk) of the generalized Schur form carry amplitude information and
feed the downstream density estimators.

U0 and U1 are the first and last p columns of one p x (p+1) Hankel matrix
K[i,j] = d[i+j], so one QR of K, Q^T K = R, reduces the pencil to
Hessenberg-triangular form: Q^T U1 = R[:, 1:] is upper Hessenberg and
Q^T U0 = R[:, :p] upper triangular (the shift structure of the matrix pencil
method, Hua & Sarkar 1990).  The QZ iteration (Moler & Stewart 1973) runs on
that pencil directly, with no second reduction.

The eigenvalues do not depend on the reduction, but the pairs (s_kk, t_kk)
are not unique: they depend on the order in which QZ deflates, and that
order follows the reduction.  Against LAPACK dggev on (U1, U0), which
reduces by its own QR and Givens sweep, real, complex and infinite counts
agreed on every record checked, and real ratios inside the window agreed to
5.7e-14 relative on 200 model1 records and 2.1e-7 on 40 model2 records
(seed 3); but on model1 seed 0, record 1, the real eigenvalue 0.8124 has
t = 0.4088 there and 0.4855 here, so rho_hat moves at its 5th-6th digit.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "RealPairs",
    "DecompositionError",
    "real_pairs_fast",
    "QZ",
    "one_blas_thread",
]


class DecompositionError(RuntimeError):
    """QZ iteration failed to converge."""


class RealPairs(NamedTuple):
    """Real pairs kept after discarding complex blocks and infinite ratios."""

    s: np.ndarray
    t: np.ndarray
    ratio: np.ndarray
    n_complex: int
    n_infinite: int


def _samples(data: np.ndarray) -> np.ndarray:
    """data as a float vector, checked: one-dimensional, finite, of even length 2p >= 2."""
    d = np.asarray(data, dtype=float)
    if d.ndim != 1:
        raise ValueError("data must be one-dimensional")
    n = d.size
    if n < 2 or n % 2 != 0:
        raise ValueError(f"data length must be even and >= 2, got {n}")
    if not np.all(np.isfinite(d)):
        raise ValueError("data must be finite")
    return d


def _normalize_signs(s_diag, t_diag, is_real):
    flip = is_real & (t_diag < 0.0)
    sign = np.where(flip, -1.0, 1.0)
    return s_diag * sign, t_diag * sign


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


# LAPACK dhgeqz, the QZ iteration on a Hessenberg-triangular pencil, bound once per
# process from the ILP64 OpenBLAS that numpy's wheels link
# (numpy.libs/libscipy_openblas64_*.so, symbol scipy_dhgeqz_64_), which numpy has
# mapped already. Called through ctypes, dhgeqz releases the GIL, so records decompose
# in parallel on threads, and no process has to import scipy.linalg (about 6 MiB) for
# it. Without that library (macOS, Windows and conda builds), f2py's dgges, which
# holds the GIL, is the fallback.

_NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"


class _OpenBLAS(NamedTuple):
    """One OpenBLAS library: its dhgeqz through ctypes and its thread count calls."""

    path: Path
    dhgeqz: object
    get_num_threads: object
    set_num_threads: object


def _ctypes_dhgeqz(fn):
    """dhgeqz(h, t) -> (alphar, alphai, beta, info) through LAPACK's ILP64 symbol fn.

    h (upper Hessenberg) and t (upper triangular) are F-ordered p x p float64
    arrays, which dhgeqz overwrites. JOB = 'E' (eigenvalues only: the
    iteration updates only the active block), COMPQ = COMPZ = 'N', ILO = 1,
    IHI = p and LWORK = p.
    """
    ptr = ctypes.c_void_p
    # 20 Fortran arguments by reference, then the three hidden string lengths
    fn.argtypes = [ctypes.c_char_p] * 3 + [ptr] * 17 + [ctypes.c_size_t] * 3
    fn.restype = None

    def dhgeqz(h, t):
        p = h.shape[0]
        for m in (h, t):
            if not (m.dtype == np.float64 and m.shape == (p, p)
                    and m.flags.f_contiguous and m.flags.writeable):
                raise ValueError("dhgeqz needs writeable F-contiguous float64 p x p matrices")
        ints = np.array([p, 1, 0], dtype=np.int64)  # n = ihi = ldh = ldt = lwork, ilo = ldq, info
        n, one, info = (ints.ctypes.data + 8 * k for k in range(3))
        # alphar, alphai and beta, then work (p), which also stands for the unused q = z
        out = np.empty((4, p))
        o, row = out.ctypes.data, 8 * p
        fn(b"E", b"N", b"N", n, one, n, h.ctypes.data, n, t.ctypes.data, n, o, o + row,
           o + 2 * row, o + 3 * row, one, o + 3 * row, one, o + 3 * row, n, info, 1, 1, 1)
        return out[0], out[1], out[2], int(ints[2])

    return dhgeqz


def _load_openblas(libs: Path = _NUMPY_LIBS) -> _OpenBLAS | None:
    """The first OpenBLAS in libs that exports dhgeqz and the thread count calls; or None."""
    for path in sorted(libs.glob("libscipy_openblas64_*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
            dhgeqz, get, set_ = [getattr(lib, f"scipy_{name}64_") for name in
                                 ("dhgeqz_", "openblas_get_num_threads", "openblas_set_num_threads")]
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return _OpenBLAS(path, _ctypes_dhgeqz(dhgeqz), get, set_)
    return None


def _f2py_dgges(h, t):
    """(alphar, alphai, beta, info) of the pencil (h, t) by scipy.linalg.lapack's dgges.

    dgges reduces (h, t) again, which leaves a Hessenberg-triangular pencil as
    it is, and runs the same QZ iteration, with LAPACK's minimal workspace:
    the same bits as dhgeqz unless its balancing permutes a pencil with exact
    zeros (see oracles.qz).
    """
    from scipy.linalg import lapack  # loaded only where the ctypes binding is missing

    p = h.shape[0]
    res = lapack.dgges(lambda ar, ai, b: 0, h, t, jobvsl=0, jobvsr=0, lwork=8 * p + 16,
                       overwrite_a=1, overwrite_b=1)
    return res[3], res[4], res[5], res[-1]


_openblas = _load_openblas()
# QZ names the binding real_pairs_fast calls: "ctypes" (dhgeqz, GIL-free) or "f2py" (dgges)
_qz, QZ = (_f2py_dgges, "f2py") if _openblas is None else (_openblas.dhgeqz, "ctypes")


# one_blas_thread's pins that are open, and the thread count the first saved
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 0


@contextmanager
def one_blas_thread():
    """Pin the bound OpenBLAS to one thread inside the context, then restore its count.

    Threads that each run a QZ must not also split their BLAS calls, and a
    matrix product must not depend on the machine's thread count: the bound
    library is numpy's, so numpy's own products run on it too. The count is
    the process's, so pins that overlap share one: the first to enter saves
    the count and pins, and the last to leave restores it. Without a library
    this does nothing: the f2py binding runs serially.
    """
    global _pin_depth, _pin_saved
    blas = _openblas
    if blas is None:
        yield
        return
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = blas.get_num_threads()
            blas.set_num_threads(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                blas.set_num_threads(_pin_saved)


def real_pairs_fast(data: np.ndarray) -> RealPairs:
    """oracles.build_pencil + qz + real_pairs from one QR and an eigenvalue-only QZ.

    The data are checked as build_pencil checks them. One QR of the Hankel
    data matrix K[i,j] = d[i+j] (p x (p+1), a view of d) gives R, and the QZ
    iteration runs on the Hessenberg-triangular pencil (R[:, 1:], R[:, :p]),
    which is the pencil (U1, U0) rotated by Q^T (module docstring). With
    job 'E' it updates only the active block and forms neither Schur vectors
    nor the rest of S and T; the diagonal arithmetic is the same, so
    (alphar, beta), with alphai != 0 marking 2x2 complex blocks, are bit for
    bit the diagonal pairs of the real generalized Schur form that qz
    computes by the same QR (qz says when they are not); only the residual
    diagnostics are skipped.
    """
    d = _samples(data)
    p = d.size // 2
    r = np.linalg.qr(sliding_window_view(d, p + 1)[:p], mode="r")
    ar, ai, beta, info = _qz(r[:, 1:].copy(order="F"), r[:, :p].copy(order="F"))
    if info != 0:
        raise DecompositionError(f"generalized Schur iteration failed: QZ info={info}")
    is_real = ai == 0.0
    s_diag, t_diag = _normalize_signs(ar, beta, is_real)
    return _keep_real(s_diag, t_diag, is_real)
