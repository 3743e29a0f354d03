"""Hankel pencils, QZ diagonal pairs, and the Vandermonde back-solve."""

import ctypes
import importlib.util
import shutil
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from pencilkde import pencil
from pencilkde.harness import ExperimentConfig
from pencilkde.multiexp import generate, noiseless
from pencilkde.oracles import build_pencil, qz, real_pairs, vandermonde_solve
from pencilkde.pencil import real_pairs_fast

MODEL1_ZETA = np.array([0.8, 0.9, 0.95])
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def model1_data():
    return noiseless(MODEL1_ZETA, np.ones(3), 6)


class TestBuildPencil:
    def test_scalar_case(self):
        p = build_pencil(np.array([1.0, 0.9]))
        assert p.u0.tolist() == [[1.0]]
        assert p.u1.tolist() == [[0.9]]
        assert p.p == 1

    def test_two_by_two_layout(self):
        d = np.array([1.0, 2.0, 3.0, 4.0])
        p = build_pencil(d)
        assert p.u0.tolist() == [[1.0, 2.0], [2.0, 3.0]]
        assert p.u1.tolist() == [[2.0, 3.0], [3.0, 4.0]]

    def test_model1_vandermonde_factorization(self):
        p = build_pencil(model1_data())
        v = np.vander(MODEL1_ZETA, 3, increasing=True).T
        assert np.allclose(p.u0, v @ np.eye(3) @ v.T, rtol=1e-13)
        assert np.allclose(p.u1, v @ np.diag(MODEL1_ZETA) @ v.T, rtol=1e-13)

    def test_rejects_odd_or_empty(self):
        with pytest.raises(ValueError):
            build_pencil(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            build_pencil(np.array([]))
        with pytest.raises(ValueError):
            build_pencil(np.array([1.0, np.nan]))

    @given(st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_hankel_structure(self, p_size):
        rng = np.random.default_rng(p_size)
        d = rng.standard_normal(2 * p_size)
        pencil = build_pencil(d)
        for i in range(p_size):
            for j in range(p_size):
                assert pencil.u0[i, j] == d[i + j]
                assert pencil.u1[i, j] == d[i + j + 1]


class TestQz:
    def test_scalar_pencil(self):
        pairs = qz(build_pencil(np.array([1.0, 0.9])))
        rp = real_pairs(pairs)
        assert rp.ratio.tolist() == pytest.approx([0.9], rel=1e-14)

    def test_two_exponential_quadratic_oracle(self):
        zeta = np.array([0.4, 0.7])
        d = noiseless(zeta, np.array([1.0, 2.0]), 4)
        pencil = build_pencil(d)
        # det(U1 - x U0) = 0 expanded as an explicit quadratic
        a = np.linalg.det(pencil.u0)
        b = -(pencil.u1[0, 0] * pencil.u0[1, 1] + pencil.u0[0, 0] * pencil.u1[1, 1]
              - pencil.u1[0, 1] * pencil.u0[1, 0] - pencil.u0[0, 1] * pencil.u1[1, 0])
        c = np.linalg.det(pencil.u1)
        roots = np.sort(np.roots([a, b, c]))
        got = np.sort(real_pairs(qz(pencil)).ratio)
        assert got == pytest.approx(roots, rel=1e-10)

    def test_model1_eigenvalues(self):
        got = np.sort(real_pairs(qz(build_pencil(model1_data()))).ratio)
        assert got == pytest.approx(MODEL1_ZETA, abs=1e-8)

    def test_residuals_and_sign_normalization(self, rng):
        for _ in range(30):
            p_size = int(rng.integers(1, 9))
            d = rng.standard_normal(2 * p_size)
            pairs = qz(build_pencil(d))
            assert pairs.q_orth_residual <= 1e-12 * p_size
            assert pairs.structure_residual <= 1e-10
            assert np.all(pairs.t[pairs.is_real] >= 0.0)

    def test_decaying_exponential_pencils(self, rng):
        # badly row-scaled Hankel matrices from the intended use case
        for _ in range(10):
            p_size = int(rng.integers(2, 6))
            zeta = np.sort(rng.uniform(0.3, 0.97, p_size))
            if np.min(np.diff(zeta)) < 0.02:
                continue
            d = noiseless(zeta, rng.uniform(0.5, 2.0, p_size), 2 * p_size)
            pairs = qz(build_pencil(d))
            assert pairs.q_orth_residual <= 1e-12 * p_size
            assert pairs.structure_residual <= 1e-10


class TestRealPairs:
    def test_all_real_passthrough(self):
        pairs = qz(build_pencil(model1_data()))
        rp = real_pairs(pairs)
        assert rp.n_complex == 0
        assert rp.n_infinite == 0
        assert rp.ratio.size == 3

    def test_complex_pair_excluded(self):
        # d = [1, 0, -1, 0]: det(U1 - x U0) = -(x^2 + 1), eigenvalues +-i
        rp = real_pairs(qz(build_pencil(np.array([1.0, 0.0, -1.0, 0.0]))))
        assert rp.n_complex == 2
        assert rp.ratio.size == 0

    def test_infinite_eigenvalue_counted(self):
        # singular U0 with det(U1 - x U0) constant: no finite eigenvalues
        rp = real_pairs(qz(build_pencil(np.array([0.0, 0.0, 1.0, 0.0]))))
        assert rp.n_infinite >= 1
        assert rp.ratio.size + rp.n_complex + rp.n_infinite == 2

    def test_fast_path_matches_full_path(self, rng):
        for _ in range(20):
            p_size = int(rng.integers(1, 7))
            d = rng.standard_normal(2 * p_size)
            full = real_pairs(qz(build_pencil(d)))
            fast = real_pairs_fast(d)
            assert np.array_equal(full.s, fast.s)
            assert np.array_equal(full.t, fast.t)
            assert np.array_equal(full.ratio, fast.ratio)
            assert (full.n_complex, full.n_infinite) == (fast.n_complex, fast.n_infinite)


def _reduced(d):
    """(Q_K, H, T): the complete QR K = Q_K R of the Hankel data matrix K[i,j] = d[i+j],
    and the F-ordered Hessenberg-triangular pencil (R[:, 1:], R[:, :p]) it gives."""
    pen = build_pencil(d)
    q_k, r = np.linalg.qr(np.hstack([pen.u0, pen.u1[:, -1:]]), mode="complete")
    return q_k, np.asfortranarray(r[:, 1:]), np.asfortranarray(r[:, :pen.p])


def _dgges_raw(a, b):
    """(alphar, alphai, beta) of LAPACK's Schur-form routine dgges, minimal workspace."""
    p = a.shape[0]
    res = lapack.dgges(lambda ar, ai, b: 0, a, b, jobvsl=0, jobvsr=0, lwork=8 * p + 16)
    assert res[-1] == 0
    return res[3], res[4], res[5]


def _pairs_from_raw(ar, ai, beta):
    """(s, t, ratio, n_complex, n_infinite) as real_pairs_fast keeps them."""
    is_real = ai == 0.0
    sign = np.where(is_real & (beta < 0.0), -1.0, 1.0)
    s = (ar * sign)[is_real]
    t = (beta * sign)[is_real]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = s / t
    finite = np.isfinite(ratio)
    n_complex = int(np.count_nonzero(~is_real))
    n_infinite = int(np.count_nonzero(~finite))
    return s[finite], t[finite], ratio[finite], n_complex, n_infinite


def _dgges_real_pairs(d):
    """Reference: dgges on the QR-reduced pencil (H, T) that real_pairs_fast decomposes."""
    _, h, t = _reduced(d)
    return _pairs_from_raw(*_dgges_raw(h, t))


class TestFastPathBits:
    """real_pairs_fast against dgges and qz at the paper's pencil sizes.

    Both references decompose the QR-reduced pencil (H, T), taken here from
    np.linalg.qr(mode="complete"): the same R bits as real_pairs_fast's
    mode="r" at both sizes.
    """

    @pytest.mark.parametrize("name, n_rep, p", [("model1", 20, 64), ("model2", 3, 163)])
    def test_equals_dgges(self, name, n_rep, p):
        config = ExperimentConfig.from_json_file(CONFIGS / f"{name}.json")
        assert config.model.n == 2 * p
        for r in range(n_rep):
            d = generate(config.model, config.seed, r)
            fast = real_pairs_fast(d)
            s, t, ratio, n_complex, n_infinite = _dgges_real_pairs(d)
            assert np.array_equal(fast.s, s)
            assert np.array_equal(fast.t, t)
            assert np.array_equal(fast.ratio, ratio)
            assert (fast.n_complex, fast.n_infinite) == (n_complex, n_infinite)

    def test_qz_equals_fast_at_model2_size(self):
        config = ExperimentConfig.from_json_file(CONFIGS / "model2.json")
        assert config.model.n == 2 * 163
        for r in range(5):
            d = generate(config.model, config.seed, r)
            fast = real_pairs_fast(d)
            full = real_pairs(qz(build_pencil(d)))
            assert np.array_equal(full.s, fast.s)
            assert np.array_equal(full.t, fast.t)
            assert np.array_equal(full.ratio, fast.ratio)
            assert (full.n_complex, full.n_infinite) == (fast.n_complex, fast.n_infinite)


class TestOneQrReduction:
    """The QR-reduced pencil (H, T) against the pencil (U1, U0) it stands for.

    The eigenvalues must agree with dgges on (U1, U0), the reduction dggev
    makes; the (s, t) pairs need not, since they follow the QZ deflation order.
    """

    @pytest.mark.parametrize("name, n_rep", [("model1", 20), ("model2", 3)])
    def test_same_pencil_and_eigenvalues(self, name, n_rep):
        config = ExperimentConfig.from_json_file(CONFIGS / f"{name}.json")
        lo, hi = config.window
        worst = 0.0
        for r in range(n_rep):
            d = generate(config.model, config.seed, r)
            pen = build_pencil(d)
            q_k, h, t = _reduced(d)
            assert not np.tril(h, -2).any() and not np.tril(t, -1).any()
            for u, m in ((pen.u1, h), (pen.u0, t)):
                assert np.linalg.norm(q_k.T @ u - m) <= 1e-13 * np.linalg.norm(u)
            fast = real_pairs_fast(d)
            _, _, ratio, n_complex, n_infinite = _pairs_from_raw(*_dgges_raw(pen.u1, pen.u0))
            assert (fast.ratio.size, fast.n_complex, fast.n_infinite) == (
                ratio.size, n_complex, n_infinite)
            got, want = np.sort(fast.ratio), np.sort(ratio)
            inside = (want > lo) & (want < hi)
            assert np.array_equal(inside, (got > lo) & (got < hi))
            rel = np.abs(got[inside] - want[inside]) / np.abs(want[inside])
            worst = max(worst, float(rel.max(initial=0.0)))
        assert worst <= 1e-6
        print(f"{name}: worst relative ratio difference inside the window {worst:.2e}")

    def test_edge_cases(self):
        # p = 1 is its own QR: the pair is (d1, d0) exactly
        fast = real_pairs_fast(np.array([2.0, 1.8]))
        assert (fast.s.tolist(), fast.t.tolist(), fast.ratio.tolist()) == ([1.8], [2.0], [0.9])
        # +-i and a constant det(U1 - x U0), counted as dgges on (U1, U0) counts them
        for data, complex_, infinite in (([1.0, 0.0, -1.0, 0.0], 2, 0),
                                         ([0.0, 0.0, 1.0, 0.0], 0, 2)):
            pen = build_pencil(np.array(data))
            _, _, ratio, n_complex, n_infinite = _pairs_from_raw(*_dgges_raw(pen.u1, pen.u0))
            fast = real_pairs_fast(np.array(data))
            assert (fast.ratio.size, fast.n_complex, fast.n_infinite) == (0, complex_, infinite)
            assert (ratio.size, n_complex, n_infinite) == (0, complex_, infinite)

    @pytest.mark.parametrize("data", [[1.0, 2.0, 3.0], [], [[1.0, 2.0], [3.0, 4.0]],
                                      [1.0, np.nan], [np.inf, 1.0]])
    def test_rejects_what_build_pencil_rejects(self, data):
        with pytest.raises(ValueError):
            build_pencil(np.array(data))
        with pytest.raises(ValueError):
            real_pairs_fast(np.array(data))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestDggevBindings:
    """The QZ bindings: LAPACK dhgeqz through ctypes (GIL-free) and f2py's dgges."""

    @pytest.mark.parametrize("name, n_rep, p", [("model1", 20, 64), ("model2", 3, 163)])
    def test_ctypes_equals_f2py(self, name, n_rep, p, monkeypatch):
        if pencil.QZ != "ctypes":
            pytest.skip("no OpenBLAS library is bound")
        config = ExperimentConfig.from_json_file(CONFIGS / f"{name}.json")
        assert config.model.n == 2 * p
        records = [generate(config.model, config.seed, r) for r in range(n_rep)]
        raw = []
        for d in records:
            _, h, t = _reduced(d)
            raw.append(pencil._qz(h, t))
        fast = [real_pairs_fast(d) for d in records]
        monkeypatch.setattr(pencil, "_qz", pencil._f2py_dgges)
        for d, got, rp in zip(records, raw, fast):
            _, h, t = _reduced(d)
            want = pencil._f2py_dgges(h, t)
            for a, b in zip(got[:3], want[:3]):
                assert np.array_equal(_bits(a), _bits(b))
            assert got[3] == want[3] == 0
            ref = real_pairs_fast(d)
            for field in ("s", "t", "ratio"):
                assert np.array_equal(_bits(getattr(rp, field)), _bits(getattr(ref, field)))
            assert (rp.n_complex, rp.n_infinite) == (ref.n_complex, ref.n_infinite)

    def test_threads_match_serial(self):
        # more threads than cores, both pencil sizes interleaved, a short switch interval
        models = [ExperimentConfig.from_json_file(CONFIGS / f"{n}.json").model
                  for n in ("model1", "model2")]
        records = [generate(models[r % 2], 0, r) for r in range(24)]
        serial = [real_pairs_fast(d) for d in records]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pencil.one_blas_thread(), ThreadPoolExecutor(max_workers=8) as pool:
                threaded = list(pool.map(real_pairs_fast, records, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded, strict=True):
            for field in ("s", "t", "ratio"):
                assert np.array_equal(_bits(getattr(a, field)), _bits(getattr(b, field)))
            assert (a.n_complex, a.n_infinite) == (b.n_complex, b.n_infinite)

    def test_overlapping_pins_share_one_count(self):
        # A enters, B enters, A leaves, B looks, B leaves: B stays pinned after A
        # has left, and the count before either pin comes back after both
        blas = pencil._openblas
        if blas is None:
            pytest.skip("no OpenBLAS library is bound")
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def a():
            with pencil.one_blas_thread():
                a_in.set()
                b_in.wait(10)
            a_out.set()

        def b():
            a_in.wait(10)
            with pencil.one_blas_thread():
                b_in.set()
                a_out.wait(10)
                seen["b after a left"] = blas.get_num_threads()

        old = blas.get_num_threads()
        blas.set_num_threads(2)
        try:
            threads = [threading.Thread(target=f) for f in (a, b)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(30)
            seen["after both"] = blas.get_num_threads()
        finally:
            blas.set_num_threads(old)
        assert not any(th.is_alive() for th in threads)
        assert seen == {"b after a left": 1, "after both": 2}

    def test_many_overlapping_pins(self):
        # more threads than cores entering and leaving pins at a short switch
        # interval: every pinned thread sees one BLAS thread, and the count returns
        blas = pencil._openblas
        if blas is None:
            pytest.skip("no OpenBLAS library is bound")
        seen = set()

        def pin_often():
            for _ in range(200):
                with pencil.one_blas_thread():
                    seen.add(blas.get_num_threads())

        old = blas.get_num_threads()
        interval = sys.getswitchinterval()
        blas.set_num_threads(2)
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=pin_often) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(60)
            after = blas.get_num_threads()
        finally:
            sys.setswitchinterval(interval)
            blas.set_num_threads(old)
        assert not any(th.is_alive() for th in threads)
        assert (seen, after, pencil._pin_depth) == ({1}, 2, 0)

    def test_ctypes_rejects_arrays_it_cannot_pass(self):
        if pencil.QZ != "ctypes":
            pytest.skip("no OpenBLAS library is bound")
        u = np.asfortranarray(np.eye(4))
        read_only = u.copy(order="F")
        read_only.flags.writeable = False
        for bad in (u.astype(np.float32), np.ascontiguousarray(u), u[:, ::-1], u[:3],
                    u[::2, ::2], read_only):
            with pytest.raises(ValueError):
                pencil._qz(bad, u.copy(order="F"))
            with pytest.raises(ValueError):
                pencil._qz(u.copy(order="F"), bad)

    def test_counts_complex_and_infinite_pairs(self, monkeypatch):
        # +-i, and a constant det(U1 - x U0): the same pairs and counts through either
        # binding. dgges balances by permutation first, which on the second pencil
        # flips alphar's sign where beta = 0; those infinite pairs are dropped
        for data in ([1.0, 0.0, -1.0, 0.0], [0.0, 0.0, 1.0, 0.0]):
            _, h, t = _reduced(np.array(data))
            got = pencil._qz(h.copy(order="F"), t.copy(order="F"))
            want = pencil._f2py_dgges(h, t)
            finite = want[2] != 0.0
            for a, b in zip((got[0][finite], got[1], got[2]), (want[0][finite], *want[1:3])):
                assert np.array_equal(_bits(a), _bits(b))
            assert got[3] == want[3] == 0
        ctypes_pairs = [real_pairs_fast(np.array(data)) for data in
                        ([1.0, 0.0, -1.0, 0.0], [0.0, 0.0, 1.0, 0.0])]
        monkeypatch.setattr(pencil, "_qz", pencil._f2py_dgges)
        for data, a in zip(([1.0, 0.0, -1.0, 0.0], [0.0, 0.0, 1.0, 0.0]), ctypes_pairs):
            b = real_pairs_fast(np.array(data))
            for field in ("s", "t", "ratio"):
                assert np.array_equal(_bits(getattr(a, field)), _bits(getattr(b, field)))
            assert (a.n_complex, a.n_infinite) == (b.n_complex, b.n_infinite)
        assert real_pairs_fast(np.array([1.0, 0.0, -1.0, 0.0])).n_complex == 2
        assert real_pairs_fast(np.array([0.0, 0.0, 1.0, 0.0])).n_infinite >= 1

    def test_missing_library_binds_f2py(self, tmp_path, monkeypatch):
        # an empty or absent directory, or one whose only file of the name does not
        # load, has no library; pencil imported where none loads binds f2py's dgges
        (tmp_path / "empty").mkdir()
        assert pencil._load_openblas(tmp_path / "empty") is None
        assert pencil._load_openblas(tmp_path / "absent") is None
        (tmp_path / BLAS_NAME).write_bytes(b"not a library")
        assert pencil._load_openblas(tmp_path) is None

        def no_library(path, *args, **kwargs):
            raise OSError(f"{path}: cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", no_library)
        bare = _fresh_pencil(monkeypatch)
        assert (bare._openblas, bare._qz, bare.QZ) == (None, bare._f2py_dgges, "f2py")

    def test_library_without_the_symbols_is_skipped(self, tmp_path):
        # a shared library that loads under the OpenBLAS name but exports no dhgeqz
        quadmath = sorted(pencil._NUMPY_LIBS.glob("libquadmath*.so*"))
        if not quadmath:
            pytest.skip("no libquadmath in numpy.libs")
        shutil.copy(quadmath[0], tmp_path / BLAS_NAME)
        ctypes.CDLL(str(tmp_path / BLAS_NAME))
        assert pencil._load_openblas(tmp_path) is None

    @pytest.mark.parametrize("hidden", [0, 1, 2])
    def test_loader_order_same_bits(self, hidden, tmp_path, monkeypatch):
        # numpy.libs' library (0); the same library behind a file of its name that is
        # not a library, which sorts first (1); that file alone, which leaves f2py (2)
        blas = pencil._openblas
        if hidden < 2 and blas is None:
            pytest.skip("numpy's OpenBLAS is not in numpy.libs")
        if hidden:
            (tmp_path / BLAS_NAME).write_bytes(b"not a library")
        if hidden == 1:
            (tmp_path / "libscipy_openblas64_-1.so").symlink_to(blas.path)
        bound = pencil._load_openblas(tmp_path) if hidden else pencil._load_openblas()
        if hidden == 2:
            assert bound is None
        else:
            assert bound.path == (blas.path if hidden == 0 else tmp_path / "libscipy_openblas64_-1.so")
        records = [generate(ExperimentConfig.from_json_file(CONFIGS / f"{n}.json").model, 0, r)
                   for n, n_rep in (("model1", 6), ("model2", 2)) for r in range(n_rep)]
        want = [real_pairs_fast(d) for d in records]
        monkeypatch.setattr(pencil, "_qz", pencil._f2py_dgges if bound is None else bound.dhgeqz)
        for d, a in zip(records, want, strict=True):
            b = real_pairs_fast(d)
            for field in ("s", "t", "ratio"):
                assert np.array_equal(_bits(getattr(a, field)), _bits(getattr(b, field)))
            assert (a.n_complex, a.n_infinite) == (b.n_complex, b.n_infinite)


# a file name the loader globs for, sorted before any real library's
BLAS_NAME = "libscipy_openblas64_-0.so"


def _fresh_pencil(monkeypatch):
    """A second pencil module, run now from pencil's source, as a fresh import would."""
    spec = importlib.util.spec_from_file_location("pencil_fresh", pencil.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestVandermondeSolve:
    def test_single_component(self):
        fit = vandermonde_solve(np.array([0.9]), np.array([2.0, 1.8]))
        assert fit.f.tolist() == pytest.approx([2.0], rel=1e-14)
        assert fit.zeta.tolist() == [0.9]

    def test_model1_unit_weights(self):
        fit = vandermonde_solve(MODEL1_ZETA, model1_data())
        assert fit.f == pytest.approx(np.ones(3), abs=1e-8)

    def test_random_round_trip(self, rng):
        for _ in range(20):
            p_size = int(rng.integers(1, 6))
            while True:
                zeta = np.sort(rng.uniform(0.05, 0.95, p_size))
                if p_size == 1 or np.min(np.diff(zeta)) > 0.05:
                    break
            f = rng.uniform(0.5, 2.0, p_size) * rng.choice([-1.0, 1.0], p_size)
            d = noiseless(zeta, f, 2 * p_size)
            fit = vandermonde_solve(zeta, d)
            assert fit.f == pytest.approx(f, rel=1e-9)

    def test_rejects_near_duplicate_nodes(self):
        with pytest.raises(ValueError):
            vandermonde_solve(np.array([0.5, 0.5 + 1e-13]), np.array([1.0, 2.0, 3.0, 4.0]))

    def test_rejects_short_sample_vector(self):
        with pytest.raises(ValueError):
            vandermonde_solve(np.array([0.5, 0.7]), np.array([1.0]))


class TestNoiselessRecovery:
    def test_recovery_up_to_five_components(self, rng):
        for p_size in range(1, 6):
            for _ in range(4):
                while True:
                    zeta = np.sort(rng.uniform(0.1, 0.95, p_size))
                    if p_size == 1 or np.min(np.diff(zeta)) > 0.1:
                        break
                d = noiseless(zeta, np.ones(p_size), 2 * p_size)
                rp = real_pairs(qz(build_pencil(d)))
                got = np.sort(rp.ratio)
                assert got == pytest.approx(zeta, abs=1e-7)
                fit = vandermonde_solve(got, d)
                assert fit.f == pytest.approx(np.ones(p_size), abs=1e-7)

    def test_model1_full_chain(self):
        d = model1_data()
        got = np.sort(real_pairs_fast(d).ratio)
        assert got == pytest.approx(MODEL1_ZETA, abs=1e-7)
        fit = vandermonde_solve(got, d)
        assert fit.f == pytest.approx(np.ones(3), abs=1e-7)
