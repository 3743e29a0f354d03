"""End-to-end pipeline: config, deterministic runs, emitted files, CLI."""

import concurrent.futures
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilkde import cli, harness, kde, pencil
from pencilkde.harness import (
    ExperimentConfig,
    PhaseError,
    _fmt,
    _mode_payload,
    available_cpus,
    decompose_replications,
    emit,
    run,
    sample_from_pairs,
)
from pencilkde.kde import empirical_density
from pencilkde.multiexp import N_MAX, Dataset, SignalModel, generate, write_dataset_csv
from pencilkde.pde import SingularPointError
from pencilkde.ratio_density import EqualVarSpec, density_equal_var
from pencilkde.pencil import DecompositionError, RealRatios

MICRO_MODEL = SignalModel(zeta=(0.5, 0.9), f=(1.0, 1.0), sigma=1e-3, n=8)


def micro_config(**overrides):
    kwargs = dict(
        model=MICRO_MODEL,
        R=20,
        N_ref=40,
        window=(0.3, 1.1),
        points=64,
        tau=0.5,
        seed=7,
        method="both",
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# extreme finite floats, the ends of the correlation range, +-inf and NaN
EXTREMES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-3, 0.3, -0.3, 0.9, 1.0,
    0.999999, -0.999999, 1.0 - 2.0**-53, -1.0 + 2.0**-53,
    1e100, 1.4e154, 1e200, 1e300, -1e300, sys.float_info.max, -sys.float_info.max,
    math.inf, -math.inf, math.nan,
]
ANY_FLOAT = st.one_of(st.sampled_from(EXTREMES), st.floats())
# arbitrary, empty and one-ulp windows
WINDOW = st.one_of(
    st.tuples(ANY_FLOAT, ANY_FLOAT),
    ANY_FLOAT.map(lambda v: (v, v)),
    ANY_FLOAT.map(lambda v: (v, math.nextafter(v, math.inf))),
)


# a JSON value of any type, many of them malformed for a config key
CONFIG_VALUE = st.sampled_from(
    [None, True, "x", "auto", [], [1], [0.5, 0.9], [1.0, 0.5], [0.9, 0.9], [-1e300, 1e300],
     [math.nan, 1.0], {}, -1, 0, 1, 2, 4, 5, 16, 2.5, 2**64, 1e-300, 1e300, math.inf,
     -math.inf, math.nan]
)


def run_cli(argv) -> tuple:
    """(exit code, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_exit_contract(code, err):
    """Exit 0, or 2/3 with one `error:` line."""
    assert code in (0, 2, 3)
    if code != 0:
        assert err.count("error: ") == 1


def micro_config_dict(**overrides):
    cfg = dict(
        model={"zeta": [0.5, 0.9], "f": [1.0, 1.0], "sigma": 1e-3, "n": 8},
        R=20,
        N_ref=40,
        window=[0.3, 1.1],
        points=64,
        tau=0.5,
        seed=7,
    )
    cfg.update(overrides)
    return cfg


@pytest.fixture(scope="module")
def micro_report():
    return run(micro_config())


@pytest.fixture
def pool_sizes(monkeypatch):
    """max_workers of each thread pool harness opens; the stub pool maps serially."""
    seen = []

    class Recorder:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    return seen


@pytest.fixture
def blas_threads_seen(monkeypatch):
    """OpenBLAS's thread count at each harness.real_pairs_fast call, from a count of 2."""
    blas = pencil._openblas
    if blas is None:
        pytest.skip("no OpenBLAS library is bound")
    seen = []

    def record(data):
        seen.append(blas.get_num_threads())
        return pencil.real_pairs_fast(data)

    monkeypatch.setattr(harness, "real_pairs_fast", record)
    old = blas.get_num_threads()
    blas.set_num_threads(2)
    yield seen
    blas.set_num_threads(old)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(model=MICRO_MODEL, R=5, N_ref=10, window=(0.0, 1.0))
        assert (cfg.points, cfg.tau, cfg.seed, cfg.method, cfg.threads) == (
            256,
            2.0,
            0,
            "both",
            len(os.sched_getaffinity(0)),
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"R": 0},
            {"R": 50},  # exceeds N_ref
            {"window": (1.0, 1.0)},
            {"window": (1.0, 0.5)},
            {"points": 8},
            {"points": 2**20 + 1},
            {"N_ref": harness.MAX_N_REF + 1},
            {"model": SignalModel(zeta=(0.5, 0.9), f=(1.0, 1.0), sigma=1e-3, n=N_MAX + 2)},
            {"tau": 0.0},
            {"seed": -1},
            {"method": "spline"},
            {"threads": 0},
            {"tau": math.nan},
            {"tau": math.inf},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            micro_config(**overrides)

    def test_rejects_non_model(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model="m1", R=5, N_ref=10, window=(0.0, 1.0))

    def test_from_dict_auto_length(self):
        cfg_dict = micro_config_dict()
        cfg_dict["model"] = {"zeta": [0.8, 0.9, 0.95], "f": [1, 1, 1], "sigma": 1.5e-3}
        cfg = ExperimentConfig.from_dict(cfg_dict)
        assert cfg.model.n == 128

    def test_from_dict_explicit_length_kept(self):
        cfg = ExperimentConfig.from_dict(micro_config_dict())
        assert cfg.model.n == 8

    def test_from_dict_unknown_key(self):
        with pytest.raises(ValueError, match="bandwith"):
            ExperimentConfig.from_dict(micro_config_dict(bandwith=0.1))

    @pytest.mark.parametrize("missing", ["model", "R", "N_ref", "window"])
    def test_from_dict_missing_required(self, missing):
        cfg_dict = micro_config_dict()
        del cfg_dict[missing]
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(cfg_dict)

    def test_dict_round_trip(self):
        cfg = micro_config(method="proposed", threads=2)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_round_trip(self, tmp_path):
        cfg = micro_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert ExperimentConfig.from_json_file(path) == cfg

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            ExperimentConfig.from_json_file(path)


class TestDecompose:
    def test_thread_count_does_not_change_results(self):
        a = decompose_replications(MICRO_MODEL, seed=3, n_rep=12, threads=1)
        b = decompose_replications(MICRO_MODEL, seed=3, n_rep=12, threads=2)
        assert len(a) == len(b) == 12
        for pa, pb in zip(a, b):
            for va, vb in zip(pa, pb):
                assert np.array_equal(va, vb)

    @pytest.mark.parametrize(
        "threads, n_rep, workers",
        [(10**6, 40, available_cpus()), (2**64, 1, 1), (1, 40, 1),
         (2, 40, min(2, available_cpus()))],
    )
    def test_workers_capped_at_cpus_and_records(self, threads, n_rep, workers, pool_sizes):
        if pencil.QZ != "ctypes":
            pytest.skip("the f2py binding always runs one worker")
        serial = decompose_replications(MICRO_MODEL, seed=3, n_rep=n_rep, threads=1)
        pairs = decompose_replications(MICRO_MODEL, seed=3, n_rep=n_rep, threads=threads)
        assert pool_sizes == ([] if workers == 1 else [workers])
        assert harness.decompose_workers(threads, n_rep) == workers
        for pa, pb in zip(pairs, serial, strict=True):
            for va, vb in zip(pa, pb):
                assert np.array_equal(va, vb)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_blas_pinned_while_decomposing_then_restored(self, threads, blas_threads_seen):
        before = pencil._openblas.get_num_threads()
        decompose_replications(MICRO_MODEL, seed=3, n_rep=12, threads=threads)
        assert blas_threads_seen == [1] * 12
        assert pencil._openblas.get_num_threads() == before

    def test_counts_sum_identity(self):
        pairs = decompose_replications(MICRO_MODEL, seed=3, n_rep=12)
        sample, counts = sample_from_pairs(pairs)
        p = MICRO_MODEL.n // 2
        assert counts["blocks_total"] == 12 * p
        assert (
            counts["real_kept"]
            + counts["complex_discarded"]
            + counts["infinite_discarded"]
            == counts["blocks_total"]
        )
        assert sample.ratio.size == sample.offsets[-1] == counts["real_kept"]
        assert np.diff(sample.offsets).tolist() == [p.ratio.size for p in pairs]
        assert sample.blocks_total == counts["blocks_total"]

    def test_ratios_are_pair_quotients(self):
        pairs = decompose_replications(MICRO_MODEL, seed=3, n_rep=6)
        sample, _ = sample_from_pairs(pairs)
        assert sample.ratio.size > 0
        assert np.array_equal(sample.ratio, sample.s / sample.t)

    def test_noise_free_model_gives_identical_replications(self):
        model = SignalModel(zeta=(0.5, 0.9), f=(1.0, 1.0), sigma=0.0, n=4)
        pairs = decompose_replications(model, seed=1, n_rep=10)
        sample, counts = sample_from_pairs(pairs)
        assert counts == {
            "real_kept": 20,
            "complex_discarded": 0,
            "infinite_discarded": 0,
            "blocks_total": 20,
        }
        assert sample.R == 10
        reps = [np.sort(sample.ratio[i:j]) for i, j in sample.bounds()]
        assert len(reps) == 10
        for r in reps[1:]:
            assert np.array_equal(r, reps[0])
        # the reference histogram collapses to one spike per component
        h = empirical_density(sample, (0.3, 1.1), 64)
        width = h.x[1] - h.x[0]
        spikes = np.nonzero(h.y)[0]
        assert spikes.size == 2
        assert (h.y[spikes] * width).tolist() == pytest.approx([0.5, 0.5], rel=1e-12)


class TestRun:
    def test_deterministic(self, micro_report):
        again = run(micro_config())
        assert np.array_equal(again.reference.y, micro_report.reference.y)
        assert np.array_equal(again.proposed.y, micro_report.proposed.y)
        assert np.array_equal(again.gaussian.y, micro_report.gaussian.y)
        assert again.fit == micro_report.fit
        assert again.rho_hat == micro_report.rho_hat
        assert again.t_star == micro_report.t_star
        assert again.modes_proposed == micro_report.modes_proposed

    def test_thread_count_invisible_in_results(self, micro_report):
        threaded = run(micro_config(threads=2))
        assert np.array_equal(threaded.reference.y, micro_report.reference.y)
        assert np.array_equal(threaded.empirical.y, micro_report.empirical.y)
        assert np.array_equal(threaded.proposed.y, micro_report.proposed.y)
        assert threaded.fit == micro_report.fit

    def test_counts_identities(self, micro_report):
        p = MICRO_MODEL.n // 2
        for key, n_rep in (("reference", 40), ("estimation", 20)):
            c = micro_report.counts[key]
            assert c["blocks_total"] == n_rep * p
            assert (
                c["real_kept"] + c["complex_discarded"] + c["infinite_discarded"]
                == c["blocks_total"]
            )

    def test_drops_per_record_pairs_before_estimating(self, monkeypatch):
        # both samples hold flat copies, so no record's RealPairs outlives them
        refs = []
        estimate_pipeline = harness.estimate_pipeline

        def keep_ref(decompose):
            def record(data):
                pairs = decompose(data)
                refs.append(weakref.ref(pairs.ratio))
                return pairs

            return record

        def all_dead(*args, **kwargs):
            assert len(refs) == 40 and all(ref() is None for ref in refs)
            return estimate_pipeline(*args, **kwargs)

        for name in ("real_pairs_fast", "real_ratios_fast"):
            monkeypatch.setattr(harness, name, keep_ref(getattr(harness, name)))
        monkeypatch.setattr(harness, "estimate_pipeline", all_dead)
        run(micro_config())

    @pytest.mark.parametrize("threads", [1, 2])
    def test_eigenvalue_only_records_same_bytes(self, threads, monkeypatch, tmp_path):
        # records R .. N_ref - 1 by T^-1 H, by real_pairs_fast's ratios (every record
        # decomposed as if pairs were needed) and by the QZ without the binding: the
        # same artifacts
        bound = pencil.HQR
        emit(run(micro_config(threads=threads)), tmp_path / "hqr")

        def by_pairs(data):
            pairs = pencil.real_pairs_fast(data)
            return RealRatios(pairs.ratio, pairs.n_complex, pairs.n_infinite, qz=True)

        with monkeypatch.context() as m:
            m.setattr(harness, "real_ratios_fast", by_pairs)
            emit(run(micro_config(threads=threads)), tmp_path / "pairs")
        monkeypatch.setattr(pencil, "_hqr", None)
        monkeypatch.setattr(pencil, "HQR", None)
        emit(run(micro_config(threads=threads)), tmp_path / "qz")
        for case in ("hqr", "qz"):
            for name in ("densities.csv", "modes.json", "params.json"):
                assert (tmp_path / case / name).read_bytes() == (
                    tmp_path / "pairs" / name).read_bytes()
        hqr, qz = (json.loads((tmp_path / case / "metadata.json").read_text())
                   for case in ("hqr", "qz"))
        assert (hqr["hqr"], qz["hqr"]) == (bound, None)
        assert qz["decomposition"] == {"pairs": 20, "eigenvalues": 20, "eigenvalues_by_qz": 20}
        by_qz = hqr["decomposition"].pop("eigenvalues_by_qz")
        assert hqr["decomposition"] == {"pairs": 20, "eigenvalues": 20}
        assert by_qz < 20 if bound else by_qz == 20
        assert "eigenvalues" not in (tmp_path / "hqr" / "params.json").read_text()

    def test_f2py_fallback_same_bits_one_worker(self, micro_report, monkeypatch, tmp_path):
        # as if no OpenBLAS were found: no library, f2py's dgges, no pool
        assert pencil._load_openblas(tmp_path) is None
        monkeypatch.setattr(pencil, "_openblas", None)
        monkeypatch.setattr(pencil, "_qz", pencil._f2py_dgges)
        monkeypatch.setattr(pencil, "QZ", "f2py")
        monkeypatch.setattr(pencil, "_hqr", None)
        monkeypatch.setattr(pencil, "HQR", None)
        # any pool would fail
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)
        report = run(micro_config(threads=4))
        assert (report.workers, report.qz, report.hqr) == (1, "f2py", None)
        emit(report, tmp_path / "f2py")
        emit(micro_report, tmp_path / "ctypes")
        for name in ("densities.csv", "modes.json", "params.json"):
            assert (tmp_path / "f2py" / name).read_bytes() == (
                tmp_path / "ctypes" / name
            ).read_bytes()
        meta = json.loads((tmp_path / "f2py" / "metadata.json").read_text())
        assert (meta["threads"], meta["workers"], meta["qz"]) == (4, 1, "f2py")

    def test_one_pool_for_pairs_and_eigenvalues(self, pool_sizes):
        if pencil.QZ != "ctypes" or available_cpus() < 2:
            pytest.skip("needs the ctypes binding and two CPUs")
        run(micro_config(threads=2))
        assert pool_sizes == [2]

    def test_estimate_bits_independent_of_blas_threads(self):
        # J^T r over 2**18 residuals splits across OpenBLAS threads, which changes its
        # bits; estimate_pipeline pins one thread, so a Levenberg-Marquardt search run
        # inside it ends on the same bits with OPENBLAS_NUM_THREADS 1 and 2
        if pencil._openblas is None or available_cpus() < 2:
            pytest.skip("needs a bound OpenBLAS and two CPUs")
        code = """
import numpy as np
from pencilkde import harness, kde
from pencilkde.multiexp import SignalModel
model = SignalModel(zeta=(0.5, 0.9), f=(1.0, 1.0), sigma=1e-3, n=8)
sample, _ = harness.sample_from_pairs(harness.decompose_replications(model, 3, 20))
u = np.linspace(0.0, 4.0, 2**18)
y = 1.5 * np.exp(-0.7 * u) + 0.25 + np.random.default_rng(0).normal(0.0, 0.1, u.size)

class Decay:
    def residuals(self, theta):
        res = theta[1] * np.exp(-theta[0] * u) + theta[2] - y
        return float((res * res).sum()), res

def fit(h):
    inf = np.full(3, np.inf)
    x, fun, nfev, _ = kde._levenberg_marquardt(Decay(), np.array([0.1, 1.0, 0.0]), -inf, inf)
    print(x.tobytes().hex(), fun.hex(), nfev)
    return kde.fit_reference(h)

harness.fit_reference = fit
harness.estimate_pipeline(sample, (0.3, 1.1), 64, 0.5, "proposed")
"""
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(Path(harness.__file__).parent.parent), env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout)
        assert out[0] == out[1]

    def test_phase_timings_recorded(self, micro_report):
        assert {"decompose", "histogram", "estimate"} <= set(micro_report.timings)
        assert all(v >= 0.0 for v in micro_report.timings.values())

    def test_modes_found_near_components(self, micro_report):
        xs = sorted(m.x for m in micro_report.modes_proposed)
        assert len(xs) == 2
        assert xs[0] == pytest.approx(0.5, abs=0.03)
        assert xs[1] == pytest.approx(0.9, abs=0.03)

    def test_gaussian_only_method(self):
        report = run(micro_config(method="gaussian"))
        assert report.proposed is None
        assert report.modes_proposed is None
        assert report.gaussian is not None
        assert report.modes == report.modes_gaussian

    def test_proposed_is_primary_in_modes_property(self, micro_report):
        assert micro_report.modes == micro_report.modes_proposed


class TestEmit:
    def test_file_set(self, micro_report, tmp_path):
        written = emit(micro_report, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert names == ["densities.csv", "metadata.json", "modes.json", "params.json"]
        assert all(p.exists() for p in written)

    def test_densities_layout(self, micro_report, tmp_path):
        emit(micro_report, tmp_path)
        lines = (tmp_path / "densities.csv").read_text().splitlines()
        assert lines[0] == "x,reference,empirical,gaussian,proposed"
        assert len(lines) == 1 + micro_report.config.points

    def test_fmt_is_the_17_digit_f_string(self):
        # random bit patterns, signed zeros, infinities, nan, subnormals and the
        # integers where 17 digits stop being exact, as float and as np.float64
        rng = np.random.default_rng(18)
        bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64, endpoint=False)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
                   1e16, 1e17, -1e17, 2.0**53, 2.0**53 + 2, 0.1, 1.7976931348623157e308]
        values = bits.view(np.float64).tolist() + special
        for v in values:
            for x in (float(v), np.float64(v)):
                assert _fmt(x) == f"{x:.17g}"

    def test_byte_determinism_across_runs(self, tmp_path):
        emit(run(micro_config()), tmp_path / "a")
        emit(run(micro_config()), tmp_path / "b")
        for name in ("densities.csv", "modes.json", "params.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_empty_mode_list(self, tmp_path):
        report = run(micro_config(tau=1e9))
        emit(report, tmp_path)
        assert (tmp_path / "modes.json").read_text().strip() == "[]"

    def test_params_content(self, micro_report, tmp_path):
        emit(micro_report, tmp_path)
        params = json.loads((tmp_path / "params.json").read_text())
        assert params["rho_hat"] == micro_report.rho_hat
        assert params["t_star"] == micro_report.t_star
        assert params["p"] == MICRO_MODEL.n // 2
        assert params["config"]["R"] == 20
        assert "threads" not in params["config"]

    def test_params_bytes_do_not_depend_on_threads(self, micro_report, tmp_path):
        emit(micro_report, tmp_path / "a")
        emit(run(micro_config(threads=1)), tmp_path / "b")
        for name in ("densities.csv", "modes.json", "params.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        meta = json.loads((tmp_path / "b" / "metadata.json").read_text())
        assert (meta["threads"], meta["workers"], meta["qz"]) == (1, 1, pencil.QZ)


    def test_fit_diagnostics_in_metadata_only(self, micro_report, tmp_path):
        emit(micro_report, tmp_path)
        fit = micro_report.fit
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["fit"] == {
            "nfev": list(fit.nfev),
            "converged_starts": fit.n_converged,
            "at_t_cap": fit.at_t_cap,
            "rho_near_boundary": 1.0 - abs(fit.rho0) < 1e-6,
            "search_bins": fit.search_bins,
        }
        # 64 points take no coarse search: the starts search every bin, with no polish
        assert fit.search_bins == micro_report.config.points
        assert len(fit.nfev) == kde.N_STARTS and all(n > 0 for n in fit.nfev)
        assert 1 <= fit.n_converged <= kde.N_STARTS
        params = json.loads((tmp_path / "params.json").read_text())
        assert set(params) == {
            "config", "p", "t0", "mu0", "rho0", "fit_objective", "rho_hat", "t_star",
            "t_plus", "skipped_components", "counts", "modes_gaussian", "modes_proposed",
        }
        for name in ("densities.csv", "modes.json", "params.json"):
            text = (tmp_path / name).read_text()
            assert "nfev" not in text and "converged_starts" not in text
            assert "rho_near_boundary" not in text
            assert "search_bins" not in text

    def test_gaussian_diagnostics_in_metadata_only(self, micro_report, tmp_path):
        emit(micro_report, tmp_path)
        plan = micro_report.gaussian_plan
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["gaussian"] == {"path": "binned", "fft_len": plan.fft_len,
                                    "refine": plan.refine, "reach_bins": plan.reach_bins}
        # 64 points at sd / spacing of about 9 are binned on a refined grid
        assert plan == kde.gaussian_plan(micro_report.empirical.x, micro_report.t_plus)
        assert plan.refine > 1 and plan.fft_len >= 63 * plan.refine + 2 * plan.reach_bins + 1
        for name in ("densities.csv", "modes.json", "params.json"):
            text = (tmp_path / name).read_text()
            assert not any(key in text for key in ("fft_len", "refine", "reach_bins", "binned"))

    def test_proposed_diagnostics_in_metadata_only(self, micro_report, tmp_path):
        emit(micro_report, tmp_path)
        proposed = micro_report.proposed
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["proposed"] == {
            "rows": proposed.rows,
            "kernel_values": proposed.values,
            "reach": kde._KERNEL_REACH,
            "bound_rel_peak": proposed.bound / proposed.y.max(),
        }
        # at the micro config's t* the cut drops points: a support is at most two slices
        components = micro_report.sample.ratio.size
        assert 0 < proposed.rows <= 2 * components
        assert 0 < proposed.values < 64 * components
        assert 0.0 <= meta["proposed"]["bound_rel_peak"] < 1e-38
        for name in ("densities.csv", "modes.json", "params.json"):
            text = (tmp_path / name).read_text()
            assert not any(key in text for key in ("rows", "kernel_values", "bound_rel_peak"))
        emit(run(micro_config(method="gaussian")), tmp_path / "gaussian")
        assert "proposed" not in json.loads((tmp_path / "gaussian" / "metadata.json").read_text())

    def test_no_fit_diagnostics_without_a_fit(self, tmp_path):
        emit(run(micro_config(method="gaussian")), tmp_path)
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert "fit" not in meta and meta["gaussian"]["path"] == "binned"

    def test_no_gaussian_diagnostics_without_a_gaussian_estimate(self, tmp_path):
        emit(run(micro_config(method="proposed")), tmp_path)
        assert "gaussian" not in json.loads((tmp_path / "metadata.json").read_text())


class TestCli:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_density_far_off_mean_exits_zero(self, capsys):
        # nu_w^2 overflows; Python's float power raised OverflowError (exit 1)
        code = cli.main(
            [
                "density",
                "--t", "0.01",
                "--nu-w", "1e200",
                "--rho", "0.3",
                "--xmin", "0.7",
                "--xmax", "1.1",
                "--points", "3",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,h"
        assert [float(row.split(",")[1]) for row in lines[1:]] == [0.0, 0.0, 0.0]

    def test_density_to_stdout(self, capsys):
        code = cli.main(
            [
                "density",
                "--t", "0.05",
                "--nu-w", "0.9",
                "--rho", "0.3",
                "--xmin", "0.0",
                "--xmax", "2.0",
                "--points", "32",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,h"
        assert len(lines) == 33

    def test_density_validation_error(self, capsys):
        code = cli.main(
            ["density", "--t", "-1.0", "--nu-w", "0.9", "--xmin", "0", "--xmax", "1"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("nu_w", ["1.4e154", "1e200", "-1e200"])
    def test_pde_check_far_off_mean_keeps_the_exit_contract(self, nu_w, capsys):
        # Python float pow raises OverflowError squaring a mean beyond 1.34e154
        code = cli.main(
            [
                "pde-check",
                "--t", "0.01",
                f"--nu-w={nu_w}",
                "--rho", "0.3",
                "--xmin", "0.7",
                "--xmax", "1.1",
                "--points", "3",
            ]
        )
        assert code in (0, 2, 3)

    @pytest.mark.parametrize(
        "t, nu_w",
        [
            # the singular-point cubic's coefficients overflow; h_t, D and C were nan (exit 0)
            ("0.01", "1e200"),
            # numpy's "Array must not contain infs or NaNs" from the root search (exit 2)
            ("0.01", "1e308"),
            # finite coefficients, but h_t and the residual are nan at every point (exit 0)
            ("1e300", "0.9"),
        ],
    )
    def test_pde_check_non_finite_table_is_a_numerical_failure(self, t, nu_w, capsys):
        code = cli.main(
            [
                "pde-check",
                f"--t={t}",
                f"--nu-w={nu_w}",
                "--rho", "0.3",
                "--xmin", "0.7",
                "--xmax", "1.1",
                "--points", "3",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_pde_check_underflowed_density_is_a_zero_table(self, capsys):
        # h underflows to 0.0; h_xx, and so the residual, were nan (exit 3)
        code = cli.main(
            [
                "pde-check",
                "--t=1e-3",
                "--nu-w=1e100",
                "--rho", "0.3",
                "--xmin", "0.7",
                "--xmax", "1.1",
                "--points", "3",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert len(rows) == 3
        for x, h, h_t, d, c, s, res in rows:
            assert h == h_t == res == 0.0 and all(map(math.isfinite, (d, c, s)))

    @pytest.mark.parametrize(
        "args",
        [
            # 2 nu_v nu_w rho overflows in the Cauchy term, which is nan
            ["--t", "1", "--nu-w", "1.7976931348623157e308", "--rho", "0.999999",
             "--xmin", "0.7", "--xmax", "1.1"],
        ],
    )
    def test_density_non_finite_table_is_a_numerical_failure(self, args, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["density", *args, "--points", "3"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert caught == []

    def test_density_far_tail_is_a_zero_table(self, capsys):
        # q = x^2 - 2 rho x + 1 overflowed at both ends, so h was nan there (exit 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["density", "--t", "1", "--nu-w", "0.9", "--xmin=-1e300",
                             "--xmax=1e300", "--points", "3"])
        captured = capsys.readouterr()
        assert (code, captured.err, caught) == (0, "", [])
        rows = [[float(v) for v in line.split(",")] for line in captured.out.splitlines()[1:]]
        assert [h for _, h in rows] == [
            0.0, density_equal_var(EqualVarSpec(1.0, 0.9, 0.0, 1.0), 0.0), 0.0
        ]

    @pytest.mark.parametrize("command", ["density", "pde-check"])
    @given(t=ANY_FLOAT, nu_w=ANY_FLOAT, rho=ANY_FLOAT, window=WINDOW, points=st.integers(1, 3))
    @settings(derandomize=True, max_examples=250, deadline=None)
    def test_exit_code_sweep(self, command, t, nu_w, rho, window, points):
        code, out, err = run_cli(
            [command, f"--t={t!r}", f"--nu-w={nu_w!r}", f"--rho={rho!r}",
             f"--xmin={window[0]!r}", f"--xmax={window[1]!r}", f"--points={points}"]
        )
        assert_exit_contract(code, err)
        if code != 0:
            return
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
        assert len(rows) == points
        for x, *values in rows:
            # pde-check leaves the rows in the singular tubes all nan
            masked = command == "pde-check" and all(math.isnan(v) for v in values)
            assert math.isfinite(x) and (masked or all(math.isfinite(v) for v in values))

    def test_pde_check(self, tmp_path):
        out = tmp_path / "pde.csv"
        code = cli.main(
            [
                "pde-check",
                "--t", "1.0",
                "--nu-w", "0.9",
                "--xmin", "0.7",
                "--xmax", "1.1",
                "--points", "16",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,h,h_t,D,C,S,residual"
        assert len(lines) == 17

    def test_simulate(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(micro_config_dict()))
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        assert (out / "densities.csv").exists()
        assert (out / "params.json").exists()

    def test_simulate_seed_override_changes_output(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(micro_config_dict()))
        cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        cli.main(
            [
                "simulate",
                "--config", str(cfg_path),
                "--seed", "8",
                "--out", str(tmp_path / "b"),
            ]
        )
        assert (tmp_path / "a" / "densities.csv").read_bytes() != (
            tmp_path / "b" / "densities.csv"
        ).read_bytes()

    def test_simulate_missing_config(self, tmp_path, capsys):
        code = cli.main(
            ["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_simulate_unknown_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(micro_config_dict(extra=1)))
        code = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("model", {"zeta": [0.5, 0.9], "f": [1.0, 1.0], "n": 8}),  # no sigma
            ("R", None),
            ("model", [1, 2]),
            ("window", 5),
        ],
        ids=["model-without-sigma", "R-null", "model-list", "window-number"],
    )
    def test_simulate_malformed_config_exits_two(self, key, value, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(micro_config_dict(**{key: value})))
        code = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith(f"error: config key {key!r}")

    @given(
        key=st.sampled_from(["model", "R", "N_ref", "window", "points", "tau", "seed",
                             "method", "threads", "zeta", "f", "sigma", "n"]),
        value=CONFIG_VALUE,
        n_ref=st.integers(1, 4),
        drop=st.booleans(),
    )
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_simulate_exit_code_sweep(self, key, value, n_ref, drop):
        # model1 at N_ref <= 4, one key (or model entry) set to any value or dropped;
        # threads up to 2**64 start at most N_ref worker threads
        cfg = json.loads((Path(__file__).parents[1] / "configs" / "model1.json").read_text())
        cfg.update(N_ref=n_ref, R=min(cfg["R"], n_ref), points=64)
        target = cfg["model"] if key in ("zeta", "f", "sigma", "n") else cfg
        if drop:
            target.pop(key, None)
        else:
            target[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(cfg))
            code, _, err = run_cli(["simulate", f"--config={path}", f"--out={tmp}/out"])
        assert_exit_contract(code, err)

    @given(
        records=st.one_of(
            # arbitrary 1-4 records of length 1-12
            st.integers(1, 12).flatmap(
                lambda n: st.lists(
                    st.lists(st.one_of(st.sampled_from(EXTREMES), st.floats(-2.0, 2.0)),
                             min_size=n, max_size=n),
                    min_size=1, max_size=4)
            ),
            # 1-4 records of the micro model
            st.lists(st.integers(0, 99), min_size=1, max_size=4).map(
                lambda rs: [generate(MICRO_MODEL, seed=5, r=r).tolist() for r in rs]
            ),
        ),
        window=st.one_of(st.just((0.3, 1.1)), WINDOW),
        points=st.integers(1, 20),
        tau=st.one_of(st.just(0.5), ANY_FLOAT),
        method=st.sampled_from(["proposed", "gaussian"]),
    )
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_estimate_exit_code_sweep(self, records, window, points, tau, method):
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "data.csv"
            write_dataset_csv(data, Dataset(data=records))
            code, _, err = run_cli(
                ["estimate", f"--data={data}", f"--window={window[0]!r},{window[1]!r}",
                 f"--points={points}", f"--tau={tau!r}", f"--method={method}",
                 f"--out={tmp}/out"]
            )
        assert_exit_contract(code, err)

    @given(
        header=st.sampled_from(["x,density", "x,gaussian,proposed", "x,a,b", "x", ""]),
        rows=st.lists(
            st.one_of(
                st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3),
                st.lists(st.one_of(ANY_FLOAT, st.sampled_from(["", "x", "1e999"])), max_size=3),
            ).map(lambda row: ",".join(map(str, row))),
            max_size=4,
        ),
        tau=st.one_of(st.just(0.5), ANY_FLOAT),
        column=st.sampled_from([None, "density", "proposed", "zz"]),
    )
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_modes_exit_code_sweep(self, header, rows, tau, column):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "density.csv"
            path.write_text("\n".join([header, *rows]) + "\n")
            argv = ["modes", f"--density={path}", f"--tau={tau!r}"]
            code, _, err = run_cli(argv + ([f"--column={column}"] if column else []))
        assert_exit_contract(code, err)

    @pytest.fixture()
    def dataset_csv(self, tmp_path):
        data = np.stack([generate(MICRO_MODEL, seed=5, r=r) for r in range(40)])
        path = tmp_path / "data.csv"
        write_dataset_csv(path, Dataset(data=data, model=MICRO_MODEL))
        return path

    def test_estimate_pipeline_files(self, dataset_csv, tmp_path):
        out = tmp_path / "est"
        code = cli.main(
            [
                "estimate",
                "--data", str(dataset_csv),
                "--method", "proposed",
                "--window", "0.3,1.1",
                "--points", "64",
                "--tau", "0.5",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "density.csv").exists()
        assert (out / "modes.json").exists()
        assert (out / "params.json").exists()
        assert json.loads((out / "params.json").read_text())["method"] == "proposed"

    def test_estimate_fit_diagnostics_in_metadata_only(self, dataset_csv, tmp_path):
        out = tmp_path / "est"
        code, _, _ = run_cli(["estimate", f"--data={dataset_csv}", "--window=0.3,1.1",
                              "--points=64", "--tau=0.5", f"--out={out}"])
        assert code == 0
        meta = json.loads((out / "metadata.json").read_text())
        keys = {"nfev", "converged_starts", "at_t_cap", "rho_near_boundary", "search_bins"}
        assert set(meta["fit"]) == keys
        assert len(meta["fit"]["nfev"]) == kde.N_STARTS and meta["fit"]["search_bins"] == 64
        assert meta["workers"] == harness.decompose_workers(available_cpus(), 40)
        assert meta["qz"] == pencil.QZ
        assert "gaussian" not in meta
        assert set(meta["proposed"]) == {"rows", "kernel_values", "reach", "bound_rel_peak"}
        params = (out / "params.json").read_text()
        assert not any(key in params for key in keys)

    def test_estimate_gaussian_metadata_has_no_fit(self, dataset_csv, tmp_path):
        out = tmp_path / "est"
        code, _, _ = run_cli(["estimate", f"--data={dataset_csv}", "--method=gaussian",
                              "--window=0.3,1.1", "--points=64", "--tau=0.5", f"--out={out}"])
        assert code == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert "fit" not in meta
        assert set(meta["gaussian"]) == {"path", "fft_len", "refine", "reach_bins"}
        assert meta["gaussian"]["path"] == "binned" and meta["gaussian"]["refine"] > 1
        for name in ("density.csv", "modes.json", "params.json"):
            text = (out / name).read_text()
            assert not any(key in text for key in ("fft_len", "refine", "reach_bins", "binned"))

    def test_estimate_decomposes_on_the_pool(self, dataset_csv, tmp_path, pool_sizes):
        if pencil.QZ != "ctypes" or available_cpus() == 1:
            pytest.skip("estimate decomposes serially with the f2py binding or on one CPU")
        code, _, _ = run_cli(["estimate", f"--data={dataset_csv}", "--window=0.3,1.1",
                              "--points=64", f"--out={tmp_path / 'est'}"])
        assert code == 0
        assert pool_sizes == [harness.decompose_workers(available_cpus(), 40)]

    def test_estimate_pins_blas_then_restores(self, dataset_csv, tmp_path, blas_threads_seen):
        before = pencil._openblas.get_num_threads()
        code, _, _ = run_cli(["estimate", f"--data={dataset_csv}", "--window=0.3,1.1",
                              "--points=64", f"--out={tmp_path / 'est'}"])
        assert code == 0
        assert blas_threads_seen == [1] * 40
        assert pencil._openblas.get_num_threads() == before

    @pytest.mark.parametrize(
        "payload",
        [5,
         {"model": {}, "data": [[1, 0.5, 0.25, 0.125]]},
         {"model": 5, "data": [[1, 0.5, 0.25, 0.125]]},
         {"model": {"zeta": [0.5], "f": [1.0], "sigma": 1e-3, "n": "auto"},
          "data": [[1, 0.5, 0.25, 0.125]]}],
        ids=["number", "model-empty", "model-number", "n-auto"],
    )
    def test_estimate_malformed_json_dataset_exits_two(self, payload, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(["estimate", f"--data={path}", "--window=0.3,1.1",
                                  "--points=16", f"--out={tmp_path / 'est'}"])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_estimate_matches_the_harness(self, micro_report, tmp_path, capsys):
        cfg = micro_report.config
        data = np.stack([generate(cfg.model, cfg.seed, r) for r in range(cfg.R)])
        path = tmp_path / "data.csv"
        write_dataset_csv(path, Dataset(data=data))
        out = tmp_path / "est"
        code = cli.main(
            [
                "estimate",
                "--data", str(path),
                "--method", "proposed",
                "--window", f"{cfg.window[0]!r},{cfg.window[1]!r}",
                "--points", str(cfg.points),
                "--tau", repr(cfg.tau),
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = [line.split(",") for line in (out / "density.csv").read_text().splitlines()[1:]]
        assert [y for _, y in rows] == [_fmt(v) for v in micro_report.proposed.y]
        params = json.loads((out / "params.json").read_text())
        assert params["t_star"] == micro_report.t_star
        assert params["counts"] == micro_report.counts["estimation"]
        modes = json.loads((out / "modes.json").read_text())
        assert modes == _mode_payload(micro_report.modes_proposed)

    def test_estimate_bad_window(self, dataset_csv, tmp_path, capsys):
        code = cli.main(
            [
                "estimate",
                "--data", str(dataset_csv),
                "--window", "oops",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2

    @pytest.fixture()
    def no_decompose(self, monkeypatch):
        """The calls to a decomposition that fails; the test asserts there were none."""
        calls = []

        def boom(*args, **kwargs):
            calls.append(args)
            raise AssertionError("decomposed before the options were checked")

        monkeypatch.setattr(cli, "decompose_records", boom)
        monkeypatch.setattr(harness, "decompose_records", boom)
        return calls

    @pytest.mark.parametrize(
        "option", ["--window=oops", "--points=1", "--tau=nan", "--tau=inf", "--tau=0"]
    )
    def test_estimate_checks_options_before_decomposing(
        self, option, dataset_csv, tmp_path, no_decompose
    ):
        argv = ["estimate", f"--data={dataset_csv}", "--window=0.3,1.1", f"--out={tmp_path}/x"]
        code, out, err = run_cli(argv + [option])
        assert (code, out, no_decompose) == (2, "", [])
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_simulate_huge_points_exits_before_decomposing(self, tmp_path, no_decompose):
        # also increasing windows whose histogram grid has no distinct or finite bins
        cfg_path = tmp_path / "cfg.json"
        for bad in ({"points": 2**40}, {"window": [0.5, 0.5000000000000001]},
                    {"window": [-1e308, 1e308]}):
            cfg_path.write_text(json.dumps(micro_config_dict(**bad)))
            code, out, err = run_cli(["simulate", f"--config={cfg_path}", f"--out={tmp_path}/o"])
            assert (code, out, no_decompose) == (2, "", []), bad
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["N_ref", "n"])
    def test_simulate_huge_size_exits_before_decomposing(self, key, tmp_path, no_decompose):
        cfg = micro_config_dict()
        (cfg["model"] if key == "n" else cfg)[key] = 2**40
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(["simulate", f"--config={cfg_path}", f"--out={tmp_path}/o"])
        assert (code, out, no_decompose) == (2, "", [])
        assert err.startswith(f"error: {'model n' if key == 'n' else key} must be <= ")
        assert err.count("\n") == 1

    def test_estimate_ulp_wide_window_prints_one_line(self, dataset_csv, tmp_path):
        # the bin width rounded to 0.0 and numpy warned before the error line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                ["estimate", f"--data={dataset_csv}", "--window=0.5,0.5000000000000001",
                 "--points=2", f"--out={tmp_path / 'x'}"]
            )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_estimate_missing_dataset(self, tmp_path, capsys):
        code = cli.main(
            [
                "estimate",
                "--data", str(tmp_path / "nope.csv"),
                "--window", "0.3,1.1",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_modes_from_density_csv(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "est"
        cli.main(
            [
                "estimate",
                "--data", str(dataset_csv),
                "--window", "0.3,1.1",
                "--points", "64",
                "--tau", "0.5",
                "--out", str(out),
            ]
        )
        capsys.readouterr()
        code = cli.main(
            ["modes", "--density", str(out / "density.csv"), "--tau", "0.5"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and payload
        assert {"x", "height"} <= set(payload[0])

    def test_modes_unknown_column(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "est"
        cli.main(
            [
                "estimate",
                "--data", str(dataset_csv),
                "--window", "0.3,1.1",
                "--out", str(out),
            ]
        )
        code = cli.main(
            [
                "modes",
                "--density", str(out / "density.csv"),
                "--tau", "0.5",
                "--column", "zz",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("tau", ["nan", "inf", "-inf", "0", "-1"])
    def test_modes_rejects_tau(self, tau, tmp_path):
        # modes --tau nan printed [] and exited 0: no value exceeds nan
        path = tmp_path / "density.csv"
        path.write_text("x,density\n0,0\n1,3\n2,0\n")
        code, out, err = run_cli(["modes", f"--density={path}", f"--tau={tau}"])
        assert (code, out) == (2, "")
        assert err.startswith("error: tau must be finite and positive") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["density", "pde-check"])
    def test_points_above_max_points(self, command):
        # the grid is refused before np.linspace allocates it
        code, out, err = run_cli(
            [command, "--t=1", "--nu-w=0.9", "--xmin=0.7", "--xmax=1.1",
             f"--points={kde.MAX_POINTS + 1}"]
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: points must be in [2, ") and err.count("\n") == 1

    def test_numerical_errors_exit_three(self, capsys, monkeypatch):
        def boom(args):
            raise SingularPointError("den hit a root")

        monkeypatch.setattr(cli, "_cmd_modes", boom)
        code = cli.main(["modes", "--density", "whatever.csv", "--tau", "1.0"])
        assert code == 3

    def test_phase_error_keeps_cause_class(self, capsys, monkeypatch):
        def boom_numeric(args):
            raise PhaseError("estimate", SingularPointError("x"))

        def boom_validation(args):
            raise PhaseError("config", ValueError("x"))

        monkeypatch.setattr(cli, "_cmd_modes", boom_numeric)
        assert cli.main(["modes", "--density", "d.csv", "--tau", "1.0"]) == 3
        monkeypatch.setattr(cli, "_cmd_modes", boom_validation)
        assert cli.main(["modes", "--density", "d.csv", "--tau", "1.0"]) == 2


class TestDecompositionFailure:
    """A QZ that does not converge (LAPACK info != 0) at every layer above it."""

    @pytest.fixture(autouse=True)
    def failing_qz(self, monkeypatch):
        def qz(h, t):
            z = np.zeros(h.shape[0])
            return z, z, z, 1

        monkeypatch.setattr(pencil, "_qz", qz)

    def test_real_pairs_fast_raises(self):
        with pytest.raises(DecompositionError, match="info=1"):
            pencil.real_pairs_fast(generate(MICRO_MODEL, seed=7, r=0))

    def test_real_ratios_fast_raises_when_it_falls_back(self, monkeypatch):
        monkeypatch.setattr(pencil, "_hqr", None)
        with pytest.raises(DecompositionError, match="info=1"):
            pencil.real_ratios_fast(generate(MICRO_MODEL, seed=7, r=0))

    def test_run_reports_decompose_phase(self):
        with pytest.raises(PhaseError) as info:
            run(micro_config(threads=1))
        assert info.value.phase == "decompose"
        assert isinstance(info.value.cause, DecompositionError)

    def test_simulate_exits_three(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        # the default thread count: the failure comes out of the pool
        cfg_path.write_text(json.dumps(micro_config_dict()))
        code = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "decompose" in capsys.readouterr().err
