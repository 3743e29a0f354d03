"""End-to-end pipeline: config, deterministic runs, emitted files, CLI."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from pencilkde import cli, kde, pencil
from pencilkde.harness import (
    ExperimentConfig,
    PhaseError,
    _fmt,
    _mode_payload,
    decompose_replications,
    emit,
    run,
    sample_from_pairs,
)
from pencilkde.kde import empirical_density
from pencilkde.multiexp import Dataset, SignalModel, generate, write_dataset_csv
from pencilkde.pde import SingularPointError
from pencilkde.pencil import DecompositionError

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


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(model=MICRO_MODEL, R=5, N_ref=10, window=(0.0, 1.0))
        assert (cfg.points, cfg.tau, cfg.seed, cfg.method, cfg.threads) == (
            256,
            2.0,
            0,
            "both",
            1,
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"R": 0},
            {"R": 50},  # exceeds N_ref
            {"window": (1.0, 1.0)},
            {"window": (1.0, 0.5)},
            {"points": 8},
            {"tau": 0.0},
            {"seed": -1},
            {"method": "spline"},
            {"threads": 0},
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
        assert sample.p_r.sum() == counts["real_kept"]

    def test_ratios_are_pair_quotients(self):
        pairs = decompose_replications(MICRO_MODEL, seed=3, n_rep=6)
        sample, _ = sample_from_pairs(pairs)
        for s, t, ratio in zip(sample.s, sample.t, sample.ratio):
            assert np.array_equal(ratio, s / t)

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
        first = np.sort(sample.ratio[0])
        for r in sample.ratio[1:]:
            assert np.array_equal(np.sort(r), first)
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


    def test_fit_diagnostics_in_metadata_only(self, micro_report, tmp_path):
        emit(micro_report, tmp_path)
        fit = micro_report.fit
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["fit"] == {
            "nfev": list(fit.nfev),
            "converged_starts": fit.n_converged,
            "at_t_cap": fit.at_t_cap,
            "at_rho_cap": fit.at_rho_cap,
        }
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
            assert "at_rho_cap" not in text

    def test_no_fit_diagnostics_without_a_fit(self, tmp_path):
        emit(run(micro_config(method="gaussian")), tmp_path)
        assert "fit" not in json.loads((tmp_path / "metadata.json").read_text())


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
        def dggev(a, b, **kwargs):
            z = np.zeros(a.shape[0])
            return z, z, z, None, None, None, 1

        monkeypatch.setattr(pencil, "_lapack", SimpleNamespace(dggev=dggev))

    def test_real_pairs_fast_raises(self):
        with pytest.raises(DecompositionError, match="info=1"):
            pencil.real_pairs_fast(generate(MICRO_MODEL, seed=7, r=0))

    def test_run_reports_decompose_phase(self):
        with pytest.raises(PhaseError) as info:
            run(micro_config(threads=1))
        assert info.value.phase == "decompose"
        assert isinstance(info.value.cause, DecompositionError)

    def test_simulate_exits_three(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(micro_config_dict(threads=1)))
        code = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "decompose" in capsys.readouterr().err
