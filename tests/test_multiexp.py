"""Signal synthesis, the sample-length rule, and dataset round-trips."""

import numpy as np
import pytest

from pencilkde.multiexp import (
    Dataset,
    SignalModel,
    generate,
    noiseless,
    read_dataset_csv,
    read_dataset_json,
    select_n,
    write_dataset_csv,
    write_dataset_json,
)

MODEL1 = SignalModel(zeta=(0.8, 0.9, 0.95), f=(1.0, 1.0, 1.0), sigma=1.5e-3, n=128)


class TestNoiseless:
    def test_geometric_sequence(self):
        d = noiseless([0.9], [2.0], 4)
        assert d.tolist() == [2.0 * 0.9**k for k in range(4)]
        assert d == pytest.approx([2.0, 1.8, 1.62, 1.458], rel=1e-15)

    def test_model1_first_sample(self):
        d = noiseless(MODEL1.zeta, MODEL1.f, 6)
        assert d[0] == 3.0

    def test_superposition(self):
        a = noiseless([0.4], [1.5], 8)
        b = noiseless([0.7], [-0.5], 8)
        both = noiseless([0.4, 0.7], [1.5, -0.5], 8)
        assert both == pytest.approx(a + b, rel=1e-15)


class TestSignalModelValidation:
    @pytest.mark.parametrize("zeta", [(0.0,), (1.0,), (1.5,), (-0.2,)])
    def test_ratio_outside_unit_interval(self, zeta):
        with pytest.raises(ValueError):
            SignalModel(zeta=zeta, f=(1.0,), sigma=0.1, n=4)

    def test_duplicate_ratios(self):
        with pytest.raises(ValueError):
            SignalModel(zeta=(0.5, 0.5), f=(1.0, 1.0), sigma=0.1, n=4)

    def test_zero_amplitude(self):
        with pytest.raises(ValueError):
            SignalModel(zeta=(0.5,), f=(0.0,), sigma=0.1, n=4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SignalModel(zeta=(0.5, 0.7), f=(1.0,), sigma=0.1, n=4)

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            SignalModel(zeta=(0.5,), f=(1.0,), sigma=-0.1, n=4)

    @pytest.mark.parametrize("n", [0, 3, 7, -2])
    def test_bad_length(self, n):
        with pytest.raises(ValueError):
            SignalModel(zeta=(0.5,), f=(1.0,), sigma=0.1, n=n)


class TestGenerate:
    def test_noise_free_is_exact(self):
        model = SignalModel(zeta=(0.9,), f=(2.0,), sigma=0.0, n=4)
        d = generate(model, seed=123, r=7)
        assert np.array_equal(d, noiseless([0.9], [2.0], 4))

    def test_deterministic_per_seed_and_replication(self):
        a = generate(MODEL1, seed=99, r=3)
        b = generate(MODEL1, seed=99, r=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, generate(MODEL1, seed=99, r=4))
        assert not np.array_equal(a, generate(MODEL1, seed=100, r=3))

    def test_rejects_negative_replication(self):
        with pytest.raises(ValueError):
            generate(MODEL1, seed=1, r=-1)

    def test_noise_moments_at_en6_draws(self):
        model = SignalModel(zeta=(0.9,), f=(1.0,), sigma=0.25, n=1000)
        clean = noiseless(model.zeta, model.f, model.n)
        eps = np.concatenate(
            [generate(model, seed=5, r=r) - clean for r in range(1000)]
        )
        assert eps.size == 1_000_000
        assert abs(eps.mean()) <= 4.0 * model.sigma / 1e3
        assert eps.var() == pytest.approx(model.sigma**2, rel=0.01)


class TestSelectN:
    def test_hand_example(self):
        # |d_3| = 0.25 < 0.26 first; odd 3 rounds up to the even 4
        assert select_n([0.5], [1.0], 0.26) == 4

    def test_sigma_above_first_sample(self):
        assert select_n([0.5], [1.0], 1.5) == 2

    def test_model1_length(self):
        assert select_n([0.8, 0.9, 0.95], [1.0, 1.0, 1.0], 1.5e-3) == 128

    def test_model2_length(self):
        zeta = [0.88, 0.90, 0.91, 0.92, 0.94]
        f = [1.0, 10.0, 10.0, 10.0, 1.0]
        assert select_n(zeta, f, 2e-9) == 326

    def test_cap_hit_warns(self):
        # 0.999^512 = 0.6 stays above sigma, so the rule runs out at the cap
        with pytest.warns(RuntimeWarning, match="N_MAX=512"):
            n = select_n([0.999], [1.0], 1e-12)
        assert n == 512

    def test_monotone_in_sigma(self):
        sigmas = np.geomspace(1e-8, 2.0, 40)
        lengths = [select_n([0.8, 0.9, 0.95], [1.0, 1.0, 1.0], s) for s in sigmas]
        assert all(a >= b for a, b in zip(lengths, lengths[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            select_n([0.5], [1.0], 0.0)


class TestDataset:
    def test_rejects_one_dimensional_data(self):
        with pytest.raises(ValueError):
            Dataset(data=np.arange(4.0))

    def test_replication_count(self):
        ds = Dataset(data=[[0, 1, 2, 3]] * 5)
        assert ds.data.shape == (5, 4) and ds.data.dtype == float


class TestCsvRoundTrip:
    def test_model1_fixture_bit_identical(self, tmp_path):
        model = SignalModel(zeta=(0.8, 0.9, 0.95), f=(1.0, 1.0, 1.0), sigma=1.5e-3, n=126)
        data = np.stack([generate(model, seed=11, r=r) for r in range(250)])
        path = tmp_path / "m1.csv"
        write_dataset_csv(path, Dataset(data=data, model=model))
        back = read_dataset_csv(path)
        assert back.data.shape == (250, 126)
        assert np.array_equal(back.data, data)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ValueError, match="header"):
            read_dataset_csv(path)

    def test_ragged_row_reports_position(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("d0,d1\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="row 1"):
            read_dataset_csv(path)

    def test_bad_float_reports_row(self, tmp_path):
        path = tmp_path / "badfloat.csv"
        path.write_text("d0,d1\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError, match="row 1"):
            read_dataset_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_dataset_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "headeronly.csv"
        path.write_text("d0,d1\n")
        with pytest.raises(ValueError, match="no replications"):
            read_dataset_csv(path)


class TestJsonRoundTrip:
    def test_model_and_data_preserved(self, tmp_path):
        data = np.stack([generate(MODEL1, seed=21, r=r) for r in range(4)])
        path = tmp_path / "m1.json"
        write_dataset_json(path, Dataset(data=data, model=MODEL1))
        back = read_dataset_json(path)
        assert np.array_equal(back.data, data)
        assert back.model == MODEL1

    def test_bare_matrix(self, tmp_path):
        path = tmp_path / "bare.json"
        write_dataset_json(path, Dataset(data=np.ones((2, 4))))
        back = read_dataset_json(path)
        assert back.model is None
        assert back.data.shape == (2, 4)

    def test_missing_data_field(self, tmp_path):
        path = tmp_path / "nodata.json"
        path.write_text('{"model": {}}\n')
        with pytest.raises(ValueError, match="data"):
            read_dataset_json(path)

    def test_non_matrix_data(self, tmp_path):
        path = tmp_path / "vec.json"
        path.write_text('{"data": [1.0, 2.0]}\n')
        with pytest.raises(ValueError, match="matrix"):
            read_dataset_json(path)
