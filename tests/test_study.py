"""The multi-seed study driver in scripts/study.py."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "study.py"


@pytest.fixture(scope="module")
def study():
    spec = importlib.util.spec_from_file_location("study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "n_modes, hit, p, min_hits, want",
    [
        (3, 3, 3, 3, True),
        (4, 3, 3, 3, False),  # all hit, but a spurious mode
        (2, 2, 3, 3, False),
        (6, 4, 5, 4, True),  # partial recovery ignores extra modes
        (4, 3, 5, 4, False),
    ],
)
def test_recovery_rule(study, n_modes, hit, p, min_hits, want):
    assert study.recovered(np.zeros(n_modes), hit, p, min_hits) is want


def test_two_seed_study(study, tmp_path, capsys):
    config = tmp_path / "micro.json"
    config.write_text(
        json.dumps(
            {
                "model": {"zeta": [0.5, 0.9], "f": [1.0, 1.0], "sigma": 1e-3, "n": 8},
                "R": 60,
                "N_ref": 60,
                "window": [0.3, 1.1],
                "points": 64,
                "tau": 0.5,
            }
        )
    )
    out = tmp_path / "out"
    assert study.main(["--config", str(config), "--seeds", "2", "--out", str(out)]) == 0
    for seed in ("seed_00", "seed_01"):
        files = sorted(p.name for p in (out / seed).iterdir())
        assert files == ["densities.csv", "metadata.json", "modes.json", "params.json"]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[2:4]] == ["0", "1"]
    assert any(
        line.startswith("proposed recovered all 2 modes on ") and "/2 seeds" in line
        for line in lines
    )
