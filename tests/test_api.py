"""Every exported name resolves; a run and an estimate load neither scipy.optimize,
scipy.linalg nor multiprocessing."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pencilkde
from pencilkde import pencil

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_export_resolves():
    modules = [pencilkde] + [
        importlib.import_module(f"pencilkde.{info.name}")
        for info in pkgutil.iter_modules(pencilkde.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_run_does_not_import_scipy_optimize():
    # scipy.optimize costs every process about 17 MiB and 0.2 s, scipy.linalg about 6 MiB
    code = """
import sys, tempfile
from pathlib import Path
import numpy as np
from pencilkde import cli
from pencilkde.harness import ExperimentConfig, emit, run
from pencilkde.multiexp import Dataset, SignalModel, generate, write_dataset_csv
names = ("scipy.optimize", "scipy.linalg", "multiprocessing")
loaded = lambda: [m for m in names if m in sys.modules]
print(loaded())
model = SignalModel(zeta=(0.5, 0.9), f=(1.0, 1.0), sigma=1e-3, n=8)
cfg = ExperimentConfig(model=model, R=20, N_ref=40, window=(0.3, 1.1), points=64, tau=0.5,
                       seed=7, threads=2)
with tempfile.TemporaryDirectory() as out:
    report = run(cfg)
    assert report.fit.converged
    emit(report, out)
    data = Path(out) / "data.csv"
    write_dataset_csv(data, Dataset(data=np.stack([generate(model, 7, r) for r in range(20)])))
    argv = ["estimate", f"--data={data}", "--window=0.3,1.1", "--points=64", f"--out={out}/e"]
    assert cli.main(argv) == 0
print(loaded())
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # the f2py fallback of dggev is the one user of scipy.linalg in a run
    after = "[]" if pencil.DGGEV == "ctypes" else "['scipy.linalg']"
    assert (lines[0], lines[-1]) == ("[]", after)
