"""Every exported name resolves; the package does not load scipy.optimize."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pencilkde

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
    # importing scipy.optimize adds about 17 MiB and 0.2 s to every process
    code = """
import sys
import pencilkde, pencilkde.cli
from pencilkde.harness import ExperimentConfig, run
from pencilkde.multiexp import SignalModel
model = SignalModel(zeta=(0.5, 0.9), f=(1.0, 1.0), sigma=1e-3, n=8)
config = ExperimentConfig(model=model, R=20, N_ref=40, window=(0.3, 1.1), points=64, seed=7)
report = run(config)
assert report.fit.converged
loaded = sorted(m for m in sys.modules if m.startswith("scipy.optimize"))
assert not loaded, loaded
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
