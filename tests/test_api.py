"""Every exported name resolves; a run, its emit and every subcommand load none of
scipy, scipy.special, scipy.optimize, scipy.linalg, scipy.fft, multiprocessing or
pencilkde.oracles, a serial run neither numpy.ma nor concurrent.futures nor a second
OpenBLAS, but numpy.fft; erf falls back to scipy.special's."""

import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import scipy

import pencilkde
from pencilkde import pencil, specfun
from pencilkde.harness import ExperimentConfig, emit, run
from pencilkde.multiexp import SignalModel

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


def _python(code: str) -> list:
    """Standard output lines of code, run by a fresh interpreter on the package's source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_imports_no_scipy_special_optimize_or_linalg():
    # scipy.special costs every process about 24 MiB, scipy.optimize about 17 MiB and
    # 0.2 s, scipy.linalg about 6 MiB, the bare scipy package about 1.4 MiB
    lines = _python("""
import dataclasses, json, sys, tempfile
from pathlib import Path
import numpy as np
import pencilkde
print("pencilkde.oracles" in sys.modules)
from pencilkde import cli
from pencilkde.harness import ExperimentConfig, emit, run
from pencilkde.multiexp import Dataset, SignalModel, generate, write_dataset_csv
names = ("scipy", "scipy.special", "scipy.optimize", "scipy.linalg", "scipy.fft",
         "multiprocessing")
loaded = lambda: [m for m in names if m in sys.modules]
print(loaded())
model = SignalModel(zeta=(0.5, 0.9), f=(1.0, 1.0), sigma=1e-3, n=8)
cfg = ExperimentConfig(model=model, R=20, N_ref=40, window=(0.3, 1.1), points=64, tau=0.5,
                       seed=7, threads=1)
with tempfile.TemporaryDirectory() as out:
    emit(run(cfg), out)
print([m for m in ("numpy.ma", "concurrent.futures") if m in sys.modules])
print([m for m in ("numpy.fft", "scipy.fft") if m in sys.modules])
maps = Path("/proc/self/maps")
print(sorted({line.split()[-1] for line in maps.read_text().splitlines()
              if "openblas" in line}) if maps.exists() else None)
with tempfile.TemporaryDirectory() as out:
    report = run(dataclasses.replace(cfg, threads=2))
    assert report.fit.converged
    emit(report, out)
    print(json.loads((Path(out) / "metadata.json").read_text())["versions"]["scipy"])
    data = Path(out) / "data.csv"
    write_dataset_csv(data, Dataset(data=np.stack([generate(model, 7, r) for r in range(20)])))
    argv = ["estimate", f"--data={data}", "--window=0.3,1.1", "--points=64", f"--out={out}/e"]
    assert cli.main(argv) == 0
    spec = ["--t=0.01", "--nu-w=0.8", "--rho=0.3", "--xmin=0.5", "--xmax=1.2", "--points=32"]
    assert cli.main(["density", *spec, f"--out={out}/h.csv"]) == 0
    assert cli.main(["pde-check", *spec, f"--out={out}/pde.csv"]) == 0
    assert cli.main(["modes", f"--density={out}/e/density.csv", "--tau=0.5"]) == 0
print("pencilkde.oracles" in sys.modules)
print(loaded())
spec = pencilkde.GeneralGaussianSpec
print(spec is sys.modules["pencilkde.oracles"].GeneralGaussianSpec)
""")
    # the paper oracles load on first use of their names, and no run or subcommand uses them
    assert (lines[0], lines[-3], lines[-1]) == ("False", "False", "True")
    # the f2py fallback of the QZ is the one user of scipy.linalg in a run
    after = "[]" if pencil.QZ == "ctypes" else "['scipy', 'scipy.linalg']"
    assert (lines[1], lines[2], lines[5], lines[-2]) == ("[]", "[]", scipy.__version__, after)
    # the binned Gaussian estimate transforms with numpy's own pocketfft
    assert lines[3] == "['numpy.fft']"
    # one OpenBLAS mapped: numpy's, which also serves the QZ
    blas = pencil._openblas
    if lines[4] != "None" and blas is not None:
        assert lines[4] == repr([str(blas.path)])


def test_erf_falls_back_to_scipy_special(tmp_path):
    # scipy's directory not found: erf from scipy.special, same bytes
    model = SignalModel(zeta=(0.5, 0.9), f=(1.0, 1.0), sigma=1e-3, n=8)
    cfg = ExperimentConfig(model=model, R=20, N_ref=40, window=(0.3, 1.1), points=64,
                           tau=0.5, seed=7, threads=1)
    emit(run(cfg), tmp_path)
    lines = _python("""
import hashlib, importlib.util, json, sys, tempfile
from pathlib import Path
find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, *a: None if name == "scipy" else find_spec(name, *a)
from pencilkde import specfun
from pencilkde.harness import ExperimentConfig, emit, run
from pencilkde.multiexp import SignalModel
importlib.util.find_spec = find_spec
print(specfun.ERF, "scipy.special" in sys.modules)
model = SignalModel(zeta=(0.5, 0.9), f=(1.0, 1.0), sigma=1e-3, n=8)
cfg = ExperimentConfig(model=model, R=20, N_ref=40, window=(0.3, 1.1), points=64, tau=0.5,
                       seed=7, threads=1)
with tempfile.TemporaryDirectory() as out:
    emit(run(cfg), out)
    print(json.loads((Path(out) / "metadata.json").read_text())["erf"])
    for name in ("densities.csv", "modes.json", "params.json"):
        print(hashlib.sha256((Path(out) / name).read_bytes()).hexdigest())
""")
    want = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("densities.csv", "modes.json", "params.json")]
    assert lines == ["scipy.special True", "scipy.special"] + want
    assert json.loads((tmp_path / "metadata.json").read_text())["erf"] == specfun.ERF


def test_scipy_special_binds_the_extension_specfun_loaded():
    # specfun loads scipy.special's _special_ufuncs first; scipy.special, imported
    # after it, still has the module as its attribute, with the same ufuncs
    lines = _python("""
from pencilkde import specfun
import scipy.special
print(scipy.special._special_ufuncs.erf is specfun.erf, scipy.special.erfc is specfun.erfc)
""")
    assert lines == ["True True"]
