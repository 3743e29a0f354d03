"""One child process of the benchmark: set up a workload, then time its operation.

Started by ``perfbench/run.py`` with PYTHONPATH at the checkout's ``src`` and
the BLAS/OpenMP thread variables pinned to 1. It prints one JSON object as
the last line of standard output.

Workloads (``pencilkde`` always runs with threads=1):

- ``model1``: ``harness.run`` + ``harness.emit`` on configs/model1.json with
  N_ref lowered to MODEL1_N_REF; many small (64x64) pencils, so per-call
  overhead of ``pencil`` dominates.
- ``model2``: the same path on configs/model2.json; few large (163x163)
  pencils bound by LAPACK, and ``kde`` at its heaviest (8192-point grid).
- ``model2_estimate``: set-up decomposes model2's records into an
  ``EigenSample``; the operation is ``harness.estimate_pipeline`` plus writing
  its densities and modes, so ``kde`` does nearly all the work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from reference import ReferenceProcess
from tracing import MINIMIZE, Tracer, installed

from pencilkde import harness
from pencilkde.harness import _fmt, _mode_payload
from pencilkde.kde import count_outside

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("model1", "model2", "model2_estimate")
# 10,000 reference records take ~28 s per run; 2,000 keep pencil at ~90% of
# the operation while fitting several operations in one run. R and p are
# unchanged, so the estimate phase is the paper's.
MODEL1_N_REF = 2000
# the recovery tolerance of scripts/run_model1.py
MODE_TOL = 0.03
# t0 within this relative distance of span^2 counts as pinned at the cap
CAP_RTOL = 1e-6
# layers whose self time is only glue around wrapped calls; leaf coverage
# leaves them out
GLUE_LAYERS = ("bench.op", "harness.run", "harness.estimate_pipeline")


class Workload:
    """A configured experiment; ``run`` is the timed operation."""

    def __init__(self, name: str, seed: int):
        raw = json.loads((ROOT / "configs" / f"{name.split('_')[0]}.json").read_text())
        raw["seed"] = seed
        raw["threads"] = 1
        if name == "model1":
            raw["N_ref"] = MODEL1_N_REF
        self.cfg = harness.ExperimentConfig.from_dict(raw)
        self.truth = np.sort(raw["model"]["zeta"])
        self.columns = ["x", "reference", "empirical", "gaussian", "proposed"]
        self.sample = None
        if name == "model2_estimate":
            pairs = harness.decompose_replications(
                self.cfg.model, self.cfg.seed, self.cfg.R, self.cfg.threads
            )
            self.sample, self.counts = harness.sample_from_pairs(pairs)
            self.outside = count_outside(self.sample, self.cfg.window)
            self.columns = ["x", "empirical", "gaussian", "proposed"]

    def run(self, out: Path):
        """The timed operation; returns its result for ``layer_facts``."""
        cfg = self.cfg
        if self.sample is None:
            report = harness.run(cfg)
            return report, harness.emit(report, out)
        est = harness.estimate_pipeline(self.sample, cfg.window, cfg.points, cfg.tau, "both")
        out.mkdir(parents=True, exist_ok=True)
        cols = [est["empirical"].x, est["empirical"].y, est["gaussian"].y, est["proposed"].y]
        lines = [",".join(self.columns)]
        lines += [",".join(_fmt(c[i]) for c in cols) for i in range(cfg.points)]
        (out / "densities.csv").write_text("\n".join(lines) + "\n")
        modes = _mode_payload(est["modes_proposed"])
        (out / "modes.json").write_text(json.dumps(modes, sort_keys=True) + "\n")
        return est, []

    def check(self, out: Path) -> dict:
        """Validate the artefacts; raises ValueError on any defect."""
        cfg = self.cfg
        lo, hi = cfg.window
        rows = (out / "densities.csv").read_text().splitlines()
        if rows[0] != ",".join(self.columns):
            raise ValueError(f"densities.csv header {rows[0]!r}")
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        if data.shape != (cfg.points, len(self.columns)):
            raise ValueError(f"densities.csv shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("densities.csv holds non-finite values")
        x, dens = data[:, 0], data[:, 1:]
        if not (np.all(np.diff(x) > 0) and lo < x[0] and x[-1] < hi):
            raise ValueError("density grid not increasing inside the window")
        if np.any(dens < 0.0):
            raise ValueError("negative density")
        mass = np.trapezoid(dens, x, axis=0)
        if not np.all((mass > 0.0) & (mass < 1.01)):
            raise ValueError(f"density mass {mass} outside (0, 1.01)")
        modes = json.loads((out / "modes.json").read_text())
        xs = np.array([m["x"] for m in modes])
        if any(not (lo < m["x"] < hi and m["height"] > cfg.tau) for m in modes):
            raise ValueError("mode outside the window or below tau")
        if self.sample is None:
            params = json.loads((out / "params.json").read_text())
            json.loads((out / "metadata.json").read_text())
            if not params["t_star"] > 0.0 or not params["t_plus"] > 0.0:
                raise ValueError("nonpositive bandwidth")
        hit = sum(bool(xs.size and np.min(np.abs(xs - z)) <= MODE_TOL) for z in self.truth)
        if hit < 1:
            raise ValueError("no true decay factor recovered")
        return {
            "modes_hit": hit,
            "sha256": {
                f: hashlib.sha256((out / f).read_bytes()).hexdigest()
                for f in ("densities.csv", "modes.json")
            },
        }

    def layer_facts(self, result) -> dict:
        """Counts of the operation, taken from its result after timing."""
        res, written = result
        if self.sample is None:
            counts = res.counts["reference"]
            kept = res.counts["estimation"]["real_kept"]
            outside = res.counts["estimation_outside_window"]
            fit, grid, skipped = res.fit, res.empirical.x, res.skipped_components
        else:
            counts, kept, outside = self.counts, self.counts["real_kept"], self.outside
            fit, grid, skipped = res["fit"], res["empirical"].x, res["skipped_components"]
        width = grid[1] - grid[0]
        t_cap = (grid[-1] - grid[0] + width) ** 2
        p = self.cfg.model.n // 2
        return {
            "pencil.eig_total": counts["blocks_total"],
            "pencil.eig_complex": counts["complex_discarded"],
            "pencil.real_kept_ratio": counts["real_kept"] / counts["blocks_total"],
            "pencil.bytes_per_rep_computed": 2 * p * p * 8,
            "kde.fit_reference.at_cap": int(fit.t0 >= t_cap * (1.0 - CAP_RTOL)),
            "kde.bandwidth_t_star_details.components": kept,
            "kde.bandwidth_t_star_details.skipped": skipped,
            "kde.proposed_estimate.kernel_evals_computed": kept * grid.size,
            "kde.gaussian_estimate.kernel_evals_computed": kept * grid.size,
            "kde.outside_window_ratio": outside / kept,
            "harness.emit.bytes": sum(Path(f).stat().st_size for f in written),
        }


def layer_metrics(tracer: Tracer, facts: dict) -> dict:
    """Per-layer metrics of one traced operation."""
    self_s, calls = tracer.self_times()
    m = {name + ".self_s": s for name, s in self_s.items()}
    # minimize runs only inside fit_reference: its time belongs to that layer
    m["kde.fit_reference.minimize_s"] = self_s.get(MINIMIZE, 0.0)
    m["kde.fit_reference.self_s"] = m.get("kde.fit_reference.self_s", 0.0) + m.pop(
        MINIMIZE + ".self_s", 0.0
    )
    m["kde.fit_reference.nfev"] = tracer.nfev
    for name in ("multiexp.generate", "pencil.real_pairs_fast"):
        m[name + ".calls"] = calls.get(name, 0)
    n_qz = m["pencil.real_pairs_fast.calls"]
    qz_s = m.get("pencil.real_pairs_fast.self_s", 0.0)
    m["pencil.real_pairs_fast.us_per_call"] = qz_s / n_qz * 1e6 if n_qz else 0.0
    evals = facts["kde.proposed_estimate.kernel_evals_computed"]
    m["kde.proposed_estimate.ns_per_eval"] = (
        m.get("kde.proposed_estimate.self_s", 0.0) / evals * 1e9
    )
    op = tracer.spans[0]
    leaves = sum(t for name, t in self_s.items() if name not in GLUE_LAYERS)
    m["trace.leaf_coverage"] = leaves / (op[2] - op[1])
    m.update(facts)
    return m


def measure(work: Workload, seconds: float, trace: bool, scratch: Path) -> dict:
    """Run operations for ``seconds``; with ``trace`` every second one is traced.

    The reference loop runs before the first operation and after each one;
    an operation's ``ref_s`` is the mean pass time of the two blocks of
    passes around it.
    """
    ops, layers, spans = [], [], []
    with ReferenceProcess() as reference:
        start = time.perf_counter()
        ref_before = reference()
        i = 0
        while True:
            tracer = Tracer() if trace and i % 2 == 1 else None
            out = scratch / f"op{i}"
            rec: dict = {"traced": tracer is not None}
            with installed(tracer) if tracer else nullcontext():
                root = tracer.enter("bench.op") if tracer else None
                t0 = time.perf_counter()
                try:
                    result = work.run(out)
                except Exception:  # a failed operation is counted, not fatal
                    result = None
                    rec["error"] = traceback.format_exc()
                rec["wall_s"] = time.perf_counter() - t0
                if tracer:
                    tracer.exit(root)
            ref_after = reference()
            rec["ref_s"] = 0.5 * (ref_before + ref_after)
            rec["wall_ref"] = rec["wall_s"] / rec["ref_s"]
            ref_before = ref_after
            if result is not None:
                try:
                    rec.update(work.check(out))
                    if tracer:
                        layers.append(layer_metrics(tracer, work.layer_facts(result)))
                        spans = tracer.dump()
                except (OSError, ValueError, KeyError, IndexError):
                    rec["error"] = traceback.format_exc()
            if "error" in rec:
                print(rec["error"], file=sys.stderr)
            rec["ok"] = "error" not in rec
            ops.append(rec)
            shutil.rmtree(out, ignore_errors=True)
            i += 1
            if time.perf_counter() - start >= seconds and i >= (2 if trace else 1):
                break
    layer = {k: statistics.median(d[k] for d in layers) for k in layers[0]} if layers else {}
    return {"ops": ops, "layers": layer, "spans": spans}


def _machine() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True, help="parent's time.monotonic()")
    ap.add_argument("--measure", type=float, default=None, help="seconds of operations")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", type=Path, required=True)
    args = ap.parse_args(argv)

    work = Workload(args.workload, args.seed)
    out = {"setup_s": time.monotonic() - args.spawned_at}
    if args.measure is not None:
        scratch = args.scratch / f"{args.workload}_{args.seed}_{os.getpid()}"
        try:
            out.update(measure(work, args.measure, bool(args.trace), scratch))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        out["machine"] = _machine()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
