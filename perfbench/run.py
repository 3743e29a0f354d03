#!/usr/bin/env python3
"""pencilkde benchmark: end-to-end and per-layer metrics of the pencil/KDE pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload model1 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py            # every workload of BENCHMARK.json

Every set-up and every measured run happens in a fresh child process
(``perfbench/worker.py``) whose BLAS/OpenMP thread variables are pinned to 1.
With ``--trace 0`` the benchmark starts SETUPS children; each times its
set-up, and the last one then runs the operation repeatedly for ``--seconds``
and reports the end-to-end metrics. The operation's time is reported as
``wall_ref``, its wall time over that of a fixed reference loop timed just
before and after it, which cancels most of the host's speed drift; the raw
seconds go to the result record. With ``--trace 1`` one child alternates
untraced and traced operations and reports the per-layer metrics of the
traced ones. Every operation's artefacts are checked, and every operation of
a run, traced or not, must write byte-identical densities.csv and modes.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A record with the hashes, per-operation times
and machine facts goes to .perfbench_out/results/, and the spans of the last
traced operation to .perfbench_out/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
# model2 can be run by name but is not in BENCHMARK.json: its ~9 s operations
# leave two or three per run, too few to average out the host's noise
WORKLOADS = ("model1", "model2", "model2_estimate")
# children that time their set-up; setup_s is their median
SETUPS = 3
# a run must finish within 180 s
DEADLINE_S = 170.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def _spawn(workload: str, seed: int, deadline: float, measure=None, trace=0) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--scratch", str(OUT / "work"), "--trace", str(trace)]
    if measure is not None:
        cmd += ["--measure", str(measure)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited with {proc.returncode}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    child["thread_env"] = {k: env[k] for k in THREAD_ENV}
    return child


def run_workload(workload: str, seed: int, seconds: float, trace: int, per_layer: list) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        setups = []
        child = _spawn(workload, seed, deadline, measure=seconds, trace=1)
    else:
        setups = [_spawn(workload, seed, deadline)["setup_s"] for _ in range(SETUPS - 1)]
        child = _spawn(workload, seed, deadline, measure=seconds)
    setups.append(child["setup_s"])
    ops = child["ops"]
    good = [op for op in ops if op["ok"]]
    hashes = {json.dumps(op["sha256"], sort_keys=True) for op in good}
    correct = len(good) == len(ops) and len(hashes) == 1
    plain = [op for op in ops if not op["traced"]]
    if trace:
        traced = [op for op in ops if op["traced"]]
        layers = child["layers"]
        layers["trace.untraced_wall_s"] = statistics.median(op["wall_s"] for op in plain)
        layers["trace.traced_wall_s"] = statistics.median(op["wall_s"] for op in traced)
        layers["trace.overhead_ratio"] = statistics.median(
            op["wall_ref"] for op in traced
        ) / statistics.median(op["wall_ref"] for op in plain)
        layers["trace.ref_loop_s"] = statistics.median(op["ref_s"] for op in ops)
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in per_layer}
    else:
        metrics = {
            "wall_ref": {"value": statistics.median(op["wall_ref"] for op in plain), "unit": "ref"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MiB"},
            "ok_rate": {"value": len(good) / len(ops), "unit": "ratio"},
            "modes_hit": {
                "value": statistics.median(op["modes_hit"] for op in good) if good else 0,
                "unit": "count",
            },
        }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": correct, "attempted": len(ops), "failed": len(ops) - len(good),
        "metrics": metrics,
        "sha256": good[0]["sha256"] if len(hashes) == 1 else sorted(hashes),
        "setup_s": setups, "wall_s": [op["wall_s"] for op in ops],
        "ref_s": [op["ref_s"] for op in ops],
        "machine": dict(child["machine"], thread_env=child["thread_env"]),
    }
    name = f"{workload}_seed{seed}_trace{trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n")
    if child["spans"]:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        (OUT / "spans" / f"{name}.json").write_text(json.dumps(child["spans"]) + "\n")
    return record


def _report(rec: dict) -> None:
    print(f"{rec['workload']} seed {rec['seed']} trace {rec['trace']}: "
          f"{rec['attempted']} ops, {rec['failed']} failed, correct={rec['correct']}")
    for name, m in rec["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"  sha256 {json.dumps(rec['sha256'])}")
    print(f"  machine {json.dumps(rec['machine'], sort_keys=True)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/pencilkde/harness.py", "configs/model1.json",
                           "configs/model2.json", "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a pencilkde checkout, missing {missing}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = bench["per_layer"]
    if args.workload == "all":
        workloads = [w["name"] for w in bench["workloads"]]
    else:
        workloads = [args.workload]
    records = []
    for w in workloads:
        rec = run_workload(w, args.seed, args.seconds, args.trace, per_layer)
        _report(rec)
        records.append(rec)
    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in records for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
