#!/usr/bin/env python3
"""Multi-seed study: mode recovery of the proposed estimate against the Gaussian baseline.

Runs the full pipeline of one config for seeds 0..N-1, writes each seed's
artifacts to OUT/seed_NN/, and prints one row per seed. A true decay ratio
counts as a hit when a mode lies within --tol of it. A seed counts as
recovered when it has at least --min-hits hits; at the default, all p true
ratios, the estimate must also have exactly p modes.

    python scripts/study.py                            # model1: 3 separated ratios
    python scripts/study.py --config configs/model2.json --tol 0.005 --min-hits 4
"""

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from pencilkde.harness import ExperimentConfig, emit, run

DEFAULT_CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "model1.json"


def mode_positions(modes):
    return np.sort([m.x for m in modes])


def recovery(positions, truth, tol):
    if positions.size == 0:
        return 0
    return int(sum(np.min(np.abs(positions - z)) <= tol for z in truth))


def recovered(positions, hit, p, min_hits):
    """At least min_hits hits; when min_hits is p, also exactly p modes."""
    return hit >= min_hits and (min_hits != p or positions.size == p)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=pathlib.Path, default=DEFAULT_CONFIG)
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds, starting at 0")
    parser.add_argument("--tol", type=float, default=0.03, help="mode-recovery tolerance")
    parser.add_argument(
        "--min-hits", type=int, default=None, help="hits that make a seed recovered (default p)"
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None, help="output directory (default results/CONFIG)"
    )
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    raw = json.loads(args.config.read_text())
    truth = np.sort(raw["model"]["zeta"])
    p = truth.size
    min_hits = p if args.min_hits is None else args.min_hits
    out = args.out or pathlib.Path("results") / args.config.stem

    header = (
        f"{'seed':>4} {'hit':>5} {'gauss':>5} {'t0':>10} {'t+':>10} {'rho':>7} {'sec':>7}"
        "  proposed modes"
    )
    print(header)
    print("-" * len(header))

    good = gauss_good = 0
    hits, t0s, tps = [], [], []
    for seed in range(args.seeds):
        cfg = dict(raw, seed=seed)
        if args.threads is not None:
            cfg["threads"] = args.threads
        start = time.perf_counter()
        report = run(ExperimentConfig.from_dict(cfg))
        elapsed = time.perf_counter() - start
        emit(report, out / f"seed_{seed:02d}")

        pos = mode_positions(report.modes_proposed)
        hit = recovery(pos, truth, args.tol)
        good += recovered(pos, hit, p, min_hits)
        gpos = mode_positions(report.modes_gaussian)
        ghit = recovery(gpos, truth, args.tol)
        gauss_good += recovered(gpos, ghit, p, min_hits)
        hits.append(hit)
        t0s.append(report.fit.t0)
        tps.append(report.t_plus)
        print(
            f"{seed:>4} {hit:>3}/{p} {ghit:>3}/{p} {report.fit.t0:>10.3e}"
            f" {report.t_plus:>10.3e} {report.rho_hat:>7.4f} {elapsed:>7.1f}"
            f"  {np.array2string(pos, precision=4)}"
        )

    print("-" * len(header))
    rule = f"all {p} modes" if min_hits == p else f"at least {min_hits} of {p} modes"
    print(
        f"proposed recovered {rule} on {good}/{args.seeds} seeds"
        f" (gaussian baseline: {gauss_good}/{args.seeds}; per-seed hits: {hits})"
    )
    print(f"median fitted t0 {np.median(t0s):.3e}, median refined bandwidth {np.median(tps):.3e}")
    print(f"artifacts under {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
