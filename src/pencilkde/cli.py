"""Command-line interface.

Subcommands: simulate (full Monte Carlo pipeline from a JSON config),
density (exact ratio density on a grid), pde-check (evolution-identity
residual table), estimate (density estimation from a stored dataset), and
modes (local maxima of a stored density CSV). Exit codes: 0 success,
2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, pencil
from .harness import (
    ExperimentConfig,
    PhaseError,
    _csv,
    _fit_params,
    _metadata_json,
    _mode_payload,
    _modes_json,
    available_cpus,
    decompose_records,
    decompose_workers,
    emit,
    estimate_pipeline,
    run,
    sample_from_pairs,
)
from .kde import (
    MAX_POINTS,
    DensityGrid,
    FitNonConvergenceError,
    _bin_grid,
    _check_tau,
    extract_modes,
)
from .multiexp import read_dataset_csv, read_dataset_json
from .pde import SingularPointError, _residual_row, singular_mask
from .pencil import DecompositionError
from .ratio_density import EqualVarSpec, density_equal_var

NUMERICAL_ERRORS = (
    DecompositionError,
    FitNonConvergenceError,
    SingularPointError,
    FloatingPointError,
    ZeroDivisionError,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _parse_window(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"window must be 'lo,hi', got {text!r}")
    return float(parts[0]), float(parts[1])


def _write_rows(out, header: list, rows) -> None:
    text = _csv(header, rows)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _add_spec_args(sub) -> None:
    sub.add_argument("--t", type=float, required=True, help="variance parameter (> 0)")
    sub.add_argument("--nu-v", type=float, default=1.0, help="denominator mean (default 1)")
    sub.add_argument("--nu-w", type=float, required=True, help="numerator mean")
    sub.add_argument("--rho", type=float, default=0.0, help="correlation in (-1, 1)")
    sub.add_argument("--xmin", type=float, required=True)
    sub.add_argument("--xmax", type=float, required=True)
    sub.add_argument("--points", type=int, default=256)
    sub.add_argument("--out", default=None, help="output CSV path (default stdout)")


def _spec_grid(args) -> tuple:
    """The EqualVarSpec and the x grid of the _add_spec_args options."""
    spec = EqualVarSpec(nu_v=args.nu_v, nu_w=args.nu_w, rho=args.rho, t=args.t)
    if not args.xmin < args.xmax:
        raise ValueError(f"xmin must be < xmax, got {args.xmin}, {args.xmax}")
    if not 2 <= args.points <= MAX_POINTS:
        raise ValueError(f"points must be in [2, {MAX_POINTS}], got {args.points}")
    x = np.linspace(args.xmin, args.xmax, args.points)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"the grid from {args.xmin} to {args.xmax} is not finite")
    return spec, x


def _finite_row(xi, values) -> tuple:
    """The table row (xi, *values); FloatingPointError if a value is not finite."""
    if not all(math.isfinite(v) for v in values):
        raise FloatingPointError(f"non-finite value at x = {float(xi)!r}")
    return (xi, *values)


def _cmd_simulate(args) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    overrides = {"seed": args.seed, "threads": args.threads}
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
    report = run(config)
    emit(report, args.out)
    print(f"wrote {args.out}/densities.csv modes.json params.json metadata.json")
    for name, fitted in (("t0", report.fit.t0 if report.fit else None),
                         ("rho_hat", report.rho_hat),
                         ("t_star", report.t_star),
                         ("t_plus", report.t_plus)):
        if fitted is not None:
            print(f"{name} = {fitted:.6g}")
    print(f"modes: {json.dumps(_mode_payload(report.modes))}")
    return EXIT_OK


# every row is checked by _finite_row; numpy's overflow warnings would only repeat that
@np.errstate(all="ignore")
def _cmd_density(args) -> int:
    spec, x = _spec_grid(args)
    h = density_equal_var(spec, x)
    _write_rows(args.out, ["x", "h"], [_finite_row(xi, (hi,)) for xi, hi in zip(x, h)])
    return EXIT_OK


@np.errstate(all="ignore")
def _cmd_pde_check(args) -> int:
    spec, x = _spec_grid(args)
    tube = singular_mask(spec, spec.t, x)
    rows = []
    for xi, masked in zip(x, tube):
        try:
            if masked:
                raise SingularPointError(f"x = {xi} is in a singular tube")
            rows.append(_finite_row(xi, _residual_row(spec, xi)))
        except SingularPointError:
            rows.append((xi,) + (float("nan"),) * 6)
    _write_rows(args.out, ["x", "h", "h_t", "D", "C", "S", "residual"], rows)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    # a bad window, point count or tau fails before the dataset is read and decomposed
    window = _parse_window(args.window)
    _bin_grid(window, args.points)
    _check_tau(args.tau)
    path = Path(args.data)
    if not path.exists():
        raise ValueError(f"dataset not found: {path}")
    dataset = read_dataset_json(path) if path.suffix == ".json" else read_dataset_csv(path)
    threads = available_cpus()
    pairs = decompose_records(dataset.data.__getitem__, len(dataset.data), threads)
    sample, counts = sample_from_pairs(pairs)
    result = estimate_pipeline(sample, window, args.points, args.tau, args.method)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grid = result[args.method]
    _write_rows(out / "density.csv", ["x", "density"], zip(grid.x, grid.y))
    modes = result["modes_" + args.method]
    (out / "modes.json").write_text(_modes_json(modes))
    params = {
        "counts": counts,
        "method": args.method,
        "rho_hat": result["rho_hat"],
        "skipped_components": result["skipped_components"],
        **_fit_params(result["fit"]),
        "t_star": result["t_star"],
        "t_plus": result["t_plus"],
    }
    (out / "params.json").write_text(json.dumps(params, sort_keys=True, indent=2) + "\n")
    workers = decompose_workers(threads, len(dataset.data))
    (out / "metadata.json").write_text(
        _metadata_json(result["fit"], result["gaussian_plan"], threads=threads, workers=workers,
                       dggev=pencil.DGGEV)
    )
    print(f"modes: {json.dumps(_mode_payload(modes))}")
    return EXIT_OK


def _cmd_modes(args) -> int:
    _check_tau(args.tau)
    path = Path(args.density)
    if not path.exists():
        raise ValueError(f"density CSV not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV")
        rows = [row for row in reader]
    if args.column is not None:
        if args.column not in header:
            raise ValueError(f"{path}: no column {args.column!r} in {header}")
        col = header.index(args.column)
    elif len(header) == 2:
        col = 1
    elif "proposed" in header:
        col = header.index("proposed")
    else:
        raise ValueError(f"{path}: ambiguous columns {header}, pass --column")
    try:
        x = np.array([float(row[0]) for row in rows])
        y = np.array([float(row[col]) for row in rows])
    except (IndexError, ValueError):
        raise ValueError(f"{path}: malformed numeric rows") from None
    if np.any(~np.isfinite(y)):
        raise ValueError(f"{path}: column {header[col]!r} contains non-finite values")
    modes = extract_modes(DensityGrid(x=x, y=y), args.tau)
    print(json.dumps(_mode_payload(modes), sort_keys=True))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pencilkde",
        description="Ratio-of-Gaussians densities and pencil-eigenvalue density estimation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the full Monte Carlo pipeline from a JSON config")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--threads", type=int, default=None, help="override config threads")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("density", help="evaluate the exact ratio density on a grid")
    _add_spec_args(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("pde-check", help="evolution-identity residual table on a grid")
    _add_spec_args(p)
    p.set_defaults(func=_cmd_pde_check)

    p = sub.add_parser("estimate", help="density estimation from a stored dataset")
    p.add_argument("--data", required=True, help="dataset CSV or JSON")
    p.add_argument("--method", choices=["gaussian", "proposed"], default="proposed")
    p.add_argument("--window", required=True, help="evaluation window 'lo,hi'")
    p.add_argument("--points", type=int, default=256)
    p.add_argument("--tau", type=float, default=2.0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("modes", help="local maxima above a threshold from a density CSV")
    p.add_argument("--density", required=True, help="CSV with x in the first column")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--column", default=None, help="density column name")
    p.set_defaults(func=_cmd_modes)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PhaseError, *NUMERICAL_ERRORS, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.cause if isinstance(exc, PhaseError) else exc
        return EXIT_NUMERICAL if isinstance(cause, NUMERICAL_ERRORS) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
