"""Monte Carlo experiment driver: simulate, decompose, estimate, emit.

A run generates N_ref noisy replications of a multiexponential signal,
decomposes each into sign-normalized real Schur pairs, builds the reference
histogram from all of them and both density estimates from the first R, and
reports fitted parameters, bandwidths, modes, counts, and per-phase timing.
All reductions happen on the main process in replication order, so reports
are identical for any worker count.
"""

from __future__ import annotations

import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version
from .kde import (
    DensityGrid,
    EigenSample,
    FitResult,
    Mode,
    bandwidth_t_star_details,
    count_outside,
    empirical_density,
    extract_modes,
    fit_reference,
    gaussian_bandwidth,
    gaussian_estimate,
    pooled_correlation,
    proposed_estimate,
)
from .multiexp import SignalModel, generate, select_n
from .pencil import real_pairs_fast

METHODS = ("gaussian", "proposed", "both")

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "PhaseError",
    "run",
    "emit",
    "decompose_record",
    "decompose_replications",
    "sample_from_pairs",
    "estimate_pipeline",
]


class PhaseError(RuntimeError):
    """A pipeline phase failed; carries the phase name and the original error."""

    def __init__(self, phase: str, cause: BaseException):
        super().__init__(f"phase '{phase}': {cause}")
        self.phase = phase
        self.cause = cause


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo experiment."""

    model: SignalModel
    R: int
    N_ref: int
    window: tuple
    points: int = 256
    tau: float = 2.0
    seed: int = 0
    method: str = "both"
    threads: int = 1

    def __post_init__(self):
        if not isinstance(self.model, SignalModel):
            raise ValueError("model must be a SignalModel")
        if self.R < 1:
            raise ValueError(f"R must be >= 1, got {self.R}")
        if self.R > self.N_ref:
            raise ValueError(f"R={self.R} exceeds N_ref={self.N_ref}")
        lo, hi = self.window
        if not float(lo) < float(hi):
            raise ValueError(f"window must be increasing, got {self.window}")
        object.__setattr__(self, "window", (float(lo), float(hi)))
        if self.points < 16:
            raise ValueError(f"points must be >= 16, got {self.points}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")

    @classmethod
    def from_dict(cls, cfg: dict) -> "ExperimentConfig":
        cfg = dict(cfg)
        try:
            m = dict(cfg.pop("model"))
        except KeyError:
            raise ValueError("config missing 'model'") from None
        n_max = int(cfg.pop("n_max", 512))
        n = m.get("n", "auto")
        if n == "auto":
            m["n"] = select_n(m["zeta"], m["f"], m["sigma"], n_max=n_max)
        model = SignalModel(
            zeta=tuple(m["zeta"]), f=tuple(m["f"]), sigma=float(m["sigma"]), n=int(m["n"])
        )
        known = {"R", "N_ref", "window", "points", "tau", "seed", "method", "threads"}
        unknown = set(cfg) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "R" not in cfg or "N_ref" not in cfg or "window" not in cfg:
            raise ValueError("config requires 'R', 'N_ref', and 'window'")
        kwargs = {
            "R": int(cfg["R"]),
            "N_ref": int(cfg["N_ref"]),
            "window": tuple(cfg["window"]),
        }
        for key, conv in (
            ("points", int),
            ("tau", float),
            ("seed", int),
            ("method", str),
            ("threads", int),
        ):
            if key in cfg:
                kwargs[key] = conv(cfg[key])
        return cls(model=model, **kwargs)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(cfg, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        return cls.from_dict(cfg)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    reference: DensityGrid
    empirical: DensityGrid
    gaussian: DensityGrid | None
    proposed: DensityGrid | None
    fit: FitResult | None
    rho_hat: float | None
    t_star: float | None
    t_plus: float | None
    modes_gaussian: list | None
    modes_proposed: list | None
    skipped_components: int
    counts: dict
    timings: dict = field(default_factory=dict)

    @property
    def modes(self) -> list:
        """Mode list of the primary method: proposed when present."""
        if self.modes_proposed is not None:
            return self.modes_proposed
        return self.modes_gaussian or []


def decompose_record(data) -> tuple:
    """(s, t, ratio, n_complex, n_infinite) of one record's real Schur pairs."""
    # a module global, looked up per call, so perfbench's tracer can wrap it
    rp = real_pairs_fast(data)
    return rp.s, rp.t, rp.ratio, rp.n_complex, rp.n_infinite


def _decompose_chunk(args):
    model, seed, r_lo, r_hi = args
    return [decompose_record(generate(model, seed, r)) for r in range(r_lo, r_hi)]


def decompose_replications(model: SignalModel, seed: int, n_rep: int, threads: int = 1):
    """Per-replication (s, t, ratio, n_complex, n_infinite), replication order."""
    if threads <= 1 or n_rep < 4:
        return _decompose_chunk((model, seed, 0, n_rep))
    step = max(1, -(-n_rep // (threads * 8)))
    chunks = [(model, seed, lo, min(lo + step, n_rep)) for lo in range(0, n_rep, step)]
    results = []
    with ProcessPoolExecutor(max_workers=threads) as pool:
        for part in pool.map(_decompose_chunk, chunks):
            results.extend(part)
    return results


def sample_from_pairs(pairs: list) -> tuple:
    """(EigenSample, counts dict) from decompose_replications output."""
    counts = {
        "real_kept": int(sum(p[2].size for p in pairs)),
        "complex_discarded": int(sum(p[3] for p in pairs)),
        "infinite_discarded": int(sum(p[4] for p in pairs)),
    }
    counts["blocks_total"] = (
        counts["real_kept"] + counts["complex_discarded"] + counts["infinite_discarded"]
    )
    sample = EigenSample(
        s=[p[0] for p in pairs],
        t=[p[1] for p in pairs],
        ratio=[p[2] for p in pairs],
        blocks_total=counts["blocks_total"],
    )
    return sample, counts


def estimate_pipeline(sample: EigenSample, window, points: int, tau: float, method: str):
    """Fit, bandwidths, estimates, and modes from a decomposed sample.

    Returns a dict with keys empirical, gaussian, proposed, fit, rho_hat,
    t_star, t_plus, modes_gaussian, modes_proposed, skipped_components.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    out: dict = {
        "gaussian": None,
        "proposed": None,
        "fit": None,
        "rho_hat": None,
        "t_star": None,
        "t_plus": None,
        "modes_gaussian": None,
        "modes_proposed": None,
        "skipped_components": 0,
    }
    h_emp = empirical_density(sample, window, points)
    out["empirical"] = h_emp
    grid_x = h_emp.x
    if method in ("gaussian", "both"):
        out["t_plus"] = gaussian_bandwidth(sample)
        out["gaussian"] = gaussian_estimate(sample, grid_x, out["t_plus"])
        out["modes_gaussian"] = extract_modes(out["gaussian"], tau)
    if method in ("proposed", "both"):
        out["fit"] = fit_reference(h_emp)
        out["rho_hat"] = pooled_correlation(sample)
        t_star, skipped = bandwidth_t_star_details(sample, out["fit"], out["rho_hat"], window)
        out["t_star"] = t_star
        out["skipped_components"] = skipped
        out["proposed"] = proposed_estimate(sample, grid_x, t_star, out["rho_hat"])
        out["modes_proposed"] = extract_modes(out["proposed"], tau)
    return out


def run(config: ExperimentConfig) -> ExperimentReport:
    """Execute the full pipeline; deterministic given config (any threads)."""
    timings: dict = {}

    def _phase(name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            raise PhaseError(name, exc) from exc
        timings[name] = time.perf_counter() - start
        return result

    pairs = _phase(
        "decompose",
        decompose_replications,
        config.model,
        config.seed,
        config.N_ref,
        config.threads,
    )
    ref_sample, ref_counts = sample_from_pairs(pairs)
    est_sample, est_counts = sample_from_pairs(pairs[: config.R])

    def _histograms():
        reference = empirical_density(ref_sample, config.window, config.points)
        outside = {
            "reference_outside_window": count_outside(ref_sample, config.window),
            "estimation_outside_window": count_outside(est_sample, config.window),
        }
        return reference, outside

    reference, outside = _phase("histogram", _histograms)
    est = _phase(
        "estimate",
        estimate_pipeline,
        est_sample,
        config.window,
        config.points,
        config.tau,
        config.method,
    )

    counts = {
        "reference": ref_counts,
        "estimation": est_counts,
        **outside,
    }
    return ExperimentReport(
        config=config, reference=reference, counts=counts, timings=timings, **est
    )


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _mode_payload(modes) -> list:
    return [{"x": m.x, "height": m.height} for m in modes]


def _csv(header, rows) -> str:
    """CSV text: the header line, then one line of _fmt values per row."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def emit(report: ExperimentReport, out_dir) -> list:
    """Write densities.csv, modes.json, params.json, metadata.json.

    Pure function of the report: identical reports produce identical bytes.
    Returns the written paths.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PhaseError("emit", RuntimeError(f"cannot create {out}: {exc}")) from exc

    cfg = report.config
    nan_col = np.full(cfg.points, np.nan)
    columns = [
        report.reference.x,
        report.reference.y,
        report.empirical.y,
        report.gaussian.y if report.gaussian is not None else nan_col,
        report.proposed.y if report.proposed is not None else nan_col,
    ]

    written = []

    def _write(path: Path, text: str):
        try:
            path.write_text(text)
        except OSError as exc:
            raise PhaseError("emit", RuntimeError(f"cannot write {path}: {exc}")) from exc
        written.append(path)

    header = ["x", "reference", "empirical", "gaussian", "proposed"]
    _write(out / "densities.csv", _csv(header, zip(*columns)))

    _write(out / "modes.json", json.dumps(_mode_payload(report.modes), sort_keys=True) + "\n")

    params = {
        "config": cfg.to_dict(),
        "p": cfg.model.n // 2,
        "t0": None if report.fit is None else report.fit.t0,
        "mu0": None if report.fit is None else report.fit.mu0,
        "rho0": None if report.fit is None else report.fit.rho0,
        "fit_objective": None if report.fit is None else report.fit.objective,
        "rho_hat": report.rho_hat,
        "t_star": report.t_star,
        "t_plus": report.t_plus,
        "skipped_components": report.skipped_components,
        "counts": report.counts,
        "modes_gaussian": None
        if report.modes_gaussian is None
        else _mode_payload(report.modes_gaussian),
        "modes_proposed": None
        if report.modes_proposed is None
        else _mode_payload(report.modes_proposed),
    }
    _write(out / "params.json", json.dumps(params, sort_keys=True, indent=2) + "\n")

    metadata = {
        "seed": cfg.seed,
        "threads": cfg.threads,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "pencilkde": _pkg_version,
        },
        "timings": report.timings,
    }
    if report.fit is not None:
        metadata["fit"] = {
            "nfev": list(report.fit.nfev),
            "converged_starts": report.fit.n_converged,
            "at_t_cap": report.fit.at_t_cap,
            "at_rho_cap": report.fit.at_rho_cap,
        }
    _write(out / "metadata.json", json.dumps(metadata, sort_keys=True, indent=2) + "\n")
    return written
