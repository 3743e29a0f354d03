"""Monte Carlo experiment driver: simulate, decompose, estimate, emit.

A run generates N_ref noisy replications of a multiexponential signal,
decomposes the first R into sign-normalized real Schur pairs and the rest
into real eigenvalues alone, builds the reference histogram from all of
them and both density estimates from the first R, and reports fitted
parameters, bandwidths, modes, counts, and per-phase timing. Records
decompose on a thread pool, each record alone; every reduction runs
afterwards in replication order, so reports are identical for any worker
count.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version
from . import pencil
from .kde import (
    _KERNEL_REACH,
    MAX_POINTS,
    DensityGrid,
    EigenSample,
    FitResult,
    GaussianPlan,
    ProposedGrid,
    RatioSample,
    _bin_grid,
    _check_tau,
    bandwidth_t_star_details,
    binned_gaussian_estimate,
    count_outside,
    empirical_density,
    extract_modes,
    fit_reference,
    gaussian_bandwidth,
    gaussian_estimate,  # not called here; perfbench's tracer wraps it by this name
    gaussian_plan,
    pooled_correlation,
    proposed_estimate,
)
from .multiexp import N_MAX, SignalModel, generate, select_n
from .pencil import real_pairs_fast, real_ratios_fast
from .specfun import ERF, scipy_version

METHODS = ("gaussian", "proposed", "both")
MAX_N_REF = 10**6  # far above the paper's 10,000 records

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "PhaseError",
    "run",
    "emit",
    "available_cpus",
    "decompose_workers",
    "decompose_records",
    "decompose_replications",
    "sample_from_pairs",
    "estimate_pipeline",
]


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class PhaseError(RuntimeError):
    """A pipeline phase failed; carries the phase name and the original error."""

    def __init__(self, phase: str, cause: BaseException):
        super().__init__(f"phase '{phase}': {cause}")
        self.phase = phase
        self.cause = cause


def _signal_model(value) -> SignalModel:
    """The SignalModel of a config's "model" object; n "auto" (or absent) runs select_n."""
    m = dict(value)
    n = m.get("n", "auto")
    n = select_n(m["zeta"], m["f"], m["sigma"]) if n == "auto" else int(n)
    return SignalModel(zeta=tuple(m["zeta"]), f=tuple(m["f"]), sigma=float(m["sigma"]), n=n)


def _pair(value) -> tuple:
    lo, hi = value
    return float(lo), float(hi)


# config key -> converter of its JSON value
_CONFIG_KEYS = {"model": _signal_model, "R": int, "N_ref": int, "window": _pair,
                "points": int, "tau": float, "seed": int, "method": str, "threads": int}


def _convert(key: str, value):
    """_CONFIG_KEYS[key](value), failing with a ValueError that names the key."""
    try:
        return _CONFIG_KEYS[key](value)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"config key {key!r}: {type(exc).__name__}: {exc}") from None


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
    # decomposition workers; decompose_workers caps them at available_cpus()
    threads: int = field(default_factory=available_cpus)

    def __post_init__(self):
        if not isinstance(self.model, SignalModel):
            raise ValueError("model must be a SignalModel")
        if self.R < 1:
            raise ValueError(f"R must be >= 1, got {self.R}")
        if self.R > self.N_ref:
            raise ValueError(f"R={self.R} exceeds N_ref={self.N_ref}")
        if self.N_ref > MAX_N_REF:
            raise ValueError(f"N_ref must be <= {MAX_N_REF}, got {self.N_ref}")
        if self.model.n > N_MAX:
            raise ValueError(f"model n must be <= {N_MAX}, got {self.model.n}")
        lo, hi = self.window
        object.__setattr__(self, "window", (float(lo), float(hi)))
        if not 16 <= self.points <= MAX_POINTS:
            raise ValueError(f"points must be in [16, {MAX_POINTS}], got {self.points}")
        # the histogram's grid, checked here so a bad window fails before decomposing
        _bin_grid(self.window, self.points)
        _check_tau(self.tau)
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")

    @classmethod
    def from_dict(cls, cfg: dict) -> "ExperimentConfig":
        if not {"model", "R", "N_ref", "window"} <= set(cfg):
            raise ValueError("config requires 'model', 'R', 'N_ref', and 'window'")
        unknown = set(cfg) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{key: _convert(key, v) for key, v in cfg.items()})

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
    proposed: ProposedGrid | None
    fit: FitResult | None
    rho_hat: float | None
    t_star: float | None
    t_plus: float | None
    modes_gaussian: list | None
    modes_proposed: list | None
    skipped_components: int
    counts: dict
    timings: dict = field(default_factory=dict)
    # the decomposition's threads, its QZ and T^-1 H bindings, how many records
    # decomposed which way, and how the Gaussian estimate was evaluated, for
    # metadata.json
    workers: int = 1
    qz: str = ""
    hqr: str | None = None
    decomposition: dict = field(default_factory=dict)
    gaussian_plan: GaussianPlan | None = None
    # the first R records' eigenvalues, which both estimates smooth
    sample: EigenSample | None = None

    @property
    def modes(self) -> list:
        """Mode list of the primary method: proposed when present."""
        if self.modes_proposed is not None:
            return self.modes_proposed
        return self.modes_gaussian or []


def decompose_workers(threads: int, n: int) -> int:
    """Threads decompose_records runs: threads capped at the CPUs and records.

    One with the f2py binding of the QZ, which holds the GIL.
    """
    if pencil.QZ != "ctypes":
        return 1
    return max(1, min(threads, available_cpus(), n))


def decompose_records(record, n: int, threads: int, *, pairs: int | None = None) -> list:
    """Each record's RealPairs, in order; past the first pairs records, its RealRatios.

    Record i < pairs (every record when pairs is None) is real_pairs_fast(
    record(i)), and the rest real_ratios_fast(record(i)). The records run on
    decompose_workers(threads, n) threads, on a thread pool when there are
    several, with the bound OpenBLAS pinned to one thread meanwhile: each
    record's decomposition runs alone on one thread, whichever it is.
    """
    pairs = n if pairs is None else pairs

    def one(i):
        # module globals, looked up per call, so perfbench's tracer can wrap them
        if i < pairs:
            return real_pairs_fast(record(i))
        return real_ratios_fast(record(i))

    workers = decompose_workers(threads, n)
    with pencil.one_blas_thread():
        if workers == 1:
            return [one(i) for i in range(n)]
        # imported here: a serial run has no use for concurrent.futures (about 1 MiB)
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, range(n)))


def decompose_replications(model: SignalModel, seed: int, n_rep: int, threads: int = 1, *,
                           pairs: int | None = None) -> list:
    """decompose_records of the model's replications 0 .. n_rep - 1 under seed."""
    # generate is a module global, looked up per call, as real_pairs_fast is
    return decompose_records(lambda r: generate(model, seed, r), n_rep, threads, pairs=pairs)


def _counts(records: list) -> dict:
    """The kept and discarded eigenvalue counts of a list of RealPairs or RealRatios."""
    counts = {
        "real_kept": int(sum(p.ratio.size for p in records)),
        "complex_discarded": int(sum(p.n_complex for p in records)),
        "infinite_discarded": int(sum(p.n_infinite for p in records)),
    }
    counts["blocks_total"] = sum(counts.values())
    return counts


def sample_from_pairs(pairs: list) -> tuple:
    """(EigenSample, counts dict) from a list of RealPairs."""
    counts = _counts(pairs)
    sample = EigenSample(s=[p.s for p in pairs], t=[p.t for p in pairs],
                         ratio=[p.ratio for p in pairs], blocks_total=counts["blocks_total"])
    return sample, counts


def _ratio_sample(records: list) -> tuple:
    """(RatioSample, counts dict) from a list of RealPairs or RealRatios: no s, no t."""
    counts = _counts(records)
    return RatioSample([p.ratio for p in records], blocks_total=counts["blocks_total"]), counts


def estimate_pipeline(sample: EigenSample, window, points: int, tau: float, method: str):
    """Fit, bandwidths, estimates, and modes from a decomposed sample.

    Returns a dict with keys empirical, gaussian, gaussian_plan, proposed,
    fit, rho_hat, t_star, t_plus, modes_gaussian, modes_proposed,
    skipped_components. The Gaussian estimate is the binned one
    (binned_gaussian_estimate); gaussian_plan says how it was evaluated. The
    bound OpenBLAS runs on one thread meanwhile, so the fit's and the
    correlation's matrix products have the same bits on any machine.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    with pencil.one_blas_thread():
        out: dict = dict.fromkeys(("gaussian", "gaussian_plan", "proposed", "fit", "rho_hat",
                                   "t_star", "t_plus", "modes_gaussian", "modes_proposed"))
        out["skipped_components"] = 0
        h_emp = empirical_density(sample, window, points)
        out["empirical"] = h_emp
        grid_x = h_emp.x
        if method in ("gaussian", "both"):
            out["t_plus"] = gaussian_bandwidth(sample)
            out["gaussian"] = binned_gaussian_estimate(sample, grid_x, out["t_plus"])
            out["gaussian_plan"] = gaussian_plan(grid_x, out["t_plus"])
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

    # only the estimates read pairs: the other records' eigenvalues fill the histogram
    records = _phase(
        "decompose",
        decompose_replications,
        config.model,
        config.seed,
        config.N_ref,
        config.threads,
        pairs=config.R,
    )
    ref_sample, ref_counts = _ratio_sample(records)
    est_sample, est_counts = sample_from_pairs(records[: config.R])
    decomposition = {
        "pairs": config.R,
        "eigenvalues": config.N_ref - config.R,
        "eigenvalues_by_qz": sum(rec.qz for rec in records[config.R:]),
    }
    del records  # both samples hold flat copies: free the per-record arrays

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
        config=config, reference=reference, counts=counts, timings=timings,
        workers=decompose_workers(config.threads, config.N_ref), qz=pencil.QZ, hqr=pencil.HQR,
        decomposition=decomposition, sample=est_sample, **est
    )


# a float's f"{v:.17g}" text; for an np.float64 the bound % skips numpy's __format__
_fmt = "%.17g".__mod__


def _mode_payload(modes) -> list | None:
    return None if modes is None else [{"x": m.x, "height": m.height} for m in modes]


def _modes_json(modes) -> str:
    """modes.json text: the mode list on one line."""
    return json.dumps(_mode_payload(modes), sort_keys=True) + "\n"


def _fit_params(fit: FitResult | None) -> dict:
    """The reference fit's t0, mu0 and rho0 for params.json; None without a fit."""
    return {name: None if fit is None else getattr(fit, name) for name in ("t0", "mu0", "rho0")}


def _metadata_json(fit: FitResult | None, gaussian: GaussianPlan | None,
                   proposed: ProposedGrid | None, **facts) -> str:
    """metadata.json text: facts, the erf binding and versions, and the fit's and both
    estimates' diagnostics if any."""
    metadata = {
        **facts,
        "erf": ERF,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy_version(),
            "pencilkde": _pkg_version,
        },
    }
    if fit is not None:
        metadata["fit"] = {
            "nfev": list(fit.nfev),
            "converged_starts": fit.n_converged,
            "at_t_cap": fit.at_t_cap,
            "rho_near_boundary": fit.rho_near_boundary,
            "search_bins": fit.search_bins,
        }
    if gaussian is not None:
        metadata["gaussian"] = asdict(gaussian)
    if proposed is not None:
        peak = float(proposed.y.max(initial=0.0))
        metadata["proposed"] = {
            "rows": proposed.rows,
            "kernel_values": proposed.values,
            "reach": _KERNEL_REACH,
            # what the kernel cut may have moved any point by, as a share of the peak
            "bound_rel_peak": proposed.bound / peak if peak > 0.0 else None,
        }
    return json.dumps(metadata, sort_keys=True, indent=2) + "\n"


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

    _write(out / "modes.json", _modes_json(report.modes))

    params = {
        # threads changes no result and its default is the machine's: metadata.json has it
        "config": {k: v for k, v in cfg.to_dict().items() if k != "threads"},
        "p": cfg.model.n // 2,
        **_fit_params(report.fit),
        "fit_objective": None if report.fit is None else report.fit.objective,
        "rho_hat": report.rho_hat,
        "t_star": report.t_star,
        "t_plus": report.t_plus,
        "skipped_components": report.skipped_components,
        "counts": report.counts,
        "modes_gaussian": _mode_payload(report.modes_gaussian),
        "modes_proposed": _mode_payload(report.modes_proposed),
    }
    _write(out / "params.json", json.dumps(params, sort_keys=True, indent=2) + "\n")

    _write(out / "metadata.json", _metadata_json(
        report.fit, report.gaussian_plan, report.proposed, seed=cfg.seed, threads=cfg.threads,
        workers=report.workers, qz=report.qz, hqr=report.hqr,
        decomposition=report.decomposition, timings=report.timings,
    ))
    return written
