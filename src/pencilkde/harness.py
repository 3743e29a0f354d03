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
import numbers
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
    GaussianGrid,
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
    "write_estimate",
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


def _real(value) -> float:
    """A JSON number as a float; TypeError for a boolean, a string or any other value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """A JSON number with an integral value, such as 250 or 1e4, as an int."""
    if not _real(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _signal_model(value) -> SignalModel:
    """The SignalModel of a config's "model" object; n "auto" (or absent) runs select_n."""
    m = dict(value)
    zeta, f = (tuple(map(_real, m[key])) for key in ("zeta", "f"))
    sigma = _real(m["sigma"])
    n = m.get("n", "auto")
    n = select_n(zeta, f, sigma) if n == "auto" else _integer(n)
    return SignalModel(zeta=zeta, f=f, sigma=sigma, n=n)


def _pair(value) -> tuple:
    lo, hi = value
    return _real(lo), _real(hi)


# config key -> converter of its JSON value
_CONFIG_KEYS = {"model": _signal_model, "R": _integer, "N_ref": _integer, "window": _pair,
                "points": _integer, "tau": _real, "seed": _integer, "method": str,
                "threads": _integer}


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
    gaussian: GaussianGrid | None
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
    # for metadata.json: decomposition threads, QZ and T^-1 H bindings, records by path
    workers: int = 1
    qz: str = ""
    hqr: str | None = None
    decomposition: dict = field(default_factory=dict)
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

    Returns a dict with keys empirical, gaussian, proposed, fit, rho_hat,
    t_star, t_plus, modes_gaussian, modes_proposed, skipped_components. The
    Gaussian estimate is the binned one (binned_gaussian_estimate), whose grid
    carries the plan that evaluated it. The bound OpenBLAS runs on one thread
    meanwhile, so the fit's and the correlation's matrix products have the
    same bits on any machine.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    with pencil.one_blas_thread():
        out: dict = dict.fromkeys(("gaussian", "proposed", "fit", "rho_hat", "t_star", "t_plus",
                                   "modes_gaussian", "modes_proposed"))
        out["skipped_components"] = 0
        h_emp = empirical_density(sample, window, points)
        out["empirical"] = h_emp
        grid_x = h_emp.x
        if method in ("gaussian", "both"):
            out["t_plus"] = gaussian_bandwidth(sample)
            out["gaussian"] = binned_gaussian_estimate(sample, grid_x, out["t_plus"])
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


def _metadata(est, **facts) -> dict:
    """metadata.json's object: facts, the erf binding and versions, and the fit's and both
    estimates' diagnostics if any, from a mapping with estimate_pipeline's keys."""
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
    fit, gaussian, proposed = est["fit"], est["gaussian"], est["proposed"]
    if fit is not None:
        metadata["fit"] = {
            "nfev": list(fit.nfev),
            "converged_starts": fit.n_converged,
            "at_t_cap": fit.at_t_cap,
            "rho_near_boundary": fit.rho_near_boundary,
            "search_bins": fit.search_bins,
        }
    if gaussian is not None:
        metadata["gaussian"] = asdict(gaussian.plan)
    if proposed is not None:
        peak = float(proposed.y.max(initial=0.0))
        metadata["proposed"] = {
            "rows": proposed.rows,
            "kernel_values": proposed.values,
            "reach": _KERNEL_REACH,
            # what the kernel cut may have moved any point by, as a share of the peak
            "bound_rel_peak": proposed.bound / peak if peak > 0.0 else None,
        }
    return metadata


def _csv(header, rows) -> str:
    """CSV text: the header line, then one line of _fmt values per row."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_artifacts(out_dir, csv_name, columns, est, params, modes, **facts) -> list:
    """Write csv_name, modes.json, params.json and metadata.json into out_dir.

    columns maps each CSV column's name to its values, and est is a mapping
    with estimate_pipeline's keys: its fit's t0, mu0 and rho0 (None without a
    fit), rho_hat, t_star, t_plus and skipped_components join params, and its
    diagnostics join facts in metadata.json. out_dir is made if absent and
    each file written once; an OSError becomes PhaseError("emit") naming the
    directory or the file. Returns the written paths.
    """
    fit = est["fit"]
    shared = {k: est[k] for k in ("rho_hat", "t_star", "t_plus", "skipped_components")}
    shared.update((k, None if fit is None else getattr(fit, k)) for k in ("t0", "mu0", "rho0"))
    texts = {
        csv_name: _csv(columns, zip(*columns.values())),
        "modes.json": json.dumps(_mode_payload(modes), sort_keys=True) + "\n",
        "params.json": json.dumps(params | shared, sort_keys=True, indent=2) + "\n",
        "metadata.json": json.dumps(_metadata(est, **facts), sort_keys=True, indent=2) + "\n",
    }
    out, written = Path(out_dir), []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            written.append(out / name)
            written[-1].write_text(text)
    except OSError as exc:
        what = f"write {written[-1]}" if written else f"create {out}"
        raise PhaseError("emit", RuntimeError(f"cannot {what}: {exc}")) from exc
    return written


def emit(report: ExperimentReport, out_dir) -> list:
    """Write densities.csv, modes.json, params.json, metadata.json.

    Pure function of the report: identical reports produce identical bytes.
    Returns the written paths.
    """
    cfg = report.config
    nan_col = np.full(cfg.points, np.nan)
    columns = {
        "x": report.reference.x,
        "reference": report.reference.y,
        "empirical": report.empirical.y,
        "gaussian": report.gaussian.y if report.gaussian is not None else nan_col,
        "proposed": report.proposed.y if report.proposed is not None else nan_col,
    }
    params = {
        # threads changes no result and its default is the machine's: metadata.json has it
        "config": {k: v for k, v in cfg.to_dict().items() if k != "threads"},
        "p": cfg.model.n // 2,
        "fit_objective": None if report.fit is None else report.fit.objective,
        "counts": report.counts,
        "modes_gaussian": _mode_payload(report.modes_gaussian),
        "modes_proposed": _mode_payload(report.modes_proposed),
    }
    return _write_artifacts(
        out_dir, "densities.csv", columns, vars(report), params, report.modes,
        seed=cfg.seed, threads=cfg.threads, workers=report.workers, qz=report.qz,
        hqr=report.hqr, decomposition=report.decomposition, timings=report.timings,
    )


def write_estimate(result: dict, counts: dict, method: str, out_dir, **facts) -> list:
    """Write density.csv, modes.json, params.json, metadata.json of one method's estimate.

    result is estimate_pipeline's dict, holding the estimate of method,
    "gaussian" or "proposed"; counts is the sample's eigenvalue counts and
    facts metadata.json's own entries. The files are written as emit writes
    its own. Returns the written paths.
    """
    grid = result[method]
    return _write_artifacts(out_dir, "density.csv", {"x": grid.x, "density": grid.y}, result,
                            {"counts": counts, "method": method}, result["modes_" + method],
                            **facts)
