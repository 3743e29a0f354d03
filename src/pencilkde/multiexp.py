"""Synthetic multiexponential signals with white Gaussian noise.

A model is a sum of geometric decays d_k = sum_j f_j zeta_j^(k-1), k = 1..n,
observed under iid N(0, sigma^2) noise.  Replications use counter-based RNG
streams keyed by (master seed, replication index), so any subset of
replications can be generated independently, in any order, on any worker,
with identical results.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "SignalModel",
    "Dataset",
    "generate",
    "noiseless",
    "select_n",
    "write_dataset_csv",
    "read_dataset_csv",
    "write_dataset_json",
    "read_dataset_json",
]

_UINT64_MASK = (1 << 64) - 1
N_MAX = 512  # cap of the signal-length rule


@dataclass(frozen=True)
class SignalModel:
    """Decay ratios zeta in (0,1), amplitudes f, noise level sigma, length n."""

    zeta: tuple
    f: tuple
    sigma: float
    n: int

    def __post_init__(self):
        zeta = tuple(float(z) for z in self.zeta)
        f = tuple(float(a) for a in self.f)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "f", f)
        if len(zeta) == 0 or len(zeta) != len(f):
            raise ValueError("zeta and f must be nonempty and equal length")
        if any(not 0.0 < z < 1.0 for z in zeta):
            raise ValueError("decay ratios must lie in (0, 1)")
        if len(set(zeta)) != len(zeta):
            raise ValueError("decay ratios must be distinct")
        if any(a == 0.0 or not math.isfinite(a) for a in f):
            raise ValueError("amplitudes must be finite and nonzero")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError("sigma must be finite and nonnegative")
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"sample length n must be even and >= 2, got {self.n}")


@dataclass
class Dataset:
    """Replication matrix (R x n); model is None for data loaded from bare CSV."""

    data: np.ndarray
    model: SignalModel | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise ValueError("data must be a 2-d replication matrix")


def noiseless(zeta, f, n: int) -> np.ndarray:
    """Exact d_k = sum_j f_j zeta_j^(k-1) for k = 1..n."""
    zeta = np.asarray(zeta, dtype=float)
    f = np.asarray(f, dtype=float)
    k = np.arange(n)[:, None]
    return (f[None, :] * zeta[None, :] ** k).sum(axis=1)


def _stream(seed: int, r: int) -> np.random.Generator:
    key = np.array([seed & _UINT64_MASK, r & _UINT64_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def generate(model: SignalModel, seed: int, r: int) -> np.ndarray:
    """One replication r of the model under master seed; deterministic."""
    if r < 0:
        raise ValueError(f"replication index must be nonnegative, got {r}")
    clean = noiseless(model.zeta, model.f, model.n)
    if model.sigma == 0.0:
        return clean
    rng = _stream(seed, r)
    return clean + model.sigma * rng.standard_normal(model.n)


def select_n(zeta, f, sigma: float) -> int:
    """Smallest k with |noiseless d_k| < sigma, rounded up to the next even n.

    Capped at N_MAX (reported with a warning); sigma larger than |d_1| gives
    the minimal even length 2.
    """
    zeta = np.asarray(zeta, dtype=float)
    f = np.asarray(f, dtype=float)
    if sigma <= 0.0:
        raise ValueError("sigma must be positive for the length rule")
    k = 1
    power = np.ones_like(zeta)
    while k <= N_MAX:
        if abs(float((f * power).sum())) < sigma:
            break
        power = power * zeta
        k += 1
    # n exceeds N_MAX only when the loop ran out, at k = N_MAX + 1
    n = k if k % 2 == 0 else k + 1
    if n > N_MAX:
        warnings.warn(
            f"signal-length rule hit the cap N_MAX={N_MAX}", RuntimeWarning, stacklevel=2
        )
        return N_MAX
    return n


def _header(n: int) -> list[str]:
    return [f"d{i}" for i in range(n)]


def write_dataset_csv(path, dataset: Dataset) -> None:
    """One replication per row; 17 significant digits round-trip doubles."""
    data = dataset.data
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_header(data.shape[1]))
        for row in data:
            writer.writerow([f"{v:.17g}" for v in row])


def read_dataset_csv(path) -> Dataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty dataset file") from None
        n = len(header)
        if header != _header(n):
            raise ValueError(f"{path}: unexpected header {header[:4]}...")
        rows = []
        for i, row in enumerate(reader):
            if len(row) != n:
                raise ValueError(f"{path}: row {i} has {len(row)} fields, expected {n}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{path}: row {i}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no replications")
    return Dataset(data=np.array(rows, dtype=float))


def write_dataset_json(path, dataset: Dataset) -> None:
    """Model parameters plus the replication matrix; floats round-trip exactly."""
    payload: dict = {"data": dataset.data.tolist()}
    if dataset.model is not None:
        payload["model"] = asdict(dataset.model)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def read_dataset_json(path) -> Dataset:
    with open(path) as fh:
        payload = json.load(fh)
    if "data" not in payload:
        raise ValueError(f"{path}: missing 'data' field")
    model = None
    if "model" in payload:
        m = payload["model"]
        model = SignalModel(zeta=tuple(m["zeta"]), f=tuple(m["f"]), sigma=m["sigma"], n=m["n"])
    data = np.asarray(payload["data"], dtype=float)
    if data.ndim != 2:
        raise ValueError(f"{path}: data must be a matrix")
    return Dataset(data=data, model=model)
