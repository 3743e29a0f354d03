"""Span tracing installed from outside the package.

Wrappers replace the module attributes that ``pencilkde.harness`` looks up at
call time (the signal generator, the pencil solver, the KDE functions and the
harness phases) and ``scipy.optimize.minimize``, which ``kde.fit_reference``
calls through the module. Each call records a span (name, start, end, parent)
in memory; nothing is written until the benchmark ends. The originals are put
back when the ``installed`` context exits, so untraced operations run the
unmodified code.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# harness attribute -> span name (the layer's home module and function)
HARNESS_LAYERS = {
    "generate": "multiexp.generate",
    "real_pairs_fast": "pencil.real_pairs_fast",
    "decompose_replications": "harness.decompose_replications",
    "sample_from_pairs": "harness.sample_from_pairs",
    "estimate_pipeline": "harness.estimate_pipeline",
    "run": "harness.run",
    "emit": "harness.emit",
    "empirical_density": "kde.empirical_density",
    "count_outside": "kde.count_outside",
    "gaussian_bandwidth": "kde.gaussian_bandwidth",
    "gaussian_estimate": "kde.gaussian_estimate",
    "fit_reference": "kde.fit_reference",
    "pooled_correlation": "kde.pooled_correlation",
    "bandwidth_t_star_details": "kde.bandwidth_t_star_details",
    "proposed_estimate": "kde.proposed_estimate",
    "extract_modes": "kde.extract_modes",
}
MINIMIZE = "scipy.optimize.minimize"


class Tracer:
    """Spans of one operation as [name, start, end, parent index] lists."""

    def __init__(self):
        self.spans: list = []
        self.nfev = 0
        self._stack: list = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> tuple:
        """({name: summed self time}, {name: calls}); self = duration - children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = {}
        calls: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def dump(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]


def _wrap(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        idx = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if name == MINIMIZE:
            tracer.nfev += int(result.nfev)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Route every traced call through ``tracer`` while the context is open."""
    import scipy.optimize

    from pencilkde import harness

    targets = [(harness, attr, name) for attr, name in HARNESS_LAYERS.items()]
    targets.append((scipy.optimize, "minimize", MINIMIZE))
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, name in targets:
            setattr(mod, attr, _wrap(tracer, name, getattr(mod, attr)))
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
