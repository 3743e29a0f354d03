"""The reference loop: fixed work, none of it pencilkde code, timed next to every operation.

The host's speed drifts by 20-30% over minutes, and an operation slows with
it. The ratio of an operation's wall time to this loop's, timed just before
and after it, cancels most of that drift. The mix resembles the pipeline's:
LAPACK QZ on 64x64 and 160x160 pairs, special functions over freshly
allocated 16 MiB arrays (as the kde's chunked mixtures do), and an
interpreter loop.

The loop runs in a helper process (``python3 perfbench/reference.py`` reads
one line per block on stdin and answers with the block's mean pass time), so
it leaves the measuring process's memory peak and heap untouched.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# passes (~0.25 s each) in one timed block; the host's speed jumps by up to
# 2x within a second, so one pass is too short a sample of it
PASSES = 4


class ReferenceLoop:
    def __init__(self):
        from scipy.linalg import lapack
        from scipy.special import erf

        rng = np.random.default_rng(0)
        self._dgges, self._erf = lapack.dgges, erf
        self._small = [np.asfortranarray(rng.standard_normal((64, 64))) for _ in range(2)]
        self._large = [np.asfortranarray(rng.standard_normal((160, 160))) for _ in range(2)]

    def __call__(self) -> float:
        """Mean wall time of PASSES passes, in seconds per pass."""
        t0 = time.perf_counter()
        for _ in range(PASSES):
            self._one_pass()
        return (time.perf_counter() - t0) / PASSES

    def _one_pass(self) -> None:
        for _ in range(40):
            self._dgges(_no_select, *self._small, jobvsl=0, jobvsr=0)
        for _ in range(2):
            self._dgges(_no_select, *self._large, jobvsl=0, jobvsr=0)
        for _ in range(2):
            x = np.linspace(-4.0, 4.0, 1 << 21)
            float(np.sum(self._erf(x) * np.exp(-0.5 * x * x)))
        acc = 0
        for i in range(1_000_000):
            acc += i % 7


def _no_select(*_):
    return 0


class ReferenceProcess:
    """Times reference blocks in a helper process; use as a context manager."""

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __call__(self) -> float:
        """Mean pass time of one block, in seconds."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process exited with {self._proc.wait()}")
        return float(line)

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait()


def serve() -> None:
    loop = ReferenceLoop()
    for _ in sys.stdin:
        print(repr(loop()), flush=True)


if __name__ == "__main__":
    serve()
