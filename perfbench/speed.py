"""Host-speed probe for the timed workloads.

The shared virtual machines this benchmark runs on change speed by up to
±25% over seconds to minutes while nothing else runs in the VM (a
128×128 matmul loop ranges about 1100–1600 per second), and runs of the
same code taken minutes apart differ by that much.  So ``eval-1to99``,
``train-mgbr`` and the set-up time report their timings *at reference
host speed*: each timed operation is divided by the host's slowdown,
measured by :func:`slowdown` right before and right after it.

The probe is plain NumPy and never calls ``repro``, so a change to the
program cannot change it: a program twice as slow still reads twice as
slow.  A slow host phase does not slow all code alike: it slows
interpreter-bound loops more than GEMMs.  So each timing is scaled by
kernels shaped like its own work: eval passes and training epochs by a
GEMM loop and a gather-GEMM-elementwise pass (``NUMERIC``), set-up, which
is mostly the Python data generator, by those two and an
interpreter-bound loop (``SETUP``).

Over two and a half minutes of eval passes (and of training epochs) the
per-operation timings varied by 11% (10%) raw and 6% (8%) scaled, and
12-second medians spread 0.12 (0.08) raw and 0.04 (0.05) scaled, as
quartile distance over median.  Over three minutes of set-ups the
``SETUP`` scaling took the variation from 20% to 11% (training) and from
17% to 10% (eval).
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(0)
_SQUARE = _rng.standard_normal((128, 128))
_ROWS = _rng.standard_normal((20_000, 32))
_WEIGHT = _rng.standard_normal((32, 32))
_INDEX = _rng.integers(0, 20_000, 20_000)
_SMALL = _rng.random(300)


def _matmul_s() -> float:
    """A cache-resident GEMM loop."""
    started = time.perf_counter()
    for _ in range(150):
        _SQUARE @ _SQUARE
    return time.perf_counter() - started


def _rows_s() -> float:
    """Row gathers, a skinny GEMM and elementwise passes over a 5 MB
    table: the shape of a planned scoring call."""
    started = time.perf_counter()
    for _ in range(3):
        out = _ROWS.take(_INDEX, axis=0) @ _WEIGHT
        np.exp(np.clip(out, -5.0, 5.0), out=out)
        out.sum(axis=1)
    return time.perf_counter() - started


def _python_s() -> float:
    """Interpreter-bound work: a Python loop of small NumPy calls and dict
    updates, the shape of the synthetic data generator."""
    started = time.perf_counter()
    for _ in range(1500):
        p = np.exp(_SMALL - _SMALL.max())
        p /= p.sum()
        counts: dict = {}
        for i in range(20):
            counts[i] = counts.get(i, 0) + i
    return time.perf_counter() - started


_KERNELS = {"matmul": _matmul_s, "rows": _rows_s, "python": _python_s}

#: Seconds each kernel takes on the reference host (a 2-vCPU Intel Xeon
#: VM at 2.0 GHz, OpenBLAS 0.3.31, one BLAS thread, in its faster phases).
REFERENCE_S = {"matmul": 0.014, "rows": 0.018, "python": 0.014}

#: Kernels for eval passes and training epochs (about 35 ms).
NUMERIC = ("matmul", "rows")
#: Kernels for set-up (about 50 ms).
SETUP = ("matmul", "rows", "python")


def slowdown(kernels=NUMERIC) -> float:
    """How many times slower than the reference host this host runs now:
    the geometric mean of the ``kernels``' time ratios."""
    ratios = [_KERNELS[name]() / REFERENCE_S[name] for name in kernels]
    return float(np.prod(ratios) ** (1.0 / len(ratios)))


class Scaler:
    """Scales consecutive timed operations to reference host speed.

    Probes once on creation and once after every operation, and divides
    each operation's time by the mean of the probes on either side.
    """

    def __init__(self, kernels=NUMERIC) -> None:
        self.kernels = kernels
        self._last = slowdown(kernels)
        self.factors: list = []

    def scale(self, elapsed_s: float) -> float:
        after = slowdown(self.kernels)
        factor = (self._last + after) / 2.0
        self._last = after
        self.factors.append(factor)
        return elapsed_s / factor
