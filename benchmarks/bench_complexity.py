"""Sec. II-H — empirical time-complexity of the multi-task module.

The paper derives O(L·K·d²) per sample for the expert/gate stack,
dominated by the d² expert projections.  This bench measures the wall
clock of an MTL forward pass across embedding widths and checks the
quadratic trend: doubling d must scale time by clearly more than a
linear model would, and the per-(K, L) scaling must be ~linear.  The K
and L sweeps compare per-arm medians of interleaved rounds, so load on
a shared host cannot reorder the arms.
"""

import time

import numpy as np
import pytest
from conftest import write_result

from repro.core.config import MGBRConfig
from repro.core.mtl import MultiTaskModule
from repro.nn import tensor

BATCH = 256

#: Interleaved rounds of the K and L sweeps: each round times every arm
#: once, so host load lands on all arms and the per-arm medians keep
#: their order.
ROUNDS = 5


def _forward(d: int, n_experts: int = 3, mtl_layers: int = 2):
    """A warmed MTL forward pass over ``BATCH`` random rows (a callable)."""
    config = MGBRConfig.small(d=d, n_experts=n_experts, mtl_layers=mtl_layers, seed=0)
    module = MultiTaskModule(config, seed=0)
    rng = np.random.default_rng(0)
    vd = config.view_dim
    e_u = tensor(rng.normal(size=(BATCH, vd)))
    e_i = tensor(rng.normal(size=(BATCH, vd)))
    e_p = tensor(rng.normal(size=(BATCH, vd)))
    module(e_u, e_i, e_p)  # warm-up
    return lambda: module(e_u, e_i, e_p)


def _seconds(forward) -> float:
    """Mean seconds of one ``forward()`` over 5 calls."""
    started = time.perf_counter()
    for _ in range(5):
        forward()
    return (time.perf_counter() - started) / 5


def _interleaved_medians(arms) -> dict:
    """Median forward seconds per arm (``{key: _forward kwargs}``) over
    :data:`ROUNDS` rounds, each timing every arm once."""
    forwards = {key: _forward(24, **kwargs) for key, kwargs in arms.items()}
    samples = {key: [] for key in forwards}
    for _ in range(ROUNDS):
        for key, forward in forwards.items():
            samples[key].append(_seconds(forward))
    return {key: float(np.median(times)) for key, times in samples.items()}


def test_complexity_quadratic_in_d(benchmark):
    """Empirical check of the O(d²) term (Sec. II-H).

    At small widths the Python-level op overhead dominates (the curve
    looks flat); the d² projections take over in the upper range, so the
    assertion targets the 32→128 quadrupling where quadratic scaling
    predicts ~16x, linear ~4x, and pure overhead ~1x.
    """

    def run():
        return {d: _seconds(_forward(d)) for d in (16, 32, 64, 128)}

    timings = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["SEC. II-H — MTL FORWARD TIME vs EMBEDDING WIDTH d (batch 256)"]
    for d, seconds in timings.items():
        lines.append(f"  d={d:3d}   {seconds * 1e3:8.2f} ms")
    ratio = timings[128] / timings[32]
    lines.append(
        f"  time(128)/time(32) = {ratio:.1f}x "
        f"(quadratic predicts ~16x, linear ~4x, overhead ~1x)"
    )
    text = "\n".join(lines)
    print("\n" + text)
    write_result("complexity_d.txt", text)

    # The d² term must be visible: clearly above pure-overhead scaling
    # and approaching the linear-to-quadratic band.
    assert ratio > 3.0
    # And growth accelerates with d (convexity of the timing curve).
    assert timings[128] / timings[64] > timings[32] / timings[16]


def test_complexity_linear_in_experts(benchmark):
    """Doubling K roughly doubles the expert work (the K term of O(LKd²))."""

    def run():
        return _interleaved_medians({k: {"n_experts": k} for k in (2, 4, 8)})

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"SEC. II-H — MTL FORWARD TIME vs EXPERT COUNT K (d=24, median of {ROUNDS})"]
    for k, seconds in timings.items():
        lines.append(f"  K={k}   {seconds * 1e3:8.2f} ms")
    text = "\n".join(lines)
    print("\n" + text)
    write_result("complexity_k.txt", text)

    # Monotone in K, and sub-quadratic (attention etc. add overhead that
    # scales linearly as well).
    assert timings[2] < timings[4] < timings[8]
    assert timings[8] < timings[2] * 8


def test_complexity_linear_in_layers(benchmark):
    """Doubling L roughly doubles the stack time (the L term)."""

    def run():
        return _interleaved_medians({l: {"mtl_layers": l} for l in (1, 2, 4)})

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"SEC. II-H — MTL FORWARD TIME vs LAYER COUNT L (d=24, median of {ROUNDS})"]
    for l, seconds in timings.items():
        lines.append(f"  L={l}   {seconds * 1e3:8.2f} ms")
    text = "\n".join(lines)
    print("\n" + text)
    write_result("complexity_l.txt", text)

    assert timings[1] < timings[2] < timings[4]
