"""Run one benchmark workload against the ``repro`` package in ``src/``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload eval-1to99 --seed 1 --seconds 40 --trace 0

Workloads: ``eval-1to99``, ``serve-poisson``, ``train-mgbr`` and
``serve-catalog`` (see ``perfbench/README.md``).  A run sets the
workload up ``N_SETUPS`` times (reporting the median, scaled to
reference host speed by ``speed.py``, as ``setup_s``), measures for
``--seconds`` and checks the program's outputs.  With ``--trace 1`` it
splits ``--seconds`` into an untraced half and a half with the per-layer
span wrappers installed, and reports the per-layer metrics plus the
tracing overhead on each timed end-to-end metric.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Readable lines before it repeat every metric under its workload-specific
name and record the environment.  Spans and the full result are written
to ``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: BLAS threads for every run, set here rather than inherited, so runs
#: on one host compare like with like.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-ups per run; ``setup_s`` is their median.
N_SETUPS = 5

#: ``(name, unit)`` of the end-to-end metrics, reported by every workload.
END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("resident_mb", "MB"),
    ("setup_s", "s"),
)


def prepare_environment() -> None:
    """Pin BLAS threads, drop ``REPRO_*`` overrides, put ``src`` on the path.

    Must run before NumPy is imported.
    """
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no repro package under {ROOT / 'src'}")
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    for var in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[var]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ[BLAS_ENV[0]]),
    }


def load_reference(workload):
    return json.loads((HERE / "reference.json").read_text()).get(workload.name)


def end_to_end(m, setup_s: float) -> dict:
    return {
        "throughput_per_s": m.throughput,
        "latency_p50_ms": m.p50_ms,
        "resident_mb": m.resident_mb,
        "setup_s": setup_s,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from layers import OVERHEAD_OF, PER_LAYER, SERVING_LAYER, install, layer_metrics
    from spans import Tracer
    from speed import SETUP, Scaler
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    expected = load_reference(workload) if workload.needs_reference else None
    problems = []
    if workload.needs_reference and expected is None:
        problems.append("no frozen reference for this workload")

    setups, scaled, state = [], [], None
    scaler = Scaler(SETUP)
    for _ in range(N_SETUPS):
        if state is not None:
            workload.close(state)
            state = None
        started = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - started)
        scaled.append(scaler.scale(setups[-1]))
    setup_s = statistics.median(scaled)

    window = seconds / 2.0 if trace else seconds
    try:
        plain = workload.measure(state, window, expected=expected)
        runs = [plain]
        if trace:
            tracer = Tracer()
            install(tracer)
            try:
                traced = workload.measure(state, window, expected=expected, tracer=tracer)
            finally:
                tracer.uninstall()
            runs.append(traced)
    finally:
        workload.close(state)

    OUT_DIR.mkdir(exist_ok=True)
    e2e = end_to_end(plain, setup_s)
    units = dict(END_TO_END)
    result = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(), "setup_runs_s": setups,
        "setup_runs_scaled_s": scaled,
        "end_to_end": e2e,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in plain.named.items()},
    }
    if trace:
        traced_e2e = end_to_end(traced, setup_s)
        overhead = {
            name: 100.0 * (traced_e2e[name] - e2e[name]) / e2e[name]
            for name in OVERHEAD_OF
        }
        layers = layer_metrics(tracer, traced.ops, dict(traced.extras, overhead_pct=overhead))
        units = dict(PER_LAYER + SERVING_LAYER)
        result.update(traced_end_to_end=traced_e2e, layers={
            k: {"value": v, "unit": units[k]} for k, v in layers.items()})
        metrics = {name: layers[name] for name, _ in PER_LAYER}
        tracer.dump(OUT_DIR / f"spans-{workload_name}-seed{seed}.jsonl")
    else:
        metrics = e2e

    for m in runs:
        problems.extend(m.problems)
    result["problems"] = problems
    result["summary"] = {
        "correct": not problems and all(m.failed == 0 for m in runs),
        "attempted": sum(m.attempted for m in runs),
        "failed": sum(m.failed for m in runs),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT_DIR / f"result-{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    return result


def print_report(result: dict) -> None:
    env = result["environment"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']}  trace {result['trace']}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print("setup runs  " + "  ".join(f"{s:.3f}s" for s in result["setup_runs_s"])
          + "  (at reference speed " + "  ".join(f"{s:.3f}s" for s in result["setup_runs_scaled_s"])
          + ")")
    units = dict(END_TO_END)
    for name, value in result["end_to_end"].items():
        print(f"  {name:<36} {value:>14.4f} {units[name]}")
    for name, cell in result["named"].items():
        print(f"  {name:<36} {cell['value']:>14.4f} {cell['unit']}")
    if "layers" in result:
        print("per-layer (traced run)")
        for name, cell in result["layers"].items():
            print(f"  {name:<36} {cell['value']:>14.4f} {cell['unit']}")
    summary = result["summary"]
    print(f"attempted {summary['attempted']}  failed {summary['failed']}  "
          f"correct {summary['correct']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps(summary))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare_environment()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    print_report(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
