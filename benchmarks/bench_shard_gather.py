"""Shard-gather benchmark: throughput and memory model of the two layouts.

Measures the quantities the sharded embedding layer trades between
(docs/sharding.md):

* **Gather throughput** — rows/sec answering planned-style gathers
  (sorted unique id chunks, the exact shape
  :class:`repro.plan.ScoringPlan` produces) from a
  :class:`repro.store.DenseStore` and from the cross-process
  :class:`repro.store.ProcessShardedStore` at several worker counts —
  plus the differentiable round trip (gather → scatter-add backward)
  that dominates the planned training step.
* **Peak per-shard resident rows** — what one shard worker must hold:
  its owned block (≤ ``ceil(rows / n_shards)`` by construction) plus
  the largest transient RPC it ever answered (≤ the chunk size — the
  "chunk slack").  This is the number that says a catalog bigger than
  one machine's RAM fits once shards live in separate processes.
* **Quantised memory tier** — resident bytes/row of the int8 and fp16
  tiers (:mod:`repro.store.quant`) against the float32 baseline, across
  the dense, LRU-cached and process-sharded layouts.  Gates:
  int8 ≤ 0.30× float32 bytes/row (side arrays included — needs
  ``dim ≥ 40``, so the memory cells use their own ``MEM_DIM``), fp16 ≤
  0.55×.  Process cells also record peak resident bytes (owned payload
  + the largest RPC transient at the arena dtype).

Values gathered from shards are asserted bit-identical to the dense
table, and the resident-row bound is asserted per worker count.

Cross-process scaling is gated **parallelism-aware**: worker processes
fill their result slices concurrently, so on a host with spare cores
forward rows/sec must rise monotonically 1→2→4 workers; on a host
without them (``os.cpu_count()`` too small, e.g. a 1-CPU CI container)
the workers serialize and the gate instead bounds the serialization
overhead.  The report records ``cpu_count`` and ``serialized`` so the
cells read correctly either way.

Writes ``BENCH_shard_gather.json`` at the repository root.  Run
directly (``PYTHONPATH=src python benchmarks/bench_shard_gather.py``);
``--smoke`` runs a seconds-scale configuration and skips the artifact;
the full run's table is the module constants ``ROWS`` / ``DIM`` /
``CHUNK`` / ``ROUNDS``.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import numpy as np

from repro.nn.tensor import dtype_scope, no_grad
from repro.store import DenseStore, LRUCachedStore, ProcessShardedStore, make_store

ROWS = 200000
DIM = 64
CHUNK = 4096
ROUNDS = 3

# Memory-tier cells use their own table: the 0.30× int8 gate needs
# dim >= 40 ((dim + 8) / 4·dim), so MEM_DIM must not follow the smoke
# run's tiny DIM.
MEM_ROWS = 20000
MEM_DIM = 64

#: bytes/row ceilings vs the float32 baseline, per quantised mode.
MEM_GATES = {"int8": 0.30, "fp16": 0.55}

WORKER_COUNTS = (1, 2, 4)
SEED = 13

#: Serial-host floor: with every worker sharing one core the doorbell
#: round-trips serialize, but they must stay cheap — the slowest
#: cross-process cell may not fall below this fraction of the fastest.
SERIAL_FLOOR = 0.45

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_shard_gather.json"


def _make_chunks(rng: np.random.Generator) -> list:
    """Planned-style gather chunks: sorted unique ids, CHUNK rows each.

    Pre-generated so the timed loops measure the store, not
    ``np.sort`` — the planner hands every layout identical sorted id
    arrays at scoring time.
    """
    chunks = []
    for _ in range(ROUNDS):
        ids = rng.permutation(ROWS)
        for start in range(0, ROWS, CHUNK):
            chunks.append(np.sort(ids[start : start + CHUNK]))
    return chunks


def _time_gathers(store, chunks: list) -> dict:
    """Rows/sec for forward-only and forward+backward planned gathers."""
    with no_grad():  # warm-up (allocator, partition tables, page faults)
        store.gather(np.arange(min(CHUNK, ROWS), dtype=np.int64))
        for chunk in chunks[: max(len(chunks) // ROUNDS // 4, 1)]:
            store.gather(chunk)

    rows_done = 0
    started = time.perf_counter()
    with no_grad():
        for chunk in chunks:
            store.gather(chunk)
            rows_done += len(chunk)
    forward_seconds = time.perf_counter() - started

    grad_chunks = chunks[: len(chunks) // ROUNDS]
    grad_rows = 0
    started = time.perf_counter()
    for chunk in grad_chunks:
        out = store.gather(chunk)
        out.sum().backward()
        for _, param in store.named_parameters():
            param.zero_grad()
        grad_rows += len(chunk)
    train_seconds = time.perf_counter() - started

    return {
        "forward_rows_per_sec": round(rows_done / forward_seconds, 1),
        "train_rows_per_sec": round(grad_rows / train_seconds, 1),
    }


def _check_parity(store, dense_ref: np.ndarray) -> None:
    check = np.sort(np.random.default_rng(SEED + 1).permutation(ROWS)[:CHUNK])
    with no_grad():
        gathered = store.gather(check).data
    assert np.array_equal(gathered, dense_ref[check]), "sharded gather diverged"


def _bench_process(
    values: np.ndarray, dense_ref: np.ndarray, n_workers: int, chunks: list
) -> dict:
    """One cross-process cell: ``n_workers`` shard worker processes.

    ``io_chunk=CHUNK`` keeps every streaming RPC within the same chunk
    bound the gathers obey, so the per-worker peak-resident gate is
    ``ceil(rows/n) + chunk``.
    """
    store = ProcessShardedStore(values, n_workers, io_chunk=CHUNK)
    try:
        timing = _time_gathers(store, chunks)
        _check_parity(store, dense_ref)
        snap = store.stats_snapshot()
        workers = snap["workers"]
        ceil_bound = math.ceil(ROWS / n_workers)
        peak = max(w["peak_resident_rows"] for w in workers)
        return {
            "n_workers": n_workers,
            **timing,
            "resident_rows_per_worker": [w["resident_rows"] for w in workers],
            "ceil_rows_over_workers": ceil_bound,
            "max_rpc_rows": max(w["max_rpc_rows"] for w in workers),
            "peak_resident_rows": peak,
            "peak_bound": ceil_bound + CHUNK,
            "worker_rows_served": snap["worker_rows_served"],
        }
    finally:
        store.close()


def _mem_cell(layout: str, mode, values: np.ndarray, cpu_count: int) -> dict:
    """Resident bytes of one (layout, precision) combination.

    ``mode=None`` is the float32 baseline each quantised cell is gated
    against.  Every cell reports the bytes the *serving tier* holds per
    logical row — the quantised shadow, the cache payloads, or the
    worker-owned buffers — which is the factor by which the same RAM
    covers more rows.
    """
    rows = len(values)
    ids = np.arange(rows, dtype=np.int64)
    cell = {"layout": layout, "mode": mode or "float32", "rows": rows}
    if layout == "process2":
        store = ProcessShardedStore(values, 2, dtype=np.float32, quantize=mode)
        try:
            with no_grad(), dtype_scope(np.float32):
                store.gather(ids[: min(CHUNK, rows)])
            snap = store.stats_snapshot()
            workers = snap["workers"]
            resident = sum(w["resident_bytes"] for w in workers)
            cell["resident_bytes"] = resident
            cell["peak_resident_bytes"] = max(
                w["peak_resident_bytes"] for w in workers
            )
            cell["arena_bytes"] = snap["arena_bytes"]
            # The scaling cells above explain when workers serialize;
            # memory cells are one gather, recorded for the same reading.
            cell["serialized"] = cpu_count < 3
        finally:
            store.close()
    else:
        if layout == "dense":
            store = make_store(values, quantize=mode)
        elif layout == "lru":
            store = LRUCachedStore(make_store(values, quantize=mode),
                                   capacity=rows)
        else:  # pragma: no cover - config defect
            raise ValueError(f"unknown memory layout {layout!r}")
        if mode is None:
            store.rebind_dtype(np.float32)  # the float32 serving baseline
        with no_grad(), dtype_scope(np.float32):
            store.gather(ids)  # LRU cells measure a fully warm cache
        resident = store.resident_nbytes()
        cell["resident_bytes"] = int(resident)
        cell["peak_resident_bytes"] = int(resident)  # no RPC transients
    cell["bytes_per_row"] = round(cell["resident_bytes"] / rows, 2)
    return cell


def _bench_memory(cpu_count: int) -> dict:
    """float32 vs fp16 vs int8 resident bytes across the three layouts."""
    values = np.random.default_rng(SEED + 2).normal(size=(MEM_ROWS, MEM_DIM))
    layouts = ("dense", "lru", "process2")
    cells = [
        _mem_cell(layout, mode, values, cpu_count)
        for layout in layouts
        for mode in (None, "fp16", "int8")
    ]
    baseline = {
        c["layout"]: c["resident_bytes"] for c in cells if c["mode"] == "float32"
    }
    for cell in cells:
        cell["ratio_vs_float32"] = round(
            cell["resident_bytes"] / baseline[cell["layout"]], 3
        )
    return {
        "rows": MEM_ROWS,
        "dim": MEM_DIM,
        "cpu_count": cpu_count,
        "cells": cells,
    }


def run_benchmark() -> dict:
    rng = np.random.default_rng(SEED)
    values = rng.normal(size=(ROWS, DIM))
    chunks = _make_chunks(np.random.default_rng(SEED))
    dense = DenseStore(values)
    dense_timing = _time_gathers(dense, chunks)
    cpu_count = os.cpu_count() or 1
    report = {
        "config": {
            "rows": ROWS,
            "dim": DIM,
            "chunk": CHUNK,
            "rounds": ROUNDS,
            "cpu_count": cpu_count,
        },
        "dense": {
            **dense_timing,
            "resident_rows": ROWS,
        },
        "process": [
            _bench_process(values, dense.weight.data, n, chunks)
            for n in WORKER_COUNTS
        ],
        "memory": _bench_memory(cpu_count),
    }
    for entry in report["process"]:
        entry["forward_vs_dense"] = round(
            entry["forward_rows_per_sec"] / report["dense"]["forward_rows_per_sec"], 3
        )
        # Workers serialize when the host cannot run them beside the
        # parent; scaling cells then measure doorbell overhead, not
        # concurrency (gated accordingly in check_report).
        entry["serialized"] = cpu_count < entry["n_workers"] + 1
    return report


def check_report(report: dict) -> None:
    """The acceptance gates; the CI smoke run exercises the same set."""
    process = report.get("process", [])
    for entry in process:
        n = entry["n_workers"]
        assert entry["peak_resident_rows"] <= entry["peak_bound"], (
            f"{n}-worker peak resident rows {entry['peak_resident_rows']} exceeds "
            f"ceil(rows/{n}) + chunk = {entry['peak_bound']}"
        )
        assert (
            max(entry["resident_rows_per_worker"]) <= entry["ceil_rows_over_workers"]
        )

    memory = report.get("memory", {})
    for cell in memory.get("cells", []):
        gate = MEM_GATES.get(cell["mode"])
        if gate is None:
            continue  # the float32 baseline rows
        assert cell["ratio_vs_float32"] <= gate, (
            f"{cell['mode']} {cell['layout']} tier holds "
            f"{cell['ratio_vs_float32']}x the float32 bytes/row "
            f"(gate {gate}x at dim={memory['dim']})"
        )
        assert cell["peak_resident_bytes"] >= cell["resident_bytes"]

    if process:
        rates = [e["forward_rows_per_sec"] for e in process]
        if not any(e["serialized"] for e in process):
            # Concurrent workers: more of them must raise throughput.
            assert all(a < b for a, b in zip(rates, rates[1:])), (
                f"forward rows/sec not rising with worker count: {rates}"
            )
        else:
            # Serialized workers (not enough cores): scaling cells only
            # add doorbell round-trips, so gate the overhead instead.
            assert min(rates) >= SERIAL_FLOOR * max(rates), (
                f"serialized cross-process overhead too high: {rates}"
            )


def test_shard_gather():
    """Per-shard resident rows bounded; gathers bit-identical to dense."""
    report = run_benchmark()
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    check_report(report)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale run (small table, 1 round); skips the JSON artifact",
    )
    args = parser.parse_args()
    if args.smoke:
        ROWS, DIM, CHUNK, ROUNDS = 20000, 16, 1024, 1
        MEM_ROWS = 4000  # MEM_DIM stays 64: the 0.30x gate needs dim >= 40
    result = run_benchmark()
    check_report(result)
    if not args.smoke:
        OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
