"""Serving-latency benchmark: open-loop Poisson traffic vs ServingEngine.

Measures what the async serving engine trades: **latency** (the
deadline-triggered flush clock bounds how long a request waits for
co-batching) against **throughput** (bigger planned calls amortise
model dispatch).  Traffic is open-loop: request arrival times are drawn
from a Poisson process at a fixed offered rate and a submitter thread
sticks to that schedule regardless of how the engine keeps up — the
honest way to measure a queueing system (closed loops hide overload by
slowing the clients).

Cells sweep ``offered rate × flush deadline × store layout``:

* ``dense``   — GBMF over single-table stores;
* ``sharded`` — the same tables range-partitioned across 4 shard worker
  processes (:class:`repro.store.ProcessShardedStore`; every flush
  gathers its rows over shared memory);
* ``lru``     — the sharded layout fronted by a
  :class:`repro.store.LRUCachedStore` hot-row cache; ids are
  Zipf-skewed, so the cache absorbs the head of the distribution.

Per cell: p50/p95/p99 request latency (submit → ticket resolution),
achieved submit rate, served QPS, the engine's flush-cause breakdown
and cache hit rates.  Steady-state cells (the submitter held the
offered rate and the engine kept up) must respect the latency model

    ``p95  <=  max_delay_ms + one flush duration (+ scheduler slack)``

— a request waits at most one full deadline, then one flush.

**Overload cells** drive the engine far past saturation on purpose:
offered rate = ``OVERLOAD_MULT`` × a measured closed-loop capacity
probe, against 1/2/4-worker :class:`repro.serving.MultiWorkerEngine`
fleets (every worker scoring one shared model) with admission (``max_queue_rows``) and age
(``max_queue_age_ms``) budgets armed.  The gates are the overload
contract, not raw speed:

* conservation — every submit is rejected (``OverloadError``), shed
  (``DeadlineExceeded``) or scored; zero tickets stranded;
* bounded latency — p95 of the *scored* requests stays within
  ``age budget + one flush (+ slack)`` no matter how hot the offered
  rate runs, because anything older is shed before planning;
* the drop rate (rejected + shed) absorbs the offered excess.

**Worker-scaling cells** measure the 1/2/4-worker scored/sec curve
(``worker_scaling`` in the report).  Unlike
the overload cells — whose budgets assume each extra worker brings a
fresh core — this probe keeps the *single-worker* queue depth per
worker and scales the age budget with fleet size, so a bigger fleet
converts its deeper aggregate queue into bigger per-flush co-batches
(higher Zipf dedup, fewer flush cycles per scored request).  That is
the mechanism that lets scored/sec rise with fleet size even on hosts
with fewer cores than workers; the curve must be strictly increasing —
and on hosts with ≥2 cores each step must clear a 1.05× floor, since
real parallelism compounds with the batching win.  The cell records
``cpu_count`` and the active array backend so the gate stays honest
across hosts.

Writes ``BENCH_serve_latency.json`` at the repository root.  Run
directly (``PYTHONPATH=src python benchmarks/bench_serve_latency.py``);
``--smoke`` runs a seconds-scale configuration (one steady cell per
store + one overload cell + a two-point worker-scaling probe) and skips
the artifact.  Its p95 gates take 100 ms of scheduler slack instead of
the full run's :data:`SLACK_MS`; the cell functions take the slack as
their ``slack_ms`` argument.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from repro.baselines import GBMF
from repro.nn.backend import get_backend
from repro.serving import (
    DeadlineExceeded,
    MultiWorkerEngine,
    OverloadError,
    ServingEngine,
)
from repro.store import ProcessShardedStore, cache_hot_rows, iter_stores

N_USERS = 3000
N_ITEMS = 1000
DIM = 32
CANDIDATES = 20
#: Scheduler/GIL slack added on top of the latency model before the
#: p95 assertion — generous for shared CI runners, still far below the
#: deadlines it guards.
SLACK_MS = 25.0
#: The slack of the short ``--smoke`` sweep: 250 requests span ~0.5 s,
#: so one scheduler stall on a shared CI runner moves p95 (still far
#: below unbounded-queueing latencies).
SMOKE_SLACK_MS = 100.0

RATES = (200.0, 800.0, 2000.0)       # offered requests/sec
DEADLINES_MS = (2.0, 10.0)           # engine max_delay_ms
STORES = ("dense", "sharded", "lru")
N_SHARDS = 4
LRU_CAPACITY = 256
ZIPF_A = 1.2
SEED = 23

OVERLOAD_WORKERS = (1, 2, 4)         # MultiWorkerEngine fleet sizes
OVERLOAD_MULT = 3.0                  # offered rate / measured capacity
OVERLOAD_DEADLINE_MS = 5.0           # flush deadline == age budget
#: Overload requests are 10× wider than steady-state ones so that
#: per-request scoring cost dominates and a Python submitter thread can
#: genuinely offer several times the engine's capacity.
OVERLOAD_CANDIDATES = 10 * CANDIDATES

#: Flood repetitions per fleet size in the worker-scaling probe (median
#: reported; trials interleave across fleet sizes so host noise lands
#: on every curve point evenly).
SCALING_TRIALS = 5

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serve_latency.json"


def _zipf_ids(rng: np.random.Generator, n: int, bound: int) -> np.ndarray:
    """Zipf-skewed ids in ``[0, bound)`` — serving's hot-head traffic."""
    raw = rng.zipf(ZIPF_A, size=n)
    return (raw - 1) % bound


def build_model(store: str) -> GBMF:
    n_shards = 0 if store == "dense" else N_SHARDS
    model = GBMF(N_USERS, N_ITEMS, dim=DIM, seed=SEED, n_shards=n_shards)
    if store == "lru":
        cache_hot_rows(model, LRU_CAPACITY)
    model.refresh_cache()
    return model


def close_model(model: GBMF) -> None:
    """Stop the shard workers behind a model's sharded tables (if any)."""
    for _, store in iter_stores(model):
        store = getattr(store, "inner", store)  # look through the LRU tier
        if isinstance(store, ProcessShardedStore):
            store.close()


def make_requests(rng: np.random.Generator, n: int, width: int = CANDIDATES):
    users = _zipf_ids(rng, n, N_USERS)
    candidates = _zipf_ids(rng, n * width, N_ITEMS).reshape(n, width)
    return users, candidates


def run_cell(model: GBMF, rate: float, deadline_ms: float, n_requests: int,
             rng: np.random.Generator, slack_ms: float = SLACK_MS) -> dict:
    users, candidates = make_requests(rng, n_requests)
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=n_requests))
    engine = ServingEngine(model, max_delay_ms=deadline_ms, max_pending=8192)
    tickets = [None] * n_requests
    submit_at = np.empty(n_requests)

    def submitter() -> None:
        t0 = time.perf_counter()
        for k in range(n_requests):
            lag = t0 + arrivals[k] - time.perf_counter()
            if lag > 0:
                time.sleep(lag)
            submit_at[k] = time.perf_counter()
            tickets[k] = engine.submit_items(int(users[k]), candidates[k])

    with engine:
        thread = threading.Thread(target=submitter)
        started = time.perf_counter()
        thread.start()
        thread.join()
        engine.drain(timeout=60.0)
        stats = engine.stats()
    assert all(t is not None and t.ready for t in tickets), "unresolved tickets"
    assert stats["batcher"]["failed_flushes"] == 0, "flush failures during bench"

    resolved_at = np.array([t.resolved_at for t in tickets])
    latency_ms = (resolved_at - submit_at) * 1000.0
    span = submit_at[-1] - submit_at[0]
    achieved_rate = (n_requests - 1) / span if span > 0 else float("inf")
    served_span = resolved_at.max() - started
    p50, p95, p99 = np.percentile(latency_ms, (50, 95, 99))
    engine_stats = stats["engine"]
    batcher = stats["batcher"]
    steady = achieved_rate >= 0.85 * rate
    cell = {
        "offered_rate": rate,
        "achieved_rate": round(float(achieved_rate), 1),
        "deadline_ms": deadline_ms,
        "n_requests": n_requests,
        "steady_state": bool(steady),
        "served_qps": round(n_requests / served_span, 1) if served_span > 0 else None,
        "latency_ms": {
            "p50": round(float(p50), 3),
            "p95": round(float(p95), 3),
            "p99": round(float(p99), 3),
            "max": round(float(latency_ms.max()), 3),
        },
        "flushes": engine_stats["flushes"],
        "flush_causes": engine_stats["flush_causes"],
        "avg_flush_ms": round(engine_stats["avg_flush_seconds"] * 1000.0, 3),
        "max_flush_ms": round(engine_stats["max_flush_seconds"] * 1000.0, 3),
        "rows_per_flush": round(batcher["flat_rows"] / max(engine_stats["flushes"], 1), 1),
        "dedup_ratio": round(batcher["flat_rows"] / max(batcher["unique_pairs"], 1), 3),
        "cache_hit_rate": round(stats["cache"]["hit_rate"], 4)
        if stats["cache"]["stores"]
        else None,
        "p95_bound_ms": round(
            deadline_ms + engine_stats["max_flush_seconds"] * 1000.0 + slack_ms, 3
        ),
    }
    return cell


def overload_budget_rows(capacity_rps: float, n_workers: int,
                         deadline_ms: float) -> int:
    """Per-worker depth budget: ~4 flush-deadlines of scoring work
    (floor: two full requests so a single request is always admissible)."""
    rows_per_worker_s = capacity_rps * OVERLOAD_CANDIDATES / n_workers
    return max(
        2 * OVERLOAD_CANDIDATES,
        int(rows_per_worker_s * (deadline_ms / 1000.0) * 4),
    )


def build_overload_engine(n_workers: int, capacity_rps: float,
                          deadline_ms: float) -> MultiWorkerEngine:
    return MultiWorkerEngine(
        build_model("dense"),
        n_workers,
        max_delay_ms=deadline_ms,
        max_pending=8192,
        max_queue_rows=overload_budget_rows(capacity_rps, n_workers, deadline_ms),
        max_queue_age_ms=deadline_ms,
    )


def measure_capacity(n_workers: int, deadline_ms: float,
                     rng: np.random.Generator,
                     probe_seconds: float = 0.8) -> float:
    """Scored requests/sec of an ``n_workers`` fleet in the shedding regime.

    Two stages.  A closed-loop burst (submit everything, drain, divide)
    gives a rough rate to size the budgets — rough only, because giant
    backlog flushes have a different per-row cost than deadline-sized
    ones.  Then a no-sleep flood against the *budgeted* engine counts
    what actually gets scored per second with admission and age
    shedding active: the same regime the overload cells run in, so
    ``OVERLOAD_MULT`` × this is unambiguous overload.
    """
    users, candidates = make_requests(rng, 600, width=OVERLOAD_CANDIDATES)
    with MultiWorkerEngine(build_model("dense"), n_workers,
                           max_delay_ms=deadline_ms, max_pending=8192) as engine:
        for k in range(64):
            engine.submit_items(int(users[k]), candidates[k])
        engine.drain(timeout=60.0)
        t0 = time.perf_counter()
        for k in range(600):
            engine.submit_items(int(users[k]), candidates[k])
        engine.drain(timeout=120.0)
        rough = 600 / (time.perf_counter() - t0)

    pool_users, pool_candidates = make_requests(
        rng, 1024, width=OVERLOAD_CANDIDATES
    )
    tickets = []
    with build_overload_engine(n_workers, rough, deadline_ms) as engine:
        t0 = time.perf_counter()
        t_end = t0 + probe_seconds
        k = 0
        while time.perf_counter() < t_end:
            i = k % 1024
            try:
                tickets.append(
                    engine.submit_items(int(pool_users[i]), pool_candidates[i])
                )
            except OverloadError:
                time.sleep(0.0002)  # queue full: yield to the workers
            k += 1
        engine.drain(timeout=120.0)
        elapsed = time.perf_counter() - t0
    scored = sum(1 for t in tickets if not t.failed)
    return max(scored / elapsed, 1.0)


def run_overload_cell(n_workers: int, capacity_rps: float, deadline_ms: float,
                      n_requests: int, rng: np.random.Generator,
                      slack_ms: float = SLACK_MS) -> dict:
    """One overload cell: offered ≫ capacity against armed budgets."""
    offered = OVERLOAD_MULT * capacity_rps
    max_queue_rows = overload_budget_rows(capacity_rps, n_workers, deadline_ms)
    engine = build_overload_engine(n_workers, capacity_rps, deadline_ms)
    users, candidates = make_requests(rng, n_requests, width=OVERLOAD_CANDIDATES)
    arrivals = np.cumsum(rng.exponential(1.0 / offered, size=n_requests))
    tickets, ticket_submit_at = [], []
    n_rejected = 0

    with engine:
        t0 = time.perf_counter()
        first = last = None
        for k in range(n_requests):
            lag = t0 + arrivals[k] - time.perf_counter()
            if lag > 0:
                time.sleep(lag)
            now = time.perf_counter()
            first = now if first is None else first
            last = now
            try:
                ticket = engine.submit_items(int(users[k]), candidates[k])
            except OverloadError:
                n_rejected += 1
            else:
                tickets.append(ticket)
                ticket_submit_at.append(now)
        engine.drain(timeout=120.0)
        stats = engine.stats()

    # --- conservation: nothing stranded, every outcome typed ----------
    assert all(t.ready for t in tickets), "stranded tickets under overload"
    scored_lat, n_shed = [], 0
    for ticket, submitted in zip(tickets, ticket_submit_at):
        if ticket.failed:
            assert isinstance(ticket.error, DeadlineExceeded), ticket.error
            n_shed += 1
        else:
            scored_lat.append((ticket.resolved_at - submitted) * 1000.0)
    agg = stats["aggregate"]
    assert agg["accepted"] == len(tickets)
    assert agg["rejected"] == n_rejected
    assert agg["shed"] == n_shed
    assert agg["aborted"] == 0
    assert len(tickets) + n_rejected == n_requests

    span = (last - first) if last is not None and last > first else 0.0
    achieved = (n_requests - 1) / span if span > 0 else float("inf")
    scored_lat = np.array(scored_lat) if scored_lat else np.array([0.0])
    p50, p95 = np.percentile(scored_lat, (50, 95))
    max_flush_ms = agg["max_flush_seconds"] * 1000.0
    n_scored = len(tickets) - n_shed
    return {
        "n_workers": n_workers,
        "capacity_rps": round(float(capacity_rps), 1),
        "offered_rate": round(float(offered), 1),
        "achieved_rate": round(float(achieved), 1),
        "overload_mult": round(float(achieved / capacity_rps), 2),
        "deadline_ms": deadline_ms,
        "candidates_per_request": OVERLOAD_CANDIDATES,
        "max_queue_rows": max_queue_rows,
        "max_queue_age_ms": deadline_ms,
        "n_requests": n_requests,
        "accepted": len(tickets),
        "rejected": n_rejected,
        "shed": n_shed,
        "scored": n_scored,
        "drop_frac": round((n_rejected + n_shed) / n_requests, 4),
        "scored_latency_ms": {
            "p50": round(float(p50), 3),
            "p95": round(float(p95), 3),
            "max": round(float(scored_lat.max()), 3),
        },
        "max_flush_ms": round(max_flush_ms, 3),
        "p95_bound_ms": round(deadline_ms + max_flush_ms + slack_ms, 3),
    }


def _scaling_flood(n_workers: int, rows_per_worker: int,
                   probe_seconds: float, rng: np.random.Generator) -> dict:
    """One flood against an ``n_workers`` fleet → scored/sec."""
    pool_users, pool_candidates = make_requests(
        rng, 1024, width=OVERLOAD_CANDIDATES
    )
    engine = MultiWorkerEngine(
        build_model("dense"),
        n_workers,
        max_delay_ms=OVERLOAD_DEADLINE_MS,
        max_pending=8192,
        max_queue_rows=rows_per_worker,
        # A fleet's aggregate queue is n× deeper and on a shared host
        # each worker's flush slot comes around n× less often — the age
        # budget must cover one fleet-wide drain cycle, not one worker's.
        max_queue_age_ms=OVERLOAD_DEADLINE_MS * n_workers,
    )
    tickets = []
    with engine:
        t0 = time.perf_counter()
        t_end = t0 + probe_seconds
        k = 0
        while time.perf_counter() < t_end:
            i = k % 1024
            try:
                tickets.append(
                    engine.submit_items(int(pool_users[i]), pool_candidates[i])
                )
            except OverloadError:
                time.sleep(0.0002)  # queue full: yield to the workers
            k += 1
        engine.drain(timeout=120.0)
        elapsed = time.perf_counter() - t0
        agg = engine.stats()["aggregate"]
    assert all(t.ready for t in tickets), "stranded tickets in scaling probe"
    scored = sum(1 for t in tickets if not t.failed)
    return {
        "scored_per_sec": scored / elapsed,
        "dedup_ratio": agg["flat_rows"] / max(agg["unique_pairs"], 1),
        "flushes": agg["flushes"],
    }


def measure_worker_scaling(workers=OVERLOAD_WORKERS, probe_seconds: float = 1.2,
                           trials: int = 0) -> dict:
    """Scored/sec of 1/2/4-worker fleets — the scaling curve.

    The overload cells size budgets for core-per-worker scaling; this
    probe instead measures *fleet batching capacity*: every worker keeps
    the single-worker queue depth (the PR-6 row budget at ``n=1``) and
    the age budget grows with fleet size, so bigger fleets hold more
    rows in flight and flush bigger co-batches — higher Zipf dedup and
    fewer flush cycles per scored request.  ``trials`` floods run per
    fleet size, interleaved round-robin, and each curve point is the
    median.
    """
    trials = trials or SCALING_TRIALS
    rng = np.random.default_rng(SEED + 7)
    rough = measure_capacity(1, OVERLOAD_DEADLINE_MS, rng)
    rows_per_worker = overload_budget_rows(rough, 1, OVERLOAD_DEADLINE_MS)
    samples = {n: [] for n in workers}
    for trial in range(trials):
        for n_workers in workers:
            probe_rng = np.random.default_rng(SEED + 11 + 31 * trial + n_workers)
            samples[n_workers].append(
                _scaling_flood(n_workers, rows_per_worker, probe_seconds, probe_rng)
            )
    curve = []
    for n_workers in workers:
        rates = [s["scored_per_sec"] for s in samples[n_workers]]
        curve.append({
            "n_workers": n_workers,
            "scored_per_sec": round(float(np.median(rates)), 1),
            "scored_per_sec_trials": [round(r, 1) for r in rates],
            "dedup_ratio": round(
                float(np.median([s["dedup_ratio"] for s in samples[n_workers]])), 3
            ),
            "age_budget_ms": OVERLOAD_DEADLINE_MS * n_workers,
        })
    rates = [point["scored_per_sec"] for point in curve]
    out = {
        # The gate's parallelism-awareness hinges on these two: how
        # many cores the host really has, and which array backend the
        # flush threads inherited from the thread that started them.
        "cpu_count": os.cpu_count(),
        "backend": get_backend().name,
        "deadline_ms": OVERLOAD_DEADLINE_MS,
        "rows_per_worker": rows_per_worker,
        "trials": trials,
        "probe_seconds": probe_seconds,
        "curve": curve,
        "strictly_increasing": all(b > a for a, b in zip(rates, rates[1:])),
    }
    if len(rates) >= 2:
        out["slope_per_worker"] = round(
            (rates[-1] - rates[0]) / (curve[-1]["n_workers"] - curve[0]["n_workers"]), 1
        )
        out["step_ratios"] = [
            round(b / a, 3) for a, b in zip(rates, rates[1:])
        ]
    return out


def run_overload_cells(workers=OVERLOAD_WORKERS, n_requests: int = 0,
                       slack_ms: float = SLACK_MS) -> list:
    cells = []
    for n_workers in workers:
        rng = np.random.default_rng(SEED + 2 + n_workers)
        capacity = measure_capacity(n_workers, OVERLOAD_DEADLINE_MS, rng)
        n = n_requests or int(min(max(capacity * OVERLOAD_MULT * 1.0, 600), 4000))
        cells.append(
            run_overload_cell(n_workers, capacity, OVERLOAD_DEADLINE_MS, n, rng, slack_ms)
        )
    return cells


def run_benchmark(rates=RATES, deadlines=DEADLINES_MS, stores=STORES,
                  n_requests: int = 0, slack_ms: float = SLACK_MS) -> dict:
    report = {
        "config": {
            "n_users": N_USERS, "n_items": N_ITEMS, "dim": DIM,
            "candidates_per_request": CANDIDATES, "n_shards": N_SHARDS,
            "lru_capacity": LRU_CAPACITY, "zipf_a": ZIPF_A,
            "slack_ms": slack_ms,
        },
        "cells": [],
    }
    for store in stores:
        model = build_model(store)
        try:
            for rate in rates:
                for deadline in deadlines:
                    rng = np.random.default_rng(SEED + 1)
                    n = n_requests or int(min(max(rate * 1.5, 300), 3000))
                    cell = run_cell(model, rate, deadline, n, rng, slack_ms)
                    cell["store"] = store
                    report["cells"].append(cell)
        finally:
            close_model(model)
    return report


def add_overload_config(report: dict) -> None:
    report["config"]["overload"] = {
        "mult": OVERLOAD_MULT,
        "deadline_ms": OVERLOAD_DEADLINE_MS,
        "workers": list(OVERLOAD_WORKERS),
        "candidates_per_request": OVERLOAD_CANDIDATES,
    }


def check_report(report: dict) -> None:
    """Acceptance gates (also exercised by the CI smoke run)."""
    assert report["cells"], "no cells measured"
    steady = [c for c in report["cells"] if c["steady_state"]]
    assert steady, "no steady-state cells — offered rates too high for this host"
    for cell in steady:
        assert cell["latency_ms"]["p95"] <= cell["p95_bound_ms"], (
            f"{cell['store']} @ {cell['offered_rate']}/s, "
            f"deadline {cell['deadline_ms']}ms: p95 {cell['latency_ms']['p95']}ms "
            f"exceeds max_delay + flush + slack = {cell['p95_bound_ms']}ms"
        )
    lru = [c for c in report["cells"] if c["store"] == "lru"]
    for cell in lru:
        assert cell["cache_hit_rate"] is not None
        # Zipf-skewed ids must actually hit the hot-row cache.
        assert cell["cache_hit_rate"] > 0.2, (
            f"LRU hit rate collapsed to {cell['cache_hit_rate']}"
        )
    for cell in report.get("overload_cells", []):
        label = f"overload x{cell['n_workers']} workers"
        # Bounded latency for whatever was scored: the age budget sheds
        # anything older before planning, so p95 cannot balloon with
        # queue depth the way an unbounded queue would.
        if cell["scored"] >= 20:
            assert cell["scored_latency_ms"]["p95"] <= cell["p95_bound_ms"], (
                f"{label}: scored p95 {cell['scored_latency_ms']['p95']}ms "
                f"exceeds age budget + flush + slack = {cell['p95_bound_ms']}ms"
            )
        # The drop rate (rejected + shed) must absorb the offered
        # excess.  The floor keeps 3x headroom over the probed capacity
        # — on a loaded host the cell's scored rate can run ~2x the
        # flood probe's — with a 0.10 minimum that still catches
        # disarmed budgets (those would also blow the p95 gate above,
        # which is the structural teeth of this contract).
        mult = cell["overload_mult"]
        if mult > 1.5:
            floor = max(0.10, 1.0 - 3.0 / mult)
            assert cell["drop_frac"] >= floor, (
                f"{label}: drop_frac {cell['drop_frac']} < {floor:.3f} "
                f"at {mult}x capacity — overload was not absorbed"
            )
    scaling = report.get("worker_scaling")
    if scaling:
        rates = [point["scored_per_sec"] for point in scaling["curve"]]
        workers = [point["n_workers"] for point in scaling["curve"]]
        for (wa, a), (wb, b) in zip(zip(workers, rates), zip(workers[1:], rates[1:])):
            assert b > a, (
                f"worker scaling curve not strictly increasing: "
                f"{wa} workers → {a}/s but {wb} workers → {b}/s"
            )
        # Parallelism-aware tightening: on a host with real cores each
        # extra worker must buy a measurable step (batching + true
        # parallelism compound), not just a rounding-error win.  On a
        # serialized host (1 CPU) the historical strict increase above
        # is the whole contract — the batching mechanism alone carries
        # the curve there.
        if scaling.get("cpu_count", 1) >= 2:
            for (wa, a), (wb, b) in zip(
                zip(workers, rates), zip(workers[1:], rates[1:])
            ):
                assert b >= 1.05 * a, (
                    f"worker scaling step {wa}→{wb} workers only "
                    f"{b / a:.3f}x on a {scaling['cpu_count']}-cpu host "
                    f"(needs ≥1.05x)"
                )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale run (one rate/deadline cell per store); "
        "skips the JSON artifact",
    )
    args = parser.parse_args()
    if args.smoke:
        result = run_benchmark(
            rates=(500.0,), deadlines=(5.0,), n_requests=250, slack_ms=SMOKE_SLACK_MS
        )
        result["overload_cells"] = run_overload_cells(workers=(2,), slack_ms=SMOKE_SLACK_MS)
        result["worker_scaling"] = measure_worker_scaling(
            workers=(1, 2), probe_seconds=0.5, trials=2
        )
    else:
        result = run_benchmark()
        result["overload_cells"] = run_overload_cells()
        result["worker_scaling"] = measure_worker_scaling()
    add_overload_config(result)
    check_report(result)
    if not args.smoke:
        OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
