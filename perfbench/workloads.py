"""The four benchmark workloads and their frozen load.

Every constant that shapes the load — dataset sizes, model widths,
offered rates, concurrency, queue budgets, candidate widths, Zipf
exponents, the evaluation candidate lists and the training sampler
seed — is fixed here.  The only run-time input is the workload seed,
which draws the serving request streams.

Each workload answers four questions, all through public ``repro`` APIs:

* ``setup(seed)`` builds the dataset, model and engine and warms them;
* ``measure(state, seconds, expected, tracer)`` runs the timed window
  and returns a :class:`Measurement`; with a ``tracer`` installed it
  also collects what only the traced run needs (counting-backend
  tallies, program counters, ticket bindings for queue-wait spans);
* ``close(state)`` stops whatever ``setup`` started;
* ``reference(state)`` (``eval-1to99`` and ``train-mgbr``, the workloads
  with ``needs_reference``) returns the outputs frozen in
  ``reference.json``; the serving workloads check against direct scoring
  calls instead.
"""

from __future__ import annotations

import math
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.baselines import GBMF
from repro.core import MGBR, MGBRConfig
from repro.data import (
    GroupBuyingDataset,
    SyntheticConfig,
    extract_task_a,
    extract_task_b,
    generate_dataset,
)
from repro.eval import EvalProtocol
from repro.nn import CountingBackend, backend_scope, no_grad
from repro.plan import ScoringPlan
from repro.serving import DeadlineExceeded, OverloadError, ServingEngine
from repro.store import cache_hot_rows, iter_stores
from repro.training import TrainConfig, Trainer

from layers import resident_by_tier
from speed import Scaler

#: The synthetic dataset every MGBR workload uses.
MGBR_DATA = dict(n_users=1000, n_items=300, n_groups=4000)
DATA_SEED = 7
MODEL_SEED = 1
#: Seed of the evaluation candidate lists and of the training sampler,
#: so each of those workloads has one frozen reference.
LIST_SEED = 0


@dataclass
class Measurement:
    """One timed window of a workload."""

    attempted: int
    failed: int
    throughput: float           # ops per second (the workload's op)
    p50_ms: float
    resident_mb: float
    ops: int                    # passes / steps / requests (layer normaliser)
    named: Dict[str, tuple] = field(default_factory=dict)  # metric -> (value, unit)
    problems: List[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)


def zipf_ids(rng: np.random.Generator, exponent: float, size, bound: int) -> np.ndarray:
    """Zipf-skewed ids in ``[0, bound)`` (the head of the catalogue is hot)."""
    return (rng.zipf(exponent, size=size) - 1) % bound


def resident_mb(model) -> float:
    """Sum of store ``resident_bytes`` over every tier, in MB."""
    return sum(resident_by_tier(model).values())


def _pcts(values_ms) -> tuple:
    arr = np.asarray(values_ms, dtype=np.float64)
    return float(np.percentile(arr, 50)), float(np.percentile(arr, 99))


def _note_scaling(m: Measurement, raw_ms, scaler: Scaler) -> None:
    """Print the unscaled median and the host's median slowdown beside
    the scaled figures."""
    m.named["raw.latency_p50_ms"] = (float(np.median(raw_ms)), "ms")
    m.named["host.slowdown"] = (float(np.median(scaler.factors)), "x")


#: Serving rates are medians over bins of this many seconds of the
#: window: host interference on a shared machine comes in bursts of a
#: second or two, which then move a few bins instead of the whole figure.
#: Latency percentiles pool the whole window instead: a bin holds too few
#: flushes for its p99 to be more than its one slowest flush.
BIN_S = 2.0


def _binned_rate(at_s, span_s: float) -> float:
    """Median over the window's full ``BIN_S`` bins of events per second
    (an empty bin counts as zero)."""
    full = max(int(span_s // BIN_S), 1)
    counts = np.bincount((np.asarray(at_s) // BIN_S).astype(np.int64),
                         minlength=full)[:full]
    return float(np.median(counts)) / BIN_S


def _lru_counters(model) -> tuple:
    hits = misses = 0
    for _, store in iter_stores(model):
        snap = store.stats_snapshot()
        hits += snap.get("cache_hits", 0)
        misses += snap.get("cache_misses", 0)
    return hits, misses


def _mgbr_model(dataset, d: int, **overrides) -> MGBR:
    return MGBR(
        dataset.train, dataset.n_users, dataset.n_items,
        config=MGBRConfig.small(d=d, seed=MODEL_SEED, **overrides),
    )


# ----------------------------------------------------------------------
# eval-1to99
# ----------------------------------------------------------------------
class EvalWorkload:
    """Repeated ``EvalProtocol.run`` passes of the paper's 1:99 protocol."""

    name = "eval-1to99"
    needs_reference = True
    N_NEGATIVES = 99
    CUTOFF = 100
    D = 32

    def setup(self, seed: int) -> dict:
        dataset = generate_dataset(SyntheticConfig(**MGBR_DATA), seed=DATA_SEED)
        model = _mgbr_model(dataset, self.D)
        protocol = EvalProtocol(dataset, n_negatives=self.N_NEGATIVES,
                                cutoff=self.CUTOFF, seed=LIST_SEED)
        first = protocol.run(model)  # warm-up: candidate lists, fold caches
        n_lists = len(extract_task_a(dataset.test)) + len(extract_task_b(dataset.test))
        return {"model": model, "protocol": protocol, "first": first.flat(),
                "rows": n_lists * (self.N_NEGATIVES + 1)}

    def reference(self, state) -> dict:
        return state["first"]

    def measure(self, state, seconds: float, expected=None, tracer=None) -> Measurement:
        model, protocol, rows = state["model"], state["protocol"], state["rows"]
        counting = CountingBackend() if tracer is not None else None
        before = model.executor_stats()
        expected = state["first"] if expected is None else expected
        raw, times, mismatched = [], [], int(state["first"] != expected)
        scaler = Scaler()
        deadline = time.perf_counter() + seconds
        with backend_scope(counting) if counting is not None else nullcontext():
            while not times or time.perf_counter() < deadline:
                started = time.perf_counter()
                metrics = protocol.run(model).flat()
                raw.append(time.perf_counter() - started)
                times.append(scaler.scale(raw[-1]))
                mismatched += metrics != expected
        passes = len(times)
        median_s = float(np.median(times))
        m = Measurement(
            attempted=passes * rows, failed=mismatched * rows,
            throughput=rows / median_s, p50_ms=median_s * 1000.0,
            resident_mb=resident_mb(model), ops=passes,
        )
        m.named["eval.pairs_per_s"] = (m.throughput, "rows/s")
        _note_scaling(m, [t * 1000.0 for t in raw], scaler)
        if mismatched:
            m.problems.append(
                f"{mismatched} of {passes} passes (and the set-up pass) differ "
                "from the frozen metrics")
        if tracer is not None:
            m.extras = _traced_extras(model, before, counting)
        return m

    def close(self, state) -> None:
        pass


def _traced_extras(model, executor_before, counting=None) -> dict:
    after = model.executor_stats()
    extras = {
        "executor": {k: after.get(k, 0) - executor_before.get(k, 0)
                     for k in ("fused_calls", "tape_calls", "fallbacks")},
        "resident_tiers": resident_by_tier(model),
    }
    if counting is not None:
        extras["nn_counts"] = dict(counting.counts)
        extras["nn_copies"] = counting.copies
    return extras


# ----------------------------------------------------------------------
# train-mgbr
# ----------------------------------------------------------------------
#: Relative tolerance of the frozen-loss check.  Epoch losses are sums
#: over BLAS products, whose last bits depend on the CPU's OpenBLAS
#: kernel; on the host that froze them they match exactly.
LOSS_RTOL = 1e-9


def _losses_match(got: dict, expected: dict) -> bool:
    return got.keys() == expected.keys() and all(
        math.isclose(got[k], expected[k], rel_tol=LOSS_RTOL, abs_tol=0.0) for k in got
    )


class TrainWorkload:
    """Whole ``Trainer.train_epoch`` epochs, each from the same initial
    weights with a fresh trainer, so every epoch repeats exactly."""

    name = "train-mgbr"
    needs_reference = True
    D = 16
    LOOP = dict(batch_size=64, train_negatives=9, aux_negatives=99)
    #: An epoch walks the first this-many training groups (the graph
    #: still spans the whole training split): nine steps, so a 40 s
    #: window holds about fourteen epochs.
    EPOCH_GROUPS = 240

    def setup(self, seed: int) -> dict:
        full = generate_dataset(SyntheticConfig(**MGBR_DATA), seed=DATA_SEED)
        model = _mgbr_model(full, self.D, **self.LOOP)
        dataset = GroupBuyingDataset(
            n_users=full.n_users, n_items=full.n_items,
            train=full.train[: self.EPOCH_GROUPS],
            validation=full.validation, test=full.test,
        )
        config = TrainConfig.from_mgbr(model.config, seed=LIST_SEED)
        batch = config.batch_size
        steps = max(math.ceil(len(extract_task_a(dataset.train)) / batch),
                    math.ceil(len(extract_task_b(dataset.train)) / batch))
        return {"dataset": dataset, "model": model, "config": config,
                "initial": model.state_dict(), "steps": steps}

    def _epoch(self, state, counting=None):
        """One epoch from the initial weights; ``counting`` (a
        ``CountingBackend``) is scoped around the epoch alone."""
        model = state["model"]
        model.load_state_dict(state["initial"])
        model.invalidate_cache()
        trainer = Trainer(model, state["dataset"], state["config"])
        with backend_scope(counting) if counting is not None else nullcontext():
            started = time.perf_counter()
            record = trainer.train_epoch()
            elapsed = time.perf_counter() - started
        return elapsed, record

    def reference(self, state) -> dict:
        return self._epoch(state)[1].losses

    def measure(self, state, seconds: float, expected=None, tracer=None) -> Measurement:
        model, steps = state["model"], state["steps"]
        counting = CountingBackend() if tracer is not None else None
        before = model.executor_stats()
        raw, times, phases, mismatched = [], [], [], 0
        scaler = Scaler()
        deadline = time.perf_counter() + seconds
        while not times or time.perf_counter() < deadline:
            elapsed, record = self._epoch(state, counting)
            raw.append(elapsed)
            times.append(scaler.scale(elapsed))
            phases.append(record.phases)
            mismatched += expected is not None and not _losses_match(record.losses, expected)
        epochs = len(times)
        p50 = float(np.median(times)) * 1000.0 / steps
        m = Measurement(
            attempted=epochs * steps, failed=mismatched * steps,
            throughput=1000.0 / p50, p50_ms=p50,
            resident_mb=resident_mb(model), ops=epochs * steps,
        )
        m.named["train.steps_per_s"] = (m.throughput, "steps/s")
        _note_scaling(m, [t * 1000.0 / steps for t in raw], scaler)
        if mismatched:
            m.problems.append(f"{mismatched}/{epochs} epochs differ from the frozen losses")
        if tracer is not None:
            m.extras = _traced_extras(model, before, counting)
            m.extras["phases"] = {
                k: float(np.median([p.get(k, 0.0) for p in phases]))
                for k in ("sampling", "forward", "backward", "optimizer")
            }
        return m

    def close(self, state) -> None:
        pass


# ----------------------------------------------------------------------
# Shared serving helpers
# ----------------------------------------------------------------------
#: The co-batched probe engine's deadline: far past the probe check, so
#: only ``drain()`` flushes and every probe lands in one flush.
PROBE_DELAY_MS = 60_000.0


def _direct_scores(model, requests) -> list:
    """What ``requests`` must score when one flush serves them together:
    per task, one direct planned call over the combined plan the flush
    builds (its requests concatenated in submit order), scattered back
    per request."""
    out = [None] * len(requests)
    with no_grad():
        for task in ("a", "b"):
            picked = [k for k, r in enumerate(requests) if r[0] == task]
            if not picked:
                continue
            cands = [requests[k][-1] for k in picked]
            users = np.concatenate([np.full(len(c), requests[k][1], dtype=np.int64)
                                    for k, c in zip(picked, cands)])
            if task == "a":
                plan = ScoringPlan.from_item_pairs(users, np.concatenate(cands))
                flat = plan.scatter(model.score_item_plan(plan))
            else:
                items = np.concatenate([np.full(len(c), requests[k][2], dtype=np.int64)
                                        for k, c in zip(picked, cands)])
                plan = ScoringPlan.from_triples(users, items, np.concatenate(cands))
                flat = plan.scatter(model.score_participant_plan(plan))
            bounds = np.cumsum([len(c) for c in cands])[:-1]
            for k, scores in zip(picked, np.split(flat, bounds)):
                out[k] = scores
    return out


def _submit(engine, request):
    if request[0] == "a":
        return engine.submit_items(request[1], request[2])
    return engine.submit_participants(request[1], request[2], request[3])


def _check_probes(engine, model, probes) -> int:
    """Serve ``probes`` each alone, then all in one flush, and compare
    both with direct calls bit for bit.  Returns the number of mismatches
    (at most two per probe).

    ``engine`` serves the probes alone.  A second engine whose deadline
    never fires serves them together on ``drain()``, so the check covers
    the cross-request plan, dedup and scatter the timed window runs.
    Each engine is stopped before the direct calls: only a running
    engine's worker may touch the model.
    """
    alone = [_submit(engine, probe).wait(timeout=30.0) for probe in probes]
    engine.stop()
    batch = ServingEngine(model, max_delay_ms=PROBE_DELAY_MS).start()
    try:
        tickets = [_submit(batch, probe) for probe in probes]
        batch.drain(timeout=30.0)
    finally:
        batch.stop()
    together = [ticket.wait(timeout=30.0) for ticket in tickets]
    expected_alone = [_direct_scores(model, [probe])[0] for probe in probes]
    return sum(
        not np.array_equal(got, want)
        for got, want in zip(alone + together,
                             expected_alone + _direct_scores(model, probes))
    )


# ----------------------------------------------------------------------
# serve-poisson
# ----------------------------------------------------------------------
class ServePoissonWorkload:
    """Open-loop Poisson traffic against one ``ServingEngine`` over MGBR."""

    name = "serve-poisson"
    needs_reference = False
    D = 32
    CANDIDATES = 50
    ZIPF = 1.2
    #: Well under capacity even when a busy host halves it, so the steady
    #: phase measures flush latency rather than queueing collapse.
    STEADY_RPS = 300.0
    OVERLOAD_RPS = 3000.0
    MAX_DELAY_MS = 2.0
    #: Depth budget: 24 requests, so a full queue flushes in well under
    #: the age budget and shedding stays the exception.
    MAX_QUEUE_ROWS = 1200
    MAX_QUEUE_AGE_MS = 30.0
    GOODPUT_LIMIT_MS = 50.0
    #: A run is invalid when the generator's p99 lateness exceeds this:
    #: the offered schedule was then not delivered.
    LATE_LIMIT_MS = 100.0
    N_PROBES = 16

    def setup(self, seed: int) -> dict:
        dataset = generate_dataset(SyntheticConfig(**MGBR_DATA), seed=DATA_SEED)
        model = _mgbr_model(dataset, self.D)
        model.eval()
        engine = ServingEngine(
            model, max_delay_ms=self.MAX_DELAY_MS,
            max_queue_rows=self.MAX_QUEUE_ROWS, max_queue_age_ms=self.MAX_QUEUE_AGE_MS,
        )
        engine.start()
        engine.refresh()
        warm = self._requests(np.random.default_rng(10_000 + seed), 64, model)
        for start in range(0, len(warm), 8):  # stays inside the depth budget
            for ticket in [_submit(engine, r) for r in warm[start : start + 8]]:
                ticket.wait(timeout=30.0)
        engine.stop()
        return {"model": model, "engine": engine, "seed": seed}

    def _requests(self, rng, n: int, model) -> list:
        """Alternating Task-A / Task-B requests with Zipf-skewed ids."""
        users = zipf_ids(rng, self.ZIPF, n, model.n_users)
        items = zipf_ids(rng, self.ZIPF, n, model.n_items)
        out = []
        for k in range(n):
            if k % 2 == 0:
                cands = zipf_ids(rng, self.ZIPF, self.CANDIDATES, model.n_items)
                out.append(("a", int(users[k]), cands))
            else:
                cands = zipf_ids(rng, self.ZIPF, self.CANDIDATES, model.n_users)
                out.append(("b", int(users[k]), int(items[k]), cands))
        return out

    def _phase(self, engine, requests, arrivals, bind) -> dict:
        """Send ``requests`` at ``arrivals`` (seconds from phase start);
        ``bind(ticket, request_id, due)`` feeds the queue-wait spans."""
        n = len(requests)
        tickets: list = [None] * n
        late = np.zeros(n)
        started = time.perf_counter()
        for k in range(n):
            due = started + arrivals[k]
            lag = due - time.perf_counter()
            if lag > 0:
                time.sleep(lag)
            late[k] = time.perf_counter() - due
            try:
                tickets[k] = _submit(engine, requests[k])
            except OverloadError:
                continue
            if bind is not None:
                bind(tickets[k], k, due)
        engine.drain(timeout=60.0)
        latency, due_s, untyped, stranded = [], [], 0, 0
        for k, ticket in enumerate(tickets):
            if ticket is None:  # refused at admission
                continue
            if not ticket.ready:
                stranded += 1
            elif ticket.failed:
                untyped += not isinstance(ticket.error, DeadlineExceeded)
            else:
                latency.append((ticket.resolved_at - started - arrivals[k]) * 1000.0)
                due_s.append(arrivals[k])
        return {"latency_ms": np.asarray(latency), "due_s": np.asarray(due_s),
                "late_ms": late * 1000.0,
                "span_s": float(arrivals[-1]), "sent": n,
                "untyped": untyped, "stranded": stranded,
                "accepted": sum(t is not None for t in tickets)}

    def measure(self, state, seconds: float, expected=None, tracer=None) -> Measurement:
        model, engine = state["model"], state["engine"]
        rng = np.random.default_rng(state["seed"])
        half = seconds / 2.0
        phases = {}
        engine.start()
        before_exec = model.executor_stats()
        before = engine.stats()["overload"]
        for phase, rate in (("steady", self.STEADY_RPS), ("overload", self.OVERLOAD_RPS)):
            n = int(rate * half)
            arrivals = np.cumsum(rng.exponential(1.0 / rate, size=n))
            # Queue-wait spans cover the steady phase, whose latency they explain.
            bind = tracer.bind_ticket if tracer is not None and phase == "steady" else None
            phases[phase] = self._phase(engine, self._requests(rng, n, model),
                                        arrivals, bind)
        after = engine.stats()["overload"]
        probes = self._requests(np.random.default_rng(20_000 + state["seed"]),
                                self.N_PROBES, model)
        if tracer is not None:
            tracer.uninstall()  # the probe check is not part of the window
        mismatched = _check_probes(engine, model, probes)

        steady, over = phases["steady"], phases["overload"]
        p50, p99 = _pcts(steady["latency_ms"])
        # Requests scored within the limit, by scheduled send; refused and
        # shed requests count as misses.
        goodput = _binned_rate(over["due_s"][over["latency_ms"] <= self.GOODPUT_LIMIT_MS],
                               over["span_s"])
        delta = {k: after[k] - before[k] for k in ("accepted", "rejected", "shed", "aborted")}
        scored = sum(len(p["latency_ms"]) for p in phases.values())
        accepted = sum(p["accepted"] for p in phases.values())
        late_p99 = max(float(np.percentile(p["late_ms"], 99)) for p in phases.values())
        m = Measurement(
            attempted=steady["sent"] + over["sent"] + 2 * self.N_PROBES,
            failed=mismatched + sum(p["untyped"] + p["stranded"] for p in phases.values()),
            throughput=goodput, p50_ms=p50,
            resident_mb=resident_mb(model),
            ops=steady["sent"] + over["sent"],
        )
        m.named.update({
            "serve.p50_ms": (p50, "ms"),
            "serve.p99_ms": (p99, "ms"),
            "serve.goodput_rps": (goodput, "req/s"),
            "serve.overload_offered_rps": (over["sent"] / over["span_s"], "req/s"),
            "serving.shed": (delta["shed"], "count"),
            "serving.rejected": (delta["rejected"], "count"),
            "load.late_ms.p99": (late_p99, "ms"),
        })
        if mismatched:
            m.problems.append(
                f"{mismatched} of {2 * self.N_PROBES} probe results differ from direct calls")
        if delta["accepted"] != scored + delta["shed"] + delta["aborted"] or accepted != delta["accepted"]:
            m.failed += 1
            m.problems.append(f"conservation broken: {delta}, scored {scored}")
        if any(p["stranded"] for p in phases.values()):
            m.problems.append("stranded tickets")
        if late_p99 > self.LATE_LIMIT_MS:
            m.problems.append(
                f"generator fell behind: p99 lateness {late_p99:.1f} ms > {self.LATE_LIMIT_MS} ms")
        if tracer is not None:
            m.extras = _traced_extras(model, before_exec)
        return m

    def close(self, state) -> None:
        state["engine"].stop()


# ----------------------------------------------------------------------
# serve-catalog
# ----------------------------------------------------------------------
class ServeCatalogWorkload:
    """Closed loop against a GBMF two-tower catalogue on int8 + LRU stores."""

    name = "serve-catalog"
    needs_reference = False
    USERS = 200_000
    ITEMS = 50_000
    DIM = 64
    LRU_ROWS = 8192
    OUTSTANDING = 32
    CANDIDATES = 100
    ZIPF = 1.1
    #: A flush fires once all outstanding requests are queued (the size
    #: trigger).  The deadline is only a backstop for the partial batch at
    #: the end of the window: a short one would split a batch whenever a
    #: busy host slows the 32 submits, and make latency bimodal.
    MAX_PENDING = OUTSTANDING * CANDIDATES
    MAX_DELAY_MS = 50.0
    N_PROBES = 8
    POOL = 4096

    def setup(self, seed: int) -> dict:
        model = GBMF(self.USERS, self.ITEMS, dim=self.DIM, seed=MODEL_SEED, quantize="int8")
        cache_hot_rows(model, self.LRU_ROWS)
        model.eval()
        engine = ServingEngine(model, max_pending=self.MAX_PENDING,
                               max_delay_ms=self.MAX_DELAY_MS)
        engine.start()
        engine.refresh()
        warm = self._requests(np.random.default_rng(10_000 + seed), 256)
        self._closed_loop(engine, warm, time.perf_counter() + 60.0, None, limit=len(warm))
        engine.stop()
        return {"model": model, "engine": engine, "seed": seed}

    def _requests(self, rng, n: int) -> list:
        users = zipf_ids(rng, self.ZIPF, n, self.USERS)
        cands = zipf_ids(rng, self.ZIPF, (n, self.CANDIDATES), self.ITEMS)
        return [("a", int(users[k]), cands[k]) for k in range(n)]

    def _closed_loop(self, engine, pool, deadline, tracer, limit=None) -> tuple:
        """Keep ``OUTSTANDING`` requests in flight until ``deadline``
        (or until ``limit`` requests were sent), resubmitting once the
        flush that served them has resolved them all."""
        inflight, latency, done_s, failed = deque(), [], [], 0
        k = 0
        started = time.perf_counter()

        def send():
            nonlocal k
            at = time.perf_counter()
            ticket = _submit(engine, pool[k % len(pool)])
            if tracer is not None:
                tracer.bind_ticket(ticket, k, at)
            inflight.append((ticket, at))
            k += 1

        def more() -> bool:
            return time.perf_counter() < deadline and (limit is None or k < limit)

        while True:
            while len(inflight) < self.OUTSTANDING and more():
                send()
            if not inflight:
                break
            # One flush serves all outstanding requests, so wait for the
            # newest first: it resolves last, and the submitter wakes once
            # per flush.  Woken on the oldest, it contended for the GIL with
            # the worker's resolve loop, and that hand-off, not the flush,
            # set the cycle time (about 24 ms whether a flush took 13 or 23).
            wave = list(inflight)
            inflight.clear()
            for ticket, at in reversed(wave):
                try:
                    ticket.wait(timeout=30.0)
                except Exception:  # a failed flush or a lost ticket: a failed op
                    failed += 1
                else:
                    latency.append((ticket.resolved_at - at) * 1000.0)
                    done_s.append(ticket.resolved_at - started)
        elapsed = time.perf_counter() - started
        return {"latency_ms": np.asarray(latency), "done_s": np.asarray(done_s),
                "failed": failed, "sent": k, "elapsed_s": elapsed}

    def measure(self, state, seconds: float, expected=None, tracer=None) -> Measurement:
        model, engine = state["model"], state["engine"]
        pool = self._requests(np.random.default_rng(state["seed"]), self.POOL)
        engine.start()
        before_exec = model.executor_stats()
        hits0, misses0 = _lru_counters(model)
        loop = self._closed_loop(engine, pool, time.perf_counter() + seconds, tracer)
        hits, misses = _lru_counters(model)
        probes = self._requests(np.random.default_rng(20_000 + state["seed"]), self.N_PROBES)
        if tracer is not None:
            tracer.uninstall()
        mismatched = _check_probes(engine, model, probes)
        p50, p99 = _pcts(loop["latency_ms"])
        rps = _binned_rate(loop["done_s"], loop["elapsed_s"])
        m = Measurement(
            attempted=loop["sent"] + 2 * self.N_PROBES, failed=loop["failed"] + mismatched,
            throughput=rps, p50_ms=p50,
            resident_mb=resident_mb(model), ops=loop["sent"],
        )
        hit_rate = (hits - hits0) / max((hits - hits0) + (misses - misses0), 1)
        m.named.update({
            "catalog.scored_rps": (rps, "req/s"),
            "catalog.p99_ms": (p99, "ms"),
            "store.lru_hit_rate": (hit_rate, "ratio"),
        })
        if mismatched:
            m.problems.append(
                f"{mismatched} of {2 * self.N_PROBES} probe results differ from direct calls")
        if tracer is not None:
            m.extras = _traced_extras(model, before_exec)
            m.extras["lru_hit_rate"] = hit_rate
        return m

    def close(self, state) -> None:
        state["engine"].stop()


WORKLOADS = {w.name: w for w in (EvalWorkload(), ServePoissonWorkload(),
                                 TrainWorkload(), ServeCatalogWorkload())}
