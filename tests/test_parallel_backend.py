"""The thread-parallel backend: bit-parity, scheduling, knob threading.

The contract under test (see ``docs/backends.md``): every primitive
:class:`repro.nn.ParallelBackend` row-chunks is **bitwise identical** to
the :class:`repro.nn.backend.NumpyBackend` reference at any thread
count and any chunk grid — elementwise ufuncs, non-leading-axis
reductions, ``take``, sorted ``add_at`` — while everything that is not
chunk-invariant (GEMMs, ``power``, unsorted scatters) transparently
takes the inherited serial path.  On top of that sit the plumbing
guarantees: ``backend_scope`` inheritance across pool and worker
threads (``bind_backend``), the ``backend`` knob on the serving
engines, the eval protocol's use of the caller's scope, and
deterministic slab scheduling.
"""

import threading

import numpy as np
import pytest

from repro.baselines.gbmf import GBMF
from repro.core import MGBR, MGBRConfig
from repro.eval.protocol import EvalProtocol
from repro.nn import (
    CountingBackend,
    ParallelBackend,
    available_backends,
    backend_scope,
    bind_backend,
    get_backend,
    no_grad,
    resolve_backend,
)
from repro.nn.backend import NumpyBackend
from repro.nn.parallel import MIN_ROWS_ENV, THREADS_ENV
from repro.plan import ScoringPlan
from repro.serving.engine import ServingEngine
from repro.serving.multi import MultiWorkerEngine

REFERENCE = NumpyBackend()


@pytest.fixture()
def par():
    """A low-threshold parallel backend that genuinely chunks in tests."""
    backend = ParallelBackend(n_threads=4, min_parallel_rows=64)
    yield backend
    backend.close()


def _mgbr(dataset, seed=3):
    config = MGBRConfig.small(d=8, n_experts=2, mtl_layers=2)
    return MGBR(dataset.train, dataset.n_users, dataset.n_items,
                config=config, seed=seed)


def _gbmf(dataset, seed=3):
    return GBMF(dataset.n_users, dataset.n_items, dim=8, seed=seed)


# ----------------------------------------------------------------------
# Registration / knob resolution
# ----------------------------------------------------------------------
class TestRegistration:
    def test_registered_at_import(self):
        assert "parallel" in available_backends()
        assert get_backend("parallel").name == "parallel"

    def test_env_knobs_seed_constructor(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "3")
        monkeypatch.setenv(MIN_ROWS_ENV, "128")
        backend = ParallelBackend()
        assert backend.n_threads == 3
        assert backend.min_parallel_rows == 128

    def test_env_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "many")
        monkeypatch.setenv(MIN_ROWS_ENV, "")
        backend = ParallelBackend()
        assert backend.n_threads >= 1
        assert backend.min_parallel_rows == 8192

    def test_resolve_backend_modes(self, par):
        assert resolve_backend(par) is par
        assert resolve_backend("parallel").name == "parallel"
        assert resolve_backend("auto", inherited=par) is par
        assert resolve_backend("auto") is get_backend()
        with pytest.raises(ValueError):
            resolve_backend("no-such-backend")

    def test_bind_backend_crosses_threads(self, par):
        """Satellite contract: a pool task sees its submitter's backend."""
        seen = {}

        def probe():
            seen["backend"] = get_backend()

        with backend_scope(par):
            bound = bind_backend(probe)
        worker = threading.Thread(target=bound)
        worker.start()
        worker.join()
        assert seen["backend"] is par


# ----------------------------------------------------------------------
# Slab planning
# ----------------------------------------------------------------------
class TestRowPartition:
    def test_below_threshold_is_serial(self, par):
        assert par.row_partition(63) is None

    def test_single_thread_is_serial(self):
        backend = ParallelBackend(n_threads=1, min_parallel_rows=2)
        assert backend.row_partition(10_000) is None

    def test_grid_covers_range_contiguously(self, par):
        for n_rows in (64, 65, 100, 1000, 8192):
            slabs = par.row_partition(n_rows)
            assert slabs is not None
            assert slabs[0][0] == 0 and slabs[-1][1] == n_rows
            for (_, stop), (start, _) in zip(slabs, slabs[1:]):
                assert stop == start
            assert len(slabs) <= par.n_threads

    def test_grid_is_deterministic(self, par):
        assert par.row_partition(1000) == par.row_partition(1000)
        twin = ParallelBackend(n_threads=4, min_parallel_rows=64)
        try:
            assert twin.row_partition(1000) == par.row_partition(1000)
        finally:
            twin.close()

    def test_no_nested_chunking_inside_slabs(self, par):
        """A slab body calling back into the backend stays serial."""
        nested = []
        slabs = par.row_partition(1000)

        def body(_i, start, stop):
            nested.append(par.row_partition(stop - start + 1000))

        par.run_slabs(slabs, body)
        assert nested and all(grid is None for grid in nested)

    def test_run_slabs_propagates_first_error(self, par):
        slabs = par.row_partition(1000)

        def body(i, start, stop):
            if i == len(slabs) - 1:
                raise RuntimeError("slab boom")

        with pytest.raises(RuntimeError, match="slab boom"):
            par.run_slabs(slabs, body)


# ----------------------------------------------------------------------
# Primitive bit-parity vs the reference backend
# ----------------------------------------------------------------------
class TestPrimitiveParity:
    ROWS = 500  # well above the fixture threshold → really chunks

    def _pair(self, rng, cols=7):
        a = rng.normal(size=(self.ROWS, cols))
        b = rng.normal(size=(self.ROWS, cols))
        return a, b

    @pytest.mark.parametrize("op", [
        "add", "subtract", "multiply", "divide", "maximum", "greater",
    ])
    def test_binary_elementwise(self, par, rng, op):
        a, b = self._pair(rng)
        np.testing.assert_array_equal(
            getattr(par, op)(a, b), getattr(REFERENCE, op)(a, b)
        )

    @pytest.mark.parametrize("op", [
        "negative", "exp", "log1p", "sqrt", "absolute", "sign", "tanh",
    ])
    def test_unary_elementwise(self, par, rng, op):
        a = np.abs(rng.normal(size=(self.ROWS, 5))) + 0.1
        np.testing.assert_array_equal(
            getattr(par, op)(a), getattr(REFERENCE, op)(a)
        )

    def test_log_and_out_form(self, par, rng):
        a = np.abs(rng.normal(size=(self.ROWS, 5))) + 0.1
        np.testing.assert_array_equal(par.log(a), REFERENCE.log(a))
        out = np.empty_like(a)
        result = par.exp(a, out=out)
        assert result is out
        np.testing.assert_array_equal(out, REFERENCE.exp(a))

    def test_broadcast_operands_pass_whole(self, par, rng):
        a = rng.normal(size=(self.ROWS, 6))
        bias = rng.normal(size=(6,))       # broadcast row
        col = rng.normal(size=(self.ROWS, 1))  # full-rows column
        np.testing.assert_array_equal(
            par.add(a, bias), REFERENCE.add(a, bias)
        )
        np.testing.assert_array_equal(
            par.multiply(a, col), REFERENCE.multiply(a, col)
        )
        np.testing.assert_array_equal(
            par.add(a, 2.5), REFERENCE.add(a, 2.5)
        )

    def test_clip_and_where(self, par, rng):
        a = rng.normal(size=(self.ROWS, 4))
        np.testing.assert_array_equal(
            par.clip(a, -0.5, 0.5), REFERENCE.clip(a, -0.5, 0.5)
        )
        cond = a > 0
        b = rng.normal(size=(self.ROWS, 4))
        np.testing.assert_array_equal(
            par.where(cond, a, b), REFERENCE.where(cond, a, b)
        )
        np.testing.assert_array_equal(
            par.where(cond, a, 0.0), REFERENCE.where(cond, a, 0.0)
        )

    def test_row_reductions(self, par, rng):
        a = rng.normal(size=(self.ROWS, 33))
        np.testing.assert_array_equal(
            par.sum(a, axis=1), REFERENCE.sum(a, axis=1)
        )
        np.testing.assert_array_equal(
            par.sum(a, axis=1, keepdims=True),
            REFERENCE.sum(a, axis=1, keepdims=True),
        )
        np.testing.assert_array_equal(
            par.amax(a, axis=1), REFERENCE.amax(a, axis=1)
        )
        out = np.empty(self.ROWS)
        par.sum(a, axis=1, out=out)
        np.testing.assert_array_equal(out, REFERENCE.sum(a, axis=1))

    def test_leading_axis_reduction_stays_serial_and_exact(self, par, rng):
        a = rng.normal(size=(self.ROWS, 5))
        np.testing.assert_array_equal(
            par.sum(a, axis=0), REFERENCE.sum(a, axis=0)
        )
        assert par.sum(a) == REFERENCE.sum(a)

    def test_take(self, par, rng):
        table = rng.normal(size=(40, 6))
        index = rng.integers(0, 40, size=self.ROWS)
        np.testing.assert_array_equal(
            par.take(table, index), REFERENCE.take(table, index)
        )
        out = np.empty((self.ROWS, 6))
        par.take(table, index, out=out)
        np.testing.assert_array_equal(out, REFERENCE.take(table, index))
        # Negative indices flow through the no-out gather unchanged.
        negative = index - 40
        np.testing.assert_array_equal(
            par.take(table, negative), REFERENCE.take(table, negative)
        )
        with pytest.raises(IndexError):
            par.take(table, np.full(self.ROWS, 40, dtype=np.int64))

    def test_add_at_sorted_chunks(self, par, rng):
        index = np.sort(rng.integers(0, 37, size=self.ROWS))
        values = rng.normal(size=(self.ROWS, 3))
        ours = np.zeros((37, 3))
        theirs = np.zeros((37, 3))
        par.add_at(ours, index, values)
        REFERENCE.add_at(theirs, index, values)
        np.testing.assert_array_equal(ours, theirs)

    def test_add_at_scalar_values(self, par, rng):
        index = np.sort(rng.integers(0, 37, size=self.ROWS))
        ours, theirs = np.zeros(37), np.zeros(37)
        par.add_at(ours, index, 1.0)
        REFERENCE.add_at(theirs, index, 1.0)
        np.testing.assert_array_equal(ours, theirs)

    def test_add_at_unsorted_falls_back_exact(self, par, rng):
        index = rng.integers(0, 37, size=self.ROWS)  # unsorted → serial
        values = rng.normal(size=(self.ROWS, 3))
        ours, theirs = np.zeros((37, 3)), np.zeros((37, 3))
        par.add_at(ours, index, values)
        REFERENCE.add_at(theirs, index, values)
        np.testing.assert_array_equal(ours, theirs)

    def test_matmul_and_power_inherit_serial(self, par, rng):
        # GEMMs are never chunked (OpenBLAS kernels are m-sensitive);
        # the override set must leave them untouched.
        a = rng.normal(size=(self.ROWS, 16))
        w = rng.normal(size=(16, 8))
        np.testing.assert_array_equal(
            par.matmul(a, w), REFERENCE.matmul(a, w)
        )
        np.testing.assert_array_equal(
            par.power(a, 2.0), REFERENCE.power(a, 2.0)
        )

    def test_parity_under_many_grids(self, rng):
        a = rng.normal(size=(997, 13))  # prime row count: ragged slabs
        expected_sum = REFERENCE.sum(a, axis=1)
        expected_exp = REFERENCE.exp(a)
        for threads, min_rows in [(2, 16), (3, 64), (4, 100), (8, 997)]:
            backend = ParallelBackend(
                n_threads=threads, min_parallel_rows=min_rows
            )
            try:
                np.testing.assert_array_equal(
                    backend.sum(a, axis=1), expected_sum
                )
                np.testing.assert_array_equal(backend.exp(a), expected_exp)
            finally:
                backend.close()


# ----------------------------------------------------------------------
# Row-parallel fused flushes
# ----------------------------------------------------------------------
class TestFusedParity:
    def _plans(self, rng, dataset, n=420):
        users = rng.integers(0, dataset.n_users, size=n)
        items = rng.integers(0, dataset.n_items, size=n)
        participants = rng.integers(0, dataset.n_users, size=n)
        return (
            ScoringPlan.from_item_pairs(users, items),
            ScoringPlan.from_triples(users, items, participants),
        )

    def _fused_scores(self, model, plans, backend):
        with no_grad(), backend_scope(backend):
            model.executor = "fused"
            try:
                return [
                    np.array(model.score_item_plan(plans[0])),
                    np.array(model.score_participant_plan(plans[1])),
                ]
            finally:
                model.executor = "auto"

    def test_mgbr_thread_stress_bitwise(self, tiny_dataset, rng):
        """50 chunked MGBR flushes across grids, all bit-equal to numpy."""
        model = _mgbr(tiny_dataset)
        plans = self._plans(rng, tiny_dataset)
        reference = self._fused_scores(model, plans, REFERENCE)
        grids = [(2, 32), (4, 64), (8, 16), (3, 128), (4, 24)]
        for threads, min_rows in grids:
            backend = ParallelBackend(
                n_threads=threads, min_parallel_rows=min_rows
            )
            try:
                for _ in range(5):
                    got = self._fused_scores(model, plans, backend)
                    np.testing.assert_array_equal(got[0], reference[0])
                    np.testing.assert_array_equal(got[1], reference[1])
            finally:
                backend.close()
        assert model.executor_stats()["fallbacks"] == 0

    def test_gbmf_slab_flush_bitwise(self, tiny_dataset, rng):
        model = _gbmf(tiny_dataset)
        plans = self._plans(rng, tiny_dataset)
        reference = self._fused_scores(model, plans, REFERENCE)
        backend = ParallelBackend(n_threads=4, min_parallel_rows=32)
        try:
            got = self._fused_scores(model, plans, backend)
        finally:
            backend.close()
        np.testing.assert_array_equal(got[0], reference[0])
        np.testing.assert_array_equal(got[1], reference[1])

    def test_slab_scheduling_is_deterministic(self, tiny_dataset, rng):
        """Repeated flushes and different grids agree bit-for-bit."""
        model = _gbmf(tiny_dataset)
        plans = self._plans(rng, tiny_dataset)
        runs = []
        for threads, min_rows in [(4, 32), (4, 32), (2, 100), (8, 16)]:
            backend = ParallelBackend(
                n_threads=threads, min_parallel_rows=min_rows
            )
            try:
                runs.append(self._fused_scores(model, plans, backend))
            finally:
                backend.close()
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0][0], other[0])
            np.testing.assert_array_equal(runs[0][1], other[1])


# ----------------------------------------------------------------------
# Knob threading: serving engines and the eval protocol
# ----------------------------------------------------------------------
class TestServingBackend:
    def test_worker_inherits_scope_backend(self, tiny_dataset):
        """Satellite contract: ``backend="auto"`` crosses the spawn."""
        counting = CountingBackend()
        model = _mgbr(tiny_dataset)
        with backend_scope(counting):
            engine = ServingEngine(model, max_delay_ms=1.0).start()
        try:
            engine.score_items(3, [0, 1, 2, 5], timeout=5.0)
            stats = engine.stats()
        finally:
            engine.stop()
        assert stats["engine"]["backend"] == "counting"
        assert sum(counting.counts.values()) > 0

    def test_explicit_instance_and_parity(self, tiny_dataset, par):
        def serve(backend):
            with ServingEngine(
                _mgbr(tiny_dataset), max_delay_ms=1.0, backend=backend
            ) as engine:
                a = engine.score_items(3, [0, 1, 2, 5], timeout=5.0)
                b = engine.score_participants(3, 1, [4, 5, 6], timeout=5.0)
                name = engine.stats()["engine"]["backend"]
            return a, b, name

        numpy_a, numpy_b, numpy_name = serve("numpy")
        par_a, par_b, par_name = serve(par)
        assert numpy_name == "numpy" and par_name == "parallel"
        np.testing.assert_array_equal(par_a, numpy_a)
        np.testing.assert_array_equal(par_b, numpy_b)

    def test_invalid_backend_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            ServingEngine(_gbmf(tiny_dataset), backend="no-such-backend")

    def test_multi_worker_forwards_backend(self, tiny_dataset, par):
        replicas = [_gbmf(tiny_dataset, seed=3) for _ in range(2)]
        with MultiWorkerEngine(
            replicas, max_delay_ms=1.0, backend=par
        ) as engine:
            engine.score_items(0, [0, 1, 2], timeout=5.0)
            stats = engine.stats()
        assert all(
            snap["engine"]["backend"] == "parallel"
            for snap in stats["workers"]
        )


class TestEvalBackend:
    def test_metrics_backend_invariant(self, tiny_dataset, par):
        """The protocol scores under the caller's ``backend_scope``."""
        model = _mgbr(tiny_dataset)
        protocol = EvalProtocol(
            dataset=tiny_dataset, n_negatives=5, cutoff=5, max_instances=40,
        )
        results = {}
        for key, backend in (("numpy", "numpy"), ("parallel", par)):
            with backend_scope(backend):
                results[key] = protocol.run(model).flat()
        assert results["parallel"] == results["numpy"]
