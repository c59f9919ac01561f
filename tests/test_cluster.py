"""Tests for the queue-backed distributed executor (``repro.cluster``).

The contract mirrors the sharded backend's: *bit-for-bit parity* with the
packed/naive reference — same detection maps, same first-detecting pattern
indices, same fault order — regardless of transport (``local`` / ``mp`` /
``queue``), worker count, task arrival order, duplicate deliveries or
injected worker failures.  On top of parity, the suite checks the cluster
machinery itself: the shared protocol (chunk planning, adaptive sizing,
idempotent min-merge), the spool-queue lease/retry mechanics, the worker
entrypoint, backend registration and the runner's ``--transport`` flag.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.atpg.collapse import collapse_faults
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import StuckAtFault, full_fault_list
from repro.circuit.generator import CircuitSpec, generate_circuit
from repro.circuit.library import b01_like_fsm, c17
from repro.cluster import (
    CHUNK_PLAN_ENV_VAR,
    QUEUE_DIR_ENV_VAR,
    TRANSPORT_ENV_VAR,
    AdaptiveChunker,
    ClusterBackend,
    ClusterFaultSimulator,
    LocalTransport,
    QueueTransport,
    TransportError,
    TransportTaskError,
    default_transport_name,
    parse_transport_spec,
    plan_chunks,
    resolve_chunk_plan,
    resolve_transport,
    set_default_transport,
)
from repro.cluster.protocol import worker_context
from repro.cluster.transport import claim_task, write_result
from repro.engine import NaiveFaultSimulator, PackedFaultSimulator, available_backends, get_backend
from tests.helpers import wait_until_claimed


def _random_patterns(circuit, n_patterns: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(n_patterns, circuit.n_test_pins)).astype(np.int8)


def _medium_circuit():
    return generate_circuit(CircuitSpec("cluster_med", 10, 12, 300, seed=4))


def _patterns(circuit, n=160, seed=1):
    from repro.cubes.cube import TestSet

    return TestSet.from_matrix(_random_patterns(circuit, n, seed=seed))


def _packed_reference(circuit, patterns, faults, drop=True):
    return PackedFaultSimulator(circuit).run(patterns, faults, drop_detected=drop)


def _assert_same(reference, result, context=""):
    assert list(reference.detected.items()) == list(result.detected.items()), context
    assert reference.undetected == result.undetected, context
    assert reference.coverage == result.coverage, context


def _forced_simulator(circuit, **kwargs) -> ClusterFaultSimulator:
    """A cluster simulator with knobs forcing multi-chunk dispatch."""
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("min_chunk_faults", 2)
    kwargs.setdefault("chunks_per_worker", 2)
    return ClusterFaultSimulator(circuit, **kwargs)


# -- protocol ----------------------------------------------------------------
class TestProtocol:
    def test_plan_chunks_fault_axis(self):
        mode, chunks = plan_chunks(2, 100, 64, 128, chunks_per_worker=2, min_chunk_faults=8)
        assert mode == "fault-chunks"
        assert chunks[0][0] == 0 and chunks[-1][1] == 100
        covered = [i for lo, hi in chunks for i in range(lo, hi)]
        assert covered == list(range(100))

    def test_plan_chunks_pattern_axis(self):
        mode, shards = plan_chunks(2, 2, 1024, 128, min_chunk_faults=8)
        assert mode == "pattern-shards"
        assert shards[0][0] == 0 and shards[-1][1] == 1024
        assert all(start % 128 == 0 for start, _ in shards)

    def test_plan_chunks_inline_for_tiny_work(self):
        assert plan_chunks(4, 3, 16, 128) is None

    def test_resolve_chunk_plan(self, monkeypatch):
        assert resolve_chunk_plan() == "adaptive"
        assert resolve_chunk_plan("static") == "static"
        monkeypatch.setenv(CHUNK_PLAN_ENV_VAR, "static")
        assert resolve_chunk_plan() == "static"
        with pytest.raises(ValueError, match="chunk plan"):
            resolve_chunk_plan("bogus")


class TestAdaptiveChunker:
    def test_covers_all_faults_disjointly(self):
        chunker = AdaptiveChunker(97, initial_chunk=10, min_chunk=4)
        seen = []
        while True:
            bounds = chunker.next_bounds()
            if bounds is None:
                break
            lo, hi = bounds
            chunker.record(hi - lo, (hi - lo) * 50)
            seen.extend(range(lo, hi))
        assert seen == list(range(97))

    def test_cheap_feedback_grows_chunks(self):
        chunker = AdaptiveChunker(1000, initial_chunk=10, min_chunk=2)
        lo, hi = chunker.next_bounds()
        assert hi - lo == 10
        chunker.record(10, 1000)  # anchor: 100 evals/fault
        for _ in range(5):
            chunker.record(10, 100)  # cones turn out 10x cheaper
        lo, hi = chunker.next_bounds()
        assert hi - lo > 10  # cheaper faults -> bigger chunks

    def test_expensive_feedback_shrinks_chunks(self):
        chunker = AdaptiveChunker(1000, initial_chunk=20, min_chunk=2)
        chunker.next_bounds()
        chunker.record(20, 2000)  # anchor: 100 evals/fault
        for _ in range(5):
            chunker.record(20, 40000)  # cones turn out 20x heavier
        lo, hi = chunker.next_bounds()
        assert hi - lo < 20  # heavier faults -> finer chunks
        assert hi - lo >= 2

    def test_size_clamped_to_max(self):
        chunker = AdaptiveChunker(10_000, initial_chunk=10, min_chunk=2)
        chunker.next_bounds()
        chunker.record(10, 1000)
        for _ in range(20):
            chunker.record(10, 1)  # absurdly cheap
        lo, hi = chunker.next_bounds()
        assert hi - lo <= chunker.max_chunk == 40


# -- transport resolution ----------------------------------------------------
class TestTransportResolution:
    def test_parse_specs(self):
        assert parse_transport_spec("local") == ("local", None)
        assert parse_transport_spec("mp") == ("mp", None)
        assert parse_transport_spec("queue:/var/spool/x") == ("queue", "/var/spool/x")

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            parse_transport_spec("bogus")
        with pytest.raises(ValueError, match="spool dir"):
            parse_transport_spec("local:/tmp/x")
        with pytest.raises(ValueError, match="unknown transport"):
            set_default_transport("bogus")

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv(TRANSPORT_ENV_VAR, "local")
        assert default_transport_name() == "local"
        assert isinstance(resolve_transport(jobs=2), LocalTransport)

    def test_set_default_overrides_env(self, monkeypatch):
        monkeypatch.setenv(TRANSPORT_ENV_VAR, "queue")
        previous = set_default_transport("local")
        try:
            assert default_transport_name() == "local"
        finally:
            set_default_transport(previous)
        assert default_transport_name() == "queue"

    def test_queue_dir_env_feeds_spec(self, monkeypatch, tmp_path):
        monkeypatch.setenv(QUEUE_DIR_ENV_VAR, str(tmp_path / "spool"))
        assert parse_transport_spec("queue") == ("queue", str(tmp_path / "spool"))


# -- parity ------------------------------------------------------------------
CIRCUITS = [
    pytest.param(lambda: c17(), id="c17"),
    pytest.param(lambda: b01_like_fsm(), id="b01_fsm"),
    pytest.param(lambda: _medium_circuit(), id="rand_medium"),
]


class TestLocalTransportParity:
    @pytest.mark.parametrize("make_circuit", CIRCUITS)
    @pytest.mark.parametrize("drop", [True, False])
    @pytest.mark.parametrize("fault_mode", ["lanes", "words", "faults"])
    def test_detection_map_parity(self, make_circuit, drop, fault_mode):
        circuit = make_circuit()
        patterns = _patterns(circuit, 130, seed=9)
        faults = full_fault_list(circuit)
        naive = NaiveFaultSimulator(circuit).run(patterns, faults, drop_detected=drop)
        simulator = _forced_simulator(circuit, transport="local", mode=fault_mode)
        result = simulator.run(patterns, faults, drop_detected=drop)
        assert simulator.last_run_stats["transport"] == "local"
        _assert_same(naive, result)

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_parity_for_any_worker_count(self, jobs):
        circuit = _medium_circuit()
        patterns = _patterns(circuit)
        faults = collapse_faults(circuit)
        reference = _packed_reference(circuit, patterns, faults)
        simulator = ClusterFaultSimulator(
            circuit, transport="local", jobs=jobs, min_chunk_faults=2, chunks_per_worker=2
        )
        _assert_same(reference, simulator.run(patterns, faults), jobs)
        if jobs == 1:
            assert simulator.last_run_stats["mode"] == "inline"

    def test_out_of_order_results_merge_identically(self):
        """LIFO collection proves the merges are arrival-order independent."""
        circuit = _medium_circuit()
        patterns = _patterns(circuit)
        faults = collapse_faults(circuit)
        reference = _packed_reference(circuit, patterns, faults)
        simulator = _forced_simulator(circuit, transport=LocalTransport(order="lifo"))
        _assert_same(reference, simulator.run(patterns, faults), "lifo")

    def test_pattern_shards_broadcast_over_transport(self):
        from repro.circuit.gates import GateType
        from repro.circuit.netlist import Circuit

        circuit = Circuit("and2")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("out", GateType.AND, ["a", "b"])
        circuit.add_output("out")
        circuit.validate()
        matrix = _random_patterns(circuit, 256, seed=3)
        matrix[0] = [1, 1]  # pattern 0 detects out/s-a-0
        from repro.cubes.cube import TestSet

        patterns = TestSet.from_matrix(matrix)
        faults = [StuckAtFault("out", 0)]
        simulator = ClusterFaultSimulator(
            circuit, transport="local", jobs=2, block_patterns=8, chunks_per_worker=8
        )
        result = simulator.run(patterns, faults)
        stats = simulator.last_run_stats
        assert stats["mode"] == "pattern-shards"
        assert stats["shard_dropped_evaluations"] > 0
        assert result.detected[faults[0]] == 0

    @pytest.mark.parametrize("chunk_plan", ["adaptive", "static"])
    def test_chunk_plan_parity(self, chunk_plan):
        circuit = _medium_circuit()
        patterns = _patterns(circuit)
        faults = collapse_faults(circuit)
        reference = _packed_reference(circuit, patterns, faults)
        simulator = _forced_simulator(circuit, transport="local", chunk_plan=chunk_plan)
        _assert_same(reference, simulator.run(patterns, faults), chunk_plan)
        assert simulator.last_run_stats["chunks"] > 1

    def test_duplicate_deliveries_are_idempotent(self):
        class DuplicatingTransport(LocalTransport):
            """Delivers every result twice (queue-retry double execution)."""

            def __init__(self):
                super().__init__()
                self._replay = None

            def next_result(self, timeout=30.0):
                if self._replay is not None:
                    out, self._replay = self._replay, None
                    return out
                out = super().next_result(timeout)
                self._replay = out
                return out

        circuit = _medium_circuit()
        patterns = _patterns(circuit)
        faults = collapse_faults(circuit)
        reference = _packed_reference(circuit, patterns, faults)
        simulator = _forced_simulator(circuit, transport=DuplicatingTransport())
        _assert_same(reference, simulator.run(patterns, faults), "duplicates")

    def test_in_worker_context_forces_inline(self):
        circuit = c17()
        patterns = _patterns(circuit, 64)
        faults = full_fault_list(circuit)
        simulator = _forced_simulator(circuit, transport="local")
        with worker_context():
            result = simulator.run(patterns, faults)
        assert simulator.last_run_stats["mode"] == "inline"
        _assert_same(_packed_reference(circuit, patterns, faults), result)


class TestMpTransportParity:
    def test_parity_over_shared_pool(self):
        circuit = _medium_circuit()
        patterns = _patterns(circuit)
        faults = collapse_faults(circuit)
        simulator = _forced_simulator(circuit, transport="mp")
        result = simulator.run(patterns, faults)
        if simulator.last_run_stats["mode"] == "inline":
            pytest.skip("worker pool unavailable in this environment")
        assert simulator.last_run_stats["transport"] == "mp"
        _assert_same(_packed_reference(circuit, patterns, faults), result)

    def test_backend_facade_parity(self):
        circuit = _medium_circuit()
        patterns = _patterns(circuit, 70, seed=2)
        faults = collapse_faults(circuit)
        res_cluster = FaultSimulator(circuit, backend="cluster").run(patterns, faults)
        res_packed = FaultSimulator(circuit, backend="packed").run(patterns, faults)
        _assert_same(res_packed, res_cluster)


def _queue_transport(tmp_path=None, **kwargs):
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("lease_timeout", 5.0)
    kwargs.setdefault("poll_interval", 0.01)
    return QueueTransport(**kwargs)


class TestQueueTransportParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parity_with_spawned_workers(self, workers):
        circuit = b01_like_fsm()
        patterns = _patterns(circuit, 120, seed=5)
        faults = collapse_faults(circuit)
        reference = _packed_reference(circuit, patterns, faults)
        transport = _queue_transport(workers=workers)
        try:
            simulator = _forced_simulator(circuit, transport=transport, jobs=max(2, workers))
            result = simulator.run(patterns, faults)
            assert simulator.last_run_stats["transport"] == "queue"
            _assert_same(reference, result, workers)
        finally:
            transport.close()

    def test_zero_workers_self_drains(self):
        circuit = c17()
        patterns = _patterns(circuit, 100, seed=3)
        faults = full_fault_list(circuit)
        reference = _packed_reference(circuit, patterns, faults)
        transport = _queue_transport(workers=0, self_drain_after=0.05)
        try:
            simulator = _forced_simulator(circuit, transport=transport)
            result = simulator.run(patterns, faults)
            _assert_same(reference, result, "self-drain")
            assert transport.drained > 0
        finally:
            transport.close()


class TestQueueChannels:
    def test_concurrent_channels_do_not_steal_results(self, tmp_path):
        """Two consumers multiplexed over one spool (the ATPG shape: PODEM
        scheduler + dropping fault sim) must each get exactly their own
        results, regardless of which consumer's polling drained the tasks."""
        transport = QueueTransport(
            spool=str(tmp_path / "spool"),
            workers=0,
            jobs=2,
            lease_timeout=2.0,
            poll_interval=0.01,
            self_drain_after=0.01,
        )
        try:
            ch1 = transport.channel()
            ch2 = transport.channel()
            id1 = ch1.submit({"kind": "echo", "payload": "one"})
            id2 = ch2.submit({"kind": "echo", "payload": "two"})
            # ch1 polls first; its drain may well execute ch2's task too,
            # but it must only ever *consume* its own result.
            assert ch1.next_result(timeout=10.0) == (id1, "one")
            assert ch2.next_result(timeout=10.0) == (id2, "two")
        finally:
            transport.close()

    def test_resolved_transports_are_channels_over_one_spool(self, monkeypatch, tmp_path):
        monkeypatch.setenv(QUEUE_DIR_ENV_VAR, str(tmp_path / "spool"))
        monkeypatch.setenv("REPRO_QUEUE_WORKERS", "0")
        first = resolve_transport("queue", jobs=2)
        second = resolve_transport("queue", jobs=2)
        try:
            assert first is not second  # private bookkeeping per consumer
            assert first.parent is second.parent  # one spool, one worker set
        finally:
            from repro.cluster.transport import discard_transport

            discard_transport(first)

    def test_atpg_with_dropping_over_queue_matches_serial(self, monkeypatch, tmp_path):
        """The end-to-end shape of the multiplexing bug: cube generation
        under the cluster backend with fault-sim dropping, over one shared
        queue spool, must be byte-identical to the serial run."""
        from repro.atpg.tpg import generate_test_cubes

        monkeypatch.setenv(QUEUE_DIR_ENV_VAR, str(tmp_path / "spool"))
        monkeypatch.setenv("REPRO_QUEUE_WORKERS", "2")
        circuit = generate_circuit(CircuitSpec("queue_atpg", 10, 14, 260, seed=3))
        kwargs = dict(max_faults=64, backtrack_limit=20, seed=2)
        baseline = generate_test_cubes(circuit, **kwargs)
        previous = set_default_transport("queue")
        try:
            result = generate_test_cubes(circuit, backend="cluster", jobs=2, **kwargs)
        finally:
            set_default_transport(previous)
            from repro.cluster.transport import shutdown_shared_transports

            shutdown_shared_transports()
        assert np.array_equal(baseline.cubes.matrix, result.cubes.matrix)
        assert list(baseline.detected_faults.items()) == list(
            result.detected_faults.items()
        )
        assert baseline.untestable_faults == result.untestable_faults
        assert baseline.aborted_faults == result.aborted_faults


class TestExternalSpoolLifecycle:
    def test_close_leaves_external_spool_usable(self, tmp_path):
        """Closing a parent attached to an external spool must not write a
        stop file — other parents and future runs still use that spool."""
        spool = str(tmp_path / "spool")
        first = QueueTransport(spool=spool, workers=0, jobs=2, self_drain_after=0.01)
        first.close()
        assert not os.path.exists(os.path.join(spool, "stop"))
        second = QueueTransport(
            spool=spool, workers=0, jobs=2, poll_interval=0.01, self_drain_after=0.01
        )
        try:
            task_id = second.submit({"kind": "echo", "payload": 5})
            assert second.next_result(timeout=10.0) == (task_id, 5)
        finally:
            second.close()

    def test_stale_stop_file_cleared_on_attach(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "stop").write_text("stop\n")
        transport = QueueTransport(spool=str(spool), workers=0, jobs=2)
        try:
            assert not (spool / "stop").exists()
        finally:
            transport.close()

    def test_bad_queue_workers_env_rejected_clearly(self, monkeypatch, tmp_path):
        monkeypatch.setenv(QUEUE_DIR_ENV_VAR, str(tmp_path / "spool"))
        monkeypatch.setenv("REPRO_QUEUE_WORKERS", "two")
        with pytest.raises(ValueError, match="REPRO_QUEUE_WORKERS must be"):
            resolve_transport("queue", jobs=2)


class TestQueueFailureInjection:
    def test_stale_claim_is_reenqueued(self, tmp_path):
        """A claim whose lease never beats (claimant died) is retried."""
        transport = QueueTransport(
            spool=str(tmp_path / "spool"),
            workers=0,
            jobs=2,
            lease_timeout=0.3,
            poll_interval=0.01,
            self_drain_after=0.05,
        )
        try:
            task_id = transport.submit({"kind": "echo", "payload": 42})
            # Simulate a worker that claimed the task and died on the spot:
            # the task file moves to claimed/ and no lease is ever written.
            claimed = claim_task(transport.spool)
            assert claimed is not None and claimed[0] == task_id
            got_id, value = transport.next_result(timeout=20.0)
            assert (got_id, value) == (task_id, 42)
            assert transport.retries == 1
        finally:
            transport.close()

    def test_worker_killed_mid_task_is_recovered(self, tmp_path):
        """SIGKILL a worker while it executes; the lease expires, the task
        is re-enqueued and the run still completes with the right answer."""
        transport = QueueTransport(
            spool=str(tmp_path / "spool"),
            workers=1,
            jobs=1,
            lease_timeout=1.0,
            poll_interval=0.02,
        )
        try:
            task_id = transport.submit({"kind": "echo", "payload": 7, "sleep": 0.6})
            claimed_dir = os.path.join(transport.spool, "claimed")
            deadline = time.time() + 30.0
            while time.time() < deadline:
                if any(n.endswith(".task") for n in os.listdir(claimed_dir)):
                    break
                time.sleep(0.01)
            else:
                pytest.fail("worker never claimed the task")
            transport._procs[0].kill()
            got_id, value = transport.next_result(timeout=30.0)
            assert (got_id, value) == (task_id, 7)
            assert transport.retries >= 1
        finally:
            transport.close()

    def test_duplicate_result_files_consumed_once(self, tmp_path):
        transport = QueueTransport(
            spool=str(tmp_path / "spool"),
            workers=0,
            jobs=2,
            lease_timeout=1.0,
            poll_interval=0.01,
            self_drain_after=0.01,
        )
        try:
            task_id = transport.submit({"kind": "echo", "payload": "x"})
            # A retried task's two executions both publish: write one result
            # up front, let the self-drain write the other.
            write_result(transport.spool, task_id, ("ok", "x"))
            got_id, value = transport.next_result(timeout=10.0)
            assert (got_id, value) == (task_id, "x")
            with pytest.raises((TransportError,)):
                transport.next_result(timeout=0.1)  # nothing outstanding
        finally:
            transport.close()

    def test_poisoned_task_raises_task_error(self, tmp_path):
        transport = QueueTransport(
            spool=str(tmp_path / "spool"),
            workers=0,
            jobs=2,
            lease_timeout=1.0,
            poll_interval=0.01,
            self_drain_after=0.01,
        )
        try:
            task_id = transport.submit({"kind": "no-such-kind"})
            with pytest.raises(TransportTaskError) as excinfo:
                transport.next_result(timeout=10.0)
            assert excinfo.value.task_id == task_id
        finally:
            transport.close()

    def test_failed_transport_falls_back_inline(self):
        class ExplodingTransport(LocalTransport):
            def next_result(self, timeout=30.0):
                raise RuntimeError("transport lost")

        circuit = _medium_circuit()
        patterns = _patterns(circuit)
        faults = collapse_faults(circuit)
        simulator = _forced_simulator(circuit, transport=ExplodingTransport())
        result = simulator.run(patterns, faults)
        assert simulator.last_run_stats["mode"] == "inline"
        _assert_same(_packed_reference(circuit, patterns, faults), result)


class TestWorkerEntrypoint:
    def test_external_worker_serves_spool(self, tmp_path):
        spool = str(tmp_path / "spool")
        transport = QueueTransport(
            spool=spool,
            workers=0,
            jobs=2,
            lease_timeout=5.0,
            poll_interval=0.02,
            self_drain_after=10.0,
        )
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        parts = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        if src_dir not in parts:
            env["PYTHONPATH"] = os.pathsep.join([src_dir] + parts)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cluster.worker",
                "--spool",
                spool,
                "--max-tasks",
                "2",
                "--poll",
                "0.02",
                "--heartbeat",
                "0.2",
                "--idle-exit",
                "30",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Wait for the worker's liveness heartbeat: until it lands the
            # parent (rightly) assumes no workers exist and would drain the
            # queue itself.
            workers_dir = os.path.join(spool, "workers")
            deadline = time.time() + 30.0
            while time.time() < deadline and not os.listdir(workers_dir):
                time.sleep(0.02)
            assert os.listdir(workers_dir), "worker never heartbeated"
            ids = [transport.submit({"kind": "echo", "payload": i}) for i in range(2)]
            wait_until_claimed(spool, ids)  # by the external worker
            got = {}
            for _ in ids:
                task_id, value = transport.next_result(timeout=60.0)
                got[task_id] = value
            assert got == {ids[0]: 0, ids[1]: 1}
            assert transport.drained == 0  # the external worker did the work
            assert proc.wait(timeout=30) == 0  # --max-tasks 2 exits cleanly
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            transport.close()


class TestBackendRegistration:
    def test_cluster_backend_registered(self):
        assert "cluster" in available_backends()
        assert isinstance(get_backend("cluster"), ClusterBackend)

    def test_fault_simulator_shares_compiled_program(self):
        circuit = c17()
        backend = get_backend("cluster")
        first = backend.fault_simulator(circuit)
        second = backend.logic_simulator(circuit)
        assert isinstance(first, ClusterFaultSimulator)
        assert first.program is second.program

    def test_env_var_resolves_cluster(self, monkeypatch):
        from repro.engine.backend import BACKEND_ENV_VAR, default_backend_name

        monkeypatch.setenv(BACKEND_ENV_VAR, "cluster")
        assert default_backend_name() == "cluster"
        assert get_backend() is get_backend("cluster")

    def test_empty_pattern_set(self):
        circuit = c17()
        faults = full_fault_list(circuit)
        from repro.cubes.cube import TestSet

        result = _forced_simulator(circuit, transport="local").run(TestSet([]), faults)
        assert result.detected_count == 0
        assert result.undetected == list(faults)


class TestRunnerTransport:
    def test_transport_flag_parsed(self):
        from repro.experiments.runner import build_parser

        args = build_parser().parse_args(["--transport", "local"])
        assert args.transport == "local"
        assert build_parser().parse_args([]).transport is None

    def test_bad_transport_flag_rejected_at_cli(self, capsys):
        from repro.experiments.runner import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--transport", "bogus"])
        assert "unknown transport" in capsys.readouterr().err

    def test_cluster_report_matches_serial(self, tmp_path):
        from repro.experiments.runner import main

        serial_out = tmp_path / "serial.txt"
        cluster_out = tmp_path / "cluster.txt"
        base = ["--artifacts", "1", "--benchmarks", "b01,b03", "--backend", "cluster"]
        assert main(base + ["--out", str(serial_out)]) == 0
        assert (
            main(base + ["--jobs", "2", "--transport", "local", "--out", str(cluster_out)])
            == 0
        )
        assert serial_out.read_bytes() == cluster_out.read_bytes()
