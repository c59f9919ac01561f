"""Tests for the hardened cluster runtime.

Covers the robustness machinery layered onto ``repro.cluster``: bounded
retry budgets with deterministic backoff, the task quarantine and its
inline last-resort re-execution, corrupt-result detection, the
``queue -> mp -> local -> inline`` degradation ladder, the seeded chaos
harness (``REPRO_CHAOS``), lease-timeout configuration, and the worker
entrypoint's ``--max-idle`` / ``--clean`` maintenance surface.

The acceptance bar throughout: under any injected failure pattern a run
either completes **bit-identically** to the single-process reference or
aborts with a structured quarantine report naming the exact tasks — never
a silent wrong answer, never a hang.
"""

from __future__ import annotations

import os
import pickle
import shutil
import time

import numpy as np
import pytest

from repro.atpg.collapse import collapse_faults
from repro.circuit.library import b01_like_fsm
from repro.cluster import (
    CHAOS_ENV_VAR,
    LEASE_TIMEOUT_ENV_VAR,
    TASK_RETRIES_ENV_VAR,
    ChaosInjector,
    ClusterFaultSimulator,
    LocalTransport,
    QuarantineError,
    QueueTransport,
    TransportError,
    TransportTaskError,
    degraded_transport_name,
    parse_chaos_spec,
    parse_lease_timeout,
    parse_task_retries,
    resolve_lease_timeout,
    resolve_task_retries,
    set_default_lease_timeout,
)
from repro.cluster.chaos import env_injector
from repro.cluster.retry import (
    BACKOFF_CAP,
    backoff_delay,
    format_quarantine_report,
    quarantine_root,
)
from repro.cluster.transport import claim_task
from repro.cluster.worker import build_parser, clean_spool
from repro.cluster.worker import main as worker_main
from repro.cubes.cube import TestSet
from repro.engine import PackedFaultSimulator
from tests.helpers import wait_until_claimed


def _patterns(circuit, n=120, seed=1):
    rng = np.random.default_rng(seed)
    return TestSet.from_matrix(
        rng.integers(0, 2, size=(n, circuit.n_test_pins)).astype(np.int8)
    )


def _assert_same(reference, result, context=""):
    assert list(reference.detected.items()) == list(result.detected.items()), context
    assert reference.undetected == result.undetected, context
    assert reference.coverage == result.coverage, context


def _queue_transport(**kwargs) -> QueueTransport:
    kwargs.setdefault("workers", 0)
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("lease_timeout", 5.0)
    kwargs.setdefault("poll_interval", 0.01)
    kwargs.setdefault("self_drain_after", 0.01)
    return QueueTransport(**kwargs)


# -- configuration surfaces --------------------------------------------------
class TestRetryBudgetConfig:
    def test_parse_task_retries(self):
        assert parse_task_retries("3") == 3
        assert parse_task_retries(0) == 0
        for bad in ("-1", "two", "1.5", ""):
            with pytest.raises(ValueError, match="non-negative integer"):
                parse_task_retries(bad)

    def test_resolve_task_retries(self, monkeypatch):
        assert resolve_task_retries(5) == 5
        monkeypatch.setenv(TASK_RETRIES_ENV_VAR, "7")
        assert resolve_task_retries() == 7
        monkeypatch.setenv(TASK_RETRIES_ENV_VAR, "nope")
        with pytest.raises(ValueError, match=TASK_RETRIES_ENV_VAR):
            resolve_task_retries()
        monkeypatch.delenv(TASK_RETRIES_ENV_VAR)
        assert resolve_task_retries() == 3


class TestLeaseTimeoutConfig:
    def test_parse_lease_timeout(self):
        assert parse_lease_timeout("2.5") == 2.5
        for bad in ("0", "-1", "soon", ""):
            with pytest.raises(ValueError, match="positive number"):
                parse_lease_timeout(bad)

    def test_resolution_chain(self, monkeypatch):
        monkeypatch.setenv(LEASE_TIMEOUT_ENV_VAR, "2.5")
        assert resolve_lease_timeout() == 2.5
        assert resolve_lease_timeout(1.0) == 1.0  # explicit beats env
        previous = set_default_lease_timeout(9.0)
        try:
            assert resolve_lease_timeout() == 9.0  # override beats env
        finally:
            set_default_lease_timeout(previous)
        monkeypatch.setenv(LEASE_TIMEOUT_ENV_VAR, "never")
        with pytest.raises(ValueError, match=LEASE_TIMEOUT_ENV_VAR):
            resolve_lease_timeout()
        monkeypatch.delenv(LEASE_TIMEOUT_ENV_VAR)
        assert resolve_lease_timeout() == 15.0

    def test_transport_uses_resolved_timeout(self, monkeypatch, tmp_path):
        monkeypatch.setenv(LEASE_TIMEOUT_ENV_VAR, "3.25")
        transport = QueueTransport(spool=str(tmp_path / "spool"), workers=0, jobs=2)
        try:
            assert transport.lease_timeout == 3.25
        finally:
            transport.close()


class TestBackoff:
    def test_deterministic(self):
        assert backoff_delay(2, "c0t000001") == backoff_delay(2, "c0t000001")
        assert backoff_delay(2, "c0t000001") != backoff_delay(2, "c0t000002")

    def test_exponential_and_capped(self):
        previous = 0.0
        for attempt in range(1, 12):
            delay = backoff_delay(attempt, "task")
            base = min(BACKOFF_CAP, 0.1 * 2 ** (attempt - 1))
            assert base <= delay < 2.0 * base
            if attempt <= 6:
                assert delay > previous / 4  # grows (modulo jitter)
            previous = delay


# -- chaos harness -----------------------------------------------------------
class TestChaosSpec:
    def test_parse_ok(self):
        seed, rates = parse_chaos_spec("7:kill=0.05, corrupt=0.1,dup=1")
        assert seed == 7
        assert rates == {"kill": 0.05, "corrupt": 0.1, "dup": 1.0}

    @pytest.mark.parametrize(
        "bad",
        ["kill=0.5", "x:kill=0.5", "7:explode=0.5", "7:kill=1.5", "7:kill=-0.1", "7:", "7:kill"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_chaos_spec(bad)

    def test_env_injector(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, "3:kill=1.0")
        injector = env_injector()
        assert injector is not None and injector.seed == 3
        assert env_injector() is injector  # cached per env value
        monkeypatch.delenv(CHAOS_ENV_VAR)
        assert env_injector() is None


class TestChaosInjector:
    def test_decisions_are_deterministic(self):
        a = ChaosInjector(11, {"kill": 0.3, "corrupt": 0.5})
        b = ChaosInjector(11, {"kill": 0.3, "corrupt": 0.5})
        keys = [f"t{i % 5}" for i in range(60)]
        draws_a = [(a.should("kill", k), a.should("corrupt", k)) for k in keys]
        draws_b = [(b.should("kill", k), b.should("corrupt", k)) for k in keys]
        assert draws_a == draws_b
        assert any(flag for pair in draws_a for flag in pair)
        assert not all(flag for pair in draws_a for flag in pair)

    def test_rate_extremes(self):
        injector = ChaosInjector(1, {"kill": 1.0, "stall": 0.0})
        assert all(injector.should("kill", "t") for _ in range(10))
        assert not any(injector.should("stall", "t") for _ in range(10))
        assert not injector.should("corrupt", "t")  # unconfigured kind

    def test_corrupt_bytes(self):
        injector = ChaosInjector(5, {"corrupt": 1.0})
        blob = pickle.dumps(("ok", list(range(100))))
        torn = injector.corrupt_bytes(blob, "t1")
        assert 0 < len(torn) < len(blob)
        assert torn == injector.corrupt_bytes(blob, "t1")
        with pytest.raises(Exception):
            pickle.loads(torn)


# -- retry / quarantine over the queue transport -----------------------------
class TestRetryAndQuarantine:
    def test_failing_task_retries_until_success(self, tmp_path):
        marker = str(tmp_path / "attempts")
        transport = _queue_transport(task_retries=3)
        try:
            task_id = transport.submit(
                {
                    "kind": "echo",
                    "payload": 9,
                    "attempt_marker": marker,
                    "fail_until_attempt": 2,
                }
            )
            assert transport.next_result(timeout=30.0) == (task_id, 9)
            with open(marker) as handle:
                assert sum(1 for _ in handle) == 2
            assert transport.quarantined == []
        finally:
            transport.close()

    def test_exhausted_task_quarantines_with_report(self, tmp_path):
        transport = _queue_transport(task_retries=1)
        try:
            task_id = transport.submit({"kind": "echo", "fail": "boom"})
            with pytest.raises(QuarantineError) as excinfo:
                transport.next_result(timeout=30.0)
            err = excinfo.value
            assert isinstance(err, TransportTaskError)  # legacy contract
            assert err.task_id == task_id
            assert len(err.report) == 1
            entry = err.report[0]
            assert entry["task_id"] == task_id
            assert entry["kind"] == "echo"
            assert entry["attempts"] >= 2  # budget + the inline attempt
            directory = os.path.join(quarantine_root(transport.spool), task_id)
            assert os.path.isdir(directory)
            for name in ("envelope.pickle", "tracebacks.txt", "events.jsonl", "report.json"):
                assert os.path.exists(os.path.join(directory, name)), name
            with open(os.path.join(directory, "envelope.pickle"), "rb") as handle:
                envelope = pickle.load(handle)
            assert envelope["kind"] == "echo" and envelope["fail"] == "boom"
            with open(os.path.join(directory, "tracebacks.txt")) as handle:
                assert "echo task failed on request" in handle.read()
            assert transport.quarantined == [entry]
            assert task_id in format_quarantine_report(err.report)
        finally:
            transport.close()

    def test_quarantined_task_recovers_inline(self, tmp_path):
        """Exhausted budget, but the task is healthy in the parent: the
        inline re-execution completes the run with the correct result."""
        marker = str(tmp_path / "attempts")
        transport = _queue_transport(task_retries=0)
        try:
            task_id = transport.submit(
                {
                    "kind": "echo",
                    "payload": 5,
                    "attempt_marker": marker,
                    "fail_until_attempt": 2,
                }
            )
            assert transport.next_result(timeout=30.0) == (task_id, 5)
            # Forensics are still on disk even though the run completed.
            assert os.path.isdir(os.path.join(quarantine_root(transport.spool), task_id))
            assert transport.quarantined == []  # the run did not lose the task
        finally:
            transport.close()

    def test_corrupt_result_is_retried(self, tmp_path):
        transport = _queue_transport()
        try:
            task_id = transport.submit({"kind": "echo", "payload": 11})
            claimed = claim_task(transport.spool)
            assert claimed is not None and claimed[0] == task_id
            blob = pickle.dumps(("ok", 11), protocol=pickle.HIGHEST_PROTOCOL)
            with open(
                os.path.join(transport.spool, "results", f"{task_id}.result"), "wb"
            ) as handle:
                handle.write(blob[: len(blob) // 2])  # torn write
            assert transport.next_result(timeout=30.0) == (task_id, 11)
            assert transport.quarantined == []
        finally:
            transport.close()

    def test_vanished_spool_raises_instead_of_hanging(self):
        transport = _queue_transport(self_drain_after=60.0)
        try:
            transport.submit({"kind": "echo", "payload": 1, "sleep": 60})
            shutil.rmtree(os.path.join(transport.spool, "tasks"))
            start = time.time()
            with pytest.raises(TransportError, match="vanished"):
                transport.next_result(timeout=30.0)
            assert time.time() - start < 10.0
        finally:
            transport.close()


# -- degradation ladder ------------------------------------------------------
class TestDegradationLadder:
    def test_rung_order(self):
        assert degraded_transport_name("queue") == "mp"
        assert degraded_transport_name("mp") == "local"
        assert degraded_transport_name("local") is None
        assert degraded_transport_name("custom") is None

    def test_fault_sim_steps_down_one_rung(self, monkeypatch):
        """A spec-resolved transport that dies mid-run is replaced by the
        next rung, not by an immediate drop to inline."""

        class ExplodingQueue(LocalTransport):
            name = "queue"

            def next_result(self, timeout=30.0):
                raise TransportError("transport lost")

        import repro.cluster.fault_sim as fault_sim_mod

        resolved = []

        def fake_resolve(spec, jobs=None):
            resolved.append(spec)
            return ExplodingQueue() if spec == "queue" else LocalTransport()

        monkeypatch.setattr(fault_sim_mod, "resolve_transport", fake_resolve)
        circuit = b01_like_fsm()
        patterns = _patterns(circuit, 120, seed=5)
        faults = collapse_faults(circuit)
        reference = PackedFaultSimulator(circuit).run(patterns, faults)
        simulator = ClusterFaultSimulator(
            circuit, transport="queue", jobs=2, min_chunk_faults=2, chunks_per_worker=2
        )
        result = simulator.run(patterns, faults)
        _assert_same(reference, result, "degraded run")
        assert simulator.last_run_stats["degraded_from"] == "queue"
        assert resolved == ["queue", "mp"]


# -- chaos end to end --------------------------------------------------------
class TestChaosEndToEnd:
    def test_certain_kill_recovered_by_lease_expiry(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CHAOS_ENV_VAR, "1:kill=1.0")
        transport = QueueTransport(
            spool=str(tmp_path / "spool"),
            workers=1,
            jobs=2,
            lease_timeout=1.0,
            poll_interval=0.01,
            self_drain_after=0.5,
        )
        try:
            task_id = transport.submit({"kind": "echo", "payload": 21})
            # The worker claims the task and dies; only then may the parent
            # poll, or its self-drain could run the task first.
            wait_until_claimed(transport.spool, [task_id])
            assert transport.next_result(timeout=60.0) == (task_id, 21)
            assert transport.retries >= 1  # the killed claim expired
            assert transport.quarantined == []
        finally:
            transport.close()

    def test_fault_sim_parity_under_mixed_chaos(self, monkeypatch):
        """The acceptance bar: with workers dying, results torn and claims
        leaking, the fault-sim result is still bit-identical to packed."""
        monkeypatch.setenv(CHAOS_ENV_VAR, "7:kill=0.2,corrupt=0.2,dup=0.2")
        circuit = b01_like_fsm()
        patterns = _patterns(circuit, 120, seed=5)
        faults = collapse_faults(circuit)
        reference = PackedFaultSimulator(circuit).run(patterns, faults)
        transport = QueueTransport(
            workers=2,
            jobs=2,
            lease_timeout=1.0,
            poll_interval=0.01,
            self_drain_after=0.5,
            task_retries=6,
        )
        try:
            simulator = ClusterFaultSimulator(
                circuit,
                transport=transport,
                jobs=2,
                min_chunk_faults=2,
                chunks_per_worker=2,
            )
            result = simulator.run(patterns, faults)
            _assert_same(reference, result, "chaos parity")
        finally:
            transport.close()


# -- worker maintenance surface ----------------------------------------------
class TestWorkerMaintenance:
    def test_max_idle_flag_and_alias(self):
        parser = build_parser()
        assert parser.parse_args(["--spool", "s", "--max-idle", "5"]).max_idle == 5.0
        assert parser.parse_args(["--spool", "s", "--idle-exit", "5"]).max_idle == 5.0
        assert parser.parse_args(["--spool", "s"]).max_idle is None

    def test_clean_flag_parses(self):
        args = build_parser().parse_args(["--spool", "s", "--clean", "--ttl", "10"])
        assert args.clean and args.ttl == 10.0

    def test_clean_spool_removes_stale_debris(self, tmp_path):
        spool = str(tmp_path / "spool")
        for sub in ("tasks", "claimed", "results", "workers", "events"):
            os.makedirs(os.path.join(spool, sub))
        stale = os.path.join(spool, "results", "dead.result")
        fresh = os.path.join(spool, "tasks", "live.task")
        for path in (stale, fresh):
            with open(path, "w") as handle:
                handle.write("x")
        old = time.time() - 1000.0
        os.utime(stale, (old, old))
        quarantine = os.path.join(spool, "quarantine", "t1")
        os.makedirs(quarantine)
        with open(os.path.join(quarantine, "report.json"), "w") as handle:
            handle.write("{}")
        os.utime(quarantine, (old, old))
        removed = clean_spool(spool, ttl=500.0)
        assert stale in removed and quarantine in removed
        assert not os.path.exists(stale) and not os.path.exists(quarantine)
        assert os.path.exists(fresh)  # fresh debris and the spool survive
        assert os.path.isdir(spool)

    def test_clean_spool_removes_dead_directory_whole(self, tmp_path):
        spool = str(tmp_path / "spool")
        os.makedirs(os.path.join(spool, "tasks"))
        stale = os.path.join(spool, "tasks", "orphan.task")
        with open(stale, "w") as handle:
            handle.write("x")
        old = time.time() - 1000.0
        os.utime(stale, (old, old))
        removed = clean_spool(spool, ttl=500.0)
        assert spool in removed
        assert not os.path.exists(spool)

    def test_clean_subcommand(self, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        os.makedirs(os.path.join(spool, "results"))
        stale = os.path.join(spool, "results", "dead.result")
        with open(stale, "w") as handle:
            handle.write("x")
        old = time.time() - 1000.0
        os.utime(stale, (old, old))
        assert worker_main(["--spool", spool, "--clean", "--ttl", "500"]) == 0
        out = capsys.readouterr().out
        assert "removed" in out and "dead.result" in out
        assert not os.path.exists(stale)
