"""Worker pool: N-worker vs in-process equivalence, routing, crash retry."""

import collections
import sys
import threading
import time

import pytest

import repro
from repro.errors import (
    ClassViolationError,
    ProtocolError,
    ReproError,
    WorkerCrashError,
)
from repro.service.pool import PoolTicket, WorkerPool
from repro.workloads.families import nd_bc_batch, nd_bc_family
from repro.workloads.random_instances import seeded_instance

N_SEEDS = 100


class TestEquivalence:
    @pytest.mark.parametrize("chunk", range(5))
    def test_pool_matches_in_process_on_seeded_instances(
        self, shared_pool, chunk
    ):
        """Verdicts served by pool workers are identical to in-process
        runs over the shared seeded-instance generator — including which
        instances cross the tractability frontier (ClassViolationError)."""
        chunk_size = N_SEEDS // 5
        for seed in range(chunk * chunk_size, (chunk + 1) * chunk_size):
            transducer, din, dout = seeded_instance(seed)
            try:
                local = repro.typecheck(transducer, din, dout)
            except ClassViolationError:
                with pytest.raises(ClassViolationError):
                    shared_pool.typecheck(din, dout, transducer)
                continue
            remote = shared_pool.typecheck(din, dout, transducer)
            assert remote.typechecks == local.typechecks, f"seed {seed}"
            assert remote.algorithm == local.algorithm, f"seed {seed}"
            if not remote.typechecks:
                assert remote.verify(transducer, din.accepts, dout.accepts), (
                    f"seed {seed}: pool counterexample does not verify"
                )

    def test_batch_fans_out_and_preserves_order(self, shared_pool):
        transducers, din, dout, expected = nd_bc_batch(8, 7)
        results = shared_pool.typecheck_batch(
            din, dout, transducers, method="forward"
        )
        assert [r.typechecks for r in results] == [expected] * 7
        # order: result i belongs to transducer i (distinct state names)
        for transducer, result in zip(transducers, results):
            assert result.verify(transducer, din.accepts, dout.accepts) or (
                result.typechecks
            )

    def test_batch_return_errors_carries_per_item_failures(self, shared_pool):
        transducers, din, dout, _ = nd_bc_batch(6, 3)
        results = shared_pool.typecheck_batch(
            din, dout, transducers, method="bogus-method", return_errors=True
        )
        assert len(results) == 3
        assert all(isinstance(item, ReproError) for item in results)

    def test_analysis_op(self, shared_pool):
        transducer, din, dout, _ = nd_bc_family(5)
        info = shared_pool.analysis(din, dout, transducer)
        assert info.in_trac

    def test_routing_is_stable_per_pair(self, shared_pool):
        _, din, dout, _ = nd_bc_family(6)
        slot = shared_pool.route_slot(din, dout)
        # equal-content schemas route identically across distinct objects
        _, din2, dout2, _ = nd_bc_family(6)
        assert shared_pool.route_slot(din2, dout2) == slot


class TestCrashRecovery:
    def test_in_flight_request_retried_on_worker_death(self):
        with WorkerPool(2, cache_max_bytes=None) as pool:
            ticket = pool.submit("sleep", 2.0, slot=0)
            time.sleep(0.3)
            pool._slots[0].process.terminate()
            assert ticket.result(timeout=30) == {"slept": 2.0}
            stats = pool.pool_stats()
            assert stats["respawns"] >= 1 and stats["retries"] >= 1
            # the pool stays fully serviceable afterwards
            assert [p["pong"] for p in pool.ping()] == [True, True]

    def test_query_retries_on_healthy_worker_mid_typecheck(self):
        """Kill the pair's worker while the query sits in its queue behind
        a sleeper: the query must retry on the healthy worker and answer
        exactly as in process (verdict, violations and counterexample)."""
        from repro.core.forward import typecheck_forward

        transducer, din, dout, expected = nd_bc_family(8, typechecks=False)
        local = typecheck_forward(transducer, din, dout)
        with WorkerPool(2, cache_max_bytes=None) as pool:
            slot = pool.route_slot(din, dout)
            sleeper = pool.submit("sleep", 2.0, slot=slot)

            def kill_soon():
                time.sleep(0.4)
                pool._slots[slot].process.terminate()

            killer = threading.Thread(target=kill_soon, daemon=True)
            killer.start()
            # pin forward: the in-process baseline above is the forward
            # engine (auto would route this family to replus)
            result = pool.typecheck(din, dout, transducer, method="forward")
            killer.join(timeout=10)
            # the sleeper retried too (proves the worker really died busy)
            assert sleeper.result(timeout=30) == {"slept": 2.0}
            stats = pool.pool_stats()
            assert stats["respawns"] >= 1 and stats["retries"] >= 1
        assert result.typechecks == local.typechecks == expected
        assert result.stats.get("violations") == local.stats.get("violations")
        assert result.counterexample == local.counterexample
        assert result.verify(transducer, din.accepts, dout.accepts)

    def test_poison_request_gives_up_cleanly(self):
        with WorkerPool(2, max_retries=2, cache_max_bytes=None) as pool:
            with pytest.raises(WorkerCrashError, match="giving up"):
                pool.submit("crash", None).result(timeout=60)
            # ...and did not take the pool down with it
            transducer, din, dout, expected = nd_bc_family(4)
            result = pool.typecheck(din, dout, transducer, method="forward")
            assert result.typechecks == expected

    def test_unpicklable_reply_is_a_typed_error_not_a_hang(self):
        """A reply the worker cannot pickle (backward's shared counterexample
        tree on a 200-deep failing chain exceeds the pickler's recursion)
        comes back as a typed error on its own ticket, and the worker goes
        on answering."""
        transducer, din, dout, _ = nd_bc_family(200, typechecks=False)
        with WorkerPool(1, cache_max_bytes=None) as pool:
            ticket = pool.submit(
                "typecheck", (din, dout, transducer, "backward", {})
            )
            with pytest.raises(ProtocolError, match="RecursionError"):
                ticket.result(timeout=30)
            small, din8, dout8, expected = nd_bc_family(8, typechecks=True)
            assert pool.typecheck(din8, dout8, small).typechecks == expected

    def test_closed_pool_rejects_submissions(self):
        pool = WorkerPool(1, cache_max_bytes=None)
        pool.close()
        with pytest.raises(WorkerCrashError, match="closed"):
            pool.submit("ping", None)


class TestWarmSessionsInWorkers:
    def test_repeat_pair_hits_worker_registry(self, shared_pool):
        """Second call for the same pair lands on the same worker and is
        served from its warm session (registry hit observable as a
        table-cache hit for an identical transducer)."""
        transducer, din, dout, expected = nd_bc_family(7)
        first = shared_pool.typecheck(din, dout, transducer, method="forward")
        second = shared_pool.typecheck(din, dout, transducer, method="forward")
        assert first.typechecks == second.typechecks == expected
        assert second.stats.get("table_cache") == "hit"
        assert second.stats.get("product_nodes") == 0


class TestTicketResolution:
    def test_racing_replies_resolve_a_ticket_once(self):
        """Two threads deliver competing replies (a crash retry's late
        duplicate) while a third awaits each ticket: every ticket takes
        one answer, every waiter is woken once, and no resolver raises."""
        tickets = [PoolTicket(("ping", None), 0) for _ in range(20000)]
        calls = collections.Counter()
        start = threading.Barrier(3)
        failures = []

        def note(future):
            calls[id(future)] += 1

        def register():
            start.wait()
            for ticket in tickets:
                ticket.future.add_done_callback(note)

        def resolve(value):
            start.wait()
            try:
                for ticket in tickets:
                    ticket._resolve(True, value)
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=register),
                threading.Thread(target=resolve, args=("first",)),
                threading.Thread(target=resolve, args=("second",)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert all(calls[id(ticket.future)] == 1 for ticket in tickets)
        assert {ticket.result(timeout=0) for ticket in tickets} <= {"first", "second"}
