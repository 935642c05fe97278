"""Units for the repro.net seam: runtime, transport contract, facade."""

import pytest

from repro.lattice.set_lattice import SetLattice
from repro.net import AsyncTcpTransport, ReplicaRuntime, SimTransport
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Cluster, ClusterConfig
from repro.sim.topology import line, full_mesh
from repro.sync import StateBased, delta_bp_rr
from repro.workloads import GSetWorkload


def make_sync(replica=0, neighbors=(1,), n=2):
    return StateBased(
        replica=replica,
        neighbors=neighbors,
        bottom=SetLattice(),
        n_nodes=n,
    )


class TestReplicaRuntime:
    def test_records_processing_costs(self):
        metrics = MetricsCollector(2)
        runtime = ReplicaRuntime(make_sync(), metrics)
        runtime.local_update(lambda state: SetLattice({"a"}))
        assert metrics.per_node[0].processing_units == 1
        assert metrics.per_node[0].processing_seconds > 0

    def test_tick_without_transport_is_an_error(self):
        runtime = ReplicaRuntime(make_sync())
        runtime.local_update(lambda state: SetLattice({"a"}))
        with pytest.raises(RuntimeError):
            runtime.tick()

    def test_replace_rejects_identity_change(self):
        runtime = ReplicaRuntime(make_sync(replica=0))
        with pytest.raises(ValueError):
            runtime.replace(make_sync(replica=1, neighbors=(0,)))

    def test_fault_hooks_reach_the_synchronizer(self):
        calls = []

        class Hooked(StateBased):
            def note_send_blocked(self, dst):
                calls.append(("blocked", dst))

            def restore_clock(self, ticks):
                calls.append(("clock", ticks))

        runtime = ReplicaRuntime(
            Hooked(replica=0, neighbors=(1,), bottom=SetLattice(), n_nodes=2)
        )
        runtime.note_send_blocked(1)
        runtime.restore_clock(7)
        assert calls == [("blocked", 1), ("clock", 7)]

    def test_hooks_are_optional(self):
        runtime = ReplicaRuntime(make_sync())
        runtime.note_send_blocked(1)  # StateBased has no hook: no-op
        runtime.restore_clock(3)


class TestClusterFacade:
    def test_unknown_transport_name_is_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            Cluster(ClusterConfig(line(2)), StateBased, SetLattice(), "telegraph")

    def test_explicit_transport_instance_shares_metrics(self):
        config = ClusterConfig(line(2))
        transport = SimTransport(config, MetricsCollector(2))
        cluster = Cluster(config, StateBased, SetLattice(), transport)
        assert cluster.metrics is transport.metrics
        workload = GSetWorkload(2, rounds=2)
        cluster.run_rounds(2, workload.updates_for)
        cluster.drain()
        assert cluster.converged()
        assert transport.metrics.message_count > 0

    def test_transport_rejects_wrong_runtime_count(self):
        config = ClusterConfig(line(3))
        transport = SimTransport(config, MetricsCollector(3))
        with pytest.raises(ValueError, match="3-node topology"):
            transport.bind([ReplicaRuntime(make_sync())])

    def test_lose_state_rebuilds_through_the_runtime(self):
        config = ClusterConfig(line(2))
        cluster = Cluster(config, delta_bp_rr, SetLattice())
        cluster.apply_update(0, lambda state: SetLattice({"a"}))
        before = cluster.runtimes[0].synchronizer
        cluster.crash(0, lose_state=True)
        after = cluster.runtimes[0].synchronizer
        assert after is not before
        assert after.state.is_bottom
        assert cluster.nodes[0] is after  # the facade view tracks it


class TestTcpTransport:
    def test_blocked_sends_notify_the_sender(self):
        notified = []

        class Watchful(StateBased):
            def note_send_blocked(self, dst):
                notified.append((self.replica, dst))

        cluster = Cluster(ClusterConfig(line(2)), Watchful, SetLattice(), "tcp")
        try:
            cluster.apply_update(0, lambda state: SetLattice({"a"}))
            cluster.crash(1)
            cluster.run_round(updates=None)
            assert cluster.messages_blocked > 0
            assert (0, 1) in notified
        finally:
            cluster.close()

    def test_partition_blocks_and_heal_restores(self):
        cluster = Cluster(ClusterConfig(full_mesh(4)), StateBased, SetLattice(), "tcp")
        try:
            cluster.partition([0, 1])
            assert cluster.partitioned
            assert not cluster.link_up(0, 2)
            assert cluster.link_up(0, 1)
            workload = GSetWorkload(4, rounds=2)
            cluster.run_rounds(2, workload.updates_for)
            assert not cluster.converged()
            cluster.heal()
            cluster.drain()
            assert cluster.converged()
        finally:
            cluster.close()

    def test_updates_on_down_nodes_are_skipped(self):
        cluster = Cluster(ClusterConfig(line(2)), StateBased, SetLattice(), "tcp")
        try:
            cluster.crash(0)
            cluster.run_round(lambda node: [lambda s: SetLattice({"x"})])
            assert cluster.updates_skipped == 1
        finally:
            cluster.close()

    def test_loss_rate_drops_frames(self):
        config = ClusterConfig(line(2), loss_rate=0.5, loss_seed=3)
        cluster = Cluster(config, StateBased, SetLattice(), "tcp")
        try:
            workload = GSetWorkload(2, rounds=6)
            cluster.run_rounds(6, workload.updates_for)
            assert cluster.messages_dropped > 0
            assert cluster.messages_severed == 0
        finally:
            cluster.close()

    def test_close_is_idempotent(self):
        cluster = Cluster(ClusterConfig(line(2)), StateBased, SetLattice(), "tcp")
        cluster.close()
        cluster.close()

    def test_close_reentered_from_the_running_loop(self):
        """close() from inside the event loop (cleanup after a stall
        escaping _settle, __del__ from a callback) must not raise
        RuntimeError from run_until_complete; it schedules the shutdown
        and a later outside-the-loop close() finishes the teardown."""
        cluster = Cluster(ClusterConfig(line(2)), StateBased, SetLattice(), "tcp")
        transport = cluster.transport
        cluster.run_round(lambda node: [lambda s: SetLattice({f"n{node}"})])

        async def reenter():
            transport.close()  # would previously raise RuntimeError

        transport._loop.run_until_complete(reenter())
        assert not transport._closed  # teardown deferred, not abandoned
        assert transport._deferred_shutdown is not None
        cluster.close()
        assert transport._closed
        assert transport._loop.is_closed()
        cluster.close()  # still idempotent afterwards

    def test_failed_deferred_shutdown_is_retried_by_the_final_close(self):
        """A deferred shutdown that dies must not leave sockets open:
        the outer close() retrieves the failure and runs a fresh one."""
        cluster = Cluster(ClusterConfig(line(2)), StateBased, SetLattice(), "tcp")
        transport = cluster.transport
        original_shutdown = transport._shutdown
        calls = []

        async def failing_shutdown():
            calls.append("failed")
            raise OSError("teardown died")

        transport._shutdown = failing_shutdown

        async def reenter():
            transport.close()

        transport._loop.run_until_complete(reenter())
        import asyncio

        transport._loop.run_until_complete(asyncio.sleep(0))  # let it fail
        deferred = transport._deferred_shutdown
        assert deferred is not None and deferred.done()
        transport._shutdown = original_shutdown
        cluster.close()  # retrieves the exception, reruns the shutdown
        assert calls == ["failed"]
        assert transport._loop.is_closed()

    def test_teardown_raising_mid_close_still_closes_the_loop(self):
        """If the awaited shutdown itself raises, the exception surfaces
        to the caller but the loop must not leak — close() is
        idempotent, so no later call would ever retry."""
        cluster = Cluster(ClusterConfig(line(2)), StateBased, SetLattice(), "tcp")
        transport = cluster.transport
        real_shutdown = transport._shutdown

        async def exploding_shutdown():
            await real_shutdown()  # release the sockets, then fail late
            raise OSError("teardown died")

        transport._shutdown = exploding_shutdown
        with pytest.raises(OSError, match="teardown died"):
            transport.close()
        assert transport._closed
        assert transport._loop.is_closed()
        transport.close()  # idempotent, no second raise

    def test_queue_is_a_sim_only_surface(self):
        transport = AsyncTcpTransport(ClusterConfig(line(2)), MetricsCollector(2))
        assert not hasattr(transport, "queue")
        transport.close()


class _DroppedConnection:
    """A writer whose peer went away: writes buffer, the drain fails."""

    def __init__(self):
        self.closed = False

    def write(self, data):
        pass

    def is_closing(self):
        return self.closed

    async def drain(self):
        raise ConnectionResetError("peer gone")

    def close(self):
        self.closed = True


class TestTcpPeerPlane:
    """The flush half of the send path shared by tcp and serving replicas."""

    @staticmethod
    def state_sends(runtime, elements):
        """One state message to replica 1 per element, growing each time."""
        sends = []
        for element in elements:
            runtime.local_update(lambda state, e=element: SetLattice({e}))
            sends.extend(runtime.synchronizer.sync_messages())
        return sends

    def test_send_lost_at_flush_is_not_counted_and_marks_the_path(self):
        cluster = Cluster(ClusterConfig(line(2)), StateBased, SetLattice(), "tcp")
        transport = cluster.transport
        sender = transport.runtimes[0]
        blocked = []
        sender.note_send_blocked = blocked.append
        live = transport._writers[(0, 1)]
        transport._writers[(0, 1)] = _DroppedConnection()
        try:
            transport.send(0, self.state_sends(sender, ["a"]))
            transport._loop.run_until_complete(transport.flush())
            assert transport._pending == 0
            assert transport._pending_by_dst == {}
            assert blocked == [1]
            assert not transport.connected(0, 1)
            # The message was transmitted and accounted; only its
            # delivery was lost with the connection.
            assert cluster.metrics.message_count == 1
        finally:
            transport._writers[(0, 1)] = live
            cluster.close()

    def test_frames_to_one_destination_arrive_in_send_order(self):
        cluster = Cluster(ClusterConfig(line(2)), StateBased, SetLattice(), "tcp")
        transport = cluster.transport
        received = []
        transport.runtimes[1].deliver = lambda src, message: received.append(
            message.payload
        )
        try:
            sends = self.state_sends(transport.runtimes[0], "abcdef")
            transport.send(0, sends)
            assert len(transport._outbox[(0, 1)]) == len(sends) == 6
            transport._loop.run_until_complete(transport._settle())
            assert received == [send.message.payload for send in sends]
        finally:
            cluster.close()
