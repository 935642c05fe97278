"""Integration tests for the multi-process serving layer (`repro.serve`).

Each test spawns a real 4-process cluster over loopback sockets —
sized small (8 shards, a handful of rounds) so the whole module stays
in tier-1 time.  The scenarios mirror the CI smoke: convergence under
client load, SIGKILL + respawn over the surviving WAL directory, the
advisory lock on that directory, quorum reads joining ``r`` replies,
and the per-process trace files merging by origin.
"""

from __future__ import annotations

import os
import signal
import socket
import struct

import pytest

from repro.kv import KVRoutingError, Unavailable
from repro.kv.antientropy import AntiEntropyConfig
from repro.net.tcp import MAX_FRAME_BYTES
from repro.serve import ControlClient, KVClient, LoadGenerator, ProcessCluster, frames
from repro.wal.storage import FileStorage, StorageLockError

SHARDS = 8


@pytest.fixture(autouse=True)
def hard_timeout():
    """Kill a wedged multi-process test instead of hanging the suite.

    SIGALRM-based so it needs no plugin; generous enough that only a
    genuine deadlock (a replica that never answers, a drain that never
    converges past its own cap) trips it.
    """

    def on_alarm(signum, frame):
        raise TimeoutError("serve integration test exceeded 180s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(180)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

#: Digest repair is what covers a recovered replica's divergence (the
#: deltas it coordinated but never shipped die with its send buffers;
#: only its WAL survives) — same pairing the in-process fault replay
#: requires.
REPAIR = AntiEntropyConfig(
    repair_interval=2, repair_mode="digest", repair_fanout=4
)


def make_cluster(**overrides) -> ProcessCluster:
    options = dict(
        shards=SHARDS, replication=3, recovery="wal", antientropy=REPAIR
    )
    options.update(overrides)
    return ProcessCluster(4, **options)


def make_client(cluster: ProcessCluster, **overrides) -> KVClient:
    options = dict(
        replicas=cluster.replicas,
        shards=SHARDS,
        replication=3,
        seed=11,
    )
    options.update(overrides)
    return KVClient(cluster.client_addresses(), **options)


def test_cluster_converges_under_client_load():
    with make_cluster() as cluster:
        with make_client(cluster, route="random") as client:
            generator = LoadGenerator(client, keys=24, seed=5)
            for _ in range(3):
                for _ in range(15):
                    generator.run_op()
                cluster.run_round(None)
            total = 0
            for _ in range(4):
                delta = client.put("gct:total", "increment", 3)
                assert not delta.is_bottom
                total += 3
            rounds = cluster.drain()
            assert cluster.converged()
            assert rounds <= cluster.max_drain_rounds
            assert client.get("gct:total") == total
            report = generator.report()
            assert report.failed_ops == 0
            assert report.ops == 45
        # Real wire traffic and durable commits happened.
        assert cluster.metrics.message_count > 0
        assert cluster.metrics.total_payload_bytes() > 0
        assert cluster.wal_stats()["wal_committed_bytes"] > 0


def test_sigkill_respawn_recovers_from_wal():
    errors = []
    with make_cluster() as cluster:
        with make_client(cluster, route="random") as client:
            generator = LoadGenerator(
                client, keys=24, seed=3, on_error=errors.append
            )
            acked = 0
            for _ in range(2):
                for _ in range(15):
                    generator.run_op()
                try:
                    client.put("gct:probe", "increment", 1)
                    acked += 1
                except Unavailable:
                    pass
                cluster.run_round(None)

            victim = 3
            cluster.crash(victim, lose_state=True)
            assert victim in cluster.down
            for _ in range(15):
                generator.run_op()
            try:
                client.put("gct:probe", "increment", 1)
                acked += 1
            except Unavailable:
                pass
            cluster.run_round(None)

            cluster.recover(victim)
            # The respawned process rebuilt owned shards from its
            # surviving per-shard logs, not from the network.
            assert cluster.replayed_shards(victim) > 0
            client.update_addresses(cluster.client_addresses())
            for _ in range(10):
                generator.run_op()

            cluster.drain()
            assert cluster.converged()
            # The client never saw a wrong value: every surfaced failure
            # is Unavailable (the staleness contract), and the acked
            # counter reads exactly the acked total after convergence.
            assert all(isinstance(error, Unavailable) for error in errors)
            assert client.get("gct:probe") == acked
        assert cluster.wal_stats()["wal_replayed_bytes"] > 0


def test_wal_dir_flock_excludes_second_opener():
    with make_cluster() as cluster:
        wal_dir = cluster._wal_dir(0)
        assert os.path.isdir(wal_dir)
        live_pid = cluster._procs[0].pid
        with pytest.raises(StorageLockError) as excinfo:
            FileStorage(wal_dir, lock=True)
        assert str(live_pid) in str(excinfo.value)
    # The lock dies with the process: after shutdown the dir reopens.
    storage = FileStorage(wal_dir, lock=True)
    assert storage.locked
    storage.release_lock()


def test_quorum_read_joins_r_replies_and_repairs_stale_owners():
    with make_cluster() as cluster:
        # w=1: only the coordinator holds the write until anti-entropy
        # runs — which this test deliberately never does before reading.
        with make_client(cluster, r=3, w=1, route="random") as client:
            client.put("set:q", "add", "quorum")
            joined = client.get("set:q")
            # The r=3 join sees the coordinator's reply even though two
            # of the three owners answered with nothing.
            assert joined == {"quorum"}
            assert client.stats["divergent_reads"] == 1
            assert client.stats["read_repairs"] == 2
        # Read repair pushed the join to the stale owners: now even an
        # r=1 read at any single owner sees the value, without any
        # anti-entropy round having run.
        with make_client(cluster, r=1, route="random") as reader:
            for _ in range(4):
                assert reader.get("set:q") == {"quorum"}
            assert reader.stats["stale_session_reads"] == 0
        server = cluster.scheduler_stats()
        assert server["read_repairs"] >= 2
        assert server["read_repair_payload_bytes"] > 0


def test_nonowner_put_is_a_routing_error_not_a_crash():
    with make_cluster() as cluster:
        client = make_client(cluster)
        try:
            owners = set(cluster.ring.owners("cnt:routed"))
            outsider = next(
                r for r in cluster.ring.replicas if r not in owners
            )
            with pytest.raises(KVRoutingError, match="does not own"):
                cluster._controls[outsider].request(
                    frames.PUT, key="cnt:routed", op="increment", args=(1,)
                )
            # The connection survives a routing error: the same socket
            # serves the next request.
            assert cluster._controls[outsider].request(frames.PING).ok
        finally:
            client.close()


def test_trace_dir_merges_per_process_files(tmp_path):
    from repro.obs import read_trace

    trace_dir = str(tmp_path / "trace")
    with make_cluster(trace_dir=trace_dir) as cluster:
        with make_client(cluster, route="random") as client:
            generator = LoadGenerator(client, keys=16, seed=9)
            for _ in range(20):
                generator.run_op()
            cluster.run_round(None)
            cluster.drain()
    # One file per replica process plus the controller's.
    files = sorted(os.listdir(trace_dir))
    assert "controller.jsonl" in files
    assert sum(name.startswith("r") for name in files) == 4
    events = read_trace(trace_dir)
    origins = {event.origin for event in events}
    assert len(origins) >= 5  # 4 replicas + the controller
    kinds = {event.type for event in events}
    assert "client-op" in kinds
    assert "round" in kinds
    assert "send" in kinds and "deliver" in kinds
    # The merge is round-major: no event of round k+1 precedes one of
    # round k (events without a round sort first within their file).
    rounds = [e.round for e in events if e.round is not None]
    assert rounds == sorted(rounds)


def test_send_path_totals_match_the_trace_across_partition_and_heal(tmp_path):
    from repro.obs import read_trace, trace_totals

    trace_dir = str(tmp_path / "trace")
    with make_cluster(trace_dir=trace_dir) as cluster:
        with make_client(cluster, route="random") as client:
            generator = LoadGenerator(client, keys=16, seed=4)
            for _ in range(10):
                generator.run_op()
            cluster.run_round(None)
            cluster.partition([0, 1])
            for _ in range(2):
                for _ in range(10):
                    generator.run_op()
                cluster.run_round(None)
            cluster.heal()
            cluster.drain()
            assert cluster.converged()
        metrics = cluster.metrics
        sent = (
            metrics.message_count,
            metrics.total_payload_bytes(),
            metrics.total_metadata_bytes(),
        )
        blocked = sum(int(cluster.stat(r)["blocked"]) for r in cluster.live)
    events = read_trace(trace_dir)
    totals = trace_totals(events)
    assert (
        totals["messages"],
        totals["payload_bytes"],
        totals["metadata_bytes"],
    ) == sent
    assert sent[0] > 0
    # The partition refused sends, and each refusal was traced once.
    assert blocked > 0
    assert sum(event.type == "send-blocked" for event in events) == blocked


def test_oversized_client_frame_closes_only_its_connection():
    with make_cluster() as cluster:
        host, port = cluster.client_addresses()[0]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            # The replica refuses the header and hangs up without
            # buffering the announced body.
            assert sock.recv(1) == b""
        control = ControlClient(host, port, timeout_s=10)
        try:
            assert control.request(frames.PING).body == {"replica": 0}
        finally:
            control.close()


def test_add_and_decommission_over_processes_converge():
    with make_cluster() as cluster:
        with make_client(cluster, route="random") as client:
            generator = LoadGenerator(client, keys=16, seed=6)
            for _ in range(15):
                generator.run_op()
            cluster.run_round(None)
            cluster.add_replica(4)
            cluster.drain()
            # The leaver's handoff replies come from replicas whose
            # ring no longer lists it.
            cluster.decommission_replica(0)
            cluster.drain()
            assert cluster.converged()
            assert cluster.pending_handoffs() == 0
