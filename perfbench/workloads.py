"""The three workloads: inputs, set-up, measured blocks and output checks.

Every workload runs the same way (see ``run.py``): :meth:`Workload.setup`
(timed as ``setup_s``), then :meth:`Workload.window`, which runs
fixed-shape *blocks* until ``--seconds`` have passed, then
:meth:`Workload.finish`, which drains the cluster and checks every
output.  The first :attr:`Workload.prefix_blocks` blocks are the
*deterministic prefix*: the counters snapshotted at its end (messages,
wire bytes, probes, repairs) are a function of the seed alone on the
simulator and on tcp, and ``bytes_per_op`` is computed from them.

The program is driven only through its public API: ``KVCluster``,
``HashRing``, ``AntiEntropyConfig``, ``FileStorage``, ``KVUpdate``,
``ProcessCluster`` and ``KVClient``.
"""

from __future__ import annotations

import os
import random
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import host
from schedule import (
    SET_POOL,
    Expected,
    Op,
    fingerprint,
    key_stream,
    population,
    route_picks,
    zipf_stream,
)
from spans import SpanRecorder

from repro.kv import AntiEntropyConfig, HashRing, KVCluster, KVUpdate, Unavailable
from repro.serve.client import KVClient
from repro.serve.cluster import ProcessCluster
from repro.sync import keyed_bp_rr
from repro.wal import FileStorage, WalConfig


def program_counts(cluster, blocked: int) -> Dict[str, float]:
    """Cumulative counters of a ``KVCluster`` or ``ProcessCluster``."""
    metrics = cluster.metrics
    scheduler = cluster.scheduler_stats()
    wal = cluster.wal_stats()
    payload = metrics.total_payload_bytes()
    metadata = metrics.total_metadata_bytes()
    return {
        "messages": metrics.message_count,
        "blocked": blocked,
        "payload_bytes": payload,
        "metadata_bytes": metadata,
        "wire_bytes": payload + metadata,
        "probes": scheduler.get("probes", 0),
        "repairs": scheduler.get("repairs", 0),
        "deferred": scheduler.get("deferred", 0),
        "repair_bytes": scheduler.get("repair_payload_bytes", 0)
        + scheduler.get("repair_metadata_bytes", 0),
        "wal_records": wal.get("wal_records", 0),
        "wal_commits": wal.get("wal_commits", 0),
        "wal_replayed_bytes": wal.get("wal_replayed_bytes", 0),
    }


class Workload:
    """One workload's run: inputs from the seed, set-up, window, checks."""

    name = ""
    #: What the warm-up's ops/s stands for, printed beside it.
    warmup_note = ""
    #: Blocks at the start of the window whose counters are snapshotted
    #: (and traced, in a traced run).
    prefix_blocks = 1
    #: Whether the prefix counters must repeat exactly for one seed.
    deterministic = True
    #: Set-ups per run: the run's own, the rest in fresh child processes
    #: (which also run the prefix, for the determinism check).
    setups = 3
    #: Blocks per second of ``--seconds`` the inputs are generated for
    #: (several times what any host reaches, so the window never runs dry).
    blocks_per_second = 1

    def __init__(self, seed: int, seconds: int, workdir: str) -> None:
        self.workdir = workdir
        self.block_cap = self.prefix_blocks * 2 + self.blocks_per_second * max(seconds, 1)
        self.expected = Expected()
        #: Timed samples as ``(perf_counter at the start, duration)``;
        #: latencies in ms, convergence in s.
        self.put_ms: List[Tuple[float, float]] = []
        self.get_ms: List[Tuple[float, float]] = []
        self.converge_s: List[Tuple[float, float]] = []
        self.failures: List[str] = []
        self.failed_ops = 0
        #: Client ops and checking reads issued (set by the run).
        self.attempted = 0
        #: Host-speed samples; each phase's timings are scaled by the
        #: samples taken during it (see ``host.SpeedProbe``).
        self.speed = host.SpeedProbe()
        self.setup_span = self.window_span = (0.0, 0.0)
        self.setup_s = 0.0
        self.warmup_s = 0.0
        self.warmup_ops = 0
        # Filled by window().
        self.window_s = 0.0
        self.window_ops = 0
        self.blocks = 0
        self.prefix: Dict[str, float] = {}
        self.prefix_ops = 0
        self.prefix_s = 0.0
        self.prefix_end = 0.0
        self.rest_s = 0.0
        #: ``(start, end, ops per busy second)`` of each window block.
        self.block_rates: List[Tuple[float, float, float]] = []
        self.window_counts: Dict[str, float] = {}

    @classmethod
    def window_fingerprint(cls, seed: int) -> str:
        """Hash of the first block's inputs for ``seed``."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def block(self, index: int) -> int:
        """Run one block of the window; return the client ops it issued."""
        raise NotImplementedError

    def counts(self) -> Dict[str, float]:
        """Counters read from the program (cumulative since construction)."""
        raise NotImplementedError

    def finish(self) -> int:
        """Drain and check every output; return the reads it issued."""
        raise NotImplementedError

    def bytes_per_op(self) -> float:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return host.peak_rss_mib()

    def replica_pids(self) -> Sequence[int]:
        """Processes other than this one that run replicas."""
        return []

    def average_memory_bytes(self) -> float:
        return self.cluster.metrics.average_memory_bytes()

    def close(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------

    def timed_setup(self) -> None:
        spent = self.speed.spent_s
        started = perf_counter()
        self.setup()
        ended = perf_counter()
        self.setup_span = (started, ended)
        self.setup_s = ended - started - (self.speed.spent_s - spent)


    def window(
        self,
        seconds: float,
        recorder: Optional[SpanRecorder] = None,
        min_blocks: Optional[int] = None,
    ) -> None:
        """Run blocks for ``seconds``, and at least ``min_blocks``.

        With a ``recorder``, only the prefix is traced, and the window
        by default continues untraced for at least as many blocks, so
        the traced and untraced block times give the tracing overhead.
        """
        if min_blocks is None:
            min_blocks = self.prefix_blocks * (2 if recorder is not None else 1)
        before = self.counts()
        if recorder is not None:
            recorder.install()
        started = perf_counter()
        ops = 0
        index = 0
        try:
            while index < self.block_cap:
                block_started = perf_counter()
                if index >= min_blocks and block_started - started >= seconds:
                    break
                spent = self.speed.spent_s
                block_ops = self.block(index)
                block_ended = perf_counter()
                busy = block_ended - block_started - (self.speed.spent_s - spent)
                self.block_rates.append((block_started, block_ended, block_ops / busy))
                ops += block_ops
                index += 1
                if index == self.prefix_blocks:
                    self.prefix_end = perf_counter()
                    self.prefix_s = self.prefix_end - started
                    self.prefix_ops = ops
                    after = self.counts()
                    self.prefix = {k: after[k] - before.get(k, 0) for k in after}
                    if recorder is not None:
                        recorder.uninstall()
                        recorder = None
        finally:
            if recorder is not None:
                recorder.uninstall()
        self.window_span = (started, perf_counter())
        self.window_s = self.window_span[1] - started
        self.window_ops = ops
        self.blocks = index
        self.rest_s = self.window_s - self.prefix_s
        after = self.counts()
        self.window_counts = {k: after[k] - before.get(k, 0) for k in after}


# ----------------------------------------------------------------------
# The in-process store: KVCluster on the simulator or on tcp.
# ----------------------------------------------------------------------


class _ClusterWorkload(Workload):
    replicas = 8
    shards = 32
    keys = 1000
    #: Writes (and separately timed reads) per round.
    ops_per_round = 64
    reads_per_round = 64
    rounds_per_block = 1
    warmup_rounds = 0
    #: Elements a ``set:`` key draws from; 0 = the default pool and a
    #: one-write-per-key population instead of a full-size one.
    set_pool = 0
    stream = ""

    def __init__(self, seed: int, seconds: int, workdir: str) -> None:
        super().__init__(seed, seconds, workdir)
        self.ring = HashRing(range(self.replicas), n_shards=self.shards, replication=3)
        self.population = population(self.keys, set_pool=self.set_pool)
        rounds = self.warmup_rounds + self.rounds_per_block * self.block_cap + self.extra_rounds()
        self.ops = zipf_stream(seed, self.keys, self.ops_per_round * rounds, self.stream,
                               self.set_pool or SET_POOL)
        self.picks = route_picks(seed, len(self.ops), self.stream)
        self.reads = key_stream(seed, self.keys, self.reads_per_round * rounds, self.stream)
        self.cursor = 0
        self.read_cursor = 0
        self.cluster: Optional[KVCluster] = None

    def extra_rounds(self) -> int:
        """Write rounds after the window (inputs are drawn for them too)."""
        return 0

    @classmethod
    def window_fingerprint(cls, seed: int) -> str:
        return fingerprint(
            zipf_stream(seed, cls.keys, cls.ops_per_round, cls.stream, cls.set_pool or SET_POOL)
        )

    def build(self) -> KVCluster:
        raise NotImplementedError

    def apply(self, op: Op, pick: int, timed: bool) -> None:
        """One client write, routed to a live owner of its key."""
        key, name, args = op
        owners = [o for o in self.ring.owners(key) if o not in self.cluster.down]
        update = KVUpdate(key, name, args)
        node = owners[pick % len(owners)]
        if timed:
            started = perf_counter()
            self.cluster.apply_update(node, update)
            self.put_ms.append((started, (perf_counter() - started) * 1e3))
        else:
            self.cluster.apply_update(node, update)
        self.expected.apply(key, name, args)

    def write_round(self, timed: bool = True) -> int:
        """One round: the next writes and timed reads, then sync."""
        self.speed.sample()
        start = self.cursor
        for position in range(start, start + self.ops_per_round):
            self.apply(self.ops[position], self.picks[position], timed)
        self.cursor = start + self.ops_per_round
        if timed:
            value = self.cluster.value
            start = self.read_cursor
            for key in self.reads[start:start + self.reads_per_round]:
                started = perf_counter()
                value(key)
                self.get_ms.append((started, (perf_counter() - started) * 1e3))
            self.read_cursor = start + self.reads_per_round
        self.cluster.run_round(None)
        return self.ops_per_round

    def setup(self) -> None:
        self.cluster = self.build()
        for index, (op, pick) in enumerate(self.population):
            if index % 2000 == 0:
                self.speed.sample()
            self.apply(op, pick, timed=False)
        started = perf_counter()
        for _ in range(self.warmup_rounds):
            self.warmup_ops += self.write_round(timed=False)
        self.warmup_s = perf_counter() - started

    def counts(self) -> Dict[str, float]:
        return program_counts(self.cluster, self.cluster.messages_blocked)

    def bytes_per_op(self) -> float:
        return self.prefix["wire_bytes"] / self.prefix_ops

    def recover_and_drain(self, replica: int) -> None:
        """Recover ``replica`` and time until the cluster has converged."""
        started = perf_counter()
        self.cluster.recover(replica)
        self.cluster.drain()
        converged = self.cluster.converged()
        self.converge_s.append((started, perf_counter() - started))
        if not converged:
            self.failures.append(f"not converged after recovering replica {replica}")

    def verify(self, readers_per_key: int) -> int:
        """Read every written key from its owners; compare to the model."""
        self.cluster.drain()
        if not self.cluster.converged():
            self.failures.append("not converged after the final drain")
        reads = 0
        wrong = 0
        for key in self.expected.keys():
            for owner in self.ring.owners(key)[:readers_per_key]:
                reads += 1
                if not self.expected.matches(key, self.cluster.value(key, read_replica=owner)):
                    wrong += 1
        if wrong:
            self.failures.append(f"{wrong} of {reads} reads differ from the acknowledged writes")
        return reads

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.close()


class Store100k(_ClusterWorkload):
    """Sim transport, 100k keys: per-round work scales with state."""

    name = "store-100k"
    replicas = 8
    shards = 512
    keys = 100_000
    ops_per_round = 64  # 8 updates per node per round
    reads_per_round = 64
    # Digest probes run every second round: a block of two rounds is
    # one probe round and one plain round.
    rounds_per_block = 2
    warmup_rounds = 6  # rounds 0-5: population ships, first full probe cycle
    warmup_note = (
        "the store cell of benchmarks/results/hotpath.txt (36 ops/s) timed "
        "rounds 0-4 after population, i.e. this warm-up, not the steady state"
    )
    # Probe traffic differs from round to round with the seed; twelve
    # rounds average it.
    prefix_blocks = 6
    # A set-up is ~15 s of population and warm-up; a third one would not
    # fit the time the benchmark's runs are allowed.
    setups = 2
    blocks_per_second = 12
    stream = "store"
    #: Post-window fault cycles: replica 7 misses this many write rounds.
    fault_cycles = 5
    down_rounds = 2

    def extra_rounds(self) -> int:
        return self.fault_cycles * self.down_rounds

    def build(self) -> KVCluster:
        return KVCluster(
            self.ring,
            keyed_bp_rr,
            antientropy=AntiEntropyConfig(
                repair_interval=2, repair_fanout=self.shards, repair_mode="digest"
            ),
        )

    def block(self, index: int) -> int:
        return sum(self.write_round() for _ in range(self.rounds_per_block))

    def finish(self) -> int:
        # Fault cycles after the window: replica 7 is down (state kept)
        # while writes go on, then digest repair catches it up.
        for _ in range(self.fault_cycles):
            self.cluster.crash(7)
            for _ in range(self.down_rounds):
                self.write_round(timed=False)
            self.recover_and_drain(7)
        return self.verify(readers_per_key=1)


class FaultsTcp(_ClusterWorkload):
    """Real loopback sockets, WAL on files, partitions and crashes."""

    name = "faults-tcp"
    replicas = 8
    shards = 32
    keys = 1000
    ops_per_round = 256  # 32 updates per node per round
    reads_per_round = 64
    # The keyspace is written at full size before the window, and logs
    # compact at 16 KiB, so per-cycle work does not grow with run length.
    set_pool = 8
    wal_compact_bytes = 16 * 1024
    warmup_rounds = 5
    prefix_blocks = 4
    blocks_per_second = 6
    stream = "faults"
    #: Rounds of one fault cycle: healthy, partitioned, healed, crashed.
    phases = (2, 3, 1, 2)
    rounds_per_block = sum(phases)

    def build(self) -> KVCluster:
        wal_root = os.path.join(self.workdir, "wal")
        return KVCluster(
            self.ring,
            keyed_bp_rr,
            transport="tcp",
            antientropy=AntiEntropyConfig(
                repair_interval=4, repair_fanout=8, repair_mode="digest"
            ),
            recovery="wal",
            # fsync off: the workload measures crash semantics and the
            # log's CPU cost, not the host's disk flush latency.
            wal_storage=lambda r: FileStorage(os.path.join(wal_root, f"r{r:03d}")),
            wal_config=WalConfig(compact_bytes=self.wal_compact_bytes),
        )

    def block(self, index: int) -> int:
        healthy, partitioned, healed, crashed = self.phases
        ops = 0
        for _ in range(healthy):
            ops += self.write_round()
        self.cluster.partition(range(self.replicas // 2))
        for _ in range(partitioned):
            ops += self.write_round()
        self.cluster.heal()
        for _ in range(healed):
            ops += self.write_round()
        self.cluster.crash(self.replicas - 1, lose_state=True)
        for _ in range(crashed):
            ops += self.write_round()
        self.recover_and_drain(self.replicas - 1)
        return ops

    def finish(self) -> int:
        return self.verify(readers_per_key=3)


# ----------------------------------------------------------------------
# Multi-process serving: ProcessCluster driven by one KVClient.
# ----------------------------------------------------------------------


class ServeProc(Workload):
    """Three replica processes, one closed-loop client, GET and PUT."""

    name = "serve-proc"
    replicas = 3
    shards = 32
    keys = 1000
    #: Client ops per block; each block ends with a drain.
    ops_per_block = 500
    prefix_blocks = 4
    deterministic = False
    blocks_per_second = 12
    stream = "serve"

    def __init__(self, seed: int, seconds: int, workdir: str) -> None:
        super().__init__(seed, seconds, workdir)
        count = self.ops_per_block * self.block_cap
        self.population = [op for op, _ in population(self.keys)]
        self.ops = zipf_stream(seed, self.keys, count, self.stream)
        kinds = random.Random(f"{self.stream}-verb:{seed}")
        self.is_put = [kinds.random() < 0.5 for _ in range(count)]
        self.cluster: Optional[ProcessCluster] = None
        self.client: Optional[KVClient] = None
        self.puts = 0
        self.gets = 0
        self.wrong_gets = 0

    @classmethod
    def window_fingerprint(cls, seed: int) -> str:
        return fingerprint(zipf_stream(seed, cls.keys, cls.ops_per_block, cls.stream))

    def setup(self) -> None:
        self.cluster = ProcessCluster(
            self.replicas,
            shards=self.shards,
            replication=3,
            run_dir=os.path.join(self.workdir, "serve"),
        )
        self.client = KVClient(
            self.cluster.client_addresses(), shards=self.shards, replication=3
        )
        for index, (key, op, args) in enumerate(self.population):
            if index % 100 == 0:
                self.speed.sample()
            self.client.put(key, op, *args)
            self.expected.apply(key, op, args)
        self.cluster.drain()

    def block(self, index: int) -> int:
        client = self.client
        start = index * self.ops_per_block
        for position in range(start, start + self.ops_per_block):
            if position % 100 == 0:
                self.speed.sample()
            key, op, args = self.ops[position]
            try:
                if self.is_put[position]:
                    started = perf_counter()
                    client.put(key, op, *args)
                    self.put_ms.append((started, (perf_counter() - started) * 1e3))
                    self.expected.apply(key, op, args)
                    self.puts += 1
                else:
                    started = perf_counter()
                    value = client.get(key)
                    self.get_ms.append((started, (perf_counter() - started) * 1e3))
                    self.gets += 1
                    # One client, primary routing: the coordinator saw
                    # every acknowledged write of the key.
                    if not self.expected.matches(key, value):
                        self.wrong_gets += 1
            except (Unavailable, RuntimeError, OSError):
                self.failed_ops += 1
        started = perf_counter()
        self.cluster.drain()
        self.converge_s.append((started, perf_counter() - started))
        return self.ops_per_block

    def counts(self) -> Dict[str, float]:
        blocked = sum(int(self.cluster.stat(r)["blocked"]) for r in self.cluster.live)
        return {**program_counts(self.cluster, blocked), "puts": self.puts}

    def bytes_per_op(self) -> float:
        return self.window_counts["wire_bytes"] / max(self.window_counts["puts"], 1)

    def replica_pids(self) -> Sequence[int]:
        return [int(self.cluster.stat(r)["pid"]) for r in self.cluster.live]

    def peak_rss_mb(self) -> float:
        return sum(host.peak_rss_mib(pid) for pid in self.replica_pids())

    def finish(self) -> int:
        self.cluster.drain()
        if not self.cluster.converged():
            self.failures.append("not converged after the final drain")
        if self.wrong_gets:
            self.failures.append(
                f"{self.wrong_gets} of {self.gets} GETs differ from the acknowledged writes"
            )
        reads = 0
        wrong = 0
        with KVClient(
            self.cluster.client_addresses(), shards=self.shards, replication=3, r=3
        ) as reader:
            for key in self.expected.keys():
                reads += 1
                if not self.expected.matches(key, reader.get(key)):
                    wrong += 1
        if wrong:
            self.failures.append(
                f"{wrong} of {reads} r=3 reads miss acknowledged writes after drain"
            )
        return reads

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.cluster is not None:
            self.cluster.close()


WORKLOADS = {cls.name: cls for cls in (Store100k, FaultsTcp, ServeProc)}
