"""The controller: spawn, wire, drive, and kill replica processes.

:class:`ProcessCluster` is the multi-process counterpart of
:class:`~repro.kv.cluster.KVCluster` — same driver surface
(``run_rounds`` / ``run_round`` / ``drain`` / ``converged`` /
``partition`` / ``heal`` / ``crash`` / ``recover`` /
``scheduler_stats`` / ``wal_stats``), but every replica is a real OS
process started with ``python -m repro serve-replica`` and everything
the controller knows arrives over the control plane of
:mod:`repro.serve.frames`.

Coordination protocol, in the order a round runs:

1. workload updates go to their pre-routed owner replicas as PUT
   requests (one coordinator application each, exactly like the
   in-process harness);
2. TICK tells every live replica to run one anti-entropy tick — peer
   traffic then flows replica-to-replica over their own sockets,
   entirely outside the controller;
3. the controller polls COUNTERS and waits for **quiescence**: the
   global (frames sent, frames delivered) totals must agree and stay
   stable across consecutive polls — Mattern-style double counting,
   degraded gracefully: totals that stay *stable but unequal* mean the
   missing frames died with a killed process, and the gap is recorded
   as ``messages_severed`` instead of hanging the round.

Crash is SIGKILL — no goodbye, no flush; memory and staged WAL records
are genuinely gone, which is precisely the failure model
``crash(lose_state=True)`` simulates.  Recovery is a respawn over the
surviving WAL directory: the fresh process replays its shard logs
locally before serving (PR 4's recovery path, now with a real process
boundary), and a WIRE carrying the current round realigns its repair
scheduler.  Membership changes reuse PR 5's handoff protocol: the
controller swaps rings with APPLY_RING and nominates handoff sources
with HANDOFF, and the compacted WAL segments travel the peer plane.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
import warnings
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.kv.antientropy import AntiEntropyConfig
from repro.kv.ring import HashRing
from repro.kv.store import KVRoutingError, KVUpdate
from repro.net.tcp import HOST
from repro.net.transport import TransportStalled
from repro.serve import frames
from repro.serve.frames import FrameError, Request, Response
from repro.serve.replica import portfile_path

#: Seconds between COUNTERS polls while settling a round.
_POLL_INTERVAL_S = 0.01
#: Stable-and-equal polls required to declare a round quiescent.
_STABLE_POLLS = 2
#: Stable-but-unequal polls after which the gap is declared severed.
_SEVERED_POLLS = 20


class ReplicaDied(RuntimeError):
    """A replica process exited when it was expected to be serving."""


def raise_for_status(response: Response) -> Response:
    """Map an error response onto the harness's exception types."""
    if response.ok:
        return response
    if response.status == frames.ERR_ROUTING:
        raise KVRoutingError(response.error or "routing error")
    if response.status == frames.ERR_TYPE:
        raise ValueError(response.error or "typed operation rejected")
    raise RuntimeError(
        f"replica error ({response.status}): {response.error or 'unknown'}"
    )


class ControlClient:
    """One synchronous client/control connection to a replica process."""

    def __init__(self, host: str, port: int, *, timeout_s: float = 30.0) -> None:
        self.address = (host, port)
        self.timeout_s = timeout_s
        self._sock: Optional[socket.socket] = None
        self._ids = itertools.count(1)

    def _connection(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(self.address, timeout=self.timeout_s)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def request(self, verb: int, **fields: Any) -> Response:
        """One request/response exchange (raises on error statuses)."""
        request = Request(next(self._ids), verb, **fields)
        sock = self._connection()
        try:
            frames.send_frame(sock, frames.encode_request(request))
            response = frames.decode_response(frames.recv_frame(sock))
        except (ConnectionError, socket.timeout, OSError):
            self.close()
            raise
        return raise_for_status(response)

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None


class _ProcMetrics:
    """The slice of ``MetricsCollector`` the experiment tables read,
    aggregated from per-process STAT/COUNTERS reports (dead
    incarnations' totals are folded in at kill time)."""

    def __init__(self, cluster: "ProcessCluster") -> None:
        self._cluster = cluster

    @property
    def message_count(self) -> int:
        return self._cluster._sum_stat("messages")

    def total_payload_bytes(self) -> int:
        return self._cluster._sum_stat("payload_bytes")

    def total_metadata_bytes(self) -> int:
        return self._cluster._sum_stat("metadata_bytes")

    def average_memory_bytes(self) -> float:
        samples = self._cluster._memory_samples
        return sum(samples) / len(samples) if samples else 0.0


class ProcessCluster:
    """A cluster of one-replica OS processes behind the control plane."""

    def __init__(
        self,
        n_replicas: int,
        *,
        shards: int = 32,
        replication: int = 3,
        algorithm: str = "delta-based-bp-rr",
        antientropy: Optional[AntiEntropyConfig] = None,
        recovery: str = "wal",
        wal_compact_bytes: Optional[int] = 64 * 1024,
        run_dir: Optional[str] = None,
        trace_dir: Optional[str] = None,
        spawn_timeout_s: float = 30.0,
        settle_timeout_s: float = 30.0,
        max_drain_rounds: int = 64,
    ) -> None:
        if recovery not in ("repair", "wal", "wal+repair"):
            raise ValueError(f"unknown recovery policy {recovery!r}")
        self.shards = shards
        self.replication = replication
        self.algorithm = algorithm
        self.antientropy = antientropy if antientropy is not None else AntiEntropyConfig()
        self.recovery = recovery
        self.wal_compact_bytes = wal_compact_bytes
        self.spawn_timeout_s = spawn_timeout_s
        self.settle_timeout_s = settle_timeout_s
        self.max_drain_rounds = max_drain_rounds

        self._owns_run_dir = run_dir is None
        self.run_dir = (
            tempfile.mkdtemp(prefix="repro-serve-") if run_dir is None else run_dir
        )
        os.makedirs(self.run_dir, exist_ok=True)
        self.trace_dir = trace_dir
        self.tracer = None
        if trace_dir is not None:
            os.makedirs(self.trace_dir, exist_ok=True)
            from repro.obs.trace import FileTraceSink, Tracer

            # The controller's own stream carries the experiment
            # structure (cell markers, faults, ring changes) that
            # per-replica files cannot know about.
            self.tracer = Tracer(
                FileTraceSink(os.path.join(self.trace_dir, "controller.jsonl"))
            )
            epoch = time.monotonic()
            self.tracer.bind(
                lambda: (time.monotonic() - epoch) * 1000.0,
                lambda: self.rounds_run,
            )

        self.replicas: List[int] = list(range(n_replicas))
        self.ring = HashRing(
            self.replicas, n_shards=shards, replication=replication
        )
        self.down: Set[int] = set()
        self.rounds_run = 0
        self.updates_skipped = 0
        self.messages_dropped = 0  # no loss model on the real wire
        self.messages_severed = 0
        self.timers = None  # the controller runs no in-process hot path

        self._procs: Dict[int, subprocess.Popen] = {}
        self._ports: Dict[int, Dict[str, int]] = {}
        self._controls: Dict[int, ControlClient] = {}
        self._groups: Optional[Tuple[frozenset, ...]] = None
        #: Last COUNTERS/STAT seen per live replica (folded into the
        #: base accumulators when the process is killed).
        self._last_counters: Dict[int, Dict[str, int]] = {}
        self._last_stats: Dict[int, Dict[str, Any]] = {}
        self._base_counters: Dict[str, int] = {"sent": 0, "delivered": 0, "blocked": 0}
        self._base_stats: Dict[str, int] = {}
        self._base_registry: Dict[str, float] = {}
        #: Frames written to the wire that can never be delivered (the
        #: receiver was SIGKILLed with them in flight) — the settled
        #: remainder the quiescence check accepts.
        self._severed_total = 0
        self._memory_samples: List[float] = []
        self.metrics = _ProcMetrics(self)
        #: Graceful SHUTDOWN requests that failed at teardown (peer
        #: already dead or mid-exit); the SIGKILL/wait fallback below
        #: still reaps the process, this only counts the misses.
        self.shutdown_errors = 0

        self._closed = False
        try:
            for replica in self.replicas:
                self._spawn(replica)
            self._await_portfiles(self.replicas)
            for replica in self.replicas:
                self._connect(replica)
            self._wire_all()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Process lifecycle.
    # ------------------------------------------------------------------

    def _wal_dir(self, replica: int) -> str:
        # One directory per replica: the advisory lock is per-directory,
        # and a respawn must find exactly its predecessor's logs.
        return os.path.join(self.run_dir, "wal", f"r{replica:03d}")

    def _spawn(self, replica: int) -> None:
        port_path = portfile_path(self.run_dir, replica)
        if os.path.exists(port_path):
            os.remove(port_path)
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "serve-replica",
            "--replica",
            str(replica),
            "--replica-set",
            ",".join(str(r) for r in self.replicas),
            "--run-dir",
            self.run_dir,
            "--shards",
            str(self.shards),
            "--replication",
            str(self.replication),
            "--algorithm",
            self.algorithm,
            "--recovery",
            self.recovery,
            "--repair",
            str(self.antientropy.repair_interval),
            "--repair-mode",
            self.antientropy.repair_mode,
            "--repair-fanout",
            str(self.antientropy.repair_fanout),
        ]
        if self.recovery != "repair":
            cmd += ["--wal-dir", self._wal_dir(replica)]
            if self.wal_compact_bytes is not None:
                cmd += ["--wal-compact-bytes", str(self.wal_compact_bytes)]
        if self.antientropy.budget_bytes is not None:
            cmd += ["--budget", str(self.antientropy.budget_bytes)]
        if not self.antientropy.batch:
            cmd += ["--no-batch"]
        if self.trace_dir is not None:
            cmd += ["--trace-dir", self.trace_dir]
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        log = open(os.path.join(self.run_dir, f"r{replica:03d}.log"), "ab")
        try:
            self._procs[replica] = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env
            )
        finally:
            log.close()

    def _await_portfiles(self, replicas: Sequence[int]) -> None:
        deadline = time.monotonic() + self.spawn_timeout_s
        pending = list(replicas)
        while pending:
            replica = pending[0]
            path = portfile_path(self.run_dir, replica)
            if os.path.exists(path):
                with open(path, "r", encoding="utf-8") as handle:
                    self._ports[replica] = json.load(handle)
                pending.pop(0)
                continue
            proc = self._procs.get(replica)
            if proc is not None and proc.poll() is not None:
                raise ReplicaDied(
                    f"replica {replica} exited with {proc.returncode} before "
                    f"publishing its ports; see {self.run_dir}/r{replica:03d}.log"
                )
            if time.monotonic() > deadline:
                raise TransportStalled(
                    f"replica {replica} did not publish ports within "
                    f"{self.spawn_timeout_s}s"
                )
            time.sleep(0.01)

    def _connect(self, replica: int) -> None:
        ports = self._ports[replica]
        self._controls[replica] = ControlClient(
            HOST, ports["client_port"], timeout_s=self.settle_timeout_s
        )

    def _control(self, replica: int) -> ControlClient:
        if replica in self.down:
            raise ReplicaDied(f"replica {replica} is down")
        return self._controls[replica]

    @property
    def live(self) -> List[int]:
        return [r for r in self.replicas if r not in self.down]

    def client_addresses(self) -> Dict[int, Tuple[str, int]]:
        """Replica → client-plane address, live replicas only."""
        return {
            r: (HOST, self._ports[r]["client_port"]) for r in self.live
        }

    def replayed_shards(self, replica: int) -> int:
        """Shards the replica's current incarnation restored from WAL."""
        return int(self._ports[replica].get("replayed_shards", 0))

    # ------------------------------------------------------------------
    # Wiring: addresses, down set, partition-blocked sets, round.
    # ------------------------------------------------------------------

    def _blocked_for(self, replica: int) -> List[int]:
        if self._groups is None:
            return []
        for group in self._groups:
            if replica in group:
                return sorted(set(self.replicas) - group)
        return []

    def _wire_all(self, *, reconnect: Sequence[int] = ()) -> None:
        addresses = {
            str(r): [HOST, self._ports[r]["peer_port"]] for r in self.live
        }
        for replica in self.live:
            self._control(replica).request(
                frames.WIRE,
                body={
                    "addresses": addresses,
                    "down": sorted(self.down),
                    "blocked": self._blocked_for(replica),
                    "round": self.rounds_run,
                    "reconnect": [r for r in reconnect if r != replica],
                },
            )

    # ------------------------------------------------------------------
    # Driving rounds.
    # ------------------------------------------------------------------

    def apply_update(self, node: int, update: KVUpdate) -> None:
        """Apply one pre-routed typed write at its owner replica."""
        self._control(node).request(
            frames.PUT, key=update.key, op=update.op, args=tuple(update.args)
        )

    def run_round(
        self, updates: Optional[Callable[[int], Sequence[KVUpdate]]] = None
    ) -> None:
        """One synchronization interval: updates, ticks, settle."""
        if updates is not None:
            for node in self.replicas:
                ops = updates(node)
                if not ops:
                    continue
                if node in self.down:
                    self.updates_skipped += len(ops)
                    continue
                for op in ops:
                    self.apply_update(node, op)
        for node in self.live:
            self._control(node).request(frames.TICK)
        self._settle()
        self.rounds_run += 1
        self._sample()
        if self.tracer is not None:
            self.tracer.emit("round", round=self.rounds_run - 1)

    def run_rounds(
        self, rounds: int, updates_for: Optional[Callable] = None
    ) -> None:
        for round_index in range(rounds):
            if updates_for is None:
                self.run_round(None)
            else:
                self.run_round(
                    lambda node, r=round_index: updates_for(r, node)
                )

    def _counters(self, replica: int) -> Dict[str, int]:
        body = self._control(replica).request(frames.COUNTERS).body
        counters = {
            "sent": int(body["sent"]),
            "delivered": int(body["delivered"]),
            "blocked": int(body["blocked"]),
        }
        self._last_counters[replica] = counters
        return counters

    def _settle(self) -> None:
        """Poll until the peer plane is quiescent (see module doc)."""
        deadline = time.monotonic() + self.settle_timeout_s
        previous: Optional[Dict[int, Dict[str, int]]] = None
        stable = 0
        while True:
            vector = {r: self._counters(r) for r in self.live}
            sent = self._base_counters["sent"] + sum(
                v["sent"] for v in vector.values()
            )
            delivered = self._base_counters["delivered"] + sum(
                v["delivered"] for v in vector.values()
            )
            if vector == previous:
                stable += 1
            else:
                stable = 0
                previous = vector
            balanced = sent - self._severed_total == delivered
            if stable >= _STABLE_POLLS and balanced:
                return
            if stable >= _SEVERED_POLLS:
                # Stable but unbalanced: the missing frames were in
                # flight to (or counted by) a process that no longer
                # exists.  Account them as severed and move on.
                gap = sent - self._severed_total - delivered
                if gap > 0:
                    self.messages_severed += gap
                self._severed_total += gap
                return
            if time.monotonic() > deadline:
                raise TransportStalled(
                    f"round {self.rounds_run}: no quiescence within "
                    f"{self.settle_timeout_s}s (sent={sent}, "
                    f"delivered={delivered}, severed={self._severed_total})"
                )
            time.sleep(_POLL_INTERVAL_S)

    def _sample(self) -> None:
        """Refresh per-replica STAT snapshots; sample memory."""
        for replica in self.live:
            stat = self._control(replica).request(frames.STAT).body
            self._last_stats[replica] = stat
            self._memory_samples.append(float(stat.get("memory_bytes", 0)))

    # ------------------------------------------------------------------
    # Faults.
    # ------------------------------------------------------------------

    def crash(self, node: int, *, lose_state: bool = True) -> None:
        """SIGKILL the replica process.

        A real process death always loses memory and staged WAL
        records; ``lose_state`` exists for driver compatibility and
        must be True — a warm crash has no process-level analogue.
        The WAL directory survives on disk, which is exactly the
        ``lose_state=True``-with-durable-disk model of the in-process
        harness.
        """
        if not lose_state:
            raise ValueError(
                "ProcessCluster.crash is always lose_state=True: SIGKILL "
                "cannot preserve process memory"
            )
        if node in self.down:
            return
        proc = self._procs.get(node)
        if proc is None:
            raise ReplicaDied(f"replica {node} was never spawned")
        self._fold_dead(node)
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        control = self._controls.pop(node, None)
        if control is not None:
            control.close()
        self.down.add(node)
        if self.tracer is not None:
            self.tracer.emit("crash", replica=node)
        # Survivors refuse sends to the corpse immediately (blocked,
        # feeding suspicion) instead of timing out on dead sockets.
        self._wire_all()

    def recover(self, node: int) -> None:
        """Respawn over the surviving WAL directory and rejoin."""
        if node not in self.down:
            return
        self._spawn(node)
        self._await_portfiles([node])
        self._connect(node)
        self.down.discard(node)
        if self.tracer is not None:
            self.tracer.emit(
                "recover",
                replica=node,
                extra={"replayed_shards": self.replayed_shards(node)},
            )
        # The WIRE carries the current round: the fresh store realigns
        # its scheduler clock and warms the δ-paths its replay covered.
        self._wire_all(reconnect=[node])

    def partition(self, *groups: Iterable[int]) -> None:
        explicit = [frozenset(group) for group in groups]
        seen: Set[int] = set()
        for group in explicit:
            unknown = [n for n in group if n not in self.replicas]
            if unknown:
                raise ValueError(f"no such replicas {sorted(unknown)}")
            if group & seen:
                raise ValueError("partition groups must be disjoint")
            seen |= group
        rest = frozenset(self.replicas) - seen
        if rest:
            explicit.append(rest)
        self._groups = tuple(explicit)
        if self.tracer is not None:
            self.tracer.emit(
                "partition",
                extra={"groups": [sorted(group) for group in self._groups]},
            )
        self._wire_all()

    def heal(self) -> None:
        self._groups = None
        if self.tracer is not None:
            self.tracer.emit("heal")
        self._wire_all()

    # ------------------------------------------------------------------
    # Membership changes (PR 5's handoff protocol over the peer plane).
    # ------------------------------------------------------------------

    def add_replica(self, node: int) -> None:
        """Grow the ring; moved shards hand off as compacted segments."""
        if node in self.replicas:
            raise ValueError(f"replica {node} is already a member")
        self._require_repair("membership changes")
        old_ring = self.ring
        self.replicas = sorted(set(self.replicas) | {node})
        new_ring = HashRing(
            self.replicas, n_shards=self.shards, replication=self.replication
        )
        self._spawn(node)
        self._await_portfiles([node])
        self._connect(node)
        self._wire_all(reconnect=[node])
        self._swap_ring(old_ring, new_ring, skip=(node,))

    def decommission_replica(self, node: int) -> None:
        """Shrink the ring; the leaving replica sources its shards out."""
        if node not in self.replicas or node in self.down:
            raise ValueError(f"replica {node} is not a live member")
        if len(self.replicas) - 1 < self.replication:
            raise ValueError(
                "cannot decommission below the replication factor"
            )
        self._require_repair("membership changes")
        old_ring = self.ring
        remaining = [r for r in self.replicas if r != node]
        new_ring = HashRing(
            remaining, n_shards=self.shards, replication=self.replication
        )
        self._swap_ring(old_ring, new_ring, skip=())
        # The leaving process keeps running as a handoff source until
        # drained; the ring (and the clients) already exclude it.

    def _require_repair(self, what: str) -> None:
        if self.antientropy.repair_interval < 1:
            raise ValueError(
                f"{what} require repair: construct the cluster with "
                "AntiEntropyConfig(repair_interval >= 1)"
            )

    def _swap_ring(
        self, old_ring: HashRing, new_ring: HashRing, *, skip: Sequence[int]
    ) -> None:
        """APPLY_RING everywhere, then nominate handoff sources.

        The transfer plan is the in-process one minus content
        inspection (the controller cannot cheaply see shard states):
        for each moved shard the preferred source is a live owner that
        is *leaving* the group (shipping is its exit path), falling
        back to an owner staying put.
        """
        moved = tuple(old_ring.moved_shards(new_ring))
        transfers: List[Tuple[int, int, int]] = []
        retain: Dict[int, Set[int]] = {}
        for shard in moved:
            old_owners = old_ring.shard_owners(shard)
            new_owners = set(new_ring.shard_owners(shard))
            gaining = sorted(r for r in new_owners if r not in old_owners)
            if not gaining:
                continue
            live_old = [o for o in old_owners if o not in self.down]
            live_losing = [o for o in live_old if o not in new_owners]
            remaining = [o for o in live_old if o in new_owners]
            ordered = live_losing + remaining
            if not ordered:
                continue  # unsourced: digest repair is the backstop
            source = ordered[0]
            if source not in new_owners:
                retain.setdefault(source, set()).add(shard)
            for dst in gaining:
                transfers.append((shard, source, dst))
        self.ring = new_ring
        replicas_body = [int(r) for r in new_ring.replicas]
        for replica in self.live:
            if replica in skip:
                continue
            self._control(replica).request(
                frames.APPLY_RING,
                body={
                    "replicas": replicas_body,
                    "retain": sorted(retain.get(replica, ())),
                    "fence": True,
                },
            )
        if self.tracer is not None:
            self.tracer.emit(
                "ring-change",
                extra={
                    "replicas": replicas_body,
                    "moved_shards": list(moved),
                    "transfers": [list(t) for t in transfers],
                },
            )
        for shard, source, dst in transfers:
            self._control(source).request(
                frames.HANDOFF, body={"shard": shard, "dst": dst}
            )

    # ------------------------------------------------------------------
    # Convergence and draining.
    # ------------------------------------------------------------------

    def _roots(self) -> Dict[int, Dict[str, Optional[str]]]:
        return {
            replica: self._control(replica).request(frames.ROOTS).body["roots"]
            for replica in self.live
        }

    def converged(self) -> bool:
        """Per-shard root-hash agreement across every live owner group."""
        roots = self._roots()
        for shard in range(self.ring.n_shards):
            seen = set()
            for owner in self.ring.shard_owners(shard):
                if owner in self.down:
                    continue
                seen.add(roots.get(owner, {}).get(str(shard)))
            if len(seen) > 1:
                return False
        return True

    def pending_handoffs(self) -> int:
        total = 0
        for replica in self.live:
            stat = self._last_stats.get(replica)
            if stat is None:
                stat = self._control(replica).request(frames.STAT).body
                self._last_stats[replica] = stat
            total += int(stat.get("pending_handoffs", 0))
        return total

    def drain(self) -> int:
        """Rounds (no updates) until converged and handoffs settled."""
        rounds = 0
        for _ in range(self.max_drain_rounds):
            self._sample()  # refresh pending_handoffs views
            if self.converged() and self.pending_handoffs() == 0:
                return rounds
            self.run_round(None)
            rounds += 1
        self._sample()
        if self.pending_handoffs():
            raise RuntimeError(
                f"{self.pending_handoffs()} shard handoffs failed to settle "
                f"within {self.max_drain_rounds} drain rounds"
            )
        if not self.converged():
            raise RuntimeError(
                f"no convergence within {self.max_drain_rounds} drain rounds"
            )
        return rounds

    # ------------------------------------------------------------------
    # Aggregated stats (the `_measure_cell` surface).
    # ------------------------------------------------------------------

    def _fold_dead(self, replica: int) -> None:
        """Fold a doomed process's last-known totals into the bases.

        Kills happen at round boundaries, right after ``_settle`` and
        ``_sample`` refreshed the caches, so the fold loses at most the
        (empty) activity since the last quiescent poll.
        """
        counters = self._last_counters.pop(replica, None)
        if counters is not None:
            for key, value in counters.items():
                self._base_counters[key] = self._base_counters.get(key, 0) + value
        stat = self._last_stats.pop(replica, None)
        if stat is not None:
            for key in ("messages", "payload_bytes", "metadata_bytes", "client_ops"):
                self._base_stats[key] = self._base_stats.get(key, 0) + int(
                    stat.get(key, 0)
                )
            for name, value in stat.get("registry", {}).items():
                self._base_registry[name] = self._base_registry.get(name, 0) + value

    def _sum_stat(self, key: str) -> int:
        total = self._base_stats.get(key, 0)
        for replica in self.live:
            stat = self._last_stats.get(replica)
            if stat is not None:
                total += int(stat.get(key, 0))
        return total

    def _registry_totals(self) -> Dict[str, float]:
        totals = dict(self._base_registry)
        for replica in self.live:
            stat = self._last_stats.get(replica)
            if stat is None:
                stat = self._control(replica).request(frames.STAT).body
                self._last_stats[replica] = stat
            for name, value in stat.get("registry", {}).items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def scheduler_stats(self) -> dict:
        prefix = "scheduler."
        return {
            name[len(prefix):]: value
            for name, value in self._registry_totals().items()
            if name.startswith(prefix)
        }

    def wal_stats(self) -> dict:
        prefix = "wal."
        return {
            name[len(prefix):]: value
            for name, value in self._registry_totals().items()
            if name.startswith(prefix)
        }

    def stat(self, replica: int) -> Dict[str, Any]:
        """One live replica's full STAT report (fresh)."""
        stat = self._control(replica).request(frames.STAT).body
        self._last_stats[replica] = stat
        return stat

    # ------------------------------------------------------------------
    # Teardown.
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for replica, control in list(self._controls.items()):
            try:
                control.request(frames.SHUTDOWN)
            except (OSError, FrameError, RuntimeError):
                # Expected at teardown: a SIGKILLed or already-exiting
                # replica refuses the connection (OSError family),
                # closes mid-frame (FrameError), or answers with an
                # error status (RuntimeError).  The wait/kill fallback
                # below reaps it regardless; count the miss so tests
                # and post-mortems can see ungraceful shutdowns.
                self.shutdown_errors += 1
            control.close()
        self._controls.clear()
        deadline = time.monotonic() + 5.0
        for replica, proc in self._procs.items():
            if proc.poll() is not None:
                continue
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self.tracer is not None:
            self.tracer.close()

    def __enter__(self) -> "ProcessCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - defensive cleanup
        try:
            self.close()
        except (OSError, RuntimeError) as exc:
            # A destructor must not raise; anything the narrowed
            # handlers inside close() did not absorb (socket teardown,
            # interpreter-shutdown state) is reported the way CPython
            # reports unclosed resources rather than swallowed.
            warnings.warn(
                f"ProcessCluster.__del__: close failed: {exc!r}",
                ResourceWarning,
                source=self,
            )
