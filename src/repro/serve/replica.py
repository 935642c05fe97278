"""One OS process serving one replica of the sharded CRDT store.

This is the jump from "harness that converges" to "system that
serves": where :class:`~repro.net.tcp.AsyncTcpTransport` hosts every
replica inside one asyncio loop, a :class:`ReplicaProcess` is a real
process with its own event loop, its own WAL directory (advisory-locked
— see :class:`~repro.wal.storage.FileStorage`), and two listening
sockets:

* the **peer plane** is :class:`~repro.net.tcp.TcpPeerPlane`, the one
  the in-process TCP transport runs on, hosting this replica's store
  behind a :class:`~repro.net.runtime.ReplicaRuntime`, so the
  synchronizers, the repair escalation, and the handoff protocol run
  unmodified over genuinely separate processes;
* the **client/control plane** speaks :mod:`repro.serve.frames` — the
  get/put/remove/repair data verbs a :class:`~repro.serve.client.
  KVClient` uses and the wire/tick/counters/roots control verbs the
  :class:`~repro.serve.cluster.ProcessCluster` controller drives
  rounds with.

Startup is the WAL-first recovery story run for real: the
process opens (and locks) its ``FileStorage`` directory, replays every
owned shard locally, and joins the cluster with only the genuinely
divergent remainder left for digest repair.  On boot it binds both
listeners on ephemeral ports and writes a small JSON *portfile* into
the run directory; the controller collects these and distributes the
address map with a WIRE command — replicas never guess each other's
ports.

The process deliberately has **no timers of its own**: anti-entropy
runs when the controller says TICK, exactly like the round-stepped
transports, so experiment schedules stay deterministic and comparable.
TICK answers, and a peer frame counts as delivered, only once the
sends they caused are flushed: the controller's quiescence check
(sent == delivered, stable across polls) relies on it.  Everything
store-touching runs on the single event-loop thread, so handler
interleaving is the only concurrency and the store needs no locks.
"""

from __future__ import annotations

import asyncio
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.codec import CodecError, decode, encode
from repro.kv.antientropy import AntiEntropyConfig
from repro.kv.ring import HashRing
from repro.kv.store import KVRoutingError, KVStore, KVUpdate
from repro.kv.types import Schema
from repro.lattice.map_lattice import MapLattice
from repro.net.runtime import ReplicaRuntime
from repro.net.tcp import HOST, TcpPeerPlane, read_frame
from repro.serve import frames
from repro.serve.frames import Request, Response
from repro.sim.metrics import MessageRecord
from repro.sim.network import ClusterConfig
from repro.sim.topology import Topology
from repro.sync.protocol import Message
from repro.wal import FileStorage, ReplicaWal, WalConfig

#: Seconds the shutdown handler waits for the response frame to flush
#: before tearing the loop down.
_SHUTDOWN_GRACE_S = 0.2


@dataclass(frozen=True)
class ReplicaOptions:
    """Everything one replica process needs to build its store.

    Every process of a cluster is started with the same shape
    parameters (`replicas`, `shards`, `replication`), so each one
    reconstructs the *identical* :class:`~repro.kv.ring.HashRing`
    locally — placement is a pure function of those parameters, and
    never travels over the wire.
    """

    replica: int
    replicas: Tuple[int, ...]
    run_dir: str
    shards: int = 32
    replication: int = 3
    algorithm: str = "delta-based-bp-rr"
    #: ``None`` disables the WAL (the ``repair`` recovery policy);
    #: otherwise the directory this replica's logs live in.
    wal_dir: Optional[str] = None
    #: ``wal`` replays and trusts the log; ``wal+repair`` replays and
    #: marks every δ-path suspect (immediate verification probes).
    recovery: str = "wal"
    wal_compact_bytes: Optional[int] = 64 * 1024
    budget_bytes: Optional[int] = None
    repair_interval: int = 0
    repair_fanout: int = 1
    repair_mode: str = "blanket"
    batch: bool = True
    #: Directory for this process's trace file (``None`` = off); the
    #: file is named ``r{replica:03d}.jsonl`` and stamped with
    #: ``origin=replica`` so a directory of them merges offline.
    trace_dir: Optional[str] = None

    def antientropy(self) -> AntiEntropyConfig:
        return AntiEntropyConfig(
            budget_bytes=self.budget_bytes,
            repair_interval=self.repair_interval,
            repair_fanout=self.repair_fanout,
            repair_mode=self.repair_mode,
            batch=self.batch,
        )

    def ring(self) -> HashRing:
        return HashRing(
            self.replicas, n_shards=self.shards, replication=self.replication
        )


def portfile_path(run_dir: str, replica: int) -> str:
    """Where replica ``replica`` publishes its bound ports."""
    return os.path.join(run_dir, f"r{replica:03d}.ports.json")


class _WireTotals:
    """The sent-message totals STAT reports: a collector that keeps
    sums, not the per-message records a long-lived process cannot."""

    def __init__(self) -> None:
        self.messages = 0
        self.payload_bytes = 0
        self.metadata_bytes = 0

    def record_message(self, record: MessageRecord) -> None:
        self.messages += 1
        self.payload_bytes += record.payload_bytes
        self.metadata_bytes += record.metadata_bytes


class ReplicaProcess(TcpPeerPlane):
    """The serving loop: one replica on the tcp peer plane, one client listener."""

    def __init__(self, options: ReplicaOptions) -> None:
        n_nodes = max(options.replicas) + 1
        # An all-to-all overlay; the real wire has no loss model.
        peers = tuple(tuple(p for p in range(n_nodes) if p != r) for r in range(n_nodes))
        super().__init__(ClusterConfig(Topology("replica-set", peers)), _WireTotals())
        self.options = options
        self.replica = options.replica
        self.round = 0
        #: Peers the controller's partition puts out of reach (WIRE).
        self.blocked: set = set()
        # Counters the controller's termination detection polls.
        self.frames_sent = 0
        self.frames_delivered = 0
        self.client_ops = 0
        self._shutdown = asyncio.Event()

        if options.trace_dir is not None:
            from repro.obs.trace import FileTraceSink, Tracer

            path = os.path.join(options.trace_dir, f"r{options.replica:03d}.jsonl")
            self.tracer = Tracer(FileTraceSink(path), origin=options.replica)
            self.tracer.bind(lambda: self.now, lambda: self.round)

        self.storage: Optional[FileStorage] = None
        wal: Optional[ReplicaWal] = None
        if options.wal_dir is not None:
            # The advisory lock is the whole point of serving from real
            # processes: a stale twin still holding this replica's
            # directory fails *here*, loudly, before any log is touched.
            self.storage = FileStorage(options.wal_dir, lock=True)
            wal = ReplicaWal(
                options.replica,
                storage=self.storage,
                config=WalConfig(compact_bytes=options.wal_compact_bytes),
                tracer=self.tracer,
            )

        from repro.experiments.kv_sweep import KV_ALGORITHMS

        ring = options.ring()
        neighbors = tuple(r for r in options.replicas if r != options.replica)
        self.store = KVStore(
            replica=options.replica,
            neighbors=neighbors,
            bottom=MapLattice(),
            n_nodes=n_nodes,
            ring=ring,
            inner_factory=KV_ALGORITHMS[options.algorithm],
            schema=Schema(),
            antientropy=options.antientropy(),
            wal=wal,
            tracer=self.tracer,
        )
        #: Shards restored by the boot-time WAL replay (recovery proof
        #: the smoke test asserts on via STAT).
        self.replayed_shards = 0
        if wal is not None:
            self.replayed_shards = self.store.replay_wal(
                verify=options.recovery == "wal+repair"
            )
        self.runtime = ReplicaRuntime(self.store)
        # The one hosted runtime, addressed by its replica index.
        self.runtimes = {self.replica: self.runtime}
        self.runtime.attach(self)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Serve until SHUTDOWN (the ``repro serve-replica`` entrypoint)."""
        asyncio.run(self.serve())

    async def serve(self) -> None:
        peer_port = await self.listen(self.replica)
        client_server = await asyncio.start_server(self._accept_client, HOST, 0)
        client_port = client_server.sockets[0].getsockname()[1]
        self._write_portfile(peer_port, client_port)
        try:
            await self._shutdown.wait()
        finally:
            client_server.close()
            await client_server.wait_closed()
            # Readers from peers that are still serving would never
            # end on their own: cancel them at once.
            await self.close_sockets(grace_s=0)
            if self.tracer is not None:
                self.tracer.close()
            if self.storage is not None:
                # repro: lint-ok[async-blocking-transitive] shutdown-only path after both servers closed; LOCK_UN on a lock we hold returns without waiting
                self.storage.release_lock()

    def _write_portfile(self, peer_port: int, client_port: int) -> None:
        os.makedirs(self.options.run_dir, exist_ok=True)
        path = portfile_path(self.options.run_dir, self.replica)
        payload = json.dumps(
            {
                "replica": self.replica,
                "pid": os.getpid(),
                "peer_port": peer_port,
                "client_port": client_port,
                "replayed_shards": self.replayed_shards,
            }
        )
        # Atomic publish: the controller polls for this file and must
        # never read a torn write.
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # Peer plane: this process's side of the tcp peer plane.
    # ------------------------------------------------------------------

    @property
    def rounds_run(self) -> int:
        return self.round

    def run_round(self, updates=None) -> None:
        """Tick this replica; the caller flushes, the controller settles.
        Writes arrive as PUT requests, never as round ``updates``."""
        if updates is not None:
            raise ValueError("a replica process takes writes as PUT requests")
        self.runtime.tick()
        self.round += 1
        if self.tracer is not None:
            self.tracer.emit("round", round=self.round - 1)

    def _check_addressing(self, src: int, send) -> None:
        """Any replica the controller addressed is a peer: a leaving
        replica drops out of the ring-derived neighbours while its
        handoffs still await replies."""

    def link_up(self, src: int, dst: int) -> bool:
        """Sends go out only to connected peers the partition leaves in reach."""
        return dst not in self.blocked and self.connected(src, dst)

    async def _connect_peers(self) -> None:
        """Close connections to peers that left the address map, which
        holds the live replicas only; dial every addressed peer that has
        none.  Sends to a peer without a connection are refused."""
        for src, dst in list(self._writers):
            if dst not in self.addresses:
                self.disconnect(src, dst)
        for dst in self.addresses:
            if not self.connected(self.replica, dst):
                try:
                    await self.connect(self.replica, dst)
                except OSError:
                    pass  # sends to it are refused until a later dial succeeds

    async def _receive(self, src: int, dst: int, message: Message) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                "deliver",
                replica=src,
                peer=dst,
                kind=message.kind,
                payload_bytes=message.payload_bytes,
                metadata_bytes=message.metadata_bytes,
            )
        self.runtime.deliver(src, message)
        await self.flush()
        # Counted only once the replies are flushed, so the controller
        # never sees this frame consumed but its consequences invisible.
        self.frames_delivered += 1

    def _peer_failed(self, exc: Exception) -> None:
        # A peer that closed or sent a malformed frame costs only its
        # own connection; anything else is a bug worth a traceback.
        if not isinstance(exc, (ConnectionError, CodecError)):
            raise exc

    def _in_flight(self, dst: int, frames: int) -> None:
        self.frames_sent += frames

    # ------------------------------------------------------------------
    # Client/control plane.
    # ------------------------------------------------------------------

    async def _accept_client(self, reader, writer) -> None:
        try:
            while (data := await read_frame(reader)) is not None:
                if await self._serve_request(data, writer):
                    return
        except (ConnectionError, CodecError):
            pass  # a client that closed, or sent an oversized frame
        finally:
            writer.close()

    async def _serve_request(self, data: bytes, writer) -> bool:
        """Handle one framed request; returns True on SHUTDOWN."""
        try:
            request = frames.decode_request(data)
        except frames.FrameError as exc:
            body = frames.encode_response(
                Response(0, frames.ERR_BAD_REQUEST, error=str(exc))
            )
            writer.write(frames.frame(body))
            await writer.drain()
            return False
        try:
            response = await self._handle_request(request)
        except KVRoutingError as exc:
            response = Response(request.id, frames.ERR_ROUTING, error=str(exc))
        except (TypeError, ValueError, KeyError) as exc:
            response = Response(request.id, frames.ERR_TYPE, error=str(exc))
        except Exception as exc:  # anything else: report, keep serving
            response = Response(request.id, frames.ERR_INTERNAL, error=repr(exc))
        writer.write(frames.frame(frames.encode_response(response)))
        await writer.drain()
        if request.verb == frames.SHUTDOWN and response.ok:
            await asyncio.sleep(_SHUTDOWN_GRACE_S)
            self._shutdown.set()
            return True
        return False

    async def _handle_request(self, request: Request) -> Response:
        verb = request.verb
        if verb == frames.GET:
            return self._handle_get(request)
        if verb == frames.PUT:
            self.client_ops += 1
            self._trace_client_op("put", request.key)
            delta = self.runtime.local_update(
                KVUpdate(request.key, request.op, tuple(request.args))
            )
            return Response(request.id, blob=encode(delta))
        if verb == frames.REMOVE:
            self.client_ops += 1
            self._trace_client_op("remove", request.key)
            delta = self.store.remove(request.key)
            return Response(request.id, blob=encode(delta))
        if verb == frames.REPAIR:
            fragment = decode(request.blob)
            if not isinstance(fragment, MapLattice):
                raise ValueError("repair fragment must be a keyspace MapLattice")
            absorbed = self.store.absorb_client_state(
                fragment, payload_bytes=len(request.blob)
            )
            return Response(
                request.id, body={"absorbed": not absorbed.is_bottom}
            )
        if verb == frames.PING:
            return Response(request.id, body={"replica": self.replica})
        if verb == frames.WIRE:
            return await self._handle_wire(request)
        if verb == frames.TICK:
            await self._connect_peers()
            self.run_round()
            await self.flush()
            return Response(request.id, body={"round": self.round})
        if verb == frames.COUNTERS:
            return Response(
                request.id,
                body={
                    "sent": self.frames_sent,
                    "delivered": self.frames_delivered,
                    "blocked": self.messages_blocked,
                },
            )
        if verb == frames.ROOTS:
            roots = {
                str(shard): (
                    root.hex() if (root := self.store.shard_root(shard)) else None
                )
                for shard in sorted(self.store.shards)
            }
            return Response(request.id, body={"roots": roots})
        if verb == frames.STAT:
            return Response(request.id, body=self._stat())
        if verb == frames.APPLY_RING:
            return self._handle_apply_ring(request)
        if verb == frames.HANDOFF:
            self.store.begin_handoff(
                int(request.body["shard"]), int(request.body["dst"])
            )
            return Response(request.id)
        if verb == frames.SHUTDOWN:
            return Response(request.id, body={"replica": self.replica})
        return Response(
            request.id,
            frames.ERR_BAD_REQUEST,
            error=f"unhandled verb {frames.verb_name(verb)}",
        )

    def _handle_get(self, request: Request) -> Response:
        self.client_ops += 1
        self._trace_client_op("get", request.key)
        value = self.store.value_lattice(request.key)
        if value is None:
            # Owned but unwritten: OK with no blob (blob=None encodes
            # as "absent", distinct from an encoded bottom).
            self.store._route(request.key)  # raises KVRoutingError if unowned
            return Response(request.id)
        return Response(request.id, blob=encode(value))

    def _trace_client_op(self, kind: str, key: Any) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                "client-op",
                replica=self.replica,
                kind=kind,
                label=str(key),
            )

    async def _handle_wire(self, request: Request) -> Response:
        body = request.body
        if "addresses" in body:
            self.addresses = {
                int(replica): (str(host), int(port))
                for replica, (host, port) in body["addresses"].items()
                if int(replica) != self.replica
            }
        if "blocked" in body:
            self.blocked = {int(r) for r in body["blocked"]}
        # A respawned peer has a fresh socket: drop the connection to
        # its predecessor so the dial below reaches the new address.
        for dst in body.get("reconnect", ()):
            self.disconnect(self.replica, int(dst))
        await self._connect_peers()
        round_value = int(body.get("round", 0))
        if round_value > self.round:
            # A respawned process joining mid-run: realign the repair
            # scheduler with the cluster round so replayed δ-paths are
            # warm and coldness thresholds keep their meaning.
            self.round = round_value
            self.runtime.restore_clock(round_value)
        return Response(request.id, body={"round": self.round})

    def _handle_apply_ring(self, request: Request) -> Response:
        body = request.body
        replicas = tuple(int(r) for r in body["replicas"])
        ring = HashRing(
            replicas,
            n_shards=self.options.shards,
            replication=self.options.replication,
        )
        # Membership grew or shrank: the overlay is always the full
        # replica set, so refresh the reachability view first.
        self.store.neighbors = tuple(r for r in replicas if r != self.replica)
        self.store.n_nodes = max(
            self.store.n_nodes, max(replicas) + 1 if replicas else 0
        )
        self.store.apply_ring(
            ring,
            retain=frozenset(int(s) for s in body.get("retain", ())),
            fence=bool(body.get("fence", True)),
        )
        return Response(request.id, body={"shards": sorted(self.store.shards)})

    def _stat(self) -> Dict[str, Any]:
        snapshot = {
            name: value
            for name, value in self.store.registry.snapshot().items()
            if isinstance(value, (int, float))
        }
        return {
            "replica": self.replica,
            "pid": os.getpid(),
            "round": self.round,
            "messages": self.metrics.messages,
            "payload_bytes": self.metrics.payload_bytes,
            "metadata_bytes": self.metrics.metadata_bytes,
            "blocked": self.messages_blocked,
            "client_ops": self.client_ops,
            "pending_handoffs": self.store.scheduler.pending_handoffs(),
            "replayed_shards": self.replayed_shards,
            "state_bytes": self.store.state_bytes(),
            "memory_bytes": self.store.state_bytes()
            + self.store.buffer_bytes()
            + self.store.metadata_bytes(),
            "shards": len(self.store.shards),
            "registry": snapshot,
        }
