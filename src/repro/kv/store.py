"""The per-replica engine of the sharded CRDT key-value store.

:class:`KVStore` is one replica's store process.  It owns a slice of
the keyspace — one :class:`~repro.lattice.map_lattice.MapLattice` of
``key → CRDT state`` per shard the ring places here — and runs one
inner synchronizer per shard, built from any
:class:`~repro.sync.protocol.Synchronizer` factory: state-based,
delta-based with BP/RR, Scuttlebutt, keyed, or Merkle-digest.  Each
inner instance's neighbourhood is the shard's *replica group*, so
anti-entropy traffic flows only between co-owners, not the whole
cluster.

Outwardly the store is itself a :class:`Synchronizer`, which is what
lets one :class:`~repro.net.runtime.ReplicaRuntime` host it unmodified
over any :class:`~repro.net.transport.Transport` — the deterministic
simulator or real asyncio TCP sockets:

* ``local_update`` consumes a :class:`KVUpdate` — a typed operation on
  one key — resolves the key's type through the :class:`~repro.kv.
  types.Schema`, computes the optimal δ of the mutation against the
  key's current value, and hands the one-key keyspace delta to the
  owning shard's synchronizer;
* ``sync_messages`` asks the :class:`~repro.kv.antientropy.
  AntiEntropyScheduler` which shards to serve this tick (send budget,
  round-robin fairness, repair scheduling) and packages the result onto
  the wire, optionally batching all same-destination shard messages
  into one framed message;
* ``handle_message`` demultiplexes arriving wire messages back to the
  shard instances and re-packages any immediate replies.

Repair rides alongside the inner protocols on three wire kinds:

* ``kv-digest`` — a divergence probe: one root hash over the shard's
  irreducible-set digest (:func:`repro.sync.digest.root_of`,
  ``ROOT_BYTES``).  A receiver whose root matches stays silent; the
  exchange cost O(hash).
* ``kv-diff`` — the mismatch escalation: the responder's irreducible-set
  digest (8-byte fingerprints, :mod:`repro.sync.digest`), from which
  the initiator computes exactly the decomposition the responder lacks.
* ``kv-repair`` — repair content: ``(delta, echo-digest | None)``.  The
  initiator ships the missing delta plus its own digest so the
  responder can answer with the reverse delta; blanket-mode repair uses
  the same kind with the full shard state and no echo.  Absorption goes
  through :meth:`repro.sync.protocol.Synchronizer.absorb_state`, so
  every inner protocol's bookkeeping (δ-buffers, Scuttlebutt versions)
  stays truthful about repaired content.

Ring rebalancing adds three more kinds (:data:`HANDOFF_KINDS`):
``kv-handoff-offer`` announces a moved shard with a root hash,
``kv-handoff-segment`` ships the shard as its compacted WAL records
(the canonical encoded join decomposition), and ``kv-handoff-ack``
completes the exchange — at which point a source that no longer owns
the shard fences and truncates its log.  :meth:`KVStore.apply_ring` is
the membership-swap entry point the cluster drives.

Wire framing adds one shard tag per bundled shard message; payload and
metadata accounting of the inner protocols is preserved unchanged, so
cross-algorithm byte comparisons measured through the store remain as
meaningful as the paper's single-object ones.

When constructed with a :class:`~repro.wal.ReplicaWal`, the store is
also the WAL's write path: every delta that inflates a shard — a local
typed write, the novelty absorbed from a peer's sync message, a repair
absorption — is appended to that shard's log and group-committed once
per tick, and :meth:`KVStore.replay_wal` is the recovery path that
rebuilds a reset replica from its own disk before digest repair covers
the post-crash remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.codec import decode, encode
from repro.kv.antientropy import AntiEntropyConfig, AntiEntropyScheduler
from repro.kv.ring import HashRing
from repro.kv.types import Schema, TypeSpec
from repro.lattice.base import Lattice
from repro.lattice.map_lattice import MapLattice
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.sizes import SizeModel, DEFAULT_SIZE_MODEL
# ``delta_against_digest`` and ``digest_and_missing`` are not called
# here (each shard's IncrementalDigest answers diffs from its cache);
# they stay bound in this module because perfbench's layer tracer wraps
# them under these names.
from repro.sync.digest import (
    FINGERPRINT_BYTES,
    ROOT_BYTES,
    IncrementalDigest,
    delta_against_digest,
    digest_and_missing,
)
from repro.sync.protocol import Message, Send, Synchronizer
from repro.wal import ReplicaWal

#: Wire kinds of the shard-handoff protocol (ring rebalancing).  The
#: exchange per (shard, gaining replica) pair, ``S`` the source (an old
#: owner) and ``G`` the gaining owner:
#:
#:   1. S → G  kv-handoff-offer    (root(S), size hint)   — O(hash)
#:   2. G → S  kv-handoff-ack      (complete?, root)      — roots match ⇒ done
#:   3. S → G  kv-handoff-segment  (compacted WAL records) — the shard
#:   4. G → S  kv-handoff-ack      (complete=True, root(G))
#:
#: On the final ack the source — if it no longer owns the shard —
#: fences and truncates its shard log, so a later re-add cannot replay
#: stale ownership.
HANDOFF_KINDS = ("kv-handoff-offer", "kv-handoff-segment", "kv-handoff-ack")


class KVRoutingError(LookupError):
    """The key is not owned by this replica (ask the ring for owners)."""


def _keyspace_novelty(
    before: MapLattice, after: MapLattice, keys: Optional[Iterable[Hashable]] = None
) -> MapLattice:
    """The optimal delta ``∆(after, before)`` of one shard keyspace.

    ``keys`` names every key that may differ — the keys of the lattice
    joined into ``before`` — so the cost is per-value ``∆`` work only
    where the message actually landed, instead of decomposing the whole
    shard per delivered message.  Without ``keys`` every key of
    ``after`` is visited, and ``MapLattice.join``'s reuse of untouched
    keys' value objects keeps that to one identity check per key.
    """
    if after is before:
        return after.bottom_like()
    previous = before.entries
    current = after.entries
    changed: Dict = {}
    for key in current if keys is None else keys:
        value = current.get(key)
        if value is None:
            continue
        mine = previous.get(key)
        if mine is value:
            continue
        if mine is None:
            changed[key] = value
            continue
        delta = value.delta(mine)
        if not delta.is_bottom:
            changed[key] = delta
    if not changed:
        return after.bottom_like()
    return MapLattice(changed)


@dataclass(frozen=True)
class KVUpdate:
    """One typed write: ``op(*args)`` on ``key``.

    The workload layer pre-draws these and the cluster harness routes
    them to an owner replica, mirroring a smart client that knows the
    ring.
    """

    key: Hashable
    op: str
    args: Tuple = ()


class KVStore(Synchronizer):
    """One replica of the sharded, replicated key-value store."""

    name = "kv-store"

    def __init__(
        self,
        replica: int,
        neighbors: Sequence[int],
        bottom: Lattice,
        n_nodes: int,
        size_model: SizeModel = DEFAULT_SIZE_MODEL,
        *,
        ring: HashRing,
        inner_factory,
        schema: Optional[Schema] = None,
        antientropy: Optional[AntiEntropyConfig] = None,
        wal: Optional[ReplicaWal] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not isinstance(bottom, MapLattice) or not bottom.is_bottom:
            raise TypeError("a KVStore keyspace starts from an empty MapLattice")
        # Synchronizer.__init__ would bind ``self.state``; the store's
        # state is the join of its shard states, exposed as a property.
        self.replica = replica
        self.neighbors = tuple(neighbors)
        self.bottom = bottom
        self.n_nodes = n_nodes
        self.size_model = size_model

        self.ring = ring
        self.inner_factory = inner_factory
        #: The durable per-shard delta log, shared across incarnations
        #: of this replica (``None`` disables write-ahead logging).
        self.wal = wal
        #: δ-paths restored by :meth:`replay_wal`, consumed by
        #: :meth:`restore_clock` once the cluster round is known.
        self._replayed_paths: Tuple[Tuple[int, int], ...] = ()
        #: Shards this replica stopped owning but still sources a
        #: pending handoff from: shard id → the retired synchronizer.
        #: Fenced and dropped once the gaining owner acknowledges.
        self._fencing: Dict[int, Synchronizer] = {}
        #: Wire messages that arrived for a shard the current ring does
        #: not place here — in-flight traffic outrun by a rebalance.
        self.stale_shard_messages = 0
        #: Per-shard indexes (fingerprints, root, sizes), created on
        #: first use and refreshed from the keys :meth:`_touched` marks.
        self._indexes: Dict[int, IncrementalDigest] = {}
        self.schema = schema if schema is not None else Schema()
        #: This replica's metrics registry — the single observability
        #: namespace the runtime's ``metrics`` view exposes.  A cluster
        #: passes one that outlives store rebuilds; standalone stores
        #: get a private one.
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Structured trace destination (``None`` = tracing off).
        self.tracer = tracer
        config = antientropy if antientropy is not None else AntiEntropyConfig()
        owned = ring.shards_owned_by(replica)
        #: shard id → this replica's synchronizer for that shard.
        self.shards: Dict[int, Synchronizer] = {}
        shard_peers: Dict[int, Tuple[int, ...]] = {}
        for shard in owned:
            peers = self._shard_peers_checked(shard, ring)
            self.shards[shard] = self._make_inner(peers)
            shard_peers[shard] = peers
        self.scheduler = AntiEntropyScheduler(
            config, owned, shard_peers, replica=replica, registry=self.registry
        )
        if self.wal is not None:
            # Read-through: wal counters surface in registry snapshots
            # under ``wal.*`` without being double-kept (re-registering
            # after a rebuild just re-binds the same surviving log).
            self.registry.register_view("wal", self.wal.stats)

    def _shard_peers_checked(self, shard: int, ring: HashRing) -> Tuple[int, ...]:
        """The shard's co-owners, verified reachable over the overlay."""
        group = ring.shard_owners(shard)
        reachable = set(self.neighbors) | {self.replica}
        missing = [peer for peer in group if peer not in reachable]
        if missing:
            raise ValueError(
                f"replica {self.replica} cannot reach co-owners {missing} of "
                f"shard {shard}; the cluster topology must connect every "
                "replica group"
            )
        return tuple(peer for peer in group if peer != self.replica)

    def _make_inner(self, peers: Sequence[int]) -> Synchronizer:
        """One shard's inner synchronizer over its replica group."""
        return self.inner_factory(
            replica=self.replica,
            neighbors=peers,
            bottom=self.bottom,
            n_nodes=self.n_nodes,
            size_model=self.size_model,
        )

    def _shard_index(self, shard: int) -> IncrementalDigest:
        """The shard's index (created on first use, fully dirty)."""
        index = self._indexes.get(shard)
        if index is None:
            index = IncrementalDigest(self.size_model)
            self._indexes[shard] = index
        return index

    def _touched(self, shard: int, reached: Lattice) -> None:
        """Mark the keys ``reached`` may have changed in ``shard``.

        Every path that joins a lattice into a shard state calls this
        with that lattice; a shard without an index yet needs nothing.
        """
        index = self._indexes.get(shard)
        if index is not None:
            index.mark(reached)

    def shard_root(self, shard: int) -> Optional[bytes]:
        """The root hash of an owned shard's state, incrementally kept.

        Equal to ``root_of(digest_of(state))`` by construction; ``None``
        when this replica does not hold the shard.  This is the probe
        the repair plane and the convergence-lag sampler compare — the
        index makes asking every round O(1) for quiescent shards.
        """
        inner = self.shards.get(shard)
        if inner is None:
            return None
        return self._shard_index(shard).root(inner.state)

    # ------------------------------------------------------------------
    # Typed client API.
    # ------------------------------------------------------------------

    def owns(self, key: Hashable) -> bool:
        """True when this replica holds a copy of ``key``'s shard."""
        return self.ring.shard_of(key) in self.shards

    def update(self, key: Hashable, op: str, *args) -> Lattice:
        """Apply a typed write locally; return the keyspace delta."""
        return self.local_update(KVUpdate(key, op, tuple(args)))

    def remove(self, key: Hashable) -> Lattice:
        """Remove ``key``'s observed content (observed-remove types only)."""
        shard, shard_sync = self._route(key)
        spec = self.schema.spec_for(key)

        def mutator(keyspace: MapLattice) -> MapLattice:
            current = keyspace.get(key)
            if current is None:
                return keyspace.bottom_like()
            delta = spec.remove_delta(self.replica, current)
            if delta.is_bottom:
                return keyspace.bottom_like()
            return MapLattice({key: delta})

        delta = shard_sync.local_update(mutator)
        self._touched(shard, delta)
        self._wal_append(shard, delta)
        return delta

    def get(self, key: Hashable) -> Any:
        """The typed query-side value of ``key`` at this replica."""
        spec = self.schema.spec_for(key)
        current = self._shard_for(key).state.get(key)
        return spec.read(current if current is not None else spec.bottom())

    def value_lattice(self, key: Hashable) -> Optional[Lattice]:
        """The raw lattice value of ``key`` (``None`` when unwritten)."""
        return self._shard_for(key).state.get(key)

    def keys(self) -> Iterator[Hashable]:
        """Every key with a non-bottom value on this replica."""
        for shard in sorted(self.shards):
            yield from self.shards[shard].state.keys()

    def absorb_client_state(
        self, fragment: MapLattice, *, payload_bytes: Optional[int] = None
    ) -> Lattice:
        """Absorb a client-pushed keyspace fragment (quorum write / read repair).

        The serving layer's second write path: a :class:`~repro.serve.
        client.KVClient` replicating a write to ``w`` owners — or
        pushing the join of divergent read replies back — ships the
        *delta* it already holds instead of re-applying the typed
        operation (which would double-count non-idempotent ops like
        counter increments; the lattice join is idempotent, the op is
        not).  Keys are grouped per owning shard and flow through
        ``absorb_state`` so every inner protocol's bookkeeping stays
        truthful, then into the WAL like any other absorbed novelty.

        Returns the join of what the fragment actually taught this
        replica (bottom when everything was already known).  Raises
        :class:`KVRoutingError` when any key lands on an unowned shard.
        """
        by_shard: Dict[int, Dict[Hashable, Lattice]] = {}
        for key, value in fragment.entries.items():
            shard, _ = self._route(key)
            by_shard.setdefault(shard, {})[key] = value
        if payload_bytes is None:
            _, payload_bytes = self._payload_sizes(fragment)
        self.scheduler.note_read_repair(payload_bytes)
        absorbed_all = fragment.bottom_like()
        for shard in sorted(by_shard):
            inner = self.shards[shard]
            piece = MapLattice(by_shard[shard])
            absorbed = inner.absorb_state(piece, None)
            self._touched(shard, piece)
            # Drain, never send: the client pushes the same fragment to
            # the other owners itself; anti-entropy covers stragglers.
            inner.sync_messages()
            if not absorbed.is_bottom:
                self._wal_append(shard, absorbed)
                absorbed_all = absorbed_all.join(absorbed)
            if self.tracer is not None:
                units, piece_bytes = self._payload_sizes(piece)
                self.tracer.emit(
                    "read-repair",
                    replica=self.replica,
                    shard=shard,
                    payload_bytes=piece_bytes,
                    payload_units=units,
                    extra={
                        "keys": len(piece.entries),
                        "absorbed": not absorbed.is_bottom,
                    },
                )
        return absorbed_all

    def _route(self, key: Hashable) -> Tuple[int, Synchronizer]:
        """Resolve a key to its shard id and synchronizer in one hash."""
        shard = self.ring.shard_of(key)
        sync = self.shards.get(shard)
        if sync is None:
            raise KVRoutingError(
                f"replica {self.replica} does not own key {key!r} "
                f"(shard {shard}, owners {self.ring.shard_owners(shard)})"
            )
        return shard, sync

    def _shard_for(self, key: Hashable) -> Synchronizer:
        return self._route(key)[1]

    # ------------------------------------------------------------------
    # Synchronizer protocol: the store on the simulated cluster.
    # ------------------------------------------------------------------

    @property
    def state(self) -> MapLattice:
        """This replica's merged keyspace view (all owned shards)."""
        merged = self.bottom
        for shard in sorted(self.shards):
            merged = merged.join(self.shards[shard].state)
        return merged

    def local_update(self, delta_mutator) -> Lattice:
        """Apply one :class:`KVUpdate` through the owning shard."""
        if not isinstance(delta_mutator, KVUpdate):
            raise TypeError(
                "a KVStore applies KVUpdate operations, not raw mutators; "
                "use store.update(key, op, *args)"
            )
        op = delta_mutator
        shard, shard_sync = self._route(op.key)
        spec = self.schema.spec_for(op.key)
        replica = self.replica

        def mutator(keyspace: MapLattice) -> MapLattice:
            delta = spec.apply(replica, keyspace.get(op.key), op.op, *op.args)
            if delta.is_bottom:
                return keyspace.bottom_like()
            return MapLattice({op.key: delta})

        delta = shard_sync.local_update(mutator)
        self._touched(shard, delta)
        self._wal_append(shard, delta)
        return delta

    def sync_messages(self) -> List[Send]:
        if self.wal is not None:
            # Group commit: every delta staged since the previous tick —
            # local writes, absorbed sync novelty, repair absorptions —
            # becomes durable in one batch per shard log.  A crash
            # between ticks loses only the records staged after this
            # point, which is the WAL's documented durability boundary.
            self.wal.commit()
        planned, blanket_due, probes_due = self.scheduler.plan(self.shards)
        wire: List[Tuple[int, int, Message]] = []
        for shard, send in planned:
            if send.message.payload_bytes:
                self.scheduler.note_delta_activity(shard, send.dst)
            wire.append((send.dst, shard, send.message))
        for shard in blanket_due:
            inner = self.shards[shard]
            if inner.state.is_bottom:
                continue
            index = self._shard_index(shard)
            units = index.size_units(inner.state)
            payload_bytes = index.size_bytes(inner.state)
            repair = Message(
                kind="kv-repair",
                payload=(inner.state, None),
                payload_units=units,
                payload_bytes=payload_bytes,
                metadata_bytes=0,
            )
            for dst in inner.neighbors:
                wire.append((dst, shard, repair))
        for shard, peers in probes_due:
            inner = self.shards[shard]
            root = self._shard_index(shard).root(inner.state)
            probe = Message(
                kind="kv-digest",
                payload=root,
                payload_units=0,
                payload_bytes=0,
                metadata_bytes=ROOT_BYTES,
                metadata_units=1,
            )
            for dst in peers:
                wire.append((dst, shard, probe))
        for shard, dst, phase in self.scheduler.plan_handoffs():
            inner = self.shards.get(shard)
            if inner is None:
                inner = self._fencing.get(shard)
            if inner is None:
                # The shard's state is gone (e.g. a lose-state rebuild
                # mid-handoff); abandon — the gaining owner's coldness
                # probes will repair it from the surviving co-owners.
                self.scheduler.abandon_handoff(shard, dst)
                self._maybe_finalize_fence(shard)
                continue
            if phase == "offer":
                wire.append((dst, shard, self._handoff_offer(shard, inner)))
            else:
                wire.append((dst, shard, self._handoff_segment_message(shard, inner)))
        return self._package(wire)

    def handle_message(self, src: int, message: Message) -> List[Send]:
        if message.kind == "kv-batch":
            entries = message.payload
        elif message.kind == "kv-shard":
            entries = (message.payload,)
        else:
            raise ValueError(f"unexpected wire message kind {message.kind!r}")
        wire: List[Tuple[int, int, Message]] = []
        for shard, inner_message in entries:
            if inner_message.kind in HANDOFF_KINDS:
                reply = self._handle_handoff(src, shard, inner_message)
                if reply is not None:
                    wire.append((src, shard, reply))
                continue
            inner = self.shards.get(shard)
            if inner is None:
                if self.replica in self.ring.shard_owners(shard):
                    raise KVRoutingError(
                        f"replica {self.replica} received traffic for unowned "
                        f"shard {shard}"
                    )
                # In-flight traffic outrun by a rebalance: the sender
                # addressed an owner group this replica has left.
                self.stale_shard_messages += 1
                continue
            if inner_message.kind in ("kv-repair", "kv-digest", "kv-diff"):
                reply = self._handle_repair(src, shard, inner, inner_message)
                if reply is not None:
                    wire.append((src, shard, reply))
                continue
            if inner_message.payload_bytes:
                self.scheduler.note_delta_activity(shard, src)
            before = inner.state
            for reply in inner.handle_message(src, inner_message):
                if reply.message.payload_bytes:
                    self.scheduler.note_delta_activity(shard, reply.dst)
                wire.append((reply.dst, shard, reply.message))
            if inner.state is before:
                continue
            payload = inner_message.payload
            self._touched(shard, payload)
            if self.wal is not None:
                # What this message actually taught the shard, as an
                # optimal delta against the pre-delivery state.  Logging
                # the inflation (instead of the raw payload) keeps the
                # WAL redundancy-free regardless of the inner protocol's
                # own redundancy behaviour.
                keys = payload.entries if isinstance(payload, MapLattice) else None
                self._wal_append(shard, _keyspace_novelty(before, inner.state, keys))
        return self._package(wire)

    # ------------------------------------------------------------------
    # The repair path: blanket absorption and the digest exchange.
    #
    # Digest-mode repair is a two-round-trip exchange per divergent
    # (shard, peer) δ-path; A is the probing replica, B the peer:
    #
    #   1. A → B  kv-digest  root(A)            — O(hash); match ⇒ done
    #   2. B → A  kv-diff    digest(B)          — fingerprints only
    #   3. A → B  kv-repair  (Δ_B, digest(A))   — what B misses, + echo
    #   4. B → A  kv-repair  (Δ_A, None)        — what A misses
    #
    # Both deltas are inflating join decompositions computed against the
    # other side's digest; no message ever carries redundant state.
    #
    # Repair traffic is accounted by its *receiver*: a message that was
    # refused in transit never reaches a handler and never counts, so
    # the repair-byte comparison reflects what actually crossed the
    # wire.
    # ------------------------------------------------------------------

    def _handle_repair(
        self, src: int, shard: int, inner: Synchronizer, message: Message
    ) -> Optional[Message]:
        if message.kind == "kv-repair":
            delta, echo = message.payload
            # "Did this repair ship content?" is judged on the lattice,
            # not on payload_bytes: over TCP a bottom delta still
            # measures a couple of encoded bytes, and counting it as a
            # repair would make the sim/tcp repair comparison diverge.
            self.scheduler.note_repair_traffic(
                message.payload_bytes,
                message.metadata_bytes,
                with_payload=not delta.is_bottom,
            )
            absorbed = inner.absorb_state(delta, src)
            self._touched(shard, delta)
            if self.tracer is not None:
                self.tracer.emit(
                    "repair-absorb",
                    replica=self.replica,
                    shard=shard,
                    peer=src,
                    payload_bytes=message.payload_bytes,
                    metadata_bytes=message.metadata_bytes,
                    payload_units=message.payload_units,
                    extra={
                        "absorbed": not absorbed.is_bottom,
                        "echo": echo is not None,
                    },
                )
            if not absorbed.is_bottom:
                self.scheduler.note_delta_activity(shard, src)
                self._wal_append(shard, absorbed)
            if echo is None:
                return None
            back = self._shard_index(shard).missing(inner.state, echo)
            if back.is_bottom:
                return None
            return self._repair_message(shard, src, back, echo=None)
        if message.kind == "kv-digest":
            self.scheduler.note_probe()
            self.scheduler.note_repair_traffic(0, message.metadata_bytes)
            index = self._shard_index(shard)
            match = index.root(inner.state) == message.payload
            if self.tracer is not None:
                self.tracer.emit(
                    "repair-probe",
                    replica=self.replica,
                    shard=shard,
                    peer=src,
                    metadata_bytes=message.metadata_bytes,
                    extra={"match": match},
                )
            if match:
                # In sync with the prober: refresh the δ-path clock so
                # we do not immediately counter-probe a healthy pair.
                self.scheduler.note_delta_activity(shard, src)
                return None
            digest = index.digest(inner.state)
            return Message(
                kind="kv-diff",
                payload=digest,
                payload_units=0,
                payload_bytes=0,
                metadata_bytes=len(digest) * FINGERPRINT_BYTES,
                metadata_units=len(digest),
            )
        # kv-diff: the peer diverges; ship what it misses plus our own
        # digest so it can answer with the reverse delta.  Both come
        # from the shard index: only keys holding a fingerprint the
        # peer lacks are decomposed.
        self.scheduler.note_repair_traffic(0, message.metadata_bytes)
        if self.tracer is not None:
            self.tracer.emit(
                "repair-diff",
                replica=self.replica,
                shard=shard,
                peer=src,
                metadata_bytes=message.metadata_bytes,
                metadata_units=message.metadata_units,
            )
        index = self._shard_index(shard)
        echo = index.digest(inner.state)
        delta = index.missing(inner.state, message.payload)
        return self._repair_message(shard, src, delta, echo=echo)

    def _repair_message(
        self, shard: int, dst: int, delta: Lattice, echo
    ) -> Message:
        units, payload_bytes = self._payload_sizes(delta)
        metadata = len(echo) * FINGERPRINT_BYTES if echo is not None else 0
        if payload_bytes:
            self.scheduler.note_delta_activity(shard, dst)
        return Message(
            kind="kv-repair",
            payload=(delta, echo),
            payload_units=units,
            payload_bytes=payload_bytes,
            metadata_bytes=metadata,
            metadata_units=len(echo) if echo is not None else 0,
        )

    # ------------------------------------------------------------------
    # Ring rebalancing: membership swap and the shard-handoff protocol.
    # ------------------------------------------------------------------

    def apply_ring(
        self, ring: HashRing, *, retain=frozenset(), fence: bool = True
    ) -> None:
        """Swap to a new ring mid-run, reshaping the owned-shard set.

        Three shard transitions, all while traffic keeps flowing:

        * **gained** — a fresh (empty) inner synchronizer over the new
          replica group; content arrives through the handoff protocol
          (or, failing that, through digest repair).  A fenced WAL log
          from a previous ownership is reopened — it was truncated at
          fence time, so nothing stale can replay.
        * **lost** — the shard leaves :attr:`shards`.  A shard named in
          ``retain`` sticks around in the fencing set because this
          replica is the designated handoff source; everything else is
          fenced immediately (log truncated, state dropped).  With
          ``fence=False`` — a *crashed* replica being reshaped by the
          cluster — logs are left untouched instead: the down replica
          may hold the only durable copy of a shard no live owner can
          source, and truncating it here would turn a membership change
          into data loss.  CRDT join makes the preserved content safe:
          if the replica later regains the shard, old records join
          below the handed-off state instead of resurrecting it.
        * **kept with a changed group** — the inner synchronizer is
          rebuilt over the new peer set (per-neighbour protocol state —
          sequence numbers, ack maps — is peer-shaped and cannot be
          mutated in place), seeded through ``absorb_state`` and
          drained: the content is restoration, not news.  The paths to
          *surviving* co-owners are marked suspect, because the rebuild
          discarded δ-buffers that may have held unshipped novelty;
          paths to new co-owners start warm so the handoff gets one
          coldness interval to land before probes re-ship the shard.
        """
        old_owned = set(self.shards)
        old_peers = {
            shard: tuple(inner.neighbors) for shard, inner in self.shards.items()
        }
        self.ring = ring
        new_owned = set(ring.shards_owned_by(self.replica))
        suspect: List[Tuple[int, int]] = []
        for shard in sorted(new_owned - old_owned):
            peers = self._shard_peers_checked(shard, ring)
            retired = self._fencing.pop(shard, None)
            if retired is not None:
                # Regained before the old handoff finished: keep the
                # retired instance's content instead of starting empty.
                fresh = self._make_inner(peers)
                fresh.absorb_state(retired.state, None)
                fresh.sync_messages()  # drain: restoration, not news
                self.shards[shard] = fresh
            else:
                self.shards[shard] = self._make_inner(peers)
            self._replaced(shard)
            if self.wal is not None:
                self.wal.unfence(shard)
        for shard in sorted(old_owned - new_owned):
            inner = self.shards.pop(shard)
            if shard in retain:
                self._fencing[shard] = inner
            elif fence:
                self._fence_now(shard)
        for shard in sorted(new_owned & old_owned):
            peers = self._shard_peers_checked(shard, ring)
            if set(peers) == set(old_peers[shard]):
                continue
            old_inner = self.shards[shard]
            fresh = self._make_inner(peers)
            fresh.absorb_state(old_inner.state, None)
            fresh.sync_messages()  # drain: restoration, not news
            self.shards[shard] = fresh
            self._replaced(shard)
            survivors = set(peers) & set(old_peers[shard])
            suspect.extend((shard, peer) for peer in survivors)
        self.scheduler.apply_membership(
            sorted(self.shards),
            {
                shard: tuple(inner.neighbors)
                for shard, inner in self.shards.items()
            },
            suspect_paths=suspect,
        )
        # Drop the indexes whose shard left, so they stop pinning a
        # departed shard's state.
        self._indexes = {
            shard: index
            for shard, index in self._indexes.items()
            if shard in self.shards or shard in self._fencing
        }

    def _replaced(self, shard: int) -> None:
        """A shard's synchronizer was swapped: its index is fully dirty."""
        index = self._indexes.get(shard)
        if index is not None:
            index.mark_all()

    def begin_handoff(self, shard: int, dst: int) -> None:
        """Start sourcing ``shard`` to its gaining owner ``dst``."""
        self.scheduler.enqueue_handoff(shard, dst)

    def _handoff_offer(self, shard: int, inner: Synchronizer) -> Message:
        """Phase 1: announce the handoff with the source's root hash."""
        index = self._shard_index(shard)
        return Message(
            kind="kv-handoff-offer",
            payload=(index.root(inner.state), index.size_bytes(inner.state)),
            payload_units=0,
            payload_bytes=0,
            metadata_bytes=ROOT_BYTES + self.size_model.int_bytes,
            metadata_units=1,
        )

    def _handoff_segment_records(
        self, shard: int, inner: Synchronizer
    ) -> List[bytes]:
        """The segment body: the shard's compacted log, or its state.

        With a WAL the segment *is* the log — staged records are
        group-committed first so the export covers this tick's writes,
        then the log compacts to the single record of its join.  A
        store without a log (the ``"repair"`` recovery policy) ships
        the encoded join decomposition of the live state: the same
        canonical bytes the log would have compacted to.
        """
        if self.wal is not None:
            records = self.wal.export_segment(shard)
            if records:
                return records
        return [encode(inner.state)]

    def _handoff_segment_message(self, shard: int, inner: Synchronizer) -> Message:
        records = tuple(self._handoff_segment_records(shard, inner))
        tag = self.size_model.int_bytes
        return Message(
            kind="kv-handoff-segment",
            payload=records,
            payload_units=self._shard_index(shard).size_units(inner.state),
            payload_bytes=sum(len(body) for body in records),
            metadata_bytes=tag * (1 + len(records)),
            metadata_units=len(records),
        )

    def _handoff_ack(self, complete: bool, root) -> Message:
        return Message(
            kind="kv-handoff-ack",
            payload=(complete, root),
            payload_units=0,
            payload_bytes=0,
            metadata_bytes=2 + (ROOT_BYTES if root is not None else 0),
            metadata_units=1,
        )

    def _handle_handoff(
        self, src: int, shard: int, message: Message
    ) -> Optional[Message]:
        if message.kind == "kv-handoff-ack":
            complete, root = message.payload
            self.scheduler.note_handoff_traffic(
                0, message.metadata_bytes, kind=message.kind
            )
            if self.tracer is not None:
                self.tracer.emit(
                    "handoff-ack",
                    replica=self.replica,
                    shard=shard,
                    peer=src,
                    metadata_bytes=message.metadata_bytes,
                    extra={"complete": complete, "rooted": root is not None},
                )
            if complete:
                # Fence only on an ack that carries the receiver's root
                # — proof a replica now durably holds the content.  A
                # rootless completion is a *declination* (the ring moved
                # again and the peer is no longer the gaining owner):
                # this replica may still hold the only copy, so the
                # retained shard and its log stay until a later
                # rebalance re-sources or regains the shard — and the
                # declination counts as an abandonment, not a receiver-
                # confirmed completion.
                if root is not None:
                    self.scheduler.finish_handoff(shard, src)
                    self._maybe_finalize_fence(shard)
                else:
                    self.scheduler.abandon_handoff(shard, src)
            else:
                self.scheduler.note_handoff_wanted(shard, src)
            return None
        inner = self.shards.get(shard)
        if message.kind == "kv-handoff-offer":
            root, _hint = message.payload
            self.scheduler.note_handoff_traffic(
                0, message.metadata_bytes, kind=message.kind
            )
            if self.tracer is not None:
                self.tracer.emit(
                    "handoff-offer",
                    replica=self.replica,
                    shard=shard,
                    peer=src,
                    metadata_bytes=message.metadata_bytes,
                    extra={"gaining": inner is not None},
                )
            if inner is None:
                # The ring moved again and this replica is no longer
                # the gaining owner; complete so the source can fence.
                self.stale_shard_messages += 1
                return self._handoff_ack(True, None)
            mine = self._shard_index(shard).root(inner.state)
            if mine == root:
                # Already holding the offered content (a retried offer,
                # or repair beat the handoff): skip the segment bytes.
                self.scheduler.note_delta_activity(shard, src)
                return self._handoff_ack(True, mine)
            return self._handoff_ack(False, None)
        # kv-handoff-segment: replay the shipped log records.
        self.scheduler.note_handoff_traffic(
            message.payload_bytes, message.metadata_bytes, kind=message.kind
        )
        if self.tracer is not None:
            self.tracer.emit(
                "handoff-segment",
                replica=self.replica,
                shard=shard,
                peer=src,
                payload_bytes=message.payload_bytes,
                metadata_bytes=message.metadata_bytes,
                payload_units=message.payload_units,
                extra={"records": len(message.payload), "gaining": inner is not None},
            )
        if inner is None:
            self.stale_shard_messages += 1
            return self._handoff_ack(True, None)
        state: Optional[Lattice] = None
        for body in message.payload:
            delta = decode(body)
            state = delta if state is None else state.join(delta)
        if state is not None and not state.is_bottom:
            absorbed = inner.absorb_state(state, src)
            self._touched(shard, state)
            # Drain, never send: every surviving co-owner already holds
            # (almost all of) this content; the δ-paths' coldness probes
            # cover the true divergence for a digest's worth of bytes.
            inner.sync_messages()
            if not absorbed.is_bottom:
                self._wal_append(shard, absorbed)
            self.scheduler.note_delta_activity(shard, src)
        return self._handoff_ack(True, self._shard_index(shard).root(inner.state))

    def _fence_now(self, shard: int) -> None:
        """Seal a disowned shard's log so a re-add cannot resurrect it."""
        if self.tracer is not None:
            self.tracer.emit("handoff-fence", replica=self.replica, shard=shard)
        if self.wal is not None:
            self.wal.fence(shard)

    def _maybe_finalize_fence(self, shard: int) -> None:
        """Fence a retained source shard once its last handoff settles."""
        if shard in self._fencing and not self.scheduler.pending_handoffs(shard):
            del self._fencing[shard]
            if shard not in self.shards:
                self._indexes.pop(shard, None)
            self._fence_now(shard)

    # ------------------------------------------------------------------
    # Fault signals from the transport and rebuild alignment.
    # ------------------------------------------------------------------

    def note_send_blocked(self, dst: int) -> None:
        """The transport refused a send to ``dst`` (down peer / cut link).

        Suspicion marks every δ-path shared with the peer, so digest
        probes fire as soon as the link heals instead of waiting out the
        full coldness threshold.
        """
        self.scheduler.note_peer_unreachable(dst)

    def restore_clock(self, ticks: int) -> None:
        """Carry the cluster round into a rebuilt store's scheduler.

        δ-paths restored by a WAL replay are marked active *here* —
        after the tick counter has jumped to the cluster round — so the
        replay counts as fresh activity instead of being instantly
        re-frozen by the clock realignment.
        """
        self.scheduler.restore_clock(ticks)
        replayed, self._replayed_paths = self._replayed_paths, ()
        for shard, peer in replayed:
            self.scheduler.note_delta_activity(shard, peer)

    # ------------------------------------------------------------------
    # Write-ahead logging and local recovery.
    # ------------------------------------------------------------------

    def _wal_append(self, shard: int, delta: Lattice) -> None:
        if self.wal is not None and not delta.is_bottom:
            self.wal.append(shard, delta)

    def replay_wal(self, *, verify: bool = False) -> int:
        """Rebuild shard states from the durable log; return shards restored.

        The recovery path of ``crash(lose_state=True)`` under a WAL
        recovery policy: each owned shard's log replays to the join of
        every delta the previous incarnations committed, and the result
        flows through :meth:`~repro.sync.protocol.Synchronizer.
        absorb_state` so the fresh synchronizer's bookkeeping (version
        vectors, Scuttlebutt stores) covers the restored content.  The
        propagation buffers the absorb hook fills are drained and
        discarded — replayed content is *restoration*, not news: every
        surviving co-owner already held it before the crash, and digest
        repair covers the genuinely divergent remainder.

        With ``verify`` (the ``wal+repair`` policy) every δ-path is
        additionally marked suspect, so the rebuilt replica immediately
        root-probes its co-owners instead of trusting the replay —
        one ``ROOT_BYTES`` probe per path buys certainty even when the
        peers' own suspicion signals were lost (e.g. they also crashed).
        Otherwise the replayed δ-paths are marked active once
        :meth:`restore_clock` realigns the scheduler.
        """
        if self.wal is None:
            return 0
        # The crash boundary of group commit, enforced by the recovery
        # path itself: records staged by the dead incarnation but never
        # committed are gone — replaying without dropping them would
        # retroactively make them durable at the next tick's commit.
        self.wal.discard_staged()
        restored = 0
        warm: List[Tuple[int, int]] = []
        for shard in sorted(self.shards):
            state = self.wal.replay(shard)
            if state is None or state.is_bottom:
                continue
            inner = self.shards[shard]
            inner.absorb_state(state, None)
            self._touched(shard, state)
            inner.sync_messages()  # drain, never sent: see docstring
            restored += 1
            warm.extend((shard, peer) for peer in inner.neighbors)
        if verify:
            self.scheduler.suspect_all_paths()
        else:
            self._replayed_paths = tuple(warm)
        return restored

    def _package(self, wire: List[Tuple[int, int, Message]]) -> List[Send]:
        """Frame shard messages for the wire, batching per destination.

        Each framed shard message costs one shard tag
        (``int_bytes``/one entry) on top of the inner accounting.
        """
        if not wire:
            return []
        tag_bytes = self.size_model.int_bytes
        if not self.scheduler.config.batch:
            return [
                Send(
                    dst=dst,
                    message=Message(
                        kind="kv-shard",
                        payload=(shard, inner),
                        payload_units=inner.payload_units,
                        payload_bytes=inner.payload_bytes,
                        metadata_bytes=inner.metadata_bytes + tag_bytes,
                        metadata_units=inner.metadata_units + 1,
                    ),
                )
                for dst, shard, inner in wire
            ]
        grouped: Dict[int, List[Tuple[int, Message]]] = {}
        for dst, shard, inner in wire:
            grouped.setdefault(dst, []).append((shard, inner))
        sends: List[Send] = []
        for dst, entries in grouped.items():
            sends.append(
                Send(
                    dst=dst,
                    message=Message(
                        kind="kv-batch",
                        payload=tuple(entries),
                        payload_units=sum(m.payload_units for _, m in entries),
                        payload_bytes=sum(m.payload_bytes for _, m in entries),
                        metadata_bytes=sum(m.metadata_bytes for _, m in entries)
                        + tag_bytes * len(entries),
                        metadata_units=sum(m.metadata_units for _, m in entries)
                        + len(entries),
                    ),
                )
            )
        return sends

    # ------------------------------------------------------------------
    # Memory accounting: sums over the shard instances (state sizes are
    # the shard indexes' running totals).
    # ------------------------------------------------------------------

    def state_units(self) -> int:
        return sum(
            self._shard_index(shard).size_units(sync.state)
            for shard, sync in self.shards.items()
        )

    def state_bytes(self) -> int:
        return sum(
            self._shard_index(shard).size_bytes(sync.state)
            for shard, sync in self.shards.items()
        )

    def buffer_units(self) -> int:
        return sum(sync.buffer_units() for sync in self.shards.values())

    def buffer_bytes(self) -> int:
        return sum(sync.buffer_bytes() for sync in self.shards.values())

    def metadata_bytes(self) -> int:
        return sum(sync.metadata_bytes() for sync in self.shards.values())

    def metadata_units(self) -> int:
        return sum(sync.metadata_units() for sync in self.shards.values())

    def __repr__(self) -> str:
        return (
            f"KVStore(replica={self.replica}, shards={sorted(self.shards)}, "
            f"keys={sum(len(s.state) for s in self.shards.values())})"
        )


def kv_store_factory(
    ring,
    inner_factory,
    *,
    schema: Optional[Schema] = None,
    antientropy: Optional[AntiEntropyConfig] = None,
    wal_provider=None,
    registry_provider=None,
    tracer: Optional[Tracer] = None,
):
    """Bind store parameters into a cluster-compatible node factory.

    The returned callable has the :data:`~repro.sync.protocol.
    SynchronizerFactory` signature, so ``Cluster(config, factory,
    MapLattice())`` builds one store process per simulated node.

    ``ring`` may be a :class:`~repro.kv.ring.HashRing` or a zero-arg
    callable returning one, resolved at *build* time: a cluster whose
    membership changes mid-run passes a provider, so a store rebuilt by
    ``crash(lose_state=True)`` after a rebalance opens on the current
    placement instead of the ring the cluster started with.

    ``wal_provider`` maps a replica index to its durable
    :class:`~repro.wal.ReplicaWal`; it is a callable (not a dict) so
    a store rebuilt after ``crash(lose_state=True)`` reattaches to the
    *same* log object its predecessor wrote.

    ``registry_provider`` plays the same role for the replica's
    :class:`~repro.obs.metrics.MetricsRegistry` — the rebuilt store
    re-binds to the counters its predecessor incremented — and
    ``tracer`` (one per cluster, not per replica) threads the
    structured trace into every store built.
    """

    def factory(
        replica: int,
        neighbors: Sequence[int],
        bottom: Lattice,
        n_nodes: int,
        size_model: SizeModel = DEFAULT_SIZE_MODEL,
    ) -> KVStore:
        return KVStore(
            replica=replica,
            neighbors=neighbors,
            bottom=bottom,
            n_nodes=n_nodes,
            size_model=size_model,
            ring=ring() if callable(ring) else ring,
            inner_factory=inner_factory,
            schema=schema,
            antientropy=antientropy,
            wal=wal_provider(replica) if wal_provider is not None else None,
            registry=(
                registry_provider(replica) if registry_provider is not None else None
            ),
            tracer=tracer,
        )

    inner_name = getattr(inner_factory, "name", getattr(inner_factory, "__name__", "?"))
    factory.__name__ = f"kv_store_{inner_name}".replace("-", "_")
    factory.name = f"kv[{inner_name}]"  # type: ignore[attr-defined]
    return factory
