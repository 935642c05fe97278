"""The per-shard index is a contract: every answer equals its recompute.

:class:`~repro.sync.digest.IncrementalDigest` is the one index a
:class:`~repro.kv.store.KVStore` consults per shard for digest roots,
digest diffs and state sizes, and it refreshes only the keys the store
marked dirty.  A path that changes a shard without marking it would
leave the index stale without any test of the answers noticing, unless
the answers are compared against a recomputation after *every* kind of
change.  The property test here does that: random interleavings of
typed writes, removes, inner-protocol deliveries (for every inner
synchronizer the store accepts), client-pushed fragments, repair
absorptions, lose-state crashes with WAL replay, and ring swaps.

The deterministic tests pin the cost side: a write refreshes only its
key, and a non-map payload or rebuild falls back to a full scan.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.kv_sweep import KV_ALGORITHMS
from repro.kv import AntiEntropyConfig, HashRing
from repro.kv.store import KVRoutingError, KVStore, _keyspace_novelty
from repro.lattice import MapLattice, SetLattice
from repro.sizes import SizeModel
from repro.sync import ALGORITHMS, EXTRA_ALGORITHMS
from repro.sync.digest import (
    IncrementalDigest,
    digest_and_missing,
    digest_of,
    fingerprint,
    root_of,
)
from repro.sync.protocol import Message
from repro.wal import ReplicaWal

from conftest import ALL_LATTICE_STRATEGIES

MODEL = SizeModel()
REPLICAS = 3
RINGS = (
    HashRing(range(REPLICAS), n_shards=4, replication=2),
    HashRing(range(REPLICAS), n_shards=4, replication=3),
)
REPAIR = AntiEntropyConfig(repair_interval=1, repair_mode="digest", repair_fanout=8)

#: Every inner synchronizer the store is run with: the store sweep's
#: protocols plus the paper's and the extension registries.
INNER = {
    **{f"kv:{name}": factory for name, factory in KV_ALGORITHMS.items()},
    **ALGORITHMS,
    **EXTRA_ALGORITHMS,
}

#: Keys with a type each; ``aws:`` and ``2ps:`` support removal.
KEYS = ("set:a", "set:b", "gct:c", "cnt:d", "aws:e", "aws:f", "2ps:g", "mvr:h")
ELEMENTS = ("x", "y", "z")


def build_store(inner, ring, wal) -> KVStore:
    replica = wal.replica
    return KVStore(
        replica=replica,
        neighbors=[r for r in range(REPLICAS) if r != replica],
        bottom=MapLattice(),
        n_nodes=REPLICAS,
        size_model=MODEL,
        ring=ring,
        inner_factory=inner,
        antientropy=REPAIR,
        wal=wal,
    )


def write_op(key: str, element: str, flip: bool):
    kind = key[:3]
    if kind in ("gct",):
        return "increment", (1,)
    if kind == "cnt":
        return ("decrement" if flip else "increment"), (1,)
    if kind == "mvr":
        return "write", (element,)
    if kind == "2ps" and flip:
        return "remove", (element,)
    return "add", (element,)


class Harness:
    """Three hand-wired stores, driven one step at a time."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.ring_index = 0
        self.wals = [ReplicaWal(r) for r in range(REPLICAS)]
        self.stores = [build_store(inner, RINGS[0], wal) for wal in self.wals]

    @property
    def ring(self) -> HashRing:
        return RINGS[self.ring_index]

    def owner(self, key: str, pick: int) -> KVStore:
        owners = self.ring.owners(key)
        return self.stores[owners[pick % len(owners)]]

    def deliver(self, src: int, sends, budget: int = 200) -> None:
        queue = [(src, send) for send in sends]
        while queue and budget:
            budget -= 1
            origin, send = queue.pop(0)
            replies = self.stores[send.dst].handle_message(origin, send.message)
            queue.extend((send.dst, reply) for reply in replies)

    # -- steps ---------------------------------------------------------

    def update(self, key, element, flip, pick) -> None:
        store = self.owner(key, pick)
        if key.startswith("2ps:") and element not in store.get(key):
            flip = False  # a 2P-set removes only observed elements
        op, args = write_op(key, element, flip)
        store.update(key, op, *args)

    def remove(self, key, pick) -> None:
        if key.startswith("aws:"):
            self.owner(key, pick).remove(key)

    def tick(self, replica) -> None:
        self.deliver(replica, self.stores[replica].sync_messages())

    def absorb_client(self, key, element, pick) -> None:
        source = self.owner(key, pick + 1)
        value = source.value_lattice(key)
        if value is None:
            return
        fragment = MapLattice({key: value})
        self.owner(key, pick).absorb_client_state(fragment)

    def repair(self, key, pick, echo: bool) -> None:
        """A kv-repair from one co-owner to another: its whole shard
        state, optionally with the sender's digest as the echo."""
        shard = self.ring.shard_of(key)
        owners = self.ring.shard_owners(shard)
        if len(owners) < 2:
            return
        src = owners[pick % len(owners)]
        dst = owners[(pick + 1) % len(owners)]
        state = self.stores[src].shards[shard].state
        repair = Message(
            kind="kv-repair",
            payload=(state, digest_of(state) if echo else None),
            payload_units=state.size_units(),
            payload_bytes=state.size_bytes(MODEL),
            metadata_bytes=0,
        )
        wrapped = Message(
            kind="kv-shard",
            payload=(shard, repair),
            payload_units=repair.payload_units,
            payload_bytes=repair.payload_bytes,
            metadata_bytes=8,
        )
        replies = self.stores[dst].handle_message(src, wrapped)
        self.deliver(dst, replies)

    def crash(self, replica) -> None:
        """``crash(lose_state=True)``: a fresh store replays its WAL."""
        store = build_store(self.inner, self.ring, self.wals[replica])
        for shard in store.shards:
            store.shard_root(shard)  # index the empty shards first
        store.replay_wal()
        self.stores[replica] = store

    def swap_ring(self) -> None:
        self.ring_index = 1 - self.ring_index
        for store in self.stores:
            store.apply_ring(self.ring)

    # -- the contract --------------------------------------------------

    def check(self, seed: int) -> None:
        rng = random.Random(seed)
        for store in self.stores:
            total_bytes = total_units = 0
            for shard, inner in store.shards.items():
                index = store._shard_index(shard)
                state = inner.state
                # Sizes first: they follow the store's marks alone, while
                # a fingerprint query would rescan a state that moved
                # with nothing marked and so hide a missed mark.
                assert index.size_bytes(state) == state.size_bytes(MODEL)
                assert index.size_units(state) == state.size_units()
                expected = digest_of(state)
                assert index.root(state) == root_of(expected)
                assert index.digest(state) == expected
                remote = frozenset(fp for fp in expected if rng.random() < 0.5)
                for other in self.stores:
                    peer = other.shards.get(shard)
                    if peer is not None and rng.random() < 0.5:
                        remote |= digest_of(peer.state)
                assert index.missing(state, remote) == digest_and_missing(state, remote)[1]
                total_bytes += state.size_bytes(MODEL)
                total_units += state.size_units()
            assert store.state_bytes() == total_bytes
            assert store.state_units() == total_units


key_choice = st.sampled_from(KEYS)
element_choice = st.sampled_from(ELEMENTS)
replica_choice = st.integers(0, REPLICAS - 1)
pick = st.integers(0, 5)

steps = st.one_of(
    st.tuples(st.just("update"), key_choice, element_choice, st.booleans(), pick),
    st.tuples(st.just("remove"), key_choice, pick),
    st.tuples(st.just("tick"), replica_choice),
    st.tuples(st.just("tick"), replica_choice),
    st.tuples(st.just("absorb_client"), key_choice, element_choice, pick),
    st.tuples(st.just("repair"), key_choice, pick, st.booleans()),
    st.tuples(st.just("crash"), replica_choice),
    st.tuples(st.just("swap_ring")),
)


@pytest.mark.parametrize("inner_name", sorted(INNER))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    script=st.lists(st.tuples(steps, st.booleans()), min_size=1, max_size=30),
    seed=st.integers(0, 2**16),
)
def test_index_equals_recompute_after_every_step(inner_name, script, seed):
    """After any step — or after several unchecked steps, so dirty
    marks accumulate between refreshes — every shard's index answers
    exactly what recomputing from the state gives."""
    harness = Harness(INNER[inner_name])
    for step, check_now in script:
        name, *args = step
        try:
            getattr(harness, name)(*args)
        except KVRoutingError:
            # Traffic outrun by a ring swap; the store refuses it.
            pass
        if check_now:
            harness.check(seed)
    harness.check(seed)


# ---------------------------------------------------------------------------
# The cost side of the contract.
# ---------------------------------------------------------------------------


def populated(n: int = 200) -> MapLattice:
    return MapLattice({f"k{i}": SetLattice({i}) for i in range(n)})


def test_marked_write_refreshes_only_its_keys():
    index = IncrementalDigest(MODEL)
    state = populated()
    index.root(state)
    assert index.full_refreshes == 1
    delta = MapLattice({"k3": SetLattice({"new"}), "fresh": SetLattice({"v"})})
    state = state.join(delta)
    index.mark(delta)
    assert index.root(state) == root_of(digest_of(state))
    assert index.size_bytes(state) == state.size_bytes(MODEL)
    assert index.full_refreshes == 1


def test_unnamed_changes_fall_back_to_a_full_scan():
    index = IncrementalDigest(MODEL)
    state = populated()
    index.root(state)
    # A change nobody marked: the only sound reading is "anything moved".
    state = state.join(MapLattice({"k1": SetLattice({"other"})}))
    assert index.root(state) == root_of(digest_of(state))
    assert index.full_refreshes == 2
    # A non-map lattice cannot name its keys either.
    index.mark(SetLattice({"x"}))
    state = state.join(MapLattice({"k2": SetLattice({"other"})}))
    assert index.root(state) == root_of(digest_of(state))
    assert index.full_refreshes == 3


def test_store_steady_state_writes_never_rescan_a_shard():
    harness = Harness(KV_ALGORITHMS["delta-based-bp-rr"])
    for i, key in enumerate(KEYS):
        harness.update(key, "x", False, i)
    for replica in range(REPLICAS):
        harness.tick(replica)
    harness.check(0)
    scans = {
        (store.replica, shard): store._shard_index(shard).full_refreshes
        for store in harness.stores
        for shard in store.shards
    }
    for round_ in range(4):
        for i, key in enumerate(KEYS):
            harness.update(key, ELEMENTS[round_ % 3], True, i + round_)
        for replica in range(REPLICAS):
            harness.tick(replica)
        harness.check(round_)
    for store in harness.stores:
        for shard in store.shards:
            assert store._shard_index(shard).full_refreshes == scans[store.replica, shard]


@given(
    st.sampled_from(sorted(ALL_LATTICE_STRATEGIES)).flatmap(ALL_LATTICE_STRATEGIES.get),
    st.sampled_from(["k", 3, ("t", 1), "set:a"]),
)
def test_keyed_fingerprint_equals_the_singleton_map(value, key):
    for irreducible in value.decompose():
        assert fingerprint(irreducible, key) == fingerprint(MapLattice({key: irreducible}))


@given(
    st.dictionaries(st.sampled_from("abcdef"), st.frozensets(st.integers(0, 4), min_size=1, max_size=3), max_size=5),
    st.dictionaries(st.sampled_from("abcdefg"), st.frozensets(st.integers(0, 6), min_size=1, max_size=3), max_size=4),
)
def test_novelty_over_touched_keys_equals_the_full_scan(before, payload):
    before = MapLattice({k: SetLattice(v) for k, v in before.items()})
    payload = MapLattice({k: SetLattice(v) for k, v in payload.items()})
    after = before.join(payload)
    assert _keyspace_novelty(before, after, payload.entries) == _keyspace_novelty(before, after)
    assert _keyspace_novelty(before, after) == after.delta(before)
