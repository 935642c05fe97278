"""Pairwise state-driven and digest-driven synchronization.

Section VI of the paper situates its contribution next to two pairwise
protocols the same authors proposed for synchronizing replicas after a
network partition (Enes et al., PMLDC@ECOOP 2016), both of which also
exploit join decompositions:

* **state-driven**: A sends its full state to B; B joins it, computes
  the optimal delta ``∆(x_B, x_A)`` covering what A missed, and sends it
  back.  Convergence in 2 messages, but the first one is a full state.

* **digest-driven**: A sends only a *digest* of its state — enough for
  B to decide which of its own irreducibles A is missing; B replies
  with that delta plus a digest of its own state, and A answers with
  the delta B misses.  Convergence in 3 messages, none of which carries
  a full state.

The digest implemented here is the set of collision-resistant 8-byte
fingerprints of the state's join decomposition: ``{h(r) | r ∈ ⇓x}``.
A peer computes the exact delta by keeping the irreducibles whose
fingerprint the digest lacks.  Digests are therefore proportional to
the *number* of irreducibles, not their size — a large win when
elements are big (tweets) and states mostly overlap.

The ``*_sync`` functions operate directly on two replicas' states and
report the bytes each strategy moved, which the partition-recovery
example and the ablation benchmarks use.  :class:`IncrementalDigest` is
the per-shard index the sharded store keeps over the same digest, so
its repair exchange costs work proportional to what changed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Mapping, Optional, Set, Tuple

from repro.lattice.base import Lattice
from repro.lattice.map_lattice import MapLattice
from repro.sizes import SizeModel, DEFAULT_SIZE_MODEL

#: Bytes per digest fingerprint.
FINGERPRINT_BYTES = 8
#: Bytes per digest *root* — the probe-sized summary of a whole digest.
ROOT_BYTES = 16


#: The ``key`` default of :func:`fingerprint`: no enclosing binding.
_UNBOUND = object()


def fingerprint(irreducible: Lattice, key: Hashable = _UNBOUND) -> bytes:
    """A stable 8-byte fingerprint of a join-irreducible state.

    Uses BLAKE2b over the canonical ``repr`` (reprs in this library sort
    their contents, so equal values always print identically), which is
    deterministic across processes — unlike built-in ``hash`` under
    string-hash randomization.

    With ``key``, the fingerprint of the map irreducible ``{key ↦
    irreducible}``: equal to ``fingerprint(MapLattice({key:
    irreducible}))``, without building the one-binding map to print it.
    """
    if key is _UNBOUND:
        text = repr(irreducible)
    else:
        text = f"MapLattice({{{key!r}: {irreducible!r}}})"
    return hashlib.blake2b(text.encode("utf-8"), digest_size=FINGERPRINT_BYTES).digest()


def digest_of(state: Lattice) -> FrozenSet[bytes]:
    """The digest of a state: fingerprints of its decomposition."""
    return frozenset(fingerprint(r) for r in state.decompose())


def delta_against_digest(state: Lattice, remote_digest: FrozenSet[bytes]) -> Lattice:
    """Join of the irreducibles of ``state`` the digest does not cover."""
    acc = state.bottom_like()
    for irreducible in state.decompose():
        if fingerprint(irreducible) not in remote_digest:
            acc = acc.join(irreducible)
    return acc


def root_of(digest: Iterable[bytes]) -> bytes:
    """One hash summarizing a whole digest — the O(1)-to-compare probe.

    Equal states decompose to equal digests and therefore equal roots,
    so two replicas can rule out divergence by exchanging ``ROOT_BYTES``
    instead of the full fingerprint set; a mismatch escalates to the
    digest itself.  ``digest`` may be any iterable of distinct
    fingerprints (a set, or the keys of a fingerprint multiset).
    """
    # One update over the concatenation hashes the same byte stream as
    # one update per entry.
    return hashlib.blake2b(b"".join(sorted(digest)), digest_size=ROOT_BYTES).digest()


def digest_and_missing(
    state: Lattice, remote_digest: FrozenSet[bytes]
) -> Tuple[FrozenSet[bytes], Lattice]:
    """Both sides of a diff reply, in one decomposition pass.

    Returns ``(digest_of(state), delta_against_digest(state,
    remote_digest))`` while fingerprinting every irreducible exactly
    once — what a responder announces about itself and what it ships
    because the remote digest lacks it.
    """
    fingerprints = []
    acc = state.bottom_like()
    for irreducible in state.decompose():
        entry = fingerprint(irreducible)
        fingerprints.append(entry)
        if entry not in remote_digest:
            acc = acc.join(irreducible)
    return frozenset(fingerprints), acc


class IncrementalDigest:
    """The per-shard index of one evolving state: fingerprints, root, sizes.

    The sharded store asks three things of every shard, each round or
    on every repair message: the digest root (``kv-digest`` probes,
    handoff acks, the convergence check), the irreducibles a remote
    digest lacks (``kv-diff`` replies and the ``kv-repair`` echo), and
    the state's size (memory samples).  Recomputing any of them walks
    the whole shard; this index keeps, per key, the byte size and unit
    count of its current value and the fingerprints of the irreducibles
    of the value last hashed (``h({key ↦ r})`` for ``r ∈ ⇓value``, with
    that value object), plus running totals and a fingerprint multiset.

    **Dirty keys.**  The owner tells the index what changed, and the
    index does work only for those keys, lazily, on the next query:

    * :meth:`mark` takes the lattice that reached the state — a local
      write's delta, an inbound δ-group, an absorbed repair.  State
      only grows by join, and ``MapLattice.join`` touches exactly the
      keys of its argument, so a ``MapLattice``'s keys name every
      binding that may have changed.  Any other lattice cannot name its
      keys and marks the state fully dirty, as :meth:`mark_all` does
      for a rebuilt or replaced state.  A fully dirty refresh is the
      same loop over every key of the state and of the index.
    * Size queries re-size the marked keys and nothing else; sizes
      follow the marks alone, so an owner must mark every change.  A
      key seen for the first time is fingerprinted right away.
    * Fingerprint queries (:meth:`root`, :meth:`digest`,
      :meth:`missing`) re-fingerprint the keys re-sized since the last
      fingerprint query.  A key whose value is the very object last
      hashed is skipped: lattice values are immutable and ``join``
      reuses untouched keys' value objects.  These queries remember the
      state object they last answered for, and rescan every key (by
      that identity check) when the state moved with no key re-sized —
      so an owner that never marks still gets exact digests.

    Size work thus runs once per round for the keys written, and
    fingerprint work only when a probe or diff asks.  Size queries
    keep no reference to the state or its values (only fingerprint
    queries keep the ones they hashed), so the values a write
    supersedes are freed as the state moves on.  Fingerprints are kept as a multiset
    (the same fingerprint may in principle repeat across keys), so
    dropping a key's old contribution cannot drop another key's equal
    entry; the root hashes the multiset's distinct keys in sorted
    order, and the digest set is built only when asked for (a
    ``kv-diff`` reply or echo), never retained.  A non-map state is
    indexed as a single binding.

    Every answer equals its recomputation — ``digest_of(state)``,
    ``root_of(digest_of(state))``, ``digest_and_missing(state, d)[1]``,
    ``state.size_bytes(model)`` and ``state.size_units()``; the
    property tests assert this after arbitrary mutation sequences.
    """

    __slots__ = (
        "model",
        "full_refreshes",
        "_state",
        "_entries",
        "_counts",
        "_dirty",
        "_all_dirty",
        "_unhashed",
        "_rehash_all",
        "_root",
        "_bytes",
        "_units",
    )

    def __init__(self, model: SizeModel = DEFAULT_SIZE_MODEL) -> None:
        #: The size model :meth:`size_bytes` answers in.
        self.model = model
        #: Refreshes that visited every key (a cost counter for tests
        #: and benchmarks; dirty-key refreshes do not count).
        self.full_refreshes = 0
        #: The state object the fingerprints were last brought up to.
        self._state: Optional[Lattice] = None
        #: key → ``(hashed value, size_bytes, size_units, *fingerprints)``;
        #: the hashed value is ``None`` until the key is first hashed.
        self._entries: Dict[Hashable, tuple] = {}
        #: fingerprint → multiplicity across keys.
        self._counts: Dict[bytes, int] = {}
        self._dirty: Set[Hashable] = set()
        self._all_dirty = True
        #: Keys re-sized since the last fingerprint query: their
        #: fingerprints (and, for a removed key, the entry) are stale.
        self._unhashed: Set[Hashable] = set()
        #: Every key awaits a rehash (set by a full refresh, so the
        #: whole keyspace is never listed in ``_unhashed``).
        self._rehash_all = False
        self._root: Optional[bytes] = None
        self._bytes = 0
        self._units = 0

    # ------------------------------------------------------------------
    # Invalidation.
    # ------------------------------------------------------------------

    def mark(self, reached: Lattice) -> None:
        """Note that ``reached`` was joined into the state."""
        if isinstance(reached, MapLattice):
            if not self._all_dirty:
                self._dirty.update(reached.entries)
        else:
            self.mark_all()

    def mark_all(self) -> None:
        """Note a change the owner cannot name keys for."""
        self._all_dirty = True
        self._dirty.clear()

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def digest(self, state: Lattice) -> FrozenSet[bytes]:
        """``digest_of(state)``, built from the cached fingerprints."""
        self._refresh(state)
        self._rehash(state)
        return frozenset(self._counts)

    def root(self, state: Lattice) -> bytes:
        """``root_of(digest_of(state))``, O(1) when nothing changed."""
        self._refresh(state)
        self._rehash(state)
        if self._root is None:
            self._root = root_of(self._counts)
        return self._root

    def missing(self, state: Lattice, remote_digest: FrozenSet[bytes]) -> Lattice:
        """``delta_against_digest(state, remote_digest)`` from the cache.

        Only keys holding a fingerprint the remote digest lacks are
        decomposed again; an immutable value decomposes in the same
        order every time, so its cached fingerprints pair up with the
        fresh decomposition.
        """
        self._refresh(state)
        self._rehash(state)
        if self._counts.keys() <= remote_digest:
            return state.bottom_like()
        missing: Dict[Hashable, Lattice] = {}
        for key, entry in self._entries.items():
            fps = entry[3:]
            if remote_digest.issuperset(fps):
                continue
            acc: Optional[Lattice] = None
            for irreducible, fp in zip(entry[0].decompose(), fps):
                if fp not in remote_digest:
                    acc = irreducible if acc is None else acc.join(irreducible)
            missing[key] = acc
        whole = missing.get(_WHOLE)
        if whole is not None:
            return whole
        return MapLattice(missing)

    def size_bytes(self, state: Lattice) -> int:
        """``state.size_bytes(self.model)``, kept as a running total."""
        self._refresh(state)
        return self._bytes

    def size_units(self, state: Lattice) -> int:
        """``state.size_units()``, kept as a running total."""
        self._refresh(state)
        return self._units

    # ------------------------------------------------------------------

    def _refresh(self, state: Lattice) -> None:
        """Bring the sizes up to ``state`` from the marks alone."""
        if not (self._all_dirty or self._dirty):
            return
        bindings = _bindings(state)
        entries = self._entries
        if self._all_dirty:
            self.full_refreshes += 1
            keys: Iterable[Hashable] = [
                key for key in entries if key not in bindings
            ] + list(bindings)
            # Rehash every key next time instead of listing them all.
            self._rehash_all = True
        else:
            keys = self._dirty
        unhashed = self._unhashed
        rehash_all = self._rehash_all
        for key in keys:
            value = bindings.get(key)
            entry = entries.get(key)
            if entry is None:
                if value is None:
                    continue
                # A key seen for the first time is hashed at once: a
                # size-only entry would be replaced by a longer tuple at
                # the first fingerprint query, for nothing.
                entries[key] = self._hashed(key, value, *self._sizes(key, value))
                self._bytes += entries[key][1]
                self._units += entries[key][2]
            elif entry[0] is value and not (rehash_all or key in unhashed):
                continue
            else:
                size, units = (0, 0) if value is None else self._sizes(key, value)
                self._bytes += size - entry[1]
                self._units += units - entry[2]
                entries[key] = (entry[0], size, units, *entry[3:])
            if not rehash_all:
                unhashed.add(key)
        self._dirty.clear()
        self._all_dirty = False

    def _rehash(self, state: Lattice) -> None:
        """Bring the fingerprints up to ``state`` (after _refresh)."""
        if state is self._state:
            return
        if not (self._rehash_all or self._unhashed):
            # The state moved with nothing marked: rescan it all.
            self.mark_all()
            self._refresh(state)
        bindings = _bindings(state)
        entries = self._entries
        counts = self._counts
        for key in list(entries) if self._rehash_all else self._unhashed:
            entry = entries[key]
            value = bindings.get(key)
            if value is not None and entry[0] is value:
                continue
            self._root = None
            for fp in entry[3:]:
                remaining = counts[fp] - 1
                if remaining:
                    counts[fp] = remaining
                else:
                    del counts[fp]
            if value is None:
                del entries[key]
            else:
                entries[key] = self._hashed(key, value, entry[1], entry[2])
        self._unhashed.clear()
        self._rehash_all = False
        self._state = state

    def _sizes(self, key: Hashable, value: Lattice) -> Tuple[int, int]:
        """``(size_bytes, size_units)`` of one binding."""
        size = value.size_bytes(self.model)
        if key is not _WHOLE:
            size += self.model.sizeof(key)
        return size, value.size_units()

    def _hashed(self, key: Hashable, value: Lattice, size: int, units: int) -> tuple:
        """The entry of a binding with its fingerprints counted in."""
        if key is _WHOLE:
            fps = [fingerprint(r) for r in value.decompose()]
        else:
            fps = [fingerprint(r, key) for r in value.decompose()]
        counts = self._counts
        for fp in fps:
            counts[fp] = counts.get(fp, 0) + 1
        self._root = None
        return (value, size, units, *fps)


def _bindings(state: Lattice) -> Mapping[Hashable, Lattice]:
    """A state's bindings; a non-map state is one binding of its own."""
    return state.entries if isinstance(state, MapLattice) else {_WHOLE: state}


#: The pseudo-key under which a non-map state is indexed as one binding.
_WHOLE = object()



@dataclass(frozen=True)
class DigestExchange:
    """Outcome of a pairwise synchronization: traffic and convergence.

    Attributes:
        strategy: ``"full"``, ``"state-driven"``, or ``"digest-driven"``.
        messages: Number of messages exchanged.
        bytes_sent: Total bytes moved (payload plus digests).
        converged_state: The common state both replicas hold afterwards.
    """

    strategy: str
    messages: int
    bytes_sent: int
    converged_state: Lattice


def full_state_sync(
    state_a: Lattice, state_b: Lattice, model: SizeModel = DEFAULT_SIZE_MODEL
) -> DigestExchange:
    """Baseline: bidirectional full-state exchange (2 full states)."""
    joined = state_a.join(state_b)
    traffic = state_a.size_bytes(model) + state_b.size_bytes(model)
    return DigestExchange("full", messages=2, bytes_sent=traffic, converged_state=joined)


def state_driven_sync(
    state_a: Lattice, state_b: Lattice, model: SizeModel = DEFAULT_SIZE_MODEL
) -> DigestExchange:
    """A ships its state; B replies with the optimal missing delta."""
    # Message 1: A → B, full state.
    first = state_a.size_bytes(model)
    b_after = state_b.join(state_a)
    # Message 2: B → A, ∆(x_B, x_A) — exactly what A lacks.
    back = state_b.delta(state_a)
    second = back.size_bytes(model)
    a_after = state_a.join(back)
    assert a_after == b_after, "state-driven sync must converge"
    return DigestExchange(
        "state-driven", messages=2, bytes_sent=first + second, converged_state=a_after
    )


def digest_driven_sync(
    state_a: Lattice, state_b: Lattice, model: SizeModel = DEFAULT_SIZE_MODEL
) -> DigestExchange:
    """Three-way sync where no message carries a full state."""
    # Message 1: A → B, digest of A.
    digest_a = digest_of(state_a)
    first = len(digest_a) * FINGERPRINT_BYTES
    # Message 2: B → A, the delta A misses plus B's digest.
    delta_for_a = delta_against_digest(state_b, digest_a)
    digest_b = digest_of(state_b)
    second = delta_for_a.size_bytes(model) + len(digest_b) * FINGERPRINT_BYTES
    a_after = state_a.join(delta_for_a)
    # Message 3: A → B, the delta B misses.
    delta_for_b = delta_against_digest(state_a, digest_b)
    third = delta_for_b.size_bytes(model)
    b_after = state_b.join(delta_for_b)
    assert a_after == b_after, "digest-driven sync must converge"
    return DigestExchange(
        "digest-driven",
        messages=3,
        bytes_sent=first + second + third,
        converged_state=a_after,
    )
