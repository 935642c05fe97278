"""Seeded operation schedules and the model of what they must produce.

Everything a workload feeds the store is drawn here, from the run's
``--seed`` alone, before any clock starts.  The generator is the
benchmark's own (a Zipf sampler over a fixed key list and a
``random.Random`` per stream), so edits to the program's workload
modules cannot change the inputs.

Keys cycle through three CRDT types whose read values can be checked
exactly: ``gct:`` grow-only counters and ``cnt:`` PN-counters (the read
value must equal the sum of the acknowledged increments) and ``set:``
grow-only sets (the read value must equal the union of the acknowledged
adds).  :class:`Expected` accumulates that model as operations are
acknowledged.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from typing import Dict, List, Sequence, Set, Tuple

#: Key types in the order keys cycle through them.
TYPES = ("gct", "set", "cnt")
#: Distinct elements a ``set:`` key draws from by default, small enough
#: that hot keys see duplicate adds (bottom deltas).
SET_POOL = 64

Op = Tuple[str, str, tuple]  # (key, op, args)
Routed = Tuple[Op, int]  # an op and the owner index (mod rf) it goes to


def key_name(index: int) -> str:
    return f"{TYPES[index % len(TYPES)]}:{index:06d}"


class Zipf:
    """Rank sampler with P(rank i) proportional to 1 / (i + 1) ** s."""

    def __init__(self, n: int, s: float, rng: random.Random) -> None:
        total = 0.0
        cdf = []
        for rank in range(n):
            total += 1.0 / (rank + 1) ** s
            cdf.append(total)
        self._cdf = [c / total for c in cdf]
        self._rng = rng

    def sample(self) -> int:
        return min(bisect.bisect_left(self._cdf, self._rng.random()), len(self._cdf) - 1)


def draw_op(rng: random.Random, key: str, set_pool: int) -> Op:
    """One typed write on ``key``; every op is valid for its type."""
    kind = key[:3]
    if kind == "gct":
        return key, "increment", (1 + rng.randrange(3),)
    if kind == "cnt":
        op = "increment" if rng.random() < 0.7 else "decrement"
        return key, op, (1 + rng.randrange(3),)
    return key, "add", (f"e{rng.randrange(set_pool):02d}",)


def population(keys: int, rf: int = 3, set_pool: int = 0) -> List[Routed]:
    """Initial writes, so every key exists before the window.

    With ``set_pool == 0``, one write per key.  Otherwise the keyspace is
    written at its full size: every counter at each of its ``rf`` owners
    (both directions for ``cnt:``) and every ``set:`` key with each of its
    ``set_pool`` elements, so later writes change values but not the
    number of irreducibles the state decomposes into.
    """
    ops: List[Routed] = []
    for index in range(keys):
        key = key_name(index)
        kind = key[:3]
        if not set_pool:
            if kind == "set":
                ops.append(((key, "add", (f"p{index % SET_POOL:02d}",)), index))
            else:
                ops.append(((key, "increment", (1,)), index))
        elif kind == "set":
            ops += [((key, "add", (f"e{e:02d}",)), e) for e in range(set_pool)]
        else:
            verbs = ("increment", "decrement") if kind == "cnt" else ("increment",)
            ops += [((key, verb, (1,)), owner) for owner in range(rf) for verb in verbs]
    return ops


def key_stream(seed: int, keys: int, count: int, stream: str) -> List[str]:
    """``count`` keys drawn Zipf(1.0) from the first ``keys`` key names."""
    rng = random.Random(f"{stream}-keys:{seed}")
    sampler = Zipf(keys, 1.0, rng)
    names = [key_name(i) for i in range(keys)]
    return [names[sampler.sample()] for _ in range(count)]


def zipf_stream(
    seed: int, keys: int, count: int, stream: str, set_pool: int = SET_POOL
) -> List[Op]:
    """``count`` writes over ``keys`` Zipf(1.0)-popular keys."""
    rng = random.Random(f"{stream}:{seed}")
    sampler = Zipf(keys, 1.0, rng)
    names = [key_name(i) for i in range(keys)]
    return [draw_op(rng, names[sampler.sample()], set_pool) for _ in range(count)]


def route_picks(seed: int, count: int, stream: str) -> List[int]:
    """Which owner of its key each op's client contacts (index mod rf)."""
    rng = random.Random(f"{stream}-route:{seed}")
    return [rng.randrange(1 << 16) for _ in range(count)]


def fingerprint(ops: Sequence[Op]) -> str:
    """A short hash of a schedule, to show that the seed changes it."""
    digest = hashlib.sha256()
    for key, op, args in ops:
        digest.update(f"{key}|{op}|{args!r};".encode())
    return digest.hexdigest()[:16]


class Expected:
    """What every key must read after drain, from acknowledged writes."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.sets: Dict[str, Set[str]] = {}

    def apply(self, key: str, op: str, args: tuple) -> None:
        kind = key[:3]
        if kind == "set":
            self.sets.setdefault(key, set()).add(args[0])
        else:
            sign = -1 if op == "decrement" else 1
            self.counters[key] = self.counters.get(key, 0) + sign * args[0]

    def keys(self) -> List[str]:
        return sorted(list(self.counters) + list(self.sets))

    def matches(self, key: str, value) -> bool:
        if key[:3] == "set":
            return set(value) == self.sets[key]
        return value == self.counters[key]
