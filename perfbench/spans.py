"""Layer spans recorded from the benchmark's side of the API.

:class:`SpanRecorder` replaces public entry points of the program with
wrappers, at the name each caller resolves: a method on its class, or a
function in the module that imported it with ``from … import`` (a
rebinding in the defining module would miss those callers).  Each
wrapper records a span ``(name, start, end, parent)`` and charges the
span's duration minus its children's to the layer's self time.  Spans
live in memory and are written as JSONL by :meth:`write_jsonl`;
:meth:`uninstall` restores every original.

The program itself is not edited: the spans sit at layer boundaries
the benchmark can reach, and what runs between them is charged to the
enclosing span's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Spans kept for the JSONL file; past this, spans are still timed and
#: counted but not stored, so a long traced run cannot exhaust memory.
MAX_STORED_SPANS = 200_000

#: ``(span name, "module:attribute path", root span it must run under)``.
#: Names are ``<layer>.<entry point>``; the layer is the program module
#: the entry point belongs to.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    # net: the replica runtime, the transports' round loops, sampling.
    ("net.tick", "repro.net.runtime:ReplicaRuntime.tick", None),
    ("net.deliver", "repro.net.runtime:ReplicaRuntime.deliver", None),
    ("net.local_update", "repro.net.runtime:ReplicaRuntime.local_update", None),
    ("net.sample_memory", "repro.net.transport:Transport.sample_memory", None),
    ("net.events", "repro.net.sim:SimTransport.run_round", None),
    ("net.io", "repro.net.tcp:AsyncTcpTransport.run_round", None),
    # kv: the repair handler, scheduler planning, convergence checks.
    ("kv.repair", "repro.kv.store:KVStore._handle_repair", None),
    ("kv.plan", "repro.kv.antientropy:AntiEntropyScheduler.plan", None),
    ("kv.converged", "repro.kv.cluster:KVCluster.converged", None),
    ("kv.value", "repro.kv.cluster:KVCluster.value", None),
    # sync: fingerprints, digest diffs, incremental roots.
    ("sync.fingerprint", "repro.sync.digest:fingerprint", None),
    ("sync.diff", "repro.kv.store:delta_against_digest", None),
    ("sync.diff", "repro.kv.store:digest_and_missing", None),
    ("sync.root", "repro.sync.digest:IncrementalDigest.root", None),
    ("sync.digest", "repro.sync.digest:IncrementalDigest.digest", None),
    # sizes: the store's byte/unit accounting behind memory samples.
    ("sizes.account", "repro.kv.store:KVStore.state_bytes", None),
    ("sizes.account", "repro.kv.store:KVStore.state_units", None),
    ("sizes.account", "repro.kv.store:KVStore.buffer_bytes", None),
    ("sizes.account", "repro.kv.store:KVStore.metadata_bytes", None),
    # codec: canonical encode/decode and wire framing.
    ("codec.encode", "repro.wal.log:encode", None),
    ("codec.encode", "repro.kv.store:encode", None),
    ("codec.frame", "repro.net.tcp:frame_message", None),
    ("codec.decode", "repro.net.tcp:decode_message", None),
    ("codec.decode", "repro.wal.log:decode", None),
    ("codec.decode", "repro.kv.store:decode", None),
    ("codec.decode", "repro.serve.client:decode", "serve.client"),
    # wal: group-commit staging, commits, recovery replay.
    ("wal.append", "repro.wal.log:ReplicaWal.append", None),
    ("wal.commit", "repro.wal.log:ReplicaWal.commit", None),
    ("wal.replay", "repro.wal.log:ReplicaWal.replay", None),
    # serve: the client, its frames and socket waits, the round driver.
    ("serve.client", "repro.serve.client:KVClient.put", None),
    ("serve.client", "repro.serve.client:KVClient.get", None),
    ("serve.frames", "repro.serve.frames:encode_request", "serve.client"),
    ("serve.frames", "repro.serve.frames:decode_response", "serve.client"),
    ("serve.send", "repro.serve.frames:send_frame", "serve.client"),
    ("serve.wait", "repro.serve.frames:recv_frame", "serve.client"),
    ("serve.drain", "repro.serve.cluster:ProcessCluster.drain", None),
    ("serve.settle", "repro.serve.cluster:ProcessCluster.run_round", None),
    ("serve.converged", "repro.serve.cluster:ProcessCluster.converged", None),
)


def _resolve(target: str):
    """``(owner object, attribute name, current value)`` of a target."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


class SpanRecorder:
    """Records nested layer spans through wrapped entry points."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: ``(name, start, end, parent index)``; parent -1 = top level,
        #: -2 = a parent that was past :data:`MAX_STORED_SPANS`.
        self.spans: List[Tuple[str, float, float, int]] = []
        self.dropped = 0
        #: Time covered by top-level spans (the attributed share).
        self.top_level_s = 0.0
        self._stack: List[list] = []  # [name, index, child seconds]
        self._root: Optional[str] = None
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------

    def install(self) -> None:
        for name, target, within in ENTRY_POINTS:
            owner, attribute, original = _resolve(target)
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original, within))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def _wrap(self, name: str, fn: Callable, within: Optional[str]) -> Callable:
        for table in (self.self_s, self.total_s, self.calls):
            table.setdefault(name, 0)
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if within is not None and self._root != within:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            if not stack:
                self._root = name
            if len(spans) < MAX_STORED_SPANS:
                index = len(spans)
                spans.append((name, 0.0, 0.0, parent))
            else:
                index = -2
                self.dropped += 1
            entry = [name, index, 0.0]
            stack.append(entry)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.self_s[name] += duration - entry[2]
                self.total_s[name] += duration
                self.calls[name] += 1
                if index >= 0:
                    spans[index] = (name, start, end, parent)
                if stack:
                    stack[-1][2] += duration
                else:
                    self.top_level_s += duration
                    self._root = None

        return wrapper

    # ------------------------------------------------------------------

    def table(self, wall_s: float) -> str:
        """Per-span self time, calls and share of ``wall_s``."""
        lines = [f"  {'span':<20} {'self s':>10} {'calls':>10} {'share':>7}"]
        for name in sorted(self.self_s, key=lambda n: -self.self_s[n]):
            if not self.calls[name]:
                continue
            share = self.self_s[name] / wall_s if wall_s > 0 else 0.0
            lines.append(
                f"  {name:<20} {self.self_s[name]:>10.4f} "
                f"{self.calls[name]:>10d} {share:>6.1%}"
            )
        return "\n".join(lines)

    def write_jsonl(self, path: str, header: dict) -> None:
        """One header line, one line per stored span, one totals line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "header", **header}) + "\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "type": "span",
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
            handle.write(
                json.dumps(
                    {
                        "type": "totals",
                        "dropped_spans": self.dropped,
                        "self_s": self.self_s,
                        "total_s": self.total_s,
                        "calls": self.calls,
                    }
                )
                + "\n"
            )
