"""The client/control wire protocol of the serving layer.

One frame per request and one per response, the same length-prefixed
framing as the peer plane (:mod:`repro.net.tcp`):

``frame := u32be(length) body``

A request body is ``uvarint(request_id) u8(verb) fields``; a response
body is ``uvarint(request_id) u8(status) fields``.  Fields reuse the
:mod:`repro.codec` primitives — keys, ops, and op arguments travel as
atoms, lattice values as their canonical ``encode()`` bytes, and
control-plane structures (address maps, counter snapshots) as compact
JSON blobs.  The request id lets a client pipeline requests over one
connection and match replies; both ends treat it as opaque.

Verbs split into a **data plane** the :class:`~repro.serve.client.
KVClient` speaks — GET/PUT/REMOVE on one key, REPAIR pushing an
encoded keyspace fragment (quorum write replication and read repair
share this verb: both ship deltas the pusher already holds, because
re-applying a typed op at a second owner would double-count
non-idempotent operations) — and a **control plane** the
:class:`~repro.serve.cluster.ProcessCluster` controller speaks: WIRE
distributes the address map / down set / blocked-peer sets / round
counter, TICK runs one anti-entropy tick, COUNTERS reads the
sent/delivered totals the controller's termination detection polls,
ROOTS collects per-shard root hashes for convergence checks, STAT
dumps the metrics registry, APPLY_RING and HANDOFF drive membership
changes, SHUTDOWN exits cleanly.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass, field
from io import BytesIO
from typing import Any, Dict, Optional, Tuple

from repro.codec import CodecError, read_atom, read_uvarint, write_atom, write_uvarint
from repro.net.tcp import LENGTH_PREFIX_BYTES, MAX_FRAME_BYTES

# Data-plane verbs (the KVClient).
GET = 0x01
PUT = 0x02
REMOVE = 0x03
REPAIR = 0x04
# Control-plane verbs (the ProcessCluster controller).
PING = 0x10
WIRE = 0x11
TICK = 0x12
COUNTERS = 0x13
ROOTS = 0x14
STAT = 0x15
APPLY_RING = 0x16
HANDOFF = 0x17
SHUTDOWN = 0x18

_VERB_NAMES = {
    GET: "get",
    PUT: "put",
    REMOVE: "remove",
    REPAIR: "repair",
    PING: "ping",
    WIRE: "wire",
    TICK: "tick",
    COUNTERS: "counters",
    ROOTS: "roots",
    STAT: "stat",
    APPLY_RING: "apply-ring",
    HANDOFF: "handoff",
    SHUTDOWN: "shutdown",
}

# Response statuses.
OK = 0x00
ERR_ROUTING = 0x01      # the key is not owned by the addressed replica
ERR_TYPE = 0x02         # the typed operation was rejected by the schema
ERR_BAD_REQUEST = 0x03  # unparseable / unknown verb
ERR_INTERNAL = 0x04     # anything else; message carries the repr

_BLOB_FLAG = 0x01
_JSON_FLAG = 0x02


def verb_name(verb: int) -> str:
    """Human name of a verb byte (for traces and error messages)."""
    return _VERB_NAMES.get(verb, f"verb-0x{verb:02x}")


class FrameError(CodecError):
    """A frame that does not parse; the connection should be dropped."""


@dataclass(frozen=True)
class Request:
    """One decoded client/control request."""

    id: int
    verb: int
    key: Any = None
    op: Optional[str] = None
    args: Tuple = ()
    blob: bytes = b""
    body: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Response:
    """One decoded reply.  ``blob`` carries encoded lattice bytes
    (``None`` means "no value" — a GET of an unwritten key), ``body``
    carries control-plane JSON, ``error`` the failure message."""

    id: int
    status: int = OK
    blob: Optional[bytes] = None
    body: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == OK


def encode_request(request: Request) -> bytes:
    out = BytesIO()
    write_uvarint(out, request.id)
    out.write(bytes((request.verb,)))
    if request.verb in (GET, REMOVE):
        write_atom(out, request.key)
    elif request.verb == PUT:
        write_atom(out, request.key)
        write_atom(out, request.op)
        write_atom(out, tuple(request.args))
    elif request.verb == REPAIR:
        write_uvarint(out, len(request.blob))
        out.write(request.blob)
    elif request.verb in (WIRE, APPLY_RING, HANDOFF):
        payload = json.dumps(request.body, sort_keys=True, separators=(",", ":"))
        encoded = payload.encode("utf-8")
        write_uvarint(out, len(encoded))
        out.write(encoded)
    return out.getvalue()


def decode_request(data: bytes) -> Request:
    try:
        buf = BytesIO(data)
        request_id = read_uvarint(buf)
        verb_chunk = buf.read(1)
        if not verb_chunk:
            raise FrameError("truncated request: missing verb")
        verb = verb_chunk[0]
        if verb in (GET, REMOVE):
            return Request(request_id, verb, key=read_atom(buf))
        if verb == PUT:
            key = read_atom(buf)
            op = read_atom(buf)
            args = read_atom(buf)
            if not isinstance(op, str) or not isinstance(args, tuple):
                raise FrameError("malformed put request")
            return Request(request_id, verb, key=key, op=op, args=args)
        if verb == REPAIR:
            length = read_uvarint(buf)
            blob = buf.read(length)
            if len(blob) != length:
                raise FrameError("truncated repair blob")
            return Request(request_id, verb, blob=blob)
        if verb in (WIRE, APPLY_RING, HANDOFF):
            length = read_uvarint(buf)
            raw = buf.read(length)
            if len(raw) != length:
                raise FrameError("truncated control body")
            body = json.loads(raw.decode("utf-8"))
            if not isinstance(body, dict):
                raise FrameError("control body must be a JSON object")
            return Request(request_id, verb, body=body)
        if verb in _VERB_NAMES:
            return Request(request_id, verb)
        raise FrameError(f"unknown verb 0x{verb:02x}")
    except FrameError:
        raise
    except (CodecError, ValueError, EOFError) as exc:
        raise FrameError(f"bad request frame: {exc}") from exc


def encode_response(response: Response) -> bytes:
    out = BytesIO()
    write_uvarint(out, response.id)
    out.write(bytes((response.status,)))
    if response.status != OK:
        write_atom(out, response.error or "")
        return out.getvalue()
    flags = 0
    if response.blob is not None:
        flags |= _BLOB_FLAG
    if response.body:
        flags |= _JSON_FLAG
    out.write(bytes((flags,)))
    if response.blob is not None:
        write_uvarint(out, len(response.blob))
        out.write(response.blob)
    if response.body:
        payload = json.dumps(response.body, sort_keys=True, separators=(",", ":"))
        encoded = payload.encode("utf-8")
        write_uvarint(out, len(encoded))
        out.write(encoded)
    return out.getvalue()


def decode_response(data: bytes) -> Response:
    try:
        buf = BytesIO(data)
        request_id = read_uvarint(buf)
        status_chunk = buf.read(1)
        if not status_chunk:
            raise FrameError("truncated response: missing status")
        status = status_chunk[0]
        if status != OK:
            error = read_atom(buf)
            if not isinstance(error, str):
                raise FrameError("error message must be a string")
            return Response(request_id, status, error=error)
        flags_chunk = buf.read(1)
        if not flags_chunk:
            raise FrameError("truncated response: missing flags")
        flags = flags_chunk[0]
        blob: Optional[bytes] = None
        body: Dict[str, Any] = {}
        if flags & _BLOB_FLAG:
            length = read_uvarint(buf)
            blob = buf.read(length)
            if len(blob) != length:
                raise FrameError("truncated response blob")
        if flags & _JSON_FLAG:
            length = read_uvarint(buf)
            raw = buf.read(length)
            if len(raw) != length:
                raise FrameError("truncated response body")
            body = json.loads(raw.decode("utf-8"))
        return Response(request_id, status, blob=blob, body=body)
    except FrameError:
        raise
    except (CodecError, ValueError, EOFError) as exc:
        raise FrameError(f"bad response frame: {exc}") from exc


# ---------------------------------------------------------------------------
# Framing over blocking sockets (the controller and client are plain
# synchronous callers; only the replica process runs an event loop).
# ---------------------------------------------------------------------------


def frame(body: bytes) -> bytes:
    """Prefix a body with its big-endian length."""
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame too large: {len(body)} bytes")
    return struct.pack(">I", len(body)) + body


def send_frame(sock: socket.socket, body: bytes) -> None:
    sock.sendall(frame(body))


def _recv_exact(sock: socket.socket, length: int) -> bytes:
    chunks = []
    remaining = length
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> bytes:
    header = _recv_exact(sock, LENGTH_PREFIX_BYTES)
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame too large: {length} bytes")
    return _recv_exact(sock, length) if length else b""
