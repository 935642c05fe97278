"""Real sockets: the tcp peer plane and the in-process tcp transport.

:class:`TcpPeerPlane` is the one implementation of the peer plane.  It
owns the framing, the handshake naming the dialing replica, the
inbound accept loop, one connection per (sender, destination), and the
send path: the shared admission step refuses sends to down or
partitioned peers, each admitted message is framed with
:func:`repro.codec.frame_message`, and its *measured wire bytes* — the
payload section's encoded length, the envelope's framing plus the
length prefix — are accounted instead of size-model estimates.
``payload_units``/``metadata_units`` travel in the envelope, so the
paper's entry metric stays exactly comparable between transports.
Sends queue per connection; :meth:`TcpPeerPlane.flush` writes and
drains each connection once.  A connection that is gone or fails while
draining takes its frames back — they are not counted as sent — and
the sender's runtime hears ``note_send_blocked``.

Two hosts run replicas on the plane.  :class:`AsyncTcpTransport` hosts
every replica of a cluster in one event loop and keeps the round
structure the paper's deployment assumes: :meth:`run_round` applies
the round's updates, fires every live replica's timer *before* any
delivery — like the simulator, where all timers fire at the
half-interval mark — then runs the loop until no frame is in flight
(an in-flight counter turns a stalled peer into
:class:`~repro.net.transport.TransportStalled` instead of a hang).
:class:`repro.serve.replica.ReplicaProcess` hosts one replica per OS
process, ticked by its controller.

Faults mirror the simulator's fail-stop model without socket churn: a
crashed or partitioned peer refuses sends at the sender.  Faults are
injected between rounds and every round settles, so no frame is caught
in flight — ``messages_severed`` stays 0 on TCP.  ``loss_rate`` eats
transmitted frames through the shared per-edge coin flips, a pure
function of ``(loss_seed, src, dst, k)``, so TCP runs and the
simulator drop the same frames whatever the callback order.

Wire format per connection::

    frame     := u32be(length) body                 # length <= MAX_FRAME_BYTES
    body[0]   := uvarint(sender replica index)      # handshake, once
    body[1:]  := message envelope                   # repro.codec
"""

from __future__ import annotations

import asyncio
import functools
import struct
import time
import warnings
from abc import abstractmethod
from io import BytesIO
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.codec import (
    CodecError,
    decode_message,
    frame_message,
    read_uvarint,
    write_uvarint,
)
from repro.net.transport import Transport, TransportStalled
from repro.sim.metrics import MetricsCollector
from repro.sync.protocol import Message, Send

#: Every listener binds loopback.
HOST = "127.0.0.1"

#: Bytes of the per-frame length prefix, counted as framing metadata.
LENGTH_PREFIX_BYTES = 4

#: Refuse absurd frames instead of allocating on a corrupt prefix.
MAX_FRAME_BYTES = 64 * 1024 * 1024


async def read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read one frame's body; ``None`` once the peer has closed.

    A length over :data:`MAX_FRAME_BYTES` raises :class:`CodecError`
    before any body is buffered: a corrupt header costs its connection.
    """
    try:
        header = await reader.readexactly(LENGTH_PREFIX_BYTES)
        (length,) = struct.unpack(">I", header)
        if length > MAX_FRAME_BYTES:
            raise CodecError(f"frame too large: {length} bytes")
        return await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None  # peer closed; normal at shutdown


class TcpPeerPlane(Transport):
    """Listeners, dialed connections and the send path of tcp replicas.

    A host publishes where each replica listens in :attr:`addresses`
    and dials with :meth:`connect`.  It decides what a received message
    does (:meth:`_receive`), what a failed inbound connection means
    (:meth:`_peer_failed`), and how frames on the wire are counted
    (:meth:`_in_flight`).
    """

    def __init__(self, config, metrics) -> None:
        super().__init__(config, metrics)
        self._epoch = time.monotonic()
        #: Where each replica accepts peer connections.
        self.addresses: Dict[int, Tuple[str, int]] = {}
        #: Open connections, keyed (sending replica, destination).
        self._writers: Dict[Tuple[int, int], asyncio.StreamWriter] = {}
        #: Frames queued for the next flush, per connection, in send order.
        self._outbox: Dict[Tuple[int, int], List[bytes]] = {}
        self._servers: list = []
        self._reader_tasks: Set[asyncio.Task] = set()

    @property
    def now(self) -> float:
        """Milliseconds of real (monotonic) time since the plane's creation."""
        return (time.monotonic() - self._epoch) * 1000.0

    # ------------------------------------------------------------------
    # Connections.
    # ------------------------------------------------------------------

    async def listen(self, replica: int) -> int:
        """Accept peer connections for hosted ``replica``; return the port."""
        server = await asyncio.start_server(
            functools.partial(self._accept, replica), HOST, 0
        )
        self._servers.append(server)
        return server.sockets[0].getsockname()[1]

    async def connect(self, src: int, dst: int) -> None:
        """Dial ``dst`` at its published address and name ``src`` to it."""
        host, port = self.addresses[dst]
        _, writer = await asyncio.open_connection(host, port)
        hello = BytesIO()
        write_uvarint(hello, src)
        writer.write(struct.pack(">I", len(hello.getvalue())) + hello.getvalue())
        self._writers[(src, dst)] = writer

    def connected(self, src: int, dst: int) -> bool:
        writer = self._writers.get((src, dst))
        return writer is not None and not writer.is_closing()

    def disconnect(self, src: int, dst: int) -> None:
        writer = self._writers.pop((src, dst), None)
        if writer is not None:
            writer.close()

    async def _accept(self, dst: int, reader, writer) -> None:
        """Serve one inbound connection: handshake, then messages."""
        task = asyncio.current_task()
        self._reader_tasks.add(task)
        try:
            hello = await read_frame(reader)
            if hello is None:
                return
            src = read_uvarint(BytesIO(hello))
            while (data := await read_frame(reader)) is not None:
                # Decoded in the call so this frame keeps no reference
                # to the message while it waits for the next one.
                await self._receive(src, dst, self._decode(data))
        except Exception as exc:
            self._peer_failed(exc)
        finally:
            self._reader_tasks.discard(task)
            writer.close()

    @abstractmethod
    async def _receive(self, src: int, dst: int, message: Message) -> None:
        """Hand one message from ``src`` to hosted replica ``dst``."""

    @abstractmethod
    def _peer_failed(self, exc: Exception) -> None:
        """An inbound connection ended with ``exc``; it is closed."""

    @abstractmethod
    def _in_flight(self, dst: int, frames: int) -> None:
        """``frames`` frames to ``dst`` went onto (negative: off) the wire."""

    # ------------------------------------------------------------------
    # The send path.
    # ------------------------------------------------------------------

    def send(self, src: int, sends: Sequence[Send]) -> None:
        """Admit, frame and account each message; queue it for the flush."""
        for send in sends:
            if not self._admit(src, send):
                continue
            if self.timers is None:
                frame = frame_message(send.message)
            else:
                with self.timers.span("tcp.encode", units=send.message.total_units):
                    frame = frame_message(send.message)
            if self._transmit(
                src,
                send,
                frame.payload_bytes,
                frame.metadata_bytes + LENGTH_PREFIX_BYTES,
            ):
                self._outbox.setdefault((src, send.dst), []).append(frame.data)

    async def flush(self) -> None:
        """Write every queued frame: one write, then one drain, per connection."""
        outbox, self._outbox = self._outbox, {}
        written = []
        for (src, dst), frames in outbox.items():
            writer = self._writers.get((src, dst))
            if writer is None or writer.is_closing():
                self._unsent(src, dst, writer)
                continue
            writer.write(
                b"".join(struct.pack(">I", len(frame)) + frame for frame in frames)
            )
            self._in_flight(dst, len(frames))
            written.append((src, dst, writer, len(frames)))
        for src, dst, writer, count in written:
            try:
                await writer.drain()
            except ConnectionError:
                # The peer died with the frames in flight: they were
                # never delivered, and counting them as sent would wedge
                # a quiescence check that waits for their delivery.
                self._in_flight(dst, -count)
                self._unsent(src, dst, writer)

    def _unsent(self, src: int, dst: int, writer) -> None:
        if writer is not None:
            writer.close()
            # A connection dialed while this one drained stays open.
            if self._writers.get((src, dst)) is writer:
                del self._writers[(src, dst)]
        self.runtimes[src].note_send_blocked(dst)

    def _decode(self, data: bytes) -> Message:
        if self.timers is None:
            return decode_message(data)
        with self.timers.span("tcp.decode"):
            return decode_message(data)

    async def close_sockets(self, grace_s: float) -> None:
        """Close connections, then readers (cancelled if still open
        after ``grace_s`` seconds), then listeners."""
        writers = list(self._writers.values())
        self._writers.clear()
        for writer in writers:
            writer.close()
        for writer in writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._reader_tasks:
            _, pending = await asyncio.wait(self._reader_tasks, timeout=grace_s)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()


class AsyncTcpTransport(TcpPeerPlane):
    """Every replica of a cluster on one tcp peer plane, in one event loop."""

    def __init__(
        self,
        config,
        metrics: MetricsCollector,
        *,
        settle_timeout_s: float = 30.0,
    ) -> None:
        super().__init__(config, metrics)
        self._loop = asyncio.new_event_loop()
        self._round = 0
        #: Frames on the wire but not yet fully processed at their receiver.
        self._pending = 0
        #: The same count broken down by receiving replica, so a stall
        #: can name who stopped making progress.
        self._pending_by_dst: Dict[int, int] = {}
        self._progress: Optional[asyncio.Event] = None
        self._failure: Optional[BaseException] = None
        self._started = False
        self._closed = False
        #: Shutdown scheduled by a re-entrant close() (loop running).
        self._deferred_shutdown: Optional[asyncio.Task] = None
        self._settle_timeout_s = settle_timeout_s

    # ------------------------------------------------------------------
    # Wiring: sockets come up when the runtimes bind.
    # ------------------------------------------------------------------

    def bind(self, runtimes) -> None:
        super().bind(runtimes)
        self._loop.run_until_complete(self._open_sockets())
        self._started = True

    async def _open_sockets(self) -> None:
        self._progress = asyncio.Event()
        for node in range(self.topology.n):
            self.addresses[node] = (HOST, await self.listen(node))
        for node in range(self.topology.n):
            for peer in self.topology.neighbors(node):
                await self.connect(node, peer)

    async def _receive(self, src: int, dst: int, message: Message) -> None:
        try:
            if not self.link_up(src, dst):
                # Defensive only: faults are injected between rounds
                # and rounds settle to quiescence, so under the current
                # driver no frame is ever caught in flight (see module
                # docstring).  Kept for a future free-running mode.
                self.messages_severed += 1
                self._trace_severed(src, dst, message.kind)
            else:
                self._trace_deliver(src, dst, message.kind)
                self.runtimes[dst].deliver(src, message)
        finally:
            self._in_flight(dst, -1)
            self._progress.set()

    def _peer_failed(self, exc: Exception) -> None:
        self._failure = exc  # raised by the driving coroutine
        self._progress.set()

    def _in_flight(self, dst: int, frames: int) -> None:
        self._pending += frames
        remaining = self._pending_by_dst.get(dst, 0) + frames
        if remaining > 0:
            self._pending_by_dst[dst] = remaining
        else:
            self._pending_by_dst.pop(dst, None)

    # ------------------------------------------------------------------
    # Driving: one synchronization interval per round.
    # ------------------------------------------------------------------

    def run_round(self, updates=None) -> None:
        if not self._started:
            raise RuntimeError("transport is not bound to runtimes yet")
        if updates is not None:
            for node in range(self.topology.n):
                mutators = updates(node)
                if not mutators:
                    continue
                if node in self.down:
                    # The client's replica is gone; its scheduled
                    # operations are lost, and visibly so.
                    self.updates_skipped += len(mutators)
                    continue
                for mutator in mutators:
                    self.runtimes[node].local_update(mutator)
        # Every live timer fires before any delivery — the loop is not
        # running yet, so ticks observe the quiesced pre-round state,
        # matching the simulator's half-interval timer alignment.
        for node in range(self.topology.n):
            if node in self.down:
                continue
            self.runtimes[node].tick()
        self._loop.run_until_complete(self._settle())
        # repro: lint-ok[det-taint] tcp's time axis is real wall time by design; memory samples are diagnostics keyed to it, never fingerprinted
        self.sample_memory(self.now)
        self._round += 1
        if self.tracer is not None:
            self.tracer.emit("round", round=self._round - 1)

    async def _settle(self) -> None:
        """Flush the outbox and wait until no frame is in flight."""
        while True:
            if self._failure is not None:
                failure, self._failure = self._failure, None
                raise failure
            await self.flush()
            if self._outbox:
                continue  # deliveries during the drains queued replies
            if self._pending == 0:
                return
            self._progress.clear()
            try:
                await asyncio.wait_for(
                    self._progress.wait(), timeout=self._settle_timeout_s
                )
            except asyncio.TimeoutError:
                stalled = ", ".join(
                    f"replica {dst} ({count} frame{'s' if count != 1 else ''})"
                    for dst, count in sorted(self._pending_by_dst.items())
                )
                raise TransportStalled(
                    f"round {self._round}: no delivery progress for "
                    f"{self._settle_timeout_s}s with {self._pending} frame(s) "
                    f"in flight; stalled at {stalled or 'unknown receivers'}"
                ) from None

    @property
    def rounds_run(self) -> int:
        return self._round

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        if self._started and not self._loop.is_closed() and self._loop.is_running():
            # close() re-entered from inside the running loop — e.g.
            # cleanup after TransportStalled escaped _settle, or __del__
            # firing from a callback.  run_until_complete would raise
            # RuntimeError here, so cancel the readers, schedule the
            # socket shutdown on the live loop, and leave the final
            # teardown (and the loop itself) to a later close() call
            # made from outside the loop.
            for task in self._reader_tasks:
                task.cancel()
            if self._deferred_shutdown is None:
                self._deferred_shutdown = self._loop.create_task(self._shutdown())
            return
        self._closed = True
        try:
            if self._started and not self._loop.is_closed():
                deferred = self._deferred_shutdown
                if deferred is None:
                    self._loop.run_until_complete(self._shutdown())
                elif not deferred.done():
                    self._loop.run_until_complete(deferred)
                elif deferred.cancelled() or deferred.exception() is not None:
                    # The scheduled teardown died mid-flight; retrieving
                    # the exception (so asyncio does not log it as lost)
                    # and running a fresh shutdown closes what it missed.
                    self._loop.run_until_complete(self._shutdown())
        finally:
            # Even a teardown that raised must not leak the loop:
            # _closed is already True, so no later call would retry.
            self._loop.close()

    async def _shutdown(self) -> None:
        # Every reader's peer is in this plane, so each ends on EOF
        # well inside the grace period instead of being cancelled.
        await self.close_sockets(grace_s=5.0)

    def __del__(self) -> None:  # pragma: no cover - defensive cleanup
        try:
            self.close()
        except (RuntimeError, OSError) as exc:
            # A destructor must not raise.  close() entered this late
            # can find the loop half-dead (RuntimeError) or the sockets
            # already torn down (OSError); report the leak the way
            # CPython reports unclosed resources rather than hiding it.
            warnings.warn(
                f"AsyncTcpTransport.__del__: close failed: {exc!r}",
                ResourceWarning,
                source=self,
            )
