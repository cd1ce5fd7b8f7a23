"""The asyncio TCP front end of one EncDBDB deployment.

Untrusted infrastructure: this module runs entirely at the DBaaS provider
and only relays opaque frames into the :class:`~repro.server.dbms.
EncDBDBServer` it fronts. It adds the concerns a real deployment has that an
in-process deployment does not:

- **Concurrent sessions.** Every TCP connection is one session with its own
  id and counters. An admission-control semaphore bounds how many sessions
  are resident; a client arriving beyond capacity receives a typed busy
  error instead of an unbounded queue slot.
- **Serialized enclave ecalls.** The paper's cost accounting (one ecall per
  query, exact decryption counts) only stays meaningful if boundary
  crossings do not interleave, so every RPC holds the ecall lock while it
  executes. RPC bodies run in a worker thread, which keeps the event loop
  free to accept frames from other sessions in the meantime. Bulk imports
  perform no ecalls at all (the owner ships finished ciphertext), so they
  run off the lock entirely — a long load never starves other sessions'
  queries. Which discipline a verb gets is a field of its
  :class:`~repro.net.verbs.Verb` line; only names in that table dispatch.
- **One provisioning at a time.** The enclave holds a single handshake slot
  (offer → accept → provision), so the server grants it to one session at a
  time and reclaims it if that session disconnects mid-handshake.
- **Sealed-storage restarts.** With a ``sealed_key_path``, the server seals
  ``SKDB`` to the enclave identity after every successful provisioning and
  unseals it on boot — a restarted server answers queries without a fresh
  attestation round trip (the paper's stated purpose of sealing).
- **Redacted errors.** Execution failures reach the client as typed error
  frames with no stack traces or value material (:mod:`repro.net.errors`).
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.exceptions import (
    EnclaveSecurityError,
    NetworkError,
    ProtocolError,
    ServerBusyError,
)
from repro.net.errors import redact_exception
from repro.net.protocol import (
    PROTOCOL_VERSION,
    FrameType,
    decode_payload,
    encode_frame,
    encode_payload,
    read_frame_async,
)
from repro.net.verbs import FREE, VERBS
from repro.server.dbms import EncDBDBServer


@dataclass
class Session:
    """Per-connection state."""

    session_id: int
    peer: str
    queries: int = 0
    holds_provision_lock: bool = field(default=False, repr=False)
    #: Frames currently being dispatched for this session. Only the event
    #: loop thread touches it; ``NetServer.stop`` polls it to let in-flight
    #: RPCs finish (and their replies flush) before cancelling the session.
    inflight: int = field(default=0, repr=False)


class NetServer:
    """An asyncio TCP server fronting one :class:`EncDBDBServer`."""

    def __init__(
        self,
        dbms: EncDBDBServer | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: int = 8,
        admission_timeout: float = 1.0,
        sealed_key_path: str | Path | None = None,
        shard: int | None = None,
        drain_timeout: float = 1.0,
    ) -> None:
        self.dbms = dbms if dbms is not None else EncDBDBServer()
        self.host = host
        self._requested_port = port
        self.max_sessions = max_sessions
        self.admission_timeout = admission_timeout
        self.sealed_key_path = Path(sealed_key_path) if sealed_key_path else None
        #: Shard id advertised in the hello frame (cluster deployments);
        #: purely informational — routing is decided client-side.
        self.shard = shard
        #: How long ``stop`` waits for in-flight RPCs before cancelling.
        self.drain_timeout = drain_timeout
        self.sessions: dict[int, Session] = {}
        self._next_session_id = 1
        self._asyncio_server: asyncio.AbstractServer | None = None
        self._admission: asyncio.Semaphore | None = None
        self._ecall_lock: asyncio.Lock | None = None
        self._provision_lock: asyncio.Lock | None = None
        # Live per-connection tasks; event-loop thread only.
        self._conn_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._admission = asyncio.Semaphore(self.max_sessions)
        self._ecall_lock = asyncio.Lock()
        self._provision_lock = asyncio.Lock()
        self._maybe_restore_sealed_key()
        self._asyncio_server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )

    @property
    def port(self) -> int:
        if self._asyncio_server is None:
            raise NetworkError("server is not started")
        return self._asyncio_server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._asyncio_server is None:
            await self.start()
        await self._asyncio_server.serve_forever()

    async def stop(self) -> None:
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None
        # Drain: RPCs already dispatched get up to ``drain_timeout`` to
        # finish and flush their replies, then every remaining connection
        # task — idle keep-alive sessions and any waiter still parked on the
        # admission semaphore — is cancelled and awaited. Once the drain
        # returns, ``self.sessions`` is empty and no task holds the
        # provision lock, so the same NetServer instance can be
        # ``start()``-ed again in-process without leaking sessions (the
        # cluster tests restart shards exactly this way).
        await self._drain_sessions()

    async def _drain_sessions(self) -> None:
        tasks = {task for task in self._conn_tasks if not task.done()}
        if tasks:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.drain_timeout
            while (
                any(s.inflight for s in self.sessions.values())
                and loop.time() < deadline
            ):
                await asyncio.sleep(0.02)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        self._conn_tasks.clear()

    def _maybe_restore_sealed_key(self) -> None:
        """Boot path of a restarted server: unseal ``SKDB`` if a sealed blob
        exists for this deployment (no attestation round trip needed)."""
        if self.sealed_key_path is not None and self.sealed_key_path.exists():
            self.dbms.enclave_restore(self.sealed_key_path.read_bytes())

    def _persist_sealed_key(self) -> None:
        if self.sealed_key_path is not None:
            self.sealed_key_path.write_bytes(self.dbms.enclave_seal())

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _send(
        self, writer: asyncio.StreamWriter, frame_type: FrameType, payload: Any
    ) -> None:
        writer.write(encode_frame(frame_type, encode_payload(payload)))
        await writer.drain()

    async def _send_error(
        self, writer: asyncio.StreamWriter, exc: BaseException
    ) -> None:
        kind, message = redact_exception(exc)
        await self._send(writer, FrameType.ERROR, {"kind": kind, "message": message})

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session: Session | None = None
        admitted = False
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            try:
                await asyncio.wait_for(
                    self._admission.acquire(), self.admission_timeout
                )
                admitted = True
            except (asyncio.TimeoutError, TimeoutError):
                await self._send_error(
                    writer,
                    ServerBusyError(
                        f"server at capacity ({self.max_sessions} sessions)"
                    ),
                )
                return
            session = await self._hello(reader, writer)
            if session is None:
                return
            await self._session_loop(session, reader, writer)
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            BrokenPipeError,
        ):
            pass  # peer went away; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutting down with this session still connected
        finally:
            if session is not None:
                if session.holds_provision_lock:
                    self._provision_lock.release()
                    session.holds_provision_lock = False
                self.sessions.pop(session.session_id, None)
            if admitted:
                self._admission.release()
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    async def _hello(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Session | None:
        """Handshake: the first frame must be a version-compatible HELLO."""
        try:
            frame_type, raw = await read_frame_async(reader)
            if frame_type is not FrameType.HELLO:
                raise ProtocolError("expected a hello frame first")
            hello = decode_payload(raw)
            if not isinstance(hello, dict) or hello.get("protocol") != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"client protocol {hello.get('protocol') if isinstance(hello, dict) else '?'} "
                    f"is not supported (server speaks {PROTOCOL_VERSION})"
                )
        except ProtocolError as exc:
            await self._send_error(writer, exc)
            return None
        session = Session(
            session_id=self._next_session_id,
            peer=str(writer.get_extra_info("peername")),
        )
        self._next_session_id += 1
        self.sessions[session.session_id] = session
        await self._send(
            writer,
            FrameType.HELLO,
            {
                "server": "encdbdb",
                "protocol": PROTOCOL_VERSION,
                "session": session.session_id,
                "measurement": self.dbms.measurement,
                "provisioned": await self._run_ecall(
                    self.dbms.enclave_is_provisioned
                ),
                "max_sessions": self.max_sessions,
                "shard": self.shard,
            },
        )
        return session

    async def _session_loop(
        self,
        session: Session,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        while True:
            try:
                frame_type, raw = await read_frame_async(reader)
            except ProtocolError as exc:
                # A peer that breaks framing cannot be resynchronized.
                await self._send_error(writer, exc)
                return
            session.inflight += 1
            try:
                try:
                    reply_type, reply = await self._dispatch_frame(
                        session, frame_type, decode_payload(raw)
                    )
                except Exception as exc:  # noqa: BLE001 — redacted at the boundary
                    await self._send_error(writer, exc)
                    continue
                await self._send(writer, reply_type, reply)
            finally:
                session.inflight -= 1

    # ------------------------------------------------------------------
    # Frame dispatch
    # ------------------------------------------------------------------
    async def _run_ecall(self, func, *args: Any, **kwargs: Any) -> Any:
        """Run one DBMS call with exclusive enclave access.

        The thread offload keeps the event loop reading frames from other
        sessions while a long scan executes; the lock keeps the enclave's
        cost accounting exactly as sequential as the paper assumes.
        """
        async with self._ecall_lock:
            return await asyncio.to_thread(func, *args, **kwargs)

    async def _dispatch_frame(
        self, session: Session, frame_type: FrameType, payload: Any
    ) -> tuple[FrameType, Any]:
        if not isinstance(payload, dict):
            raise ProtocolError(f"{frame_type.name} payload must be a mapping")
        if frame_type is FrameType.ATTEST:
            return await self._dispatch_attest(session, payload)
        if frame_type is FrameType.PROVISION:
            return await self._dispatch_provision(session, payload)
        if frame_type is FrameType.QUERY:
            return await self._dispatch_query(session, payload)
        raise ProtocolError(f"unexpected {frame_type.name} frame mid-session")

    async def _dispatch_attest(
        self, session: Session, payload: dict
    ) -> tuple[FrameType, Any]:
        op = payload.get("op")
        if op == "offer":
            # One provisioning handshake at a time: the enclave has a single
            # listener slot, and SKDB installation must not interleave.
            if not session.holds_provision_lock:
                try:
                    await asyncio.wait_for(
                        self._provision_lock.acquire(), self.admission_timeout * 5
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    raise ServerBusyError(
                        "another session is attesting; retry later"
                    ) from None
                session.holds_provision_lock = True
            offer = await self._run_ecall(self.dbms.enclave_channel_offer)
            return FrameType.ATTEST, {"op": "offer", "offer": offer}
        if op == "accept":
            if not session.holds_provision_lock:
                raise EnclaveSecurityError(
                    "attestation accept outside an attestation sequence"
                )
            client_public = payload.get("client_public")
            if not isinstance(client_public, int):
                raise ProtocolError("attest accept requires an integer public value")
            await self._run_ecall(self.dbms.enclave_channel_accept, client_public)
            return FrameType.ATTEST, {"op": "accepted"}
        raise ProtocolError(f"unknown attest op {op!r}")

    async def _dispatch_provision(
        self, session: Session, payload: dict
    ) -> tuple[FrameType, Any]:
        if not session.holds_provision_lock:
            raise EnclaveSecurityError(
                "provision outside an attestation sequence"
            )
        blob = payload.get("blob")
        if not isinstance(blob, bytes):
            raise ProtocolError("provision requires a bytes blob")
        await self._run_ecall(self.dbms.enclave_provision, blob)
        await self._run_ecall(self._persist_sealed_key)
        self._provision_lock.release()
        session.holds_provision_lock = False
        return FrameType.PROVISION, {"status": "ok"}

    async def _dispatch_query(
        self, session: Session, payload: dict
    ) -> tuple[FrameType, Any]:
        method = payload.get("method")
        verb = VERBS.get(method) if isinstance(method, str) else None
        if verb is None:
            raise ProtocolError(f"unknown rpc method {method!r}")
        args = payload.get("args", ())
        kwargs = payload.get("kwargs", {})
        if not isinstance(args, (list, tuple)) or not isinstance(kwargs, dict):
            raise ProtocolError("rpc args/kwargs malformed")
        session.queries += 1
        # Looked up per call, so a wrapper patched onto the DBMS (or its
        # class) after this module was imported is what runs.
        target = getattr(self.dbms, verb.name)
        if verb.lock == FREE:
            # Runs on a worker thread while other sessions keep querying
            # through the ecall lock (see repro.net.verbs.FREE).
            value = await asyncio.to_thread(target, *args, **kwargs)
        else:
            value = await self._run_ecall(target, *args, **kwargs)
        return FrameType.RESULT, {"value": value}


class ServerThread:
    """Run a :class:`NetServer` on a background event loop.

    Tests, benchmarks and the in-terminal quickstart all need a live TCP
    server next to a synchronous client in the same process::

        with ServerThread(NetServer(dbms)) as handle:
            system = EncDBDBSystem.connect("127.0.0.1", handle.port)
    """

    def __init__(self, server: NetServer, *, startup_timeout: float = 10.0) -> None:
        self.server = server
        self.port: int | None = None
        self._startup_timeout = startup_timeout
        self._ready = threading.Event()
        self._stop_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True
        )
        self._thread.start()
        if not self._ready.wait(self._startup_timeout):
            raise NetworkError("server thread did not start in time")
        if self._error is not None:
            raise self._error
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.server.start()
            self.port = self.server.port
        except BaseException as exc:  # noqa: BLE001 — reported to the caller
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(self._startup_timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
