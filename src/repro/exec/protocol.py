"""Wire protocol for supervised child processes (supervisor ⇄ child).

Transport: a single TCP connection per child carrying *length-prefixed
pickle frames* — a 4-byte big-endian unsigned length followed by that
many payload bytes.  Frames above :data:`MAX_FRAME` are rejected before
allocation, and a short read raises :class:`ProtocolError` (half a
frame is indistinguishable from a dead peer, so the connection is
abandoned).

Every message is a plain dict with a ``"type"`` key.  The child opens
with :func:`hello`; the supervisor answers with :func:`handshake_reply`
(``welcome`` or ``reject``).  The rest of the conversation belongs to
the supervisor that speaks it — today the live fleet
(:mod:`repro.live.fleet`, children ``repro.live.clientproc``), which
also starts and stops its children through :func:`spawn_module` and
:func:`reap`.

The handshake pins three versions: :data:`PROTOCOL_VERSION` (this wire
format), the library version, and the spec schema
(:data:`~repro.exec.spec.SPEC_SCHEMA`).  A child built against a
different spec schema would compute different digests for the same
content, so mismatches are rejected at connect time, not discovered
at merge time.

Pickle is the serialization because specs already guarantee pickle
round-trip fidelity (see ``tests/test_exec.py``) and children are
*trusted* — they are this library, started by this library on the
same host.
"""

from __future__ import annotations

import io
import os
import pickle
import socket
import struct
import subprocess
import sys
import time
from typing import Dict, Iterable, Optional

from .spec import SPEC_SCHEMA

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME",
    "ProtocolError",
    "FrameTooLarge",
    "send_frame",
    "recv_frame",
    "send_msg",
    "recv_msg",
    "hello",
    "handshake_reply",
    "spawn_module",
    "reap",
]

#: Bump on any incompatible change to framing or message fields.
PROTOCOL_VERSION = 1

#: Upper bound on one frame (64 MiB): a RunResult with kept raw samples
#: is a few MB; anything near this bound indicates a corrupt length
#: prefix, not a legitimate payload.
MAX_FRAME = 64 * 1024 * 1024

_LEN = struct.Struct("!I")


class ProtocolError(RuntimeError):
    """The peer violated the framing or message contract."""


class FrameTooLarge(ProtocolError):
    """A declared frame length exceeded :data:`MAX_FRAME`."""


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, payload: bytes) -> None:
    """Write one length-prefixed frame (atomic via ``sendall``)."""
    if len(payload) > MAX_FRAME:
        raise FrameTooLarge(
            f"refusing to send {len(payload)} byte frame (max {MAX_FRAME})"
        )
    sock.sendall(_LEN.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; None on clean EOF at a frame boundary."""
    buf = io.BytesIO()
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if buf.tell() == 0:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({buf.tell()}/{n} bytes)"
            )
        buf.write(chunk)
        remaining -= len(chunk)
    return buf.getvalue()


def recv_frame(sock: socket.socket) -> Optional[bytes]:
    """Read one frame; ``None`` on clean EOF before a length prefix."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise FrameTooLarge(
            f"peer declared a {length} byte frame (max {MAX_FRAME})"
        )
    if length == 0:
        return b""
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed between length prefix and body")
    return body


# ----------------------------------------------------------------------
# messages
# ----------------------------------------------------------------------
def send_msg(sock: socket.socket, msg: Dict[str, object]) -> None:
    """Pickle and send one message dict."""
    send_frame(sock, pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL))


def recv_msg(sock: socket.socket) -> Optional[Dict[str, object]]:
    """Receive one message dict; ``None`` on clean EOF."""
    frame = recv_frame(sock)
    if frame is None:
        return None
    try:
        msg = pickle.loads(frame)
    except Exception as err:
        raise ProtocolError(f"undecodable frame: {err!r}") from err
    if not isinstance(msg, dict) or "type" not in msg:
        raise ProtocolError(f"malformed message (no type): {msg!r}")
    return msg


# ----------------------------------------------------------------------
# handshake helpers
# ----------------------------------------------------------------------
def _library_version() -> str:
    try:
        from .. import __version__

        return __version__
    except Exception:  # pragma: no cover - defensive
        return "unknown"


def hello(worker: str) -> Dict[str, object]:
    """The worker's opening handshake message."""
    return {
        "type": "hello",
        "protocol": PROTOCOL_VERSION,
        "library": _library_version(),
        "spec_schema": SPEC_SCHEMA,
        "worker": worker,
    }


def handshake_reply(msg: Dict[str, object]) -> Dict[str, object]:
    """Validate a ``hello``; return the ``welcome`` or ``reject`` reply.

    Digest-keyed dedup is only sound when both sides agree on the spec
    schema, so a schema or protocol mismatch is fatal at connect time.
    """
    if msg.get("type") != "hello":
        return {"type": "reject", "reason": f"expected hello, got {msg.get('type')!r}"}
    if msg.get("protocol") != PROTOCOL_VERSION:
        return {
            "type": "reject",
            "reason": (
                f"protocol version mismatch: coordinator={PROTOCOL_VERSION}, "
                f"worker={msg.get('protocol')}"
            ),
        }
    if msg.get("spec_schema") != SPEC_SCHEMA:
        return {
            "type": "reject",
            "reason": (
                f"spec schema mismatch: coordinator={SPEC_SCHEMA}, "
                f"worker={msg.get('spec_schema')} — digests would not be comparable"
            ),
        }
    return {
        "type": "welcome",
        "protocol": PROTOCOL_VERSION,
        "library": _library_version(),
        "spec_schema": SPEC_SCHEMA,
    }


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
#: The directory holding the ``repro`` package, so a child imports the
#: same library version as its parent (the handshake checks it).
_PACKAGE_PARENT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def spawn_module(module: str, *args: str) -> subprocess.Popen:
    """Start ``python -m module *args`` as a child process.

    The child's ``PYTHONPATH`` is this package's parent followed by the
    parent's ``sys.path``, so it imports this library version and any
    task module the parent can import.  Its stdout is discarded; its
    stderr is inherited so crashes stay visible.
    """
    paths = [_PACKAGE_PARENT] + [p for p in sys.path if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.Popen(
        [sys.executable, "-m", module, *args],
        env=env,
        stdout=subprocess.DEVNULL,
    )


def reap(procs: Iterable[Optional[subprocess.Popen]], grace_s: float) -> None:
    """Stop and wait for every child in ``procs`` (``None`` entries skipped).

    Live children get SIGTERM and share one ``grace_s`` deadline to
    exit; any still running after it gets SIGKILL.  Every child is
    waited for, so none is left as a zombie.
    """
    live = [p for p in procs if p is not None and p.poll() is None]
    for proc in live:
        try:
            proc.terminate()
        except OSError:  # pragma: no cover - exited in between
            pass
    deadline = time.monotonic() + grace_s
    for proc in live:
        try:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - kernel lag
                pass
