"""Tests for the length-prefixed frame protocol (:mod:`repro.exec.protocol`).

* framing — round trips, clean EOF, torn and oversized frames,
  undecodable and non-dict payloads;
* the versioned handshake;
* a fuzz test: any byte stream a peer can send makes ``recv_msg``
  return a typed message, return ``None`` (clean EOF), or raise
  :class:`~repro.exec.protocol.ProtocolError` — never another
  exception, never a hang.
"""

import pickle
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import protocol as proto


# ----------------------------------------------------------------------
# protocol: framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            proto.send_msg(a, {"type": "hello", "payload": list(range(100))})
            msg = proto.recv_msg(b)
            assert msg == {"type": "hello", "payload": list(range(100))}
        finally:
            a.close()
            b.close()

    def test_empty_and_sequential_frames(self):
        a, b = socket.socketpair()
        try:
            proto.send_frame(a, b"")
            proto.send_frame(a, b"xyz")
            assert proto.recv_frame(b) == b""
            assert proto.recv_frame(b) == b"xyz"
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert proto.recv_msg(b) is None
        finally:
            b.close()

    def test_truncated_frame_raises(self):
        a, b = socket.socketpair()
        try:
            # Declare 100 bytes, deliver 3, hang up.
            a.sendall(b"\x00\x00\x00\x64abc")
            a.close()
            with pytest.raises(proto.ProtocolError):
                proto.recv_frame(b)
        finally:
            b.close()

    def test_oversized_declared_frame_rejected_before_allocation(self):
        a, b = socket.socketpair()
        try:
            a.sendall((proto.MAX_FRAME + 1).to_bytes(4, "big"))
            with pytest.raises(proto.FrameTooLarge):
                proto.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_send_rejected(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(proto.FrameTooLarge):
                proto.send_frame(a, b"x" * (proto.MAX_FRAME + 1))
        finally:
            a.close()
            b.close()

    def test_undecodable_frame_raises(self):
        a, b = socket.socketpair()
        try:
            proto.send_frame(a, b"not a pickle")
            with pytest.raises(proto.ProtocolError):
                proto.recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_non_dict_message_rejected(self):
        a, b = socket.socketpair()
        try:
            proto.send_frame(a, pickle.dumps([1, 2, 3]))
            with pytest.raises(proto.ProtocolError):
                proto.recv_msg(b)
        finally:
            a.close()
            b.close()


class TestHandshake:
    def test_matching_versions_welcomed(self):
        reply = proto.handshake_reply(proto.hello("w1"))
        assert reply["type"] == "welcome"
        assert reply["protocol"] == proto.PROTOCOL_VERSION

    def test_protocol_mismatch_rejected(self):
        msg = proto.hello("w1")
        msg["protocol"] = proto.PROTOCOL_VERSION + 1
        reply = proto.handshake_reply(msg)
        assert reply["type"] == "reject"
        assert "protocol version" in reply["reason"]

    def test_spec_schema_mismatch_rejected(self):
        msg = proto.hello("w1")
        msg["spec_schema"] = -1
        reply = proto.handshake_reply(msg)
        assert reply["type"] == "reject"
        assert "schema" in reply["reason"]

    def test_non_hello_rejected(self):
        assert proto.handshake_reply({"type": "get"})["type"] == "reject"


# ----------------------------------------------------------------------
# fuzz: every byte stream decodes, ends cleanly, or is a ProtocolError
# ----------------------------------------------------------------------
_PICKLABLE = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _frame(draw):
    """One frame as a peer might send it: honest or hostile."""
    kind = draw(st.sampled_from(["message", "pickle", "raw", "prefix"]))
    if kind == "message":  # a well-formed message, maybe with junk fields
        extra = draw(st.dictionaries(st.text(max_size=8), _PICKLABLE, max_size=3))
        body = pickle.dumps({**extra, "type": draw(st.text(max_size=8))})
    elif kind == "pickle":  # a valid pickle that is not a message
        body = pickle.dumps(draw(_PICKLABLE))
    else:  # arbitrary bytes
        body = draw(st.binary(max_size=256))
    if kind == "prefix":  # a length prefix that lies about the body
        length = draw(st.integers(min_value=0, max_value=2**32 - 1))
    else:
        length = len(body)
    return struct.pack("!I", length) + body


@st.composite
def _stream(draw):
    """Frames back to back, optionally cut short, or raw noise."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=1024))
    data = b"".join(draw(st.lists(_frame(), max_size=4)))
    cut = draw(st.integers(min_value=0, max_value=len(data)))
    return data[:cut] if draw(st.booleans()) else data


class TestFuzzDecoder:
    @given(_stream())
    @settings(max_examples=300, deadline=None)
    def test_any_stream_decodes_ends_or_raises_protocol_error(self, data):
        a, b = socket.socketpair()
        try:
            a.sendall(data)
            a.close()
            # A stalled read raises socket.timeout: a hang fails the test.
            b.settimeout(5.0)
            for _ in range(len(data) + 1):
                try:
                    msg = proto.recv_msg(b)
                except proto.ProtocolError:
                    break
                if msg is None:
                    break
                assert isinstance(msg, dict) and "type" in msg
            else:  # pragma: no cover - every frame consumes >= 4 bytes
                pytest.fail("decoder never reached the end of the stream")
        finally:
            a.close()
            b.close()
