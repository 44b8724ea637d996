"""Reading untrusted bytes: one bounded cursor and one limits table.

The §3.3 threat model hands the host every byte that crosses the
enclave boundary.  Every serialized format here reads such bytes through
:class:`Reader`, a cursor over one *complete* buffer that checks each
read against what is left and raises the caller's
:class:`~repro.errors.ReproError` subclass, never ``struct.error``.
Every length or count a format may claim is bounded by one entry of the
table below; :meth:`Reader.length` is the one check of a ``len u32``
against it (on a stream, before the body it announces is buffered).
"""

from __future__ import annotations

import struct
from typing import Type

from repro.errors import ReproError

# -- the limits table ---------------------------------------------------------
DH_PUBLIC = 256  # the client's handshake frame: a DH public value
# The server's handshake frame: measurement | signature | report data |
# DH public value.  Before the handshake these are the only legal frames.
QUOTE_FRAME = 32 + 32 + 32 + DH_PUBLIC
SESSION_FRAME = 1 << 26  # one frame of an established session
BATCH_COUNT = 1 << 20  # entries in one batch field
# One sealed write-ahead-log frame body, checked by replay *and* by
# append, so that no op is acknowledged that replay would refuse.
WAL_BODY = 1 << 26

U8, U16, U32, U64, F64 = (struct.Struct(f) for f in ("<B", "<H", "<I", "<Q", "<d"))


class Reader:
    """Bounds-checked cursor over one complete untrusted buffer; every
    refusal is an ``error`` naming ``what`` was being read."""

    __slots__ = ("buf", "off", "error", "what")

    def __init__(self, buf, error: Type[ReproError], what: str):
        self.buf = buf
        self.off = 0
        self.error = error
        self.what = what

    def _truncated(self, count: int) -> ReproError:
        return self.error(
            f"{self.what} truncated: need {count} bytes at offset "
            f"{self.off}, have {len(self.buf) - self.off}"
        )

    def take(self, count: int) -> bytes:
        off = self.off
        end = off + count
        if count < 0 or end > len(self.buf):
            raise self._truncated(count)
        self.off = end
        return self.buf[off:end]

    def unpack(self, layout: struct.Struct) -> tuple:
        off = self.off
        end = off + layout.size
        if end > len(self.buf):
            raise self._truncated(layout.size)
        self.off = end
        return layout.unpack_from(self.buf, off)

    def u8(self) -> int:
        return self.unpack(U8)[0]

    def u16(self) -> int:
        return self.unpack(U16)[0]

    def u32(self) -> int:
        return self.unpack(U32)[0]

    def u64(self) -> int:
        return self.unpack(U64)[0]

    def length(self, limit: int, minimum: int = 0) -> int:
        """A ``u32`` length or count, refused outside ``minimum..limit``."""
        value = self.unpack(U32)[0]
        if value > limit:
            raise self.error(f"{self.what} too large ({value} > {limit})")
        if value < minimum:
            raise self.error(f"{self.what} has implausible length {value} (< {minimum})")
        return value

    def left(self) -> int:
        return len(self.buf) - self.off

    def rest(self) -> bytes:
        off, self.off = self.off, len(self.buf)
        return self.buf[off:]

    def end(self) -> None:
        """Refuse leftover bytes: every format here is parsed whole."""
        if self.off != len(self.buf):
            raise self.error(f"{self.what} has {len(self.buf) - self.off} trailing bytes")


def whole(buf, layout: struct.Struct, error: Type[ReproError], what: str):
    """The one field of a buffer that holds exactly one ``layout``."""
    reader = Reader(buf, error, what)
    (value,) = reader.unpack(layout)
    reader.end()
    return value
