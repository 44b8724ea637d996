"""Reading untrusted bytes: one bounded cursor and one limits table.

The §3.3 threat model hands the host every byte that crosses the
enclave boundary.  Every serialized format here reads such bytes through
:class:`Reader`, a cursor over one *complete* buffer that checks each
read against what is left and raises the caller's
:class:`~repro.errors.ReproError` subclass, never ``struct.error``.
Every length or count a format may claim is bounded by one entry of the
table below; :meth:`Reader.length` is the one check of a ``len u32``
against it (on a stream, before the body it announces is buffered).

The served request path reads each record once, without a cursor, through
the one-pass helpers below the class (:func:`frame_length`,
:func:`sealed_record`, :func:`tagged`, :func:`tagged_pair` and the three
batch-field loops).  They check the same bounds against the same table
and raise the same errors, with one bounds check per record or entry.
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
        return _truncated(self.error, self.what, count, self.off, len(self.buf) - self.off)

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
            raise _too_large(self.error, self.what, value, limit)
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
            raise _trailing(self.error, self.what, len(self.buf) - self.off)


def whole(buf, layout: struct.Struct, error: Type[ReproError], what: str):
    """The one field of a buffer that holds exactly one ``layout``."""
    reader = Reader(buf, error, what)
    (value,) = reader.unpack(layout)
    reader.end()
    return value


# -- one pass per record ------------------------------------------------------
# Each helper below reads one whole record with one bounds check (per
# entry, for a batch field); a short fixed-size read is ``struct``'s own
# check, turned into the same "truncated" error a Reader raises.
def _truncated(error: Type[ReproError], what: str, count: int, off: int, have: int):
    return error(f"{what} truncated: need {count} bytes at offset {off}, have {have}")


def _too_large(error: Type[ReproError], what: str, value: int, limit: int):
    return error(f"{what} too large ({value} > {limit})")


def _trailing(error: Type[ReproError], what: str, extra: int):
    return error(f"{what} has {extra} trailing bytes")


def _misfit(error: Type[ReproError], what: str, start: int, end: int, size: int):
    """A record whose fields from ``start`` end at ``end``, in ``size`` bytes."""
    if end > size:
        return _truncated(error, what, end - start, start, size - start)
    return _trailing(error, what, size - end)


def frame_length(buf, limit: int, error: Type[ReproError]) -> int:
    """The ``len u32`` prefix at the head of a stream buffer, refused
    above ``limit`` (``DH_PUBLIC`` before a handshake, ``SESSION_FRAME``
    after it) before the body it announces is buffered."""
    try:
        (value,) = U32.unpack_from(buf)
    except struct.error:
        raise _truncated(error, "frame", U32.size, 0, len(buf)) from None
    if value > limit:
        raise _too_large(error, "frame", value, limit)
    return value


def sealed_record(buf, tag_size: int, error: Type[ReproError]) -> tuple:
    """``seq u64 | body | tag``, split with one bounds check:
    ``(seq, body, tag)``."""
    end = len(buf) - tag_size
    if end < U64.size:
        raise _truncated(error, "sealed record", U64.size + tag_size, 0, len(buf))
    return U64.unpack_from(buf)[0], buf[U64.size:end], buf[end:]


def tagged(buf, off: int, layout: struct.Struct, error: Type[ReproError], what: str) -> tuple:
    """``tag | len`` (``layout``, e.g. ``<BI``) at ``off`` and the field
    it announces, which must end the buffer: ``(tag, field)``."""
    try:
        tag, length = layout.unpack_from(buf, off)
    except struct.error:
        raise _truncated(error, what, layout.size, off, max(0, len(buf) - off)) from None
    start = off + layout.size
    if start + length != len(buf):
        raise _misfit(error, what, start, start + length, len(buf))
    return tag, buf[start:]


def tagged_pair(buf, off: int, layout: struct.Struct, error: Type[ReproError], what: str) -> tuple:
    """``tag | len | len`` (``layout``, e.g. ``<BII``) at ``off`` and the
    two fields they announce, which must end the buffer:
    ``(tag, first, second)``."""
    try:
        tag, first, second = layout.unpack_from(buf, off)
    except struct.error:
        raise _truncated(error, what, layout.size, off, max(0, len(buf) - off)) from None
    start = off + layout.size
    mid = start + first
    if mid + second != len(buf):
        raise _misfit(error, what, start, mid + second, len(buf))
    return tag, buf[start:mid], buf[mid:]


def _count(buf, error: Type[ReproError], what: str) -> int:
    """A batch field's leading ``count u32``, refused above ``BATCH_COUNT``."""
    try:
        (count,) = U32.unpack_from(buf)
    except struct.error:
        raise _truncated(error, what, U32.size, 0, len(buf)) from None
    if count > BATCH_COUNT:
        raise _too_large(error, what, count, BATCH_COUNT)
    return count


# The three batch-field shapes.  Each builds its list entry by entry, so
# a claimed count costs only what arrived, and refuses leftover bytes.
def strings(buf, error: Type[ReproError], what: str) -> list:
    """``count u32 | (len u32 | bytes)*``: the list of byte strings."""
    out = []
    append, unpack_from, head = out.append, U32.unpack_from, U32.size
    size, off = len(buf), U32.size
    try:
        for _ in range(_count(buf, error, what)):
            (length,) = unpack_from(buf, off)
            start = off + head
            off = start + length
            if off > size:
                raise _truncated(error, what, length, start, size - start)
            append(buf[start:off])
    except struct.error:
        raise _truncated(error, what, head, off, size - off) from None
    if off != size:
        raise _trailing(error, what, size - off)
    return out


def string_pairs(buf, layout: struct.Struct, error: Type[ReproError], what: str) -> list:
    """``count u32 | (len | len | bytes | bytes)*`` (``layout`` the two
    lengths, e.g. ``<II``): the list of byte-string pairs."""
    out = []
    append, unpack_from, head = out.append, layout.unpack_from, layout.size
    size, off = len(buf), U32.size
    try:
        for _ in range(_count(buf, error, what)):
            first, second = unpack_from(buf, off)
            start = off + head
            mid = start + first
            off = mid + second
            if off > size:
                raise _truncated(error, what, first + second, start, size - start)
            append((buf[start:mid], buf[mid:off]))
    except struct.error:
        raise _truncated(error, what, head, off, size - off) from None
    if off != size:
        raise _trailing(error, what, size - off)
    return out


def optionals(buf, layout: struct.Struct, error: Type[ReproError], what: str) -> list:
    """``count u32 | (flag | len | bytes)*`` (``layout`` the flag and the
    length, e.g. ``<BI``): the list of byte strings, ``None`` for an
    absent one.  Only two entries parse: present (flag 0) and an empty
    absent one (flag 1, length 0)."""
    out = []
    append, unpack_from, head = out.append, layout.unpack_from, layout.size
    size, off = len(buf), U32.size
    try:
        for _ in range(_count(buf, error, what)):
            flag, length = unpack_from(buf, off)
            start = off + head
            off = start + length
            if not flag:
                if off > size:
                    raise _truncated(error, what, length, start, size - start)
                append(buf[start:off])
            elif flag == 1 and not length:
                append(None)
            else:
                raise error(f"{what} entry has flag {flag}, length {length}")
    except struct.error:
        raise _truncated(error, what, head, off, size - off) from None
    if off != size:
        raise _trailing(error, what, size - off)
    return out
