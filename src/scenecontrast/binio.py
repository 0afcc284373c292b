"""Little helpers for binary files with byte-offset accounting.

Both container formats in this package (scene files and checkpoints) start
with a 4-byte magic and a u32 version, and want errors that name the file,
the failing section and the byte offset, so reads go through a cursor
object that tracks position and raises FormatError.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError


class ByteCursor:
    """Sequential reader over the bytes of the file ``path`` whose errors
    start with that path.

    The cursor reads through a memoryview, so taking bytes copies nothing;
    ``array`` copies once, into an array of its own or the caller's.
    """

    def __init__(self, data: bytes, path):
        self.data = memoryview(data)
        self.pos = 0
        self.path = path

    def fail(self, message: str, offset: int) -> FormatError:
        return FormatError(f"{self.path}: {message}", offset)

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def take(self, n: int, what: str) -> memoryview:
        if n > self.remaining():
            raise self.fail(
                f"truncated while reading {what}: need {n} bytes, have "
                f"{self.remaining()}",
                self.pos,
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def array(self, dtype: str, count: int, what: str, out=None) -> np.ndarray:
        """``count`` little-endian values in native order: a new array, or
        ``out``, a (count,) array of ``dtype`` that they are written into."""
        dt = np.dtype(dtype).newbyteorder("<")
        raw = np.frombuffer(self.take(dt.itemsize * count, what), dtype=dt)
        out = np.empty(count, dtype) if out is None else out  # once the bytes are there
        np.copyto(out, raw)
        return out

    def finite(self, dtype: str, count: int, what: str, out=None) -> np.ndarray:
        """``array``, failing at the first NaN or infinity read."""
        start = self.pos
        values = self.array(dtype, count, what, out)
        self.reject(values, ~np.isfinite(values), start, f"non-finite value in {what}")
        return values

    def reject(self, values: np.ndarray, bad: np.ndarray, start: int, message: str) -> None:
        """Fail at the first element of ``values``, read at ``start``, where
        ``bad`` holds; ``{}`` in ``message`` takes that element's value."""
        hits = np.flatnonzero(bad)
        if hits.size:
            i = int(hits[0])
            raise self.fail(message.format(values[i]), start + values.itemsize * i)

    def expect_end(self, what: str) -> None:
        if self.remaining():
            raise self.fail(
                f"{self.remaining()} trailing bytes after {what}",
                self.pos,
            )


def pack_u32(*values: int) -> bytes:
    return struct.pack(f"<{len(values)}I", *values)


def pack_array(arr: np.ndarray, dtype: str) -> bytes:
    return np.ascontiguousarray(arr, dtype=np.dtype(dtype).newbyteorder("<")).tobytes()


def read_container(path, magic: bytes, version: int) -> ByteCursor:
    """A cursor over the file, past its checked magic and version."""
    with open(path, "rb") as fh:
        cur = ByteCursor(fh.read(), path)
    found = bytes(cur.take(4, "magic"))
    if found != magic:
        raise cur.fail(f"bad magic {found!r}, expected {magic!r}", 0)
    found = cur.u32("version")
    if found != version:
        raise cur.fail(f"unsupported version {found}", 4)
    return cur


def write_container(path, magic: bytes, version: int, chunks: list[bytes]) -> None:
    """Write the magic, the u32 version and the chunks, which the caller
    packs before the file is opened."""
    with open(path, "wb") as fh:
        fh.writelines([magic, pack_u32(version), *chunks])
