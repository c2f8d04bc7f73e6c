"""What the AOTD and AOTC containers share, and how every file reaches disk.

Both containers are little-endian, open with a magic and a u32 version, tag
arrays with a one-byte dtype code and carry a CRC32.  Each format keeps its
own layout, including what its CRC covers.  Every file aotlab writes, binary
or text, goes through ``write_atomic``; text goes through ``write_lines``.
"""

import math
import os
import struct
import zlib

import numpy as np

from .errors import FormatError

DTYPE_BY_CODE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
CODE_BY_DTYPE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def encode_array(arr: np.ndarray, what: str) -> tuple[int, bytes]:
    """Dtype code and little-endian row-major bytes of ``arr``."""
    code = CODE_BY_DTYPE.get(arr.dtype)
    if code is None:
        raise FormatError(f"{what} has unsupported dtype {arr.dtype}; "
                          f"use float32 or float64")
    return code, np.ascontiguousarray(arr, dtype=DTYPE_BY_CODE[code]).tobytes()


def to_array(raw: memoryview, shape: tuple, dtype: np.dtype) -> np.ndarray:
    """Copy little-endian payload bytes into a native-order array."""
    return (np.frombuffer(raw, dtype=dtype).reshape(shape)
            .astype(dtype.newbyteorder("=")))


def crc32(*chunks) -> int:
    """CRC32 of the concatenated chunks, computed without joining them."""
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    return crc


def check_crc(data, stored: int, what: str) -> None:
    if (computed := crc32(data)) != stored:
        raise FormatError(f"{what} CRC mismatch: stored {stored:#x}, "
                          f"computed {computed:#x}")


def write_atomic(path: str, chunks) -> None:
    """Write via ``<path>.tmp``, fsync and rename: a crash keeps the old file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_lines(path: str, lines) -> None:
    """Write each line as UTF-8 ending in ``\\n``, atomically."""
    write_atomic(path, (f"{line}\n".encode("utf-8") for line in lines))


class Reader:
    """Zero-copy cursor; every short read or bad decode raises FormatError."""

    def __init__(self, buf: bytes, kind: str):
        self.buf, self.kind = memoryview(buf), kind
        self.pos, self.end = 0, len(buf)

    def take(self, count: int, what: str) -> memoryview:
        if self.pos + count > self.end:
            raise FormatError(f"truncated {self.kind}: {what} missing")
        self.pos += count
        return self.buf[self.pos - count:self.pos]

    def take_last(self, count: int, what: str) -> memoryview:
        """Split ``count`` bytes off the end, such as a trailing checksum."""
        if self.end - count < self.pos:
            raise FormatError(f"truncated {self.kind}: {what} missing")
        self.end -= count
        return self.buf[self.end:self.end + count]

    def rest(self) -> memoryview:
        return self.buf[self.pos:self.end]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt), what))

    def text(self, what: str, length_fmt: str = "H") -> str:
        """Length-prefixed UTF-8 string."""
        (count,) = self.unpack(length_fmt, f"{what} length")
        try:
            return str(self.take(count, what), "utf-8")
        except UnicodeDecodeError as err:
            raise FormatError(f"{what} is not valid UTF-8: {err}") from err

    def expect(self, fmt: str, value, what: str) -> None:
        """Read a field that must equal ``value``, e.g. the magic or version."""
        (found,) = self.unpack(fmt, what)
        if found != value:
            raise FormatError(f"unsupported {what} {found!r}")

    def payload(self, shape: tuple, what: str) -> tuple[memoryview, np.dtype]:
        """Dtype code byte, then the row-major payload of ``shape``."""
        (code,) = self.unpack("B", f"{what} dtype")
        if code not in DTYPE_BY_CODE:
            raise FormatError(f"{what}: unknown dtype code {code}")
        dtype = DTYPE_BY_CODE[code]
        return self.take(math.prod(shape) * dtype.itemsize, what), dtype

    def finish(self, where: str) -> None:
        if self.pos != self.end:
            raise FormatError(f"{self.end - self.pos} trailing bytes {where}")
