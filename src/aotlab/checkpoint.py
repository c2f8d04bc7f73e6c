"""Checkpoint container "AOTC" v1.

Layout (little-endian):

    magic "AOTC" | version u32 | config hash u64 | step u64 |
    model block count u32 + blocks | optimizer block count u32 + blocks |
    rng-state JSON length u32 + UTF-8 bytes | CRC32 u32

Each block: name length u16 + UTF-8 | rank u8 + extents u32[] |
dtype u8 (0 = f32, 1 = f64) | payload row-major.  The trailing CRC32 covers
every byte between the magic and the checksum itself and is checked before
parsing.  Shared parts, the atomic write among them, are in ``container``.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .container import (Reader, check_crc, crc32, encode_array, to_array,
                        write_atomic)
from .errors import FormatError

AOTC_MAGIC = b"AOTC"
AOTC_VERSION = 1


def config_hash(cfg) -> int:
    """Stable u64 digest of a config dataclass's field values."""
    if not is_dataclass(cfg):
        raise TypeError(f"expected a dataclass, got {type(cfg).__name__}")
    canon = ";".join(f"{f.name}={getattr(cfg, f.name)!r}"
                     for f in sorted(fields(cfg), key=lambda f: f.name))
    digest = hashlib.sha256(canon.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class Checkpoint:
    config_hash: int
    step: int
    tensors: dict
    opt_tensors: dict
    rng_state: dict


def _encode_blocks(blocks: dict) -> list:
    parts = [struct.pack("<I", len(blocks))]
    for name, arr in blocks.items():
        arr = np.asarray(arr)
        code, payload = encode_array(arr, f"block {name!r}")
        name_bytes = name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise FormatError(f"block name too long: {name!r}")
        if arr.ndim > 0xFF:
            raise FormatError(f"block {name!r} rank {arr.ndim} too large")
        parts += [struct.pack("<H", len(name_bytes)), name_bytes,
                  struct.pack(f"<B{arr.ndim}IB", arr.ndim, *arr.shape, code),
                  payload]
    return parts


def _decode_blocks(r: Reader) -> dict:
    blocks = {}
    for _ in range(r.unpack("I", "block count")[0]):
        name = r.text("block name")
        (rank,) = r.unpack("B", "block rank")
        shape = r.unpack(f"{rank}I", "block extents")
        raw, dtype = r.payload(shape, f"block {name!r}")
        if name in blocks:
            raise FormatError(f"duplicate block name {name!r}")
        blocks[name] = to_array(raw, shape, dtype)
    return blocks


def save_checkpoint(path: str, cfg_hash: int, step: int, tensors: dict,
                    opt_tensors: dict, rng_state: dict) -> list:
    """Write a checkpoint; returns the chunks written, whose concatenation
    is the file."""
    rng_bytes = json.dumps(rng_state, sort_keys=True).encode("utf-8")
    body = [struct.pack("<IQQ", AOTC_VERSION, cfg_hash, step),
            *_encode_blocks(tensors), *_encode_blocks(opt_tensors),
            struct.pack("<I", len(rng_bytes)), rng_bytes]
    chunks = [AOTC_MAGIC, *body, struct.pack("<I", crc32(*body))]
    write_atomic(path, chunks)
    return chunks


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        r = Reader(fh.read(), "checkpoint")
    r.expect("4s", AOTC_MAGIC, "magic")
    (crc_stored,) = struct.unpack("<I", r.take_last(4, "checksum"))
    check_crc(r.rest(), crc_stored, "checkpoint")
    r.expect("I", AOTC_VERSION, "version")
    cfg_hash, step = r.unpack("QQ", "config hash and step")
    tensors = _decode_blocks(r)
    opt_tensors = _decode_blocks(r)
    rng_text = r.text("rng state", "I")
    try:
        rng_state = json.loads(rng_text)
    except ValueError as err:
        raise FormatError(f"bad rng state: {err}") from err
    r.finish("before checksum")
    return Checkpoint(cfg_hash, step, tensors, opt_tensors, rng_state)
