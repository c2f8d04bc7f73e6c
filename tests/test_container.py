"""AOTC golden bytes, fuzzed AOTD/AOTC readers, and crash-safe writes."""

import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aotlab.checkpoint import (
    AOTC_MAGIC,
    AOTC_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from aotlab.config import RunConfig, write_config
from aotlab.data import load_trajectory, save_trajectory
from aotlab.errors import FormatError
from aotlab.train import write_metrics_csv


def crc(raw: bytes) -> int:
    return zlib.crc32(raw) & 0xFFFFFFFF


# ---------------------------------------------------------------------
# AOTC golden bytes
# ---------------------------------------------------------------------

def oracle_block(name: str, arr: np.ndarray, code: int, le: str) -> bytes:
    name_bytes = name.encode("utf-8")
    return (struct.pack("<H", len(name_bytes)) + name_bytes
            + struct.pack("<B", arr.ndim)
            + struct.pack(f"<{arr.ndim}I", *arr.shape)
            + struct.pack("<B", code)
            + arr.astype(le).tobytes())


def test_aotc_binary_layout_matches_struct_oracle(tmp_path):
    w = np.arange(6, dtype=np.float64).reshape(2, 3) / 7.0
    b = np.array([1.5, -2.25, 3.0], dtype=np.float32)
    s = np.array(0.125)  # 0-d block
    tensors = {"w": w, "b": b, "größe.s": s}
    opt = {"w.m": np.full((2, 3), 0.5)}
    rng_state = {"noise": [2, 3], "data": {"x": 1}}
    path = str(tmp_path / "c.aotc")
    save_checkpoint(path, 0x0123456789ABCDEF, 77, tensors, opt, rng_state)

    rng_json = b'{"data": {"x": 1}, "noise": [2, 3]}'  # sorted keys
    body = (struct.pack("<I", AOTC_VERSION)
            + struct.pack("<Q", 0x0123456789ABCDEF)
            + struct.pack("<Q", 77)
            + struct.pack("<I", 3)
            + oracle_block("w", w, 1, "<f8")
            + oracle_block("b", b, 0, "<f4")
            + oracle_block("größe.s", s, 1, "<f8")
            + struct.pack("<I", 1)
            + oracle_block("w.m", opt["w.m"], 1, "<f8")
            + struct.pack("<I", len(rng_json)) + rng_json)
    want = AOTC_MAGIC + body + struct.pack("<I", crc(body))
    assert open(path, "rb").read() == want


# ---------------------------------------------------------------------
# fuzzed readers
# ---------------------------------------------------------------------

LABEL = "heat"
LABEL_SPAN = range(10, 10 + len(LABEL))  # after magic, version and u16 length


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def aotd_bytes(fuzz_dir):
    traj = np.random.default_rng(0).standard_normal((2, 2, 2, 2))
    path = str(fuzz_dir / "seed.aotd")
    save_trajectory(path, traj.astype(np.float32), LABEL)
    return open(path, "rb").read()


@pytest.fixture(scope="module")
def aotc_bytes(fuzz_dir):
    # long block names make the name bytes a large share of the file
    tensors = {"blocks.0.mix.phi_t": np.array([0.5, -1.0]),
               "transform.forward.gain": np.array(2.0, dtype=np.float32)}
    opt = {"blocks.0.mix.phi_t.m": np.zeros(2)}
    path = str(fuzz_dir / "seed.aotc")
    save_checkpoint(path, 5, 3, tensors, opt, {"data": {"s": 1}, "noise": [4]})
    return open(path, "rb").read()


def mutate(kind: str, raw: bytes, pos: int, mask: int) -> bytes:
    """Truncate ``raw``, flip one byte, or flip one AOTC body byte and re-CRC."""
    if kind == "cut":
        return raw[:pos % len(raw)]
    if kind == "flip":
        pos %= len(raw)
        return raw[:pos] + bytes([raw[pos] ^ mask]) + raw[pos + 1:]
    body = bytearray(raw[4:-4])
    body[pos % len(body)] ^= mask
    return raw[:4] + bytes(body) + struct.pack("<I", crc(bytes(body)))


CASES = [("aotd", "cut"), ("aotd", "flip"),
         ("aotc", "cut"), ("aotc", "flip"), ("aotc", "flip-recrc")]


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES),
       pos=st.integers(min_value=0, max_value=10_000),
       mask=st.integers(min_value=1, max_value=255))
@example(case=("aotd", "cut"), pos=0, mask=1)
@example(case=("aotd", "flip"), pos=LABEL_SPAN[0], mask=0x80)
@example(case=("aotc", "cut"), pos=7, mask=1)
# first byte of the first block name: version, hash, step, count, u16 length
@example(case=("aotc", "flip-recrc"), pos=4 + 8 + 8 + 4 + 2, mask=0x80)
def test_fuzzed_containers_raise_only_format_error(fuzz_dir, aotd_bytes,
                                                   aotc_bytes, case, pos, mask):
    """Every truncation and every byte flip raises FormatError.

    Two outcomes are allowed besides.  A flip in an AOTC body whose CRC is
    then recomputed may load.  The AOTD CRC covers only the payload, so a
    flipped label byte may load with another label; ``load_dataset``
    rejects that against its manifest.
    """
    fmt, kind = case
    raw = mutate(kind, aotd_bytes if fmt == "aotd" else aotc_bytes, pos, mask)
    path = str(fuzz_dir / f"case.{fmt}")
    with open(path, "wb") as fh:
        fh.write(raw)
    try:
        if fmt == "aotc":
            load_checkpoint(path)
        else:
            label = load_trajectory(path)[1]
            assert kind == "flip" and pos % len(aotd_bytes) in LABEL_SPAN
            assert label != LABEL
    except FormatError:
        return
    assert kind == "flip-recrc" or fmt == "aotd"


# ---------------------------------------------------------------------
# crash-safe writes
# ---------------------------------------------------------------------

def test_failed_checkpoint_replace_keeps_last_good(tmp_path, monkeypatch):
    path = str(tmp_path / "last_good.aotc")
    save_checkpoint(path, 1, 10, {"a": np.ones(3)}, {}, {"data": 1})
    first = open(path, "rb").read()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, 1, 20, {"a": np.zeros(3)}, {}, {"data": 2})
    assert open(path, "rb").read() == first
    assert os.listdir(tmp_path) == ["last_good.aotc"]


def test_failed_trajectory_write_leaves_no_temp_file(tmp_path, monkeypatch):
    path = str(tmp_path / "t.aotd")
    save_trajectory(path, np.zeros((1, 2, 2, 1), dtype=np.float32), "x")
    first = open(path, "rb").read()

    def fail(fd):
        raise OSError("fsync failed")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError, match="fsync failed"):
        save_trajectory(path, np.ones((1, 2, 2, 1), dtype=np.float32), "x")
    assert open(path, "rb").read() == first
    assert os.listdir(tmp_path) == ["t.aotd"]


def metrics_rows(epochs: int) -> list:
    return [{"epoch": e, "step": 5 * (e + 1), "lr": 1e-3, "train_loss": 0.5}
            for e in range(epochs)]


@pytest.mark.parametrize("name, write", [
    ("metrics.csv", lambda path, n: write_metrics_csv(path, metrics_rows(n), [])),
    ("config.ini", lambda path, n: write_config(RunConfig(seed=n), path)),
], ids=["metrics.csv", "config.ini"])
def test_failed_report_replace_keeps_previous_file(tmp_path, monkeypatch,
                                                   name, write):
    path = str(tmp_path / name)
    write(path, 1)
    first = open(path, "rb").read()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write(path, 2)
    assert open(path, "rb").read() == first
    assert os.listdir(tmp_path) == [name]
