"""Trajectory corpus tools: container format, generation, padding, sampling.

Trajectories are stored time-major as (T, H, W, C) arrays.  Frame 0 is the
initial condition; frame s > 0 is the solver state after s * stride internal
steps.  Families with fewer channels than the corpus maximum are padded with
the constant 1.0 along the trailing channel axis; padding never alters the
original channels.

On-disk container "AOTD" v1 (little-endian, shared parts in ``container``):

    magic "AOTD" | version u32 | label length u16 + UTF-8 bytes |
    H u32 | W u32 | T u32 | C u32 | dtype u8 (0 = f32, 1 = f64) |
    payload row-major in (t, h, w, c) order | CRC32 of payload (u32)

The CRC does not cover the label; ``load_dataset`` checks it against the
manifest, a plain-text file with one tab-separated line per trajectory:
relative path, family label, sampling weight.  Both are written atomically.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .container import (Reader, check_crc, crc32, encode_array, to_array,
                        write_atomic, write_lines)
from .errors import FormatError, NumericOverflowError, ShapeError
from .solvers import (
    dr_ic,
    fno_forcing,
    grf_ic,
    solve_dr,
    solve_heat,
    solve_ns_vorticity,
)

FAMILIES = ("heat", "diffusion_reaction", "ns_vorticity")
PAD_VALUE = 1.0

AOTD_MAGIC = b"AOTD"
AOTD_VERSION = 1

# spawn-key namespaces for seed-stable generation and splitting
_STREAM_TRAJ = 0
_STREAM_SPLIT = 1


# ---------------------------------------------------------------------
# AOTD container
# ---------------------------------------------------------------------

def save_trajectory(path: str, traj: np.ndarray, label: str) -> None:
    """Write one (T, H, W, C) float32/float64 trajectory to an AOTD v1 file."""
    traj = np.asarray(traj)
    if traj.ndim != 4:
        raise FormatError(f"trajectory must be 4-D (t, h, w, c), got {traj.shape}")
    if any(s < 1 for s in traj.shape):
        raise FormatError(f"trajectory has an empty axis: {traj.shape}")
    code, payload = encode_array(traj, "trajectory")
    label_bytes = label.encode("utf-8")
    if len(label_bytes) > 0xFFFF:
        raise FormatError("label too long")
    t, h, w, c = traj.shape
    head = struct.pack("<4sIH", AOTD_MAGIC, AOTD_VERSION, len(label_bytes))
    write_atomic(path, [head, label_bytes, struct.pack("<IIIIB", h, w, t, c, code),
                        payload, struct.pack("<I", crc32(payload))])


def _parse_aotd(path: str):
    with open(path, "rb") as fh:
        r = Reader(fh.read(), "file")
    r.expect("4s", AOTD_MAGIC, "magic")
    r.expect("I", AOTD_VERSION, "version")
    label = r.text("label")
    h, w, t, c = r.unpack("IIII", "shape header")
    payload, dtype = r.payload((t, h, w, c), "payload")
    (crc_stored,) = r.unpack("I", "checksum")
    r.finish("after checksum")
    return label, (t, h, w, c), dtype, payload, crc_stored


def load_trajectory(path: str) -> tuple[np.ndarray, str]:
    """Read an AOTD v1 file, verifying structure and payload CRC32."""
    label, shape, dtype, payload, crc_stored = _parse_aotd(path)
    check_crc(payload, crc_stored, "payload")
    return to_array(payload, shape, dtype), label


def trajectory_crc(path: str) -> int:
    """Return the stored payload CRC32 after validating the container."""
    return _parse_aotd(path)[4]


# ---------------------------------------------------------------------
# family specifications and generation
# ---------------------------------------------------------------------

@dataclass
class PdeFamilySpec:
    """One synthetic family: solver parameters plus save cadence and weight."""

    family: str
    grid: int = 32
    nu: float = 1e-2
    d: tuple[float, float] = (1e-3, 5e-3)
    k: float = 5e-3
    scale: float = 1.0
    dt: float = 1e-2
    steps: int = 39
    stride: int = 1
    weight: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; "
                             f"valid: {', '.join(FAMILIES)}")
        scalars = (self.nu, self.k, self.scale, self.dt, self.weight, *self.d)
        if not all(np.isfinite(v) for v in scalars):
            raise ValueError("family parameters must be finite")
        if self.family in ("heat", "ns_vorticity") and self.nu <= 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if min(self.d) < 0:
            raise ValueError(f"diffusivities must be nonnegative, got {self.d}")
        if self.dt <= 0 or self.steps < 1 or self.stride < 1:
            raise ValueError("dt must be positive, steps and stride at least 1")
        if self.steps % self.stride:
            raise ValueError(f"steps {self.steps} not divisible by "
                             f"stride {self.stride}")
        if self.weight < 0:
            raise ValueError(f"weight must be nonnegative, got {self.weight}")

    @property
    def frames(self) -> int:
        """Saved frames per trajectory, initial condition included."""
        return 1 + self.steps // self.stride

    @property
    def channels(self) -> int:
        return 2 if self.family == "diffusion_reaction" else 1


def desk_specs(grid: int = 32) -> list[PdeFamilySpec]:
    """Default three-family corpus: heat, diffusion-reaction, vorticity."""
    return [
        PdeFamilySpec("heat", grid=grid, nu=1e-2, dt=1e-2, steps=39),
        PdeFamilySpec("diffusion_reaction", grid=grid, dt=1e-2, steps=39),
        PdeFamilySpec("ns_vorticity", grid=grid, nu=1e-3, dt=1e-3,
                      steps=1950, stride=50),
    ]


def _solve_batch(spec: PdeFamilySpec, trajs: np.ndarray,
                 rngs: list[np.random.Generator]) -> None:
    """Draw frame 0 of each (frames, H, W, C) row of ``trajs`` from its own
    generator, then solve every row as one batch into frames 1 onwards."""
    n = spec.grid
    for traj, rng in zip(trajs, rngs):
        if spec.family == "diffusion_reaction":
            traj[0] = dr_ic(n, n, rng, k=spec.k)
        else:
            traj[0, ..., 0] = grf_ic(n, n, rng)
    ic, states = trajs[:, 0], trajs[:, 1:]
    if spec.family == "heat":
        solve_heat(ic[..., 0], spec.nu, spec.dt, spec.steps,
                   stride=spec.stride, out=states[..., 0])
    elif spec.family == "diffusion_reaction":
        solve_dr(ic, d=spec.d, k=spec.k, scale=spec.scale, dt=spec.dt,
                 steps=spec.steps, stride=spec.stride, out=states)
    else:
        solve_ns_vorticity(ic[..., 0], spec.nu, fno_forcing(n, n), spec.dt,
                           spec.steps, stride=spec.stride, out=states[..., 0])


def _empty_trajectories(spec: PdeFamilySpec, count: int) -> np.ndarray:
    return np.empty((count, spec.frames, spec.grid, spec.grid, spec.channels))


def generate_trajectory(spec: PdeFamilySpec, rng: np.random.Generator) -> np.ndarray:
    """Sample an IC and solve; returns (frames, H, W, C) float64."""
    traj = _empty_trajectories(spec, 1)
    _solve_batch(spec, traj, [rng])
    return traj[0]


# ---------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------

def pad_channels(traj: np.ndarray, c_max: int) -> np.ndarray:
    """Pad the trailing channel axis up to c_max with the constant PAD_VALUE."""
    c = traj.shape[-1]
    if c > c_max:
        raise ShapeError(f"trajectory has {c} channels, more than c_max {c_max}")
    if c == c_max:
        return traj
    out = np.full(traj.shape[:-1] + (c_max,), PAD_VALUE, dtype=traj.dtype)
    out[..., :c] = traj
    return out


class TrajectoryDataset:
    """In-memory labeled trajectory collection padded to a common channel count.

    Families are ordered alphabetically; that order defines the family index
    used by samplers and by the probe tie-break.
    """

    def __init__(self, trajectories: list[np.ndarray], labels: list[str],
                 native_channels: list[int] | None = None,
                 c_max: int | None = None):
        if not trajectories:
            raise ValueError("dataset must contain at least one trajectory")
        if len(trajectories) != len(labels):
            raise ShapeError(f"{len(trajectories)} trajectories "
                             f"vs {len(labels)} labels")
        shapes = {t.shape[1:3] for t in trajectories}
        if len(shapes) != 1:
            raise ShapeError(f"mixed spatial shapes {sorted(shapes)}")
        if native_channels is None:
            native_channels = [t.shape[-1] for t in trajectories]
        elif any(n > t.shape[-1] for n, t in zip(native_channels, trajectories)):
            raise ShapeError("native channel count exceeds stored channels")
        self.native_channels = list(native_channels)
        c_max = max([t.shape[-1] for t in trajectories]
                    + ([c_max] if c_max is not None else []))
        self.trajectories = [pad_channels(t, c_max) for t in trajectories]
        self.labels = list(labels)
        self.c_max = c_max
        self.families = sorted(set(labels))
        self._by_family = {fam: [i for i, lab in enumerate(labels) if lab == fam]
                           for fam in self.families}
        self.native_by_family = {fam: self.native_channels[self._by_family[fam][0]]
                                 for fam in self.families}

    def __len__(self) -> int:
        return len(self.trajectories)

    def family_indices(self, family: str) -> list[int]:
        if family not in self._by_family:
            raise ValueError(f"family {family!r} not in dataset "
                             f"({', '.join(self.families)})")
        return list(self._by_family[family])

    def min_length(self) -> int:
        return min(t.shape[0] for t in self.trajectories)


def family_subset(ds: TrajectoryDataset, family: str) -> TrajectoryDataset:
    """Single-family view keeping the parent's channel padding width."""
    idxs = ds.family_indices(family)
    return TrajectoryDataset([ds.trajectories[i] for i in idxs],
                             [ds.labels[i] for i in idxs],
                             native_channels=[ds.native_channels[i] for i in idxs],
                             c_max=ds.c_max)


def build_dataset(specs: list[PdeFamilySpec], n_train: int, n_test: int,
                  seed: int = 0,
                  threads: int = 1) -> tuple[TrajectoryDataset, TrajectoryDataset]:
    """Generate, label, and split the corpus with seed-stable shuffling.

    Each trajectory owns an independent seed stream, and a family's
    trajectories are solved as one batch.  With ``threads`` > 1 the batch
    is split into that many contiguous chunks solved on a thread pool, so
    the output is bit-identical for any thread count.
    """
    if not specs:
        raise ValueError("specs must be nonempty")
    if n_train < 1 or n_test < 1:
        raise ValueError("both split sizes must be at least 1")
    train_t, train_l, test_t, test_l = [], [], [], []
    total = n_train + n_test
    for fi, spec in enumerate(specs):
        trajs = _empty_trajectories(spec, total)

        def solve_chunk(lo: int, hi: int) -> None:
            rngs = [np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(_STREAM_TRAJ, fi, j)))
                for j in range(lo, hi)]
            try:
                _solve_batch(spec, trajs[lo:hi], rngs)
            except NumericOverflowError as exc:
                raise NumericOverflowError(
                    f"{spec.family} trajectory {lo + exc.row} (seed {seed}) "
                    f"blew up at {exc.where}", where=exc.where) from exc

        workers = min(threads, total)
        if workers > 1:
            edges = [total * i // workers for i in range(workers + 1)]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(solve_chunk, edges[:-1], edges[1:]))
        else:
            solve_chunk(0, total)
        split_rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(_STREAM_SPLIT, fi)))
        perm = split_rng.permutation(total)
        for j in perm[:n_train]:
            train_t.append(trajs[j])
            train_l.append(spec.family)
        for j in perm[n_train:]:
            test_t.append(trajs[j])
            test_l.append(spec.family)
    return TrajectoryDataset(train_t, train_l), TrajectoryDataset(test_t, test_l)


# ---------------------------------------------------------------------
# balanced sampling
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingPlan:
    """Per-family sampling weights w_k for dataset-balanced batch draws."""

    weights: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.weights:
            raise ValueError("plan needs at least one family weight")
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("weights must be nonnegative")
        if sum(self.weights.values()) <= 0:
            raise ValueError("at least one weight must be positive")

    @classmethod
    def from_specs(cls, specs: list[PdeFamilySpec]) -> "SamplingPlan":
        return cls({s.family: s.weight for s in specs})

    def family_probs(self, families: list[str]) -> np.ndarray:
        """Normalized family-level draw probabilities, proportional to w_k."""
        missing = [f for f in families if f not in self.weights]
        if missing:
            raise ValueError(f"plan has no weight for {', '.join(missing)}")
        w = np.array([self.weights[f] for f in families], dtype=np.float64)
        return w / w.sum()


def sample_batch(ds: TrajectoryDataset, plan: SamplingPlan, batch: int,
                 t_in: int, rng: np.random.Generator):
    """Draw (windows, targets, labels) with family balance proportional to w_k.

    A family is drawn with probability proportional to its weight, then a
    trajectory and a window start are drawn uniformly.  Windows hold t_in
    consecutive frames; the target is the frame immediately after.
    """
    if batch < 1 or t_in < 1:
        raise ValueError("batch and t_in must be at least 1")
    if ds.min_length() < t_in + 1:
        raise ShapeError(f"shortest trajectory has {ds.min_length()} frames; "
                         f"need at least {t_in + 1}")
    q = plan.family_probs(ds.families)
    fam_draws = rng.choice(len(ds.families), size=batch, p=q)
    windows, targets, labels = [], [], []
    for fd in fam_draws:
        fam = ds.families[fd]
        idxs = ds.family_indices(fam)
        ti = idxs[rng.integers(len(idxs))]
        traj = ds.trajectories[ti]
        start = int(rng.integers(traj.shape[0] - t_in))
        windows.append(traj[start:start + t_in])
        targets.append(traj[start + t_in])
        labels.append(fam)
    return np.stack(windows), np.stack(targets), labels


# ---------------------------------------------------------------------
# manifests and directory persistence
# ---------------------------------------------------------------------

def write_manifest(path: str, entries: list[tuple[str, str, float]]) -> None:
    write_lines(path, [f"{rel}\t{family}\t{weight!r}"
                       for rel, family, weight in entries])


def read_manifest(path: str) -> list[tuple[str, str, float]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        raise FormatError(f"{path}: manifest is not valid UTF-8: {err}") from err
    entries = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 3 tab-separated "
                              f"fields, got {len(parts)}")
        try:
            weight = float(parts[2])
        except ValueError as err:
            raise FormatError(f"{path}:{lineno}: bad weight "
                              f"{parts[2]!r}") from err
        entries.append((parts[0], parts[1], weight))
    if not entries:
        raise FormatError(f"{path}: manifest is empty")
    return entries


def save_dataset(ds: TrajectoryDataset, root: str, split: str,
                 plan: SamplingPlan | None = None,
                 dtype: type = np.float32) -> str:
    """Write one AOTD file per trajectory plus a manifest; returns its path.

    Files keep each trajectory's native channel count; padding is re-applied
    when the dataset is loaded.  Layout: root/<family>/<split>_<idx>.aotd and
    root/<split>_manifest.tsv.
    """
    entries = []
    counters = {fam: 0 for fam in ds.families}
    for traj, label, native in zip(ds.trajectories, ds.labels,
                                   ds.native_channels):
        os.makedirs(os.path.join(root, label), exist_ok=True)
        name = f"{split}_{counters[label]:03d}.aotd"
        counters[label] += 1
        rel = f"{label}/{name}"
        save_trajectory(os.path.join(root, label, name),
                        traj[..., :native].astype(dtype), label)
        weight = plan.weights[label] if plan is not None else 1.0
        entries.append((rel, label, weight))
    manifest = os.path.join(root, f"{split}_manifest.tsv")
    write_manifest(manifest, entries)
    return manifest


def load_dataset(manifest_path: str) -> tuple[TrajectoryDataset, SamplingPlan]:
    """Load every trajectory a manifest lists; rebuild padding and the plan."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    entries = read_manifest(manifest_path)
    trajs, labels, weights = [], [], {}
    for rel, family, weight in entries:
        traj, label = load_trajectory(os.path.join(base, rel))
        if label != family:
            raise FormatError(f"{rel}: file label {label!r} does not match "
                              f"manifest family {family!r}")
        if family in weights and weights[family] != weight:
            raise FormatError(f"{rel}: conflicting weights for {family!r}")
        weights[family] = weight
        trajs.append(traj)
        labels.append(label)
    return TrajectoryDataset(trajs, labels), SamplingPlan(weights)
