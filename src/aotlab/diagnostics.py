"""Evaluation metric, rollout, propagation gains, and the mixing-matrix probe.

The gain analysis and the probe both read the per-sub-layer stream-mixing
matrices captured during forward passes.  Gains use induced norms: forward
gain is the maximum absolute row sum, backward gain the maximum absolute
column sum.  Composite gains chain the matrices from a starting sub-layer to
the last one, with later sub-layers on the left of the product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import write_lines
from .data import TrajectoryDataset
from .errors import NumericOverflowError, ShapeError


# ---------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------

def l2re(pred: np.ndarray, truth: np.ndarray) -> float:
    """Relative L2 error ||p - t|| / ||t|| of each sample, averaged over the
    samples.  The leading axis is always the batch: score a single frame
    as ``l2re(pred[None], truth[None])``.  A zero-norm truth sample makes
    the ratio undefined.
    """
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.shape != truth.shape:
        raise ShapeError(f"pred shape {pred.shape} vs truth shape {truth.shape}")
    b = pred.shape[0]
    diff = (pred - truth).reshape(b, -1).astype(np.float64)
    ref = truth.reshape(b, -1).astype(np.float64)
    norms = np.linalg.norm(ref, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero-norm truth sample; relative error undefined")
    return float(np.mean(np.linalg.norm(diff, axis=1) / norms))


# ---------------------------------------------------------------------
# autoregressive rollout
# ---------------------------------------------------------------------

@dataclass
class RolloutResult:
    frames: np.ndarray            # (steps_completed, H, W, C)
    blowup_step: int | None = None


def model_predictor(model):
    """Adapt a model to the (T_in, H, W, C) -> (H, W, C) rollout contract."""
    def predict(window: np.ndarray) -> np.ndarray:
        return model.forward(window[None]).data[0]
    return predict


def rollout(predict, initial_window: np.ndarray, horizon: int) -> RolloutResult:
    """Feed predictions back through a sliding window for ``horizon`` steps.

    ``predict`` maps a (T_in, H, W, C) window to the next (H, W, C) frame.
    On numeric blow-up the partial trajectory is returned with the failing
    step recorded.  Callers score the frames themselves, e.g. with
    ``l2re`` against a reference trajectory.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    window = np.array(initial_window)
    frames = []
    blowup = None
    for step in range(horizon):
        try:
            pred = predict(window)
        except NumericOverflowError:
            blowup = step
            break
        if not np.all(np.isfinite(pred)):
            blowup = step
            break
        frames.append(pred)
        window = np.concatenate([window[1:], pred[None]])
    stacked = (np.stack(frames) if frames
               else np.empty((0,) + window.shape[1:], dtype=window.dtype))
    return RolloutResult(stacked, blowup)


# ---------------------------------------------------------------------
# propagation gains
# ---------------------------------------------------------------------

@dataclass
class GainReport:
    forward: list                 # per sub-layer, averaged over inputs
    backward: list
    composite_forward: list       # per starting sub-layer index
    composite_backward: list
    n_inputs: int

    @property
    def n_sublayers(self) -> int:
        return len(self.forward)


def gains_from_matrices(mats: list) -> GainReport:
    """Build the report from per-sub-layer (S, n, n) matrix stacks.  The
    forward gain of a matrix is its induced infinity norm (maximum
    absolute row sum), the backward gain its induced 1-norm (maximum
    absolute column sum); each is averaged over the stack."""
    if not mats:
        raise ValueError("need at least one sub-layer of matrices")

    def gain(t: np.ndarray, order) -> float:
        return float(np.mean(np.linalg.norm(t, order, axis=(-2, -1))))

    fwd = [gain(t, np.inf) for t in mats]
    bwd = [gain(t, 1) for t in mats]
    comp_f, comp_b = [None] * len(mats), [None] * len(mats)
    prod = None
    for l in range(len(mats) - 1, -1, -1):
        prod = mats[l] if prod is None else prod @ mats[l]
        comp_f[l] = gain(prod, np.inf)
        comp_b[l] = gain(prod, 1)
    return GainReport(fwd, bwd, comp_f, comp_b, mats[0].shape[0])


def gain_analysis(model, probe_inputs: np.ndarray) -> GainReport:
    """Capture every stream-mixing matrix over the (B, T_in, H, W, C) probe
    batch and grade it."""
    probe_inputs = np.asarray(probe_inputs)
    if probe_inputs.shape[0] < 1:
        raise ValueError("need at least one probe input")
    collected: list = []
    model.forward(probe_inputs, collect_maps=collected)
    return gains_from_matrices([m.t.data for m in collected])


def write_gain_csv(report: GainReport, path: str) -> None:
    layers = range(report.n_sublayers)
    write_lines(path, [
        "# composite product chains T_{L-1} @ ... @ T_l; later "
        "sub-layers multiply from the left",
        "sublayer,forward_gain,backward_gain",
        *(f"{l},{report.forward[l]!r},{report.backward[l]!r}" for l in layers),
        "",
        "start_index,composite_forward,composite_backward",
        *(f"{l},{report.composite_forward[l]!r},{report.composite_backward[l]!r}"
          for l in layers)])


# ---------------------------------------------------------------------
# mixing-matrix nearest-centroid probe
# ---------------------------------------------------------------------

@dataclass
class ProbeResult:
    accuracy: float
    confusion: np.ndarray         # (K, K) counts indexed [true, predicted]
    families: list
    features: np.ndarray          # every sample's feature vector
    labels: list                  # family label per feature row


def extract_probe_features(model, ds: TrajectoryDataset):
    """Flattened mixing matrices of every sub-layer for each trajectory.

    Each trajectory contributes its trailing window (the final t_in frames),
    where dynamics have pulled the state away from the shared initial
    condition distribution and the mixing response is most family specific.
    The feature vector is the concatenation over sub-layers of the flattened
    matrix, giving a fixed length of sublayers * streams^2 per sample.
    """
    t_in = model.cfg.t_in
    windows = np.stack([t[len(t) - t_in:] for t in ds.trajectories])
    collected: list = []
    model.forward(windows, collect_maps=collected)
    features = np.concatenate(
        [m.t.data.reshape(len(ds), -1) for m in collected], axis=1)
    return features.astype(np.float64), list(ds.labels)


def nearest_centroid_classify(centroids: np.ndarray,
                              queries: np.ndarray) -> np.ndarray:
    """Index of the closest centroid per query; ties go to the lowest index."""
    dists = np.linalg.norm(queries[:, None, :] - centroids[None, :, :], axis=2)
    return np.argmin(dists, axis=1)


def probe_from_features(features: np.ndarray, labels: list) -> ProbeResult:
    """Split each family in half, form centroids, classify the held-out half."""
    families = sorted(set(labels))
    by_family = {fam: [i for i, lab in enumerate(labels) if lab == fam]
                 for fam in families}
    for fam, idxs in by_family.items():
        if len(idxs) < 2:
            raise ValueError(f"family {fam!r} has {len(idxs)} sample(s); "
                             f"need at least 2")
    centroids, queries, truth = [], [], []
    for k, fam in enumerate(families):
        idxs = by_family[fam]
        half = len(idxs) // 2
        centroids.append(features[idxs[:half]].mean(axis=0))
        queries.extend(idxs[half:])
        truth.extend([k] * (len(idxs) - half))
    assigned = nearest_centroid_classify(np.stack(centroids), features[queries])
    truth = np.asarray(truth)
    confusion = np.zeros((len(families), len(families)), dtype=np.int64)
    for t_k, p_k in zip(truth, assigned):
        confusion[t_k, p_k] += 1
    accuracy = float(np.mean(assigned == truth))
    return ProbeResult(accuracy, confusion, families,
                       np.asarray(features), list(labels))


def kernel_probe(model, ds: TrajectoryDataset) -> ProbeResult:
    features, labels = extract_probe_features(model, ds)
    return probe_from_features(features, labels)


def write_probe_features(path: str, features: np.ndarray, labels: list) -> None:
    d = features.shape[1]
    write_lines(path, ["label," + ",".join(f"f{i}" for i in range(d))]
                + [lab + "," + ",".join(repr(float(v)) for v in row)
                   for lab, row in zip(labels, features)])
