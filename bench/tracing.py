"""Span tracing for the benchmark's traced runs.

The tracer wraps public functions of aotlab from the outside: each wrapped
call opens a span (name, start, end, parent) that lives in memory until the
run writes it out.  It also replaces ``aotlab.autodiff.record`` so that every
tape node is attributed to the innermost span open when the node was
recorded, together with the wall time of that node's backward closure, and
it counts numpy FFT calls per span.  Nothing inside ``src/`` is edited;
``uninstall`` restores every patched attribute.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

import aotlab.autodiff as ad
import aotlab.blocks as blocks
import aotlab.data as data
import aotlab.fft as afft
import aotlab.model as model
import aotlab.train as train

# Model layers, each a span around the public function(s) listed in the
# README; a layer's time is self time, so nested layers are excluded.
LAYERS = ("model.embed", "model.temporal", "blocks.maps", "sinkhorn", "mixer",
          "fft", "blocks.mlp", "blocks.norm", "blocks.update", "model.head")
FAMILIES = ("heat", "diffusion_reaction", "ns_vorticity")
# every numpy transform entry point, so that a solver switching transforms
# (to rfft2, say) is still counted
NUMPY_FFTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
              "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")

# Per-layer metrics and units, in report order.
PER_LAYER_UNITS: dict[str, str] = {}
for _layer in LAYERS:
    PER_LAYER_UNITS[f"{_layer}.fwd_ms"] = "ms"
    PER_LAYER_UNITS[f"{_layer}.bwd_ms"] = "ms"
    PER_LAYER_UNITS[f"{_layer}.nodes"] = "count"
PER_LAYER_UNITS.update({
    "unscoped.nodes": "count",
    "autodiff.tape_nodes": "count",
    "train.batch_ms": "ms",
    "train.forward_ms": "ms",
    "train.backward_ms": "ms",
    "train.optimizer_ms": "ms",
    "train.validate_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.bytes": "B",
    "checkpoint.load_ms": "ms",
    "eval.forward_ms": "ms",
    "rollout.predict_ms": "ms",
})
for _fam in FAMILIES:
    PER_LAYER_UNITS[f"solvers.{_fam}.ms"] = "ms"
    PER_LAYER_UNITS[f"solvers.{_fam}.fft_calls"] = "count"
PER_LAYER_UNITS.update({
    "solvers.ic_ms": "ms",
    "data.save_ms": "ms",
    "data.load_ms": "ms",
    "data.bytes": "B",
})

# span record fields
NAME, START, END, PARENT, COUNT = range(5)


def _batch(self, u, *args, **kwargs) -> int:
    return u.shape[0] if u.ndim == 5 else 1


def _tape_length(tape, *args, **kwargs) -> int:
    return len(tape)


def _file_size(path, *args, **kwargs) -> int:
    return os.path.getsize(path)


class Tracer:
    """In-memory span recorder with tape-node attribution."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.nodes: dict = defaultdict(int)      # span id -> tape nodes
        self.bwd_s: dict = defaultdict(float)    # span id -> backward seconds
        self.fft_calls: dict = defaultdict(int)  # span id -> numpy FFT calls
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def current(self):
        return self.stack[-1] if self.stack else None

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.current(), 0])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (for the benchmark's own calls)."""
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    # -- patching ------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name, count=None, count_after=None) -> None:
        """Replace ``owner.attr`` by a spanned call.

        ``name`` is a string or a function of the call's arguments.
        ``count(*args)`` (before the call) or ``count_after(*args)`` (after
        it) sets the span's count: a batch size or a byte size.
        """
        orig = owner.__dict__[attr]

        @functools.wraps(orig)
        def spanned(*args, **kwargs):
            sid = self.open(name if isinstance(name, str) else name(*args, **kwargs))
            if count is not None:
                self.spans[sid][COUNT] = count(*args, **kwargs)
            try:
                return orig(*args, **kwargs)
            finally:
                if count_after is not None:
                    self.spans[sid][COUNT] = count_after(*args, **kwargs)
                self.close(sid)

        self._patch(owner, attr, spanned)

    def install(self) -> None:
        w = self.wrap
        # model layers
        w(model.Model, "embed", "model.embed")
        w(model, "temporal_aggregate", "model.temporal")
        w(blocks, "compute_maps", "blocks.maps")
        w(blocks, "sinkhorn_tensor", "sinkhorn")
        w(blocks, "fourier_mix", "mixer")
        w(afft, "fft2", "fft")
        w(afft, "ifft2", "fft")
        w(blocks.ChannelMLP, "forward", "blocks.mlp")
        w(blocks.GroupNorm, "__call__", "blocks.norm")
        w(blocks, "aot_update", "blocks.update")
        w(model, "readout", "model.head")
        w(model.Model, "depatch", "model.head")
        # whole forward passes: taped (training) or not (prediction)
        w(model.Model, "forward",
          lambda *a, **k: "train.forward" if ad.active_tape() is not None
          else "model.predict", count=_batch)
        # training loop phases
        w(train, "train", "train.run")
        w(train, "sample_batch", "train.batch")
        w(train, "inject_noise", "train.batch")
        w(train, "denoising_loss", "train.forward")
        w(train, "clip_gradients", "train.optimizer")
        w(train.AdamW, "step", "train.optimizer")
        w(train, "validate", "train.validate")
        w(train, "save_checkpoint", "checkpoint.save", count_after=_file_size)
        w(train, "load_checkpoint", "checkpoint.load")
        w(ad.Tape, "backward", "train.backward", count=_tape_length)
        # corpus generation and the AOTD codec
        w(data, "solve_heat", "solvers.heat")
        w(data, "solve_dr", "solvers.diffusion_reaction")
        w(data, "solve_ns_vorticity", "solvers.ns_vorticity")
        w(data, "grf_ic", "solvers.ic")
        w(data, "dr_ic", "solvers.ic")
        w(data, "save_trajectory", "data.save", count_after=_file_size)
        w(data, "load_trajectory", "data.load", count=_file_size)
        self._wrap_record()
        for fn in NUMPY_FFTS:
            self._count_fft(fn)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _wrap_record(self) -> None:
        orig = ad.__dict__["record"]
        nodes, bwd_s, clock = self.nodes, self.bwd_s, time.perf_counter

        def record(out, backward_fn):
            if ad.active_tape() is None or not out.requires_grad:
                return
            sid = self.current()
            nodes[sid] += 1

            def timed(g, acc):
                t0 = clock()
                backward_fn(g, acc)
                bwd_s[sid] += clock() - t0

            orig(out, timed)

        self._patch(ad, "record", record)

    def _count_fft(self, attr: str) -> None:
        orig = np.fft.__dict__[attr]
        calls = self.fft_calls

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            calls[self.current()] += 1
            return orig(*args, **kwargs)

        self._patch(np.fft, attr, counted)

    # -- output --------------------------------------------------------
    def write(self, path: str) -> None:
        """One JSON object per span: id, name, start, end, parent, count,
        plus the tape nodes, backward seconds and FFT calls attributed to it."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, count) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "count": count,
                    "nodes": self.nodes.get(sid, 0),
                    "bwd_s": self.bwd_s.get(sid, 0.0),
                    "fft_calls": self.fft_calls.get(sid, 0)}) + "\n")


# ---------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else float("nan")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from a finished trace; layer times and node counts
    are per training step."""
    spans = tracer.spans
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    # nearest enclosing whole-forward span: "train.forward" or "model.predict"
    context = [None] * len(spans)
    by_name = defaultdict(list)
    for sid, s in enumerate(spans):
        parent = s[PARENT]
        if parent is not None:
            child[parent] += dur[sid]
        if s[NAME] in ("train.forward", "model.predict"):
            context[sid] = s[NAME]
        elif parent is not None:
            context[sid] = context[parent]
        by_name[s[NAME]].append(sid)
    self_s = [d - c for d, c in zip(dur, child)]

    def under(sid, name):
        parent = spans[sid][PARENT]
        while parent is not None:
            if spans[parent][NAME] == name:
                return True
            parent = spans[parent][PARENT]
        return False

    def select(name, ctx=None, within=None):
        return [i for i in by_name.get(name, ())
                if (ctx is None or context[i] == ctx)
                and (within is None or under(i, within))]

    def total(ids, values):
        return sum(values[i] for i in ids)

    steps = len(select("train.backward"))
    out = {}
    for layer in LAYERS:
        ids = select(layer, ctx="train.forward")
        out[f"{layer}.fwd_ms"] = 1e3 * _ratio(total(ids, self_s), steps)
        out[f"{layer}.bwd_ms"] = 1e3 * _ratio(sum(tracer.bwd_s.get(i, 0.0) for i in ids),
                                              steps)
        out[f"{layer}.nodes"] = _ratio(sum(tracer.nodes.get(i, 0) for i in ids), steps)
    _, outside, held = node_accounting(tracer)
    out["unscoped.nodes"] = _ratio(outside, steps)
    out["autodiff.tape_nodes"] = _ratio(held, steps)

    def per_step(*names):
        return 1e3 * _ratio(sum(total(select(n), dur) for n in names), steps)

    out["train.batch_ms"] = per_step("train.batch")
    out["train.forward_ms"] = per_step("train.forward")
    out["train.backward_ms"] = per_step("train.backward")
    out["train.optimizer_ms"] = per_step("train.optimizer")

    def mean_ms(ids):
        return 1e3 * _ratio(total(ids, dur), len(ids))

    def mean_count(ids):
        return _ratio(sum(spans[i][COUNT] for i in ids), len(ids))

    out["train.validate_ms"] = mean_ms(select("train.validate", within="train.run"))
    saves = select("checkpoint.save")
    out["checkpoint.save_ms"] = mean_ms(saves)
    out["checkpoint.bytes"] = mean_count(saves)
    out["checkpoint.load_ms"] = mean_ms(select("checkpoint.load"))
    eval_ids = [i for i in select("model.predict")
                if spans[i][PARENT] is not None
                and spans[spans[i][PARENT]][NAME] == "train.validate"]
    out["eval.forward_ms"] = 1e3 * _ratio(total(eval_ids, dur),
                                          sum(spans[i][COUNT] for i in eval_ids))
    out["rollout.predict_ms"] = mean_ms(select("rollout.predict"))
    trajectories = 0
    for fam in FAMILIES:
        ids = select(f"solvers.{fam}")
        trajectories += len(ids)
        out[f"solvers.{fam}.ms"] = 1e3 * _ratio(total(ids, self_s), len(ids))
        out[f"solvers.{fam}.fft_calls"] = _ratio(
            sum(tracer.fft_calls.get(i, 0) for i in ids), len(ids))
    out["solvers.ic_ms"] = 1e3 * _ratio(total(select("solvers.ic"), dur), trajectories)
    out["data.save_ms"] = mean_ms(select("data.save"))
    loads = select("data.load")
    out["data.load_ms"] = mean_ms(loads)
    out["data.bytes"] = mean_count(loads)
    return out


def node_accounting(tracer: Tracer) -> tuple[int, int, int]:
    """(nodes in layer spans, nodes outside them, nodes the tapes held).

    The first two sum to the third when every recorded node is counted.
    """
    in_layers = sum(n for sid, n in tracer.nodes.items()
                    if sid is not None and tracer.spans[sid][NAME] in LAYERS)
    recorded = sum(tracer.nodes.values())
    held = sum(s[COUNT] for s in tracer.spans if s[NAME] == "train.backward")
    return in_layers, recorded - in_layers, held
