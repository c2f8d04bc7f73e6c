"""The benchmark's two workloads, driven through aotlab's public Python API.

Every run does the same set-up SETUP_REPS times and reports the median:
generate the three-family corpus one family at a time with
``build_dataset``, write it with ``save_dataset``, read it back with
``load_dataset``, initialize the desk-config model, train it briefly to get
a checkpoint, and load that checkpoint into a fresh model.  The timed phase
then repeats whole rounds of one kind of work in a closed loop until
``seconds`` have passed:

- ``train``: one ``train()`` call of ROUND_TRAIN from a fresh model, with
  per-epoch ``validate`` and snapshots;
- ``corpus``: generation, write and read-back of a fresh corpus.

Every end-to-end metric is reported on every workload.  One that a
workload's own rounds do not measure comes from the set-ups and from probe
units that run between the rounds, each kind spread evenly through the
timed phase (PROBES): an inference round (``validate()`` over the held-out
split, then batch-1 ``rollout()`` of ROLLOUT_FRAMES frames from one
held-out trajectory of each family), a short ``train()``, or a corpus
round.  Rates are total work over total time across a run's samples.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import aotlab.data as data
import aotlab.diagnostics as diagnostics
import aotlab.model as model_mod
import aotlab.train as train_mod
from aotlab.autodiff import Tensor
from aotlab.errors import AotError

import checks
import tracing

WORKLOADS = ("train", "corpus")
GRID = 32
# trajectories per family as (train, test): heat and diffusion-reaction are
# cheap per trajectory, so they get more of them than NS-vorticity
CORPUS_SIZES = {"heat": (120, 8), "diffusion_reaction": (40, 8),
                "ns_vorticity": (1, 1)}
# a corpus is read back this many times, so that the load rate is measured
# over more than a few tens of milliseconds
LOAD_PASSES = 3
SETUP_REPS = 3
SETUP_TRAIN = {"epochs": 1, "steps_per_epoch": 10, "warmup_epochs": 0}
# A timed train() round: two epochs, so that the resume check can split at
# an epoch boundary, of 50 steps each.  The desk TrainConfig runs 100 steps
# per epoch; at 50, the per-epoch validate() and snapshots take about 6% of
# a round, against about 3% at 100 steps, and a round still fits several
# times in a run.  Warm-up only scales the learning rate, so the round skips
# it; the work per step is the same.
ROUND_TRAIN = {"epochs": 2, "steps_per_epoch": 50, "warmup_epochs": 0}
# probe units spread through the timed phase of workloads whose own rounds
# do not do that kind of work: (unit, how many per run)
PROBES = {"train": (("infer", 8), ("corpus", 5)),
          "corpus": (("infer", 8), ("train", 6))}
# Rollouts of a checkpoint this early grow about five-fold per frame; ten
# frames keep every value far below float32 overflow.
ROLLOUT_FRAMES = 10
VALIDATE_STRIDE = 5   # validate()'s default window stride
BUILD_THREADS = 1

# the end-to-end metrics that a workload's own rounds measure; the others
# come from its set-ups and probe units
OWN_METRICS = {
    "train": ("train.samples_per_s",),
    "corpus": ("gen.heat.traj_per_s", "gen.diffusion_reaction.traj_per_s",
               "gen.ns_vorticity.traj_per_s", "corpus.load_mb_s"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train.samples_per_s": "samples/s",
    "eval.windows_per_s": "windows/s",
    "rollout.frames_per_s": "frames/s",
    "gen.heat.traj_per_s": "traj/s",
    "gen.diffusion_reaction.traj_per_s": "traj/s",
    "gen.ns_vorticity.traj_per_s": "traj/s",
    "corpus.load_mb_s": "MB/s",
}


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed for one role, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def fresh_model(seed: int):
    """The desk-config model in float32, initialized from ``seed``."""
    rng = train_mod.named_stream(seed, train_mod.STREAM_INIT)
    return model_mod.Model(model_mod.ModelConfig(), rng).astype(np.float32)


def probe_windows(ds) -> np.ndarray:
    """The first window of every trajectory, as one batch."""
    t_in = model_mod.ModelConfig().t_in
    return np.stack([t[:t_in] for t in ds.trajectories]).astype(np.float32)


def validate_windows(ds) -> int:
    """How many windows ``validate`` scores on ``ds``."""
    t_in = model_mod.ModelConfig().t_in
    return sum(len(checks.strided_windows([ds.trajectories[i] for i in
                                           ds.family_indices(f)], t_in,
                                          VALIDATE_STRIDE)[0])
               for f in ds.families)


# ---------------------------------------------------------------------
# run state
# ---------------------------------------------------------------------

@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    out_dir: str
    tracer: tracing.Tracer | None = None
    own: dict = field(default_factory=dict)       # metric -> [(work, seconds)]
    side: dict = field(default_factory=dict)      # same, from set-up and probes
    setup_s: list = field(default_factory=list)
    ops: Counter = field(default_factory=Counter)
    failed: int = 0
    errors: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    corpora: int = 0                              # corpora built after set-up
    train_probes: int = 0                         # train probes completed
    setup_trace: list | None = None               # loss trace of the set-up train()
    inferences: list = field(default_factory=list)  # inference probe results

    def measure(self, store: dict, metric: str, work: float, seconds: float) -> None:
        store.setdefault(metric, []).append((work, seconds))

    def rate(self, metric: str) -> float:
        """Work over time, summed across the samples of the workload's own
        rounds for the metrics they measure, and across those of the
        set-ups and probes for the others; NaN when there are none."""
        own = metric in OWN_METRICS[self.workload]
        pairs = (self.own if own else self.side).get(metric)
        if not pairs:
            return float("nan")
        return sum(w for w, _ in pairs) / sum(s for _, s in pairs)

    def spanned(self, name: str, fn):
        """``fn`` inside a span of the traced run, ``fn`` itself otherwise."""
        if self.tracer is None:
            return fn
        return lambda *args: self.tracer.call(name, fn, *args)

    def attempt(self, ops: dict, fn, *args):
        """Run one round; its operations count as failed if it raises."""
        self.ops.update(ops)
        try:
            return fn(*args)
        except AotError as exc:
            self.failed += sum(ops.values())
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    @property
    def attempted(self) -> int:
        return sum(self.ops.values())


# ---------------------------------------------------------------------
# corpus: build, write, read back
# ---------------------------------------------------------------------

@dataclass
class Corpus:
    train: data.TrajectoryDataset          # as loaded from disk
    test: data.TrajectoryDataset
    plan: data.SamplingPlan
    gen_s: dict                            # family -> (trajectories, seconds)
    load: tuple                            # (MB, seconds)
    generated: list                        # (spec, float64 trajectory)
    written: list                          # native-channel arrays, file order
    loaded: list

    def failures(self) -> list:
        out = [f for spec, traj in self.generated
               for f in checks.check_family(spec, traj)]
        return out + checks.check_loaded(self.written, self.loaded)


def corpus_ops() -> dict:
    n = sum(a + b for a, b in CORPUS_SIZES.values())
    return {"trajectories": n, "files": (1 + LOAD_PASSES) * n}


def make_corpus(root: str, seed: int) -> Corpus:
    """Generate each family with its own ``build_dataset`` call, write the
    merged splits as ``gen-data`` does, and load them back."""
    specs = data.desk_specs(GRID)
    gen_s, generated = {}, []
    splits = {"train": ([], [], []), "test": ([], [], [])}
    for fi, spec in enumerate(specs):
        n_train, n_test = CORPUS_SIZES[spec.family]
        t0 = time.perf_counter()
        parts = data.build_dataset([spec], n_train, n_test,
                                   seed=derive_seed(seed, fi),
                                   threads=BUILD_THREADS)
        gen_s[spec.family] = (n_train + n_test, time.perf_counter() - t0)
        for (trajs, labels, natives), ds in zip(splits.values(), parts):
            for traj, label, native in zip(ds.trajectories, ds.labels,
                                           ds.native_channels):
                trajs.append(traj[..., :native])
                labels.append(label)
                natives.append(native)
                generated.append((spec, traj[..., :native]))
    plan = data.SamplingPlan.from_specs(specs)
    manifests, written = [], []
    for split, (trajs, labels, natives) in splits.items():
        ds = data.TrajectoryDataset(trajs, labels, native_channels=natives)
        manifests.append(data.save_dataset(ds, root, split, plan))
        written += trajs
    size = sum(os.path.getsize(os.path.join(root, rel))
               for m in manifests for rel, _, _ in data.read_manifest(m))
    t0 = time.perf_counter()
    for _ in range(LOAD_PASSES):
        (train_ds, plan), (test_ds, _) = [data.load_dataset(m) for m in manifests]
    load_s = time.perf_counter() - t0
    return Corpus(train_ds, test_ds, plan, gen_s, (LOAD_PASSES * size / 1e6, load_s),
                  generated, written, train_ds.trajectories + test_ds.trajectories)


def record_corpus(run: Run, store: dict, corpus: Corpus) -> None:
    for fam, (n, seconds) in corpus.gen_s.items():
        run.measure(store, f"gen.{fam}.traj_per_s", n, seconds)
    run.measure(store, "corpus.load_mb_s", *corpus.load)
    run.failures += corpus.failures()
    corpus.generated = corpus.written = corpus.loaded = []


# ---------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------

def setup_once(run: Run, rep: int):
    """Corpus, model init, a short training run for a checkpoint, and the
    checkpoint load; returns (corpus, loaded model)."""
    root = os.path.join(run.out_dir, f"setup{rep}")
    t0 = time.perf_counter()
    corpus = make_corpus(os.path.join(root, "data"), derive_seed(run.seed, 0))
    model = fresh_model(run.seed)
    cfg = train_mod.TrainConfig(seed=run.seed, **SETUP_TRAIN)
    t1 = time.perf_counter()
    result = train_mod.train(model, corpus.train, corpus.plan, cfg,
                             test_ds=corpus.test, out_dir=os.path.join(root, "train"))
    train_s = time.perf_counter() - t1
    loaded = fresh_model(run.seed)
    train_mod.load_model_state(loaded, result.checkpoint_path)
    run.setup_s.append(time.perf_counter() - t0)
    run.measure(run.side, "train.samples_per_s",
                len(result.loss_trace) * cfg.batch, train_s)
    record_corpus(run, run.side, corpus)
    shutil.rmtree(root)
    check_short_train(run, result.loss_trace, f"set-up {rep}")
    return corpus, loaded


def check_short_train(run: Run, trace: list, what: str) -> None:
    """A SETUP_TRAIN run: finite losses, bit-identical to the first one."""
    if not np.all(np.isfinite(trace)):
        run.failures.append(f"{what}: non-finite training loss")
    if run.setup_trace is None:
        run.setup_trace = list(trace)
    else:
        run.failures += checks.check_same_trace(run.setup_trace, trace,
                                                f"{what} vs set-up 0")


def setup_ops(corpus: Corpus) -> dict:
    ops = corpus_ops()
    ops["steps"] = SETUP_TRAIN["epochs"] * SETUP_TRAIN["steps_per_epoch"]
    ops["windows"] = SETUP_TRAIN["epochs"] * validate_windows(corpus.test)
    ops["files"] += 3  # last_good and the final checkpoint written, one read
    return ops


# ---------------------------------------------------------------------
# timed rounds
# ---------------------------------------------------------------------

def train_round(run: Run, corpus: Corpus, sizes: dict = ROUND_TRAIN,
                store: dict | None = None, name: str = "round"):
    """``train()`` from a fresh model, with a snapshot every epoch."""
    out = os.path.join(run.out_dir, name)
    shutil.rmtree(out, ignore_errors=True)
    model = fresh_model(run.seed)
    cfg = train_mod.TrainConfig(seed=run.seed, **sizes)
    t0 = time.perf_counter()
    result = train_mod.train(model, corpus.train, corpus.plan, cfg,
                             test_ds=corpus.test, out_dir=out, checkpoint_every=1)
    elapsed = time.perf_counter() - t0
    run.measure(run.own if store is None else store, "train.samples_per_s",
                len(result.loss_trace) * cfg.batch, elapsed)
    return model, result


def train_ops(corpus: Corpus, sizes: dict) -> dict:
    return {"steps": sizes["epochs"] * sizes["steps_per_epoch"],
            "windows": sizes["epochs"] * validate_windows(corpus.test),
            "files": 2 * sizes["epochs"] + 1}


def infer_round(run: Run, corpus: Corpus, model):
    """validate() on the held-out split, then one batch-1 rollout per family."""
    test = corpus.test
    t0 = time.perf_counter()
    val = train_mod.validate(model, test)
    val_s = time.perf_counter() - t0
    predict = run.spanned("rollout.predict", diagnostics.model_predictor(model))
    t_in = model.cfg.t_in
    rollouts = []
    t0 = time.perf_counter()
    for fam in test.families:
        traj = test.trajectories[test.family_indices(fam)[0]]
        res = diagnostics.rollout(predict, traj[:t_in], ROLLOUT_FRAMES)
        rollouts.append((fam, traj, res))
    roll_s = time.perf_counter() - t0
    frames = sum(len(r.frames) for _, _, r in rollouts)
    run.measure(run.side, "eval.windows_per_s", validate_windows(test), val_s)
    run.measure(run.side, "rollout.frames_per_s", frames, roll_s)
    return val, rollouts


def infer_ops(corpus: Corpus) -> dict:
    return {"windows": validate_windows(corpus.test),
            "frames": ROLLOUT_FRAMES * len(corpus.test.families)}


def train_probe(run: Run, corpus: Corpus) -> None:
    """A SETUP_TRAIN ``train()``, checked against the set-up run."""
    done = run.attempt(train_ops(corpus, SETUP_TRAIN), train_round, run, corpus,
                       SETUP_TRAIN, run.side, "probe_train")
    if done is not None:
        run.train_probes += 1
        check_short_train(run, done[1].loss_trace, f"train probe {run.train_probes}")


def probe_units(run: Run, corpus: Corpus, model) -> dict:
    """One unit of each kind of work, timed into ``run.side``."""
    return {
        "infer": lambda: run.inferences.append(run.attempt(
            infer_ops(corpus), infer_round, run, corpus, model)),
        "train": lambda: train_probe(run, corpus),
        "corpus": lambda: run.attempt(corpus_ops(), corpus_round, run, run.side,
                                      "probe_corpus"),
    }


def closed_loop(run: Run, corpus: Corpus, model, ops: dict, fn, *args) -> list:
    """Whole rounds back to back until ``run.seconds`` have passed.

    The workload's probe units run between rounds, each kind spread evenly
    through the phase, so that their figures sample the same stretch of
    machine time as the rounds.  They are timed apart from the rounds.
    """
    units = probe_units(run, corpus, model)
    due = sorted(((k + 1) * run.seconds / (n + 1), kind)
                 for kind, n in PROBES[run.workload] for k in range(n))
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < run.seconds:
        results.append(run.attempt(ops, fn, *args))
        while due and time.perf_counter() - start >= due[0][0]:
            units[due.pop(0)[1]]()
    for _, kind in due:
        units[kind]()
    return [r for r in results if r is not None]


# ---------------------------------------------------------------------
# workload bodies: timed phase, then checks
# ---------------------------------------------------------------------

def forward_one(model):
    """Batch-1 forward pass of one (T_in, H, W, C) window."""
    return lambda window: model.forward(
        Tensor(window.astype(model.dtype)[None])).data[0]


def run_train(run: Run, corpus: Corpus, model) -> None:
    rounds = closed_loop(run, corpus, model, train_ops(corpus, ROUND_TRAIN),
                         train_round, run, corpus)
    check_inference(run, corpus, model)
    if not rounds:
        run.failures.append("no train round completed")
        return
    first = rounds[0][1]
    trained, last = rounds[-1]
    for i, (_, result) in enumerate(rounds):
        run.failures += checks.check_training(
            result.loss_trace, [row["train_loss"] for row in result.metrics])
        run.failures += checks.check_same_trace(first.loss_trace, result.loss_trace,
                                                f"round {i} vs round 0")
    out = os.path.join(run.out_dir, "round")
    resumed = train_mod.train(
        fresh_model(run.seed), corpus.train, corpus.plan,
        train_mod.TrainConfig(seed=run.seed, **ROUND_TRAIN), test_ds=corpus.test,
        out_dir=os.path.join(run.out_dir, "resumed"),
        resume_from=os.path.join(out, "checkpoint_0000.aotc"))
    split = ROUND_TRAIN["steps_per_epoch"]
    run.failures += checks.check_same_trace(last.loss_trace[split:],
                                            resumed.loss_trace, "resumed run")
    reloaded = fresh_model(run.seed)
    train_mod.load_model_state(reloaded, last.checkpoint_path)
    probe = Tensor(probe_windows(corpus.test))
    run.failures += checks.check_identical(trained.forward(probe).data,
                                           reloaded.forward(probe).data,
                                           "reloaded final checkpoint")
    gains = diagnostics.gain_analysis(trained, probe.data)
    run.failures += checks.check_gains(gains.backward)


def check_inference(run: Run, corpus: Corpus, model) -> None:
    """Checks on the inference rounds: identical results, the L2RE against
    a recomputation, rollout consistency and unit backward gains."""
    rounds = [r for r in run.inferences if r is not None]
    if not rounds:
        run.failures.append("no inference round completed")
        return
    val, rollouts = rounds[0]
    for other, _ in rounds[1:]:
        if other != val:
            run.failures.append("validate() differs between identical rounds")
    forward = forward_one(model)
    t_in = model.cfg.t_in
    test = corpus.test
    recomputed = {}
    for fam in test.families:
        nc = test.native_by_family[fam]
        trajs = [test.trajectories[i] for i in test.family_indices(fam)]
        windows, truths = checks.strided_windows(trajs, t_in, VALIDATE_STRIDE)
        recomputed[fam] = checks.relative_l2([forward(w)[..., :nc] for w in windows],
                                             [t[..., :nc] for t in truths])
    run.failures += checks.check_l2re(val, recomputed)
    for fam, traj, res in rollouts:
        if res.blowup_step is not None:
            run.failures.append(f"{fam} rollout blew up at step {res.blowup_step}")
        run.failures += checks.check_rollout(traj[:t_in], res.frames, forward)
    gains = diagnostics.gain_analysis(model, probe_windows(test))
    run.failures += checks.check_gains(gains.backward)


def corpus_round(run: Run, store: dict, name: str = "round") -> bool:
    """Build, write and read back a corpus with seeds fresh to this run."""
    root = os.path.join(run.out_dir, name)
    shutil.rmtree(root, ignore_errors=True)
    run.corpora += 1
    record_corpus(run, store, make_corpus(root, derive_seed(run.seed, 1, run.corpora)))
    return True


def run_corpus(run: Run, corpus: Corpus, model) -> None:
    closed_loop(run, corpus, model, corpus_ops(), corpus_round, run, run.own)
    check_inference(run, corpus, model)


BODIES = {"train": run_train, "corpus": run_corpus}


# ---------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------

def execute(workload: str, seed: int, seconds: float, trace: bool,
            out_dir: str) -> tuple[Run, dict, dict]:
    """Run one workload; returns (run, end-to-end metrics, per-layer metrics).

    Per-layer metrics are empty unless ``trace``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; options: {WORKLOADS}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    run = Run(workload, seed, seconds, out_dir)
    if trace:
        run.tracer = tracing.Tracer()
        run.tracer.install()
    try:
        for rep in range(SETUP_REPS):
            corpus, model = setup_once(run, rep)
            run.ops.update(setup_ops(corpus))
        BODIES[workload](run, corpus, model)
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
    e2e = {m: run.rate(m) for m in END_TO_END_UNITS
           if m not in ("setup_s", "peak_rss_mb")}
    e2e["setup_s"] = statistics.median(run.setup_s)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = {}
    if run.tracer is not None:
        layers = tracing.layer_metrics(run.tracer)
        in_layers, outside, held = tracing.node_accounting(run.tracer)
        if in_layers + outside != held:
            run.failures.append(f"tape nodes: {in_layers} in layers + {outside} "
                                f"outside != {held} held by the tapes")
        lengths = {s[tracing.COUNT] for s in run.tracer.spans
                   if s[tracing.NAME] == "train.backward"}
        if len(lengths) != 1:
            run.failures.append(f"tape length varies between steps: {sorted(lengths)}")
        run.tracer.write(os.path.join(out_dir, "spans.jsonl"))
    for name in os.listdir(out_dir):
        path = os.path.join(out_dir, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
    return run, e2e, layers
