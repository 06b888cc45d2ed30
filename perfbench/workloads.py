"""The benchmark's three phases and the run that combines them.

Every run executes all three phases, so every end-to-end metric is
measured on every workload. The workload names the phase that gets the
measured time (whole rounds until --seconds have passed) and, with
--trace 1, the span tracing; the other two phases run a fixed number of
rounds as a control. All inputs derive from the run's seed.
"""

from __future__ import annotations

import copy
import os
import sys
import time
import traceback

import numpy as np

from sparsevla import trainer, world
from sparsevla.audit import sequence_length, stack_macs
from sparsevla.config import AuditConfig, toy_config
from sparsevla.encoders import patchify
from sparsevla.fuser import COFuser, build_bc_mask, group_fuse
from sparsevla.model import VLAModel
from sparsevla.tensor import Tape, Tensor, backward, concat, grad_of, narrow

import checks
from hostspeed import HostSpeed
from spans import Patches, Tracer, tape_macs
from stats import median, percentile

TRAIN_EPISODES = 256    # episodes generated in set-up for train_toy
TRAIN_STEPS = 120       # Adam steps per round; 119 timed intervals
LOSS_WINDOW = 60        # steps averaged for train_loss_final and the loss check
GRAD_CHECK_H = 1e-5     # at 1e-4 a Top-K selection flips inside the difference
LOOP_EPISODES = 4       # closed-loop episodes per round
DATA_EPISODES = 12      # episodes written per data_io round
PROBE_SCENES = 256      # held-out scenes for selection precision
CHECK_BATCH = 8         # observations in the batched-vs-b=1 and Top-K checks

E2E = [
    ("setup_s", "s"),
    ("train_step_ms", "ms"), ("train_loss_final", "loss"),
    ("infer_ms", "ms"), ("closed_loop_steps_per_s", "1/s"),
    ("gen_data_episodes_per_s", "1/s"), ("load_data_episodes_per_s", "1/s"),
    ("dataset_bytes_per_episode", "bytes"),
    ("checkpoint_save_ms", "ms"), ("checkpoint_load_ms", "ms"), ("checkpoint_bytes", "bytes"),
]

# forward stages (span names); each reports self time and self tape ops
STAGES = ("encoders.semantic", "encoders.geometric", "encoders.spatial3d",
          "aligner.align_views", "fuser.run", "thinker.sc_forward",
          "thinker.aux_decoders", "thinker.action_head", "model.losses")
GLUE_SPANS = ("model.forward", "model.encode", "model.next_features")
OTHER_MS = {
    "trainer.assemble_batch_ms": "trainer.assemble_batch",
    "tensor.backward_ms": "tensor.backward",
    "trainer.adam_ms": "trainer.adam",
    "trainer.loop_ms": "trainer.loop",
    "trainer.collect_samples_ms": "trainer.collect_samples",
    "world.observe_ms": "world.observe",
    "world.run_expert_episode_ms": "world.run_expert_episode",
    "world.serialize_write_ms": "world.generate_dataset",
    "world.load_dataset_ms": "world.load_dataset",
}
VIEWS = ("M", "L", "R")

PER_LAYER = (
    [(f"{s}_ms", "ms") for s in STAGES] + [("model.glue_ms", "ms")]
    + [(name, "ms") for name in OTHER_MS]
    + [("encoders.spatial3d_calls", "count"), ("world.observe_calls", "count"),
       ("tensor.tape_ops", "count"), ("tensor.matmul_macs", "count"),
       ("thinker.sc_macs_per_sample", "count")]
    + [(f"{s}.tape_ops", "count") for s in STAGES] + [("model.glue.tape_ops", "count")]
    + [(f"aligner.selection_{kind}_{v}", "ratio")
       for kind in ("precision", "chance") for v in VIEWS]
    + [("encoders.geometric_last_layer_ms", "ms"), ("encoders.spatial3d_next_obs_ms", "ms"),
       ("fuser.geo_rows_ms", "ms"),
       ("trace.op_ms", "ms"), ("trace.spans_per_op", "count"), ("trace.overhead_ms", "ms")]
)


def round_seed(seed: int, r: int) -> int:
    return seed * 100_003 + r


def expected_sc_macs() -> int:
    """Closed-form MACs of the thinker's attention stack per sample."""
    a = AuditConfig()
    return stack_macs(sequence_length(a), a.d_model, a.d_ff, a.n_layers)


def observation_batch(cfg, rng, n: int):
    """n fresh scenes and their stacked b=n observation batch."""
    scenes = [world.sample_scene(rng, cfg.world) for _ in range(n)]
    obs = [world.observe(s, cfg.world, n_views=cfg.n_views) for s, _ in scenes]
    batch = {key: np.stack([o[key] for o in obs])
             for key in ("views", "depth_patch", "obj_channels")}
    batch["instruction_id"] = np.array([instr for _, instr in scenes])
    return [s for s, _ in scenes], batch


def take(batch: dict, i: int) -> dict:
    return {k: v[i:i + 1] for k, v in batch.items()}


def sc_layer_macs(model, batch) -> float:
    """Matmul MACs recorded on the tape inside the thinker's sc_layers, per sample."""
    with Tracer() as tr:
        tr.follow_tapes().probe_blocks().label_model(model)
        with Tape():
            model.forward(batch, run_aux=False)
    counted = tr.counts.get("thinker.sc_layers.macs", 0)
    b = len(batch["instruction_id"])
    return counted // b if counted % b == 0 else counted / b


def selection_inputs(model, batch):
    """Semantic tokens [B, V, P, d] and the w_t-projected instruction [B, d]."""
    cfg = model.cfg
    views = np.asarray(batch["views"])[:, :cfg.n_views]
    t = model.instructions(batch["instruction_id"])
    z = model.semantic(Tensor(patchify(views, cfg.world.patch_size)), t).data
    return z, t.data @ model.named_parameters()["aligner/w_t"].data


def selection_precision(model, cfg, rng, n: int) -> dict:
    """Share of Top-K indices on the target's patches, per view, and its chance rate."""
    scenes, batch = observation_batch(cfg, rng, n)
    sels = model.forward(batch, run_aux=False)["selections"]
    out = {}
    for v, name in enumerate(VIEWS[:cfg.n_views]):
        masks = np.stack([world.target_patch_mask(s, v, cfg.world) for s in scenes])
        hits = np.take_along_axis(masks, sels[name].indices, axis=-1)
        out[f"aligner.selection_precision_{name}"] = float(hits.mean())
        out[f"aligner.selection_chance_{name}"] = float(masks.mean())
    return out


def agg_only_run(fuser, geo_feats, spatial_feats, n_geo_per_view, n_views):
    """COFuser.run with queries for the aggregation rows only.

    Each block's aggregation rows read every key exactly as in the full
    block; the geo rows, which COFuser.run computes and discards, are
    never formed as queries.
    """
    n_agg = fuser.cfg.n_agg
    n_geo = n_geo_per_view * n_views
    mask = build_bc_mask(n_geo_per_view, n_views, n_agg, fuser.cfg.layout)[n_geo:]
    lead = geo_feats[0].tokens.shape[:-2]
    agg = fuser.agg0 + Tensor(np.zeros((*lead, *fuser.agg0.shape)))
    for l, (geo, sp, block) in enumerate(zip(geo_feats, spatial_feats, fuser.blocks)):
        fused = group_fuse(geo, sp, l, fuser.sched)
        z = block.ln1(concat([fused.tokens, agg], axis=-2))
        h = agg + block.attn(narrow(z, -2, n_geo, n_agg), z, mask=mask)
        agg = h + block.ffn(block.ln2(h))
    return agg


def fuser_geo_rows_ms(model, batch, reps: int = 15) -> tuple[float, float]:
    """(ms COFuser.run spends beyond an agg-only run, max output gap)."""
    captured = []
    with Patches() as p:
        orig = p.set(COFuser, "run",
                     lambda fuser, *a, **k: captured.append((fuser, a, k)) or orig(fuser, *a, **k))
        model.forward(batch, run_aux=False)
    fuser, args, kwargs = captured[0]

    def timed(fn):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            out = fn(fuser, *args, **kwargs)
            times.append(time.perf_counter() - t0)
        return median(times), out

    full_s, full = timed(orig)
    agg_s, agg = timed(agg_only_run)
    gap = float(np.max(np.abs(full.tokens.data - agg.data)))
    return (full_s - agg_s) * 1e3, gap


def directional_terms(model, samples, seed: int, aux_scale: float,
                      h: float = GRAD_CHECK_H, batch_size: int = 4, tries: int = 8):
    """(tape directional derivative, f(theta + h u), f(theta - h u)).

    u is a seeded random unit direction over every trainable parameter.
    Uses the first batch whose Top-K indices are the same at +h and -h,
    since the selection is piecewise constant in the parameters.
    """
    params = sorted(model.trainable_parameters().items())
    rng = np.random.default_rng(seed)
    direction = [rng.standard_normal(p.data.shape) for _, p in params]
    norm = np.sqrt(sum(float((u * u).sum()) for u in direction))
    direction = [u / norm for u in direction]
    saved = [p.data for _, p in params]

    def shifted(batch, sign):
        for (_, p), base, u in zip(params, saved, direction):
            p.data = base + sign * h * u
        try:
            sels = model.forward(batch, run_aux=False)["selections"]
            loss = float(model.compute_losses(batch, aux_target_scale=aux_scale)[0].data)
        finally:
            for (_, p), base in zip(params, saved):
                p.data = base
        return loss, {v: s.indices.copy() for v, s in sels.items()}

    for start in range(0, tries * batch_size, batch_size):
        batch = trainer.assemble_batch(samples[start:start + batch_size])
        f_plus, sel_plus = shifted(batch, +1.0)
        f_minus, sel_minus = shifted(batch, -1.0)
        if all(np.array_equal(sel_plus[v], sel_minus[v]) for v in sel_plus):
            break
    else:
        raise checks.CheckFailed(f"Top-K selection flips at h={h} on all {tries} batches")
    with Tape() as tape:
        total, _ = model.compute_losses(batch, aux_target_scale=aux_scale)
    grads = backward(total, tape)
    analytic = sum(float((grad_of(grads, p) * u).sum()) for (_, p), u in zip(params, direction))
    return analytic, f_plus, f_minus


# ---------------------------------------------------------------------------
# phases


class Phase:
    name = ""
    kind = "compute"          # the host-speed kernel that scales this phase
    control_rounds = 1

    def __init__(self, host: HostSpeed):
        self.host = host
        self.ops = 0
        self.failed = 0
        self.traced_from = None   # index into op_samples where traced rounds start
        self.info = {}            # extra figures written to the result file

    def op_samples(self) -> list:
        """(start, wall seconds) of each operation behind the headline latency."""
        raise NotImplementedError

    def traced_op_ms(self) -> float:
        traced = self.op_samples()[self.traced_from:]
        return median(self.host.scale(traced, self.kind)) * 1e3

    def timed_ms(self, name: str, timed) -> float:
        """Median at the reference host speed; the raw median goes to info."""
        self.info[f"{name}_raw"] = median(dt for _, dt in timed) * 1e3
        return median(self.host.scale(timed, self.kind)) * 1e3

    def label(self, tracer):
        """Name the model blocks the tracer's probe should time."""

    def side_probes(self) -> dict:
        """Traced-run figures measured after the timed rounds."""
        return {}

    def per_sample(self) -> int:
        """Samples per operation, for per-sample counts."""
        return 1


class TrainPhase(Phase):
    """Adam on the toy preset, batch 16, TRAIN_STEPS steps per round."""
    name = "train_toy"
    control_rounds = 1

    def __init__(self, seed: int, workdir: str, host: HostSpeed):
        super().__init__(host)
        self.seed = seed
        self.cfg = toy_config()
        self.cfg.train.steps = TRAIN_STEPS
        rng = np.random.default_rng(seed)
        self.episodes = []
        for i in range(TRAIN_EPISODES):
            if i % 16 == 0:   # host speed across set-up, for setup_s
                host.sample("compute")
            self.episodes.append(
                world.run_expert_episode(rng, self.cfg.world, self.cfg.n_views))
        # a zero-step train builds the model and collects the samples, so
        # work that moves into either shows up in setup_s
        warm = copy.deepcopy(self.cfg)
        warm.train.steps = 0
        init_model, _ = trainer.train(warm, self.episodes)
        self.frozen_init = {k: p.data.tobytes()
                            for k, p in init_model.frozen_parameters().items()}
        self.steps = []           # (start, seconds) of every step after the first
        self.runs = []            # (model, loss stream, optimizers) per round

    def op_samples(self):
        return self.steps

    def round(self, tracer=None):
        optimizers = []
        step_start = None

        class LabelledModel(VLAModel):
            def __init__(self, *a, **k):
                super().__init__(*a, **k)
                tracer.label_model(self)

        class RecordingAdam(trainer.Adam):
            def __init__(self, *a, **k):
                super().__init__(*a, **k)
                optimizers.append(self)

        def sink(_rec):
            # a step runs from the end of one sink call to the start of the
            # next; the host-speed sample in between is not part of it
            nonlocal step_start
            now = time.perf_counter()
            if step_start is not None:
                self.steps.append((step_start, now - step_start))
            if tracer is not None:
                tracer.op += 1
                with tracer.span("perfbench.hostspeed"):
                    self.host.sample(self.kind)
            else:
                self.host.sample(self.kind)
            step_start = time.perf_counter()

        with Patches() as p:
            if tracer is not None:   # train() builds the model the probe times
                p.set(trainer, "VLAModel", LabelledModel)
            p.set(trainer, "Adam", RecordingAdam)
            model, stream = trainer.train(self.cfg, self.episodes, loss_sink=sink)
        self.runs.append((model, stream, optimizers))
        self.ops += len(stream)

    def metrics(self) -> dict:
        losses = [r["l_total"] for r in self.runs[0][1]]
        # written to the result file only: the tail is host contention more
        # than program work, and does not repeat between runs (README)
        self.info["train_step_ms_p90"] = percentile(
            self.host.scale(self.steps, self.kind), 90) * 1e3
        return {
            "train_step_ms": self.timed_ms("train_step_ms", self.steps),
            "train_loss_final": sum(losses[-LOSS_WINDOW:]) / LOSS_WINDOW,
        }

    def checks(self):
        model, stream, _ = self.runs[0]
        samples = trainer.collect_samples(self.episodes, self.cfg.world.chunk)
        yield "train.loss_curve", lambda: checks.loss_curve(
            [r["l_total"] for r in stream], LOSS_WINDOW)
        yield "train.frozen_spatial3d", lambda: "; ".join(
            checks.frozen_untouched(self.frozen_init, m.frozen_parameters(),
                                    [item for opt in opts for item in opt.items])
            for m, _, opts in self.runs)
        batch = trainer.assemble_batch(samples[:CHECK_BATCH])
        yield "train.aux_decoders_leave_actions", lambda: checks.bit_equal(
            "actions with and without aux decoders",
            model.forward(batch, run_aux=True)["action"].data, model.infer_actions(batch))
        yield "train.gradient_direction", lambda: self.gradient_check(model, samples)
        yield "train.sc_macs_vs_audit", lambda: checks.macs_equal(
            sc_layer_macs(model, batch), expected_sc_macs())

    def gradient_check(self, model, samples) -> str:
        analytic, f_plus, f_minus = directional_terms(
            model, samples, self.seed, self.cfg.train.aux_target_scale)
        return checks.directional_gradient(analytic, f_plus, f_minus, GRAD_CHECK_H)

    def side_probes(self) -> dict:
        model = self.runs[0][0]
        rng = np.random.default_rng(round_seed(self.seed, 99_999))
        out = selection_precision(model, self.cfg, rng, PROBE_SCENES)
        samples = trainer.collect_samples(self.episodes, self.cfg.world.chunk)
        batch = trainer.assemble_batch(samples[:self.cfg.train.batch_size])
        out["fuser.geo_rows_ms"], gap = fuser_geo_rows_ms(model, batch)
        self.info["agg_only_replica_max_gap"] = gap
        return out

    def per_sample(self) -> int:
        return self.cfg.train.batch_size


class ClosedLoopPhase(Phase):
    """evaluate_closed_loop with model_policy on a seeded-init toy model."""
    name = "closed_loop_b1"
    control_rounds = 48

    def __init__(self, seed: int, workdir: str, host: HostSpeed):
        super().__init__(host)
        self.seed = seed
        self.cfg = toy_config()
        self.model = VLAModel(self.cfg, seed=seed)
        self.policy = trainer.model_policy(self.model)
        _, self.check_batch = observation_batch(
            self.cfg, np.random.default_rng(round_seed(seed, 99_998)), CHECK_BATCH)
        self.policy(take(self.check_batch, 0))   # first call outside the timings
        self.infer = []           # (start, seconds) per decision
        self.round_times = []     # (start, seconds) per round
        self.round_steps = []     # environment steps per round
        self.round_seeds = []

    def op_samples(self):
        return self.infer

    def round(self, tracer=None):
        s = round_seed(self.seed, len(self.round_seeds))
        self.round_seeds.append(s)

        def timed_policy(batch):
            t0 = time.perf_counter()
            actions = self.policy(batch)
            self.infer.append((t0, time.perf_counter() - t0))
            if tracer is not None:
                tracer.op += 1
            return actions

        self.host.sample(self.kind)
        n0 = len(self.infer)
        t0 = time.perf_counter()
        trainer.evaluate_closed_loop(timed_policy, self.cfg, LOOP_EPISODES, seed=s)
        self.round_times.append((t0, time.perf_counter() - t0))
        decisions = len(self.infer) - n0
        self.round_steps.append(decisions * self.cfg.world.chunk)
        self.ops += decisions

    def metrics(self) -> dict:
        # written to the result file only: the tail does not repeat between
        # runs on a shared host (README)
        self.info["infer_ms_p95"] = percentile(
            self.host.scale(self.infer, self.kind), 95) * 1e3
        self.info["closed_loop_steps_per_s_raw"] = median(
            n / dt for n, (_, dt) in zip(self.round_steps, self.round_times))
        return {
            "infer_ms": self.timed_ms("infer_ms", self.infer),
            "closed_loop_steps_per_s": median(
                n / dt for n, dt in zip(self.round_steps,
                                        self.host.scale(self.round_times, self.kind))),
        }

    def checks(self):
        batch, model, k = self.check_batch, self.model, self.cfg.aligner.k
        yield "closed_loop.expert_succeeds", lambda: checks.expert_success(
            [trainer.evaluate_closed_loop(None, self.cfg, LOOP_EPISODES, seed=s, expert=True)
             for s in self.round_seeds])

        def topk():
            z, proj = selection_inputs(model, batch)
            sels = model.forward(batch, run_aux=False)["selections"]
            return "; ".join(f"{v}: " + checks.topk_selection(z[:, i], proj, k, sels[v].indices)
                             for i, v in enumerate(VIEWS[:self.cfg.n_views]))

        yield "closed_loop.topk_selection", topk
        yield "closed_loop.batched_vs_b1", lambda: checks.close(
            "batched vs per-sample actions", model.infer_actions(batch),
            np.concatenate([model.infer_actions(take(batch, i))
                            for i in range(len(batch["instruction_id"]))]), 1e-12)

    def label(self, tracer):
        tracer.label_model(self.model)

    def side_probes(self) -> dict:
        rng = np.random.default_rng(round_seed(self.seed, 99_999))
        out = selection_precision(self.model, self.cfg, rng, PROBE_SCENES)
        b1 = take(self.check_batch, 0)
        with Tracer() as tr:
            tr.install()
            tr.label_model(self.model)
            with Tape() as tape:
                self.model.forward(b1, run_aux=False)
        out.update({f"{s}.tape_ops": tr.tape_ops(s) for s in STAGES})
        out["model.glue.tape_ops"] = sum(tr.tape_ops(s) for s in GLUE_SPANS)
        out["tensor.tape_ops"] = len(tape.ops)
        out["tensor.matmul_macs"] = tape_macs(tape.ops)
        out["thinker.sc_macs_per_sample"] = tr.counts.get("thinker.sc_layers.macs", 0)
        out["fuser.geo_rows_ms"], gap = fuser_geo_rows_ms(self.model, b1)
        self.info["agg_only_replica_max_gap"] = gap
        return out


class DataPhase(Phase):
    """generate_dataset -> load_dataset -> collect_samples, then a checkpoint round trip."""
    name = "data_io"
    kind = "json"
    control_rounds = 16

    def __init__(self, seed: int, workdir: str, host: HostSpeed):
        super().__init__(host)
        self.seed = seed
        self.workdir = workdir
        self.cfg = toy_config()
        self.model = VLAModel(self.cfg, seed=seed)
        self.target = VLAModel(self.cfg, seed=seed + 1)
        self.gen_s, self.load_s, self.save_s, self.restore_s = [], [], [], []
        self.data_bytes, self.ckpt_bytes = [], []
        self.n_samples = []
        self.rounds = 0

    def op_samples(self):
        return [(t, dt / DATA_EPISODES) for t, dt in self.gen_s]

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def generate(self, path: str, seed: int):
        world.generate_dataset(path, seed=seed, n_episodes=DATA_EPISODES, horizon=None,
                               cfg=self.cfg.world, config_hash=self.cfg.config_hash(),
                               n_views=self.cfg.n_views)

    def round(self, tracer=None):
        data, ckpt = self.path("data.jsonl"), self.path("ckpt.json")
        self.rounds += 1

        def timed(record, fn, *args):
            self.host.sample(self.kind)
            t0 = time.perf_counter()
            out = fn(*args)
            record.append((t0, time.perf_counter() - t0))
            return out

        timed(self.gen_s, self.generate, data, round_seed(self.seed, self.rounds - 1))
        samples = timed(self.load_s, lambda: trainer.collect_samples(
            world.load_dataset(data)[1], self.cfg.world.chunk))
        timed(self.save_s, trainer.save_checkpoint, ckpt, self.model, self.rounds)
        timed(self.restore_s, trainer.load_checkpoint, ckpt, self.target)
        self.data_bytes.append(os.path.getsize(data) / DATA_EPISODES)
        self.ckpt_bytes.append(os.path.getsize(ckpt))
        self.n_samples.append(len(samples))
        if tracer is not None:
            tracer.op += DATA_EPISODES
        self.ops += 5   # generate, load, collect, save, load checkpoint

    def metrics(self) -> dict:
        return {
            "gen_data_episodes_per_s":
                DATA_EPISODES * 1e3 / self.timed_ms("generate_dataset_ms", self.gen_s),
            "load_data_episodes_per_s":
                DATA_EPISODES * 1e3 / self.timed_ms("load_and_collect_ms", self.load_s),
            "dataset_bytes_per_episode": median(self.data_bytes),
            "checkpoint_save_ms": self.timed_ms("checkpoint_save_ms", self.save_s),
            "checkpoint_load_ms": self.timed_ms("checkpoint_load_ms", self.restore_s),
            "checkpoint_bytes": median(self.ckpt_bytes),
        }

    def checks(self):
        def round_trip():
            seed = round_seed(self.seed, 0)
            a, b = self.path("check_a.jsonl"), self.path("check_b.jsonl")
            self.generate(a, seed)
            self.generate(b, seed)
            rng = np.random.default_rng(seed)
            expected = [world.run_expert_episode(rng, self.cfg.world, self.cfg.n_views)
                        for _ in range(DATA_EPISODES)]
            _, loaded = world.load_dataset(a)
            return (checks.dataset_equal(expected, loaded) + "; "
                    + checks.same_bytes(a, b))

        yield "data.dataset_round_trip", round_trip

        def sample_count():
            n_chunks = -(-self.cfg.world.horizon // self.cfg.world.chunk)
            want = DATA_EPISODES * n_chunks
            if any(n != want for n in self.n_samples):
                raise checks.CheckFailed(f"collect_samples gave {self.n_samples}, want {want}")
            return f"{want} samples per round"

        yield "data.collect_samples", sample_count

        def checkpoint():
            expected = {k: p.data for k, p in self.model.named_parameters().items()}
            loaded = {k: p.data for k, p in self.target.named_parameters().items()}
            _, batch = observation_batch(self.cfg, np.random.default_rng(self.seed), 2)
            return (checks.params_equal(expected, loaded) + "; " + checks.bit_equal(
                "actions", self.model.infer_actions(batch), self.target.infer_actions(batch)))

        yield "data.checkpoint_round_trip", checkpoint


PHASES = {cls.name: cls for cls in (TrainPhase, ClosedLoopPhase, DataPhase)}
WORKLOADS = tuple(PHASES)


# ---------------------------------------------------------------------------
# the run


def run_rounds(phase: Phase, rounds: int, deadline: float | None = None, tracer=None):
    """At least `rounds` rounds, then more until `deadline` (perf_counter) passes."""
    done = 0
    while done < rounds or (deadline is not None and time.perf_counter() < deadline):
        try:
            phase.round(tracer)
        except Exception:   # one failed round is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            phase.failed += 1
            phase.ops += 1
            return
        done += 1


def layer_metrics(tracer: Tracer, phase: Phase) -> dict:
    """Per-operation figures from the traced rounds of `phase`."""
    n = max(tracer.op, 1)

    def ms(seconds):
        return seconds / n * 1e3

    out = {name: 0.0 for name, _ in PER_LAYER}
    for stage in STAGES:
        out[f"{stage}_ms"] = ms(tracer.self_s(stage))
        out[f"{stage}.tape_ops"] = tracer.tape_ops(stage) / n
    out["model.glue_ms"] = ms(sum(tracer.self_s(s) for s in GLUE_SPANS))
    out["model.glue.tape_ops"] = sum(tracer.tape_ops(s) for s in GLUE_SPANS) / n
    for name, span in OTHER_MS.items():
        out[name] = ms(tracer.self_s(span))
    out["encoders.spatial3d_calls"] = tracer.calls("encoders.spatial3d") / n
    out["world.observe_calls"] = tracer.calls("world.observe") / n
    out["tensor.tape_ops"] = tracer.counts.get("tensor.tape_ops", 0) / n
    out["tensor.matmul_macs"] = tracer.counts.get("tensor.matmul_macs", 0) / n
    out["thinker.sc_macs_per_sample"] = (
        tracer.counts.get("thinker.sc_layers.macs", 0) / (n * phase.per_sample()))
    out["encoders.geometric_last_layer_ms"] = ms(
        tracer.counts.get("encoders.geometric_last_layer.s", 0.0))
    out["encoders.spatial3d_next_obs_ms"] = ms(
        tracer.nested.get(("model.next_features", "encoders.spatial3d"), 0.0))
    out["trace.op_ms"] = phase.traced_op_ms()
    out["trace.spans_per_op"] = len(tracer.spans) / n
    out["trace.overhead_ms"] = (out["trace.spans_per_op"] * tracer.span_cost_s() * 1e3
                                + ms(tracer.counts.get("trace.count_s", 0.0)))
    out.update(phase.side_probes())
    return out


def run(workload: str, seed: int, seconds: float, traced: bool, setup_clock, workdir: str):
    """Set up every phase, measure, check; returns the result dict."""
    host = HostSpeed()
    phases = {name: cls(seed, workdir, host) for name, cls in PHASES.items()}
    host.sample("compute", 4)
    setup_raw = setup_clock() - host.spent_s()
    setup_s = setup_raw * host.factor("compute")
    focus = phases[workload]
    for phase in phases.values():
        if phase is not focus:
            run_rounds(phase, phase.control_rounds)

    tracer = Tracer().install() if traced else None
    try:
        if tracer is not None:
            focus.label(tracer)
        focus.traced_from = len(focus.op_samples())
        run_rounds(focus, focus.control_rounds, time.perf_counter() + seconds, tracer)
    finally:
        if tracer is not None:
            tracer.close()

    results = {}
    for phase in phases.values():
        if phase.failed:
            continue
        for name, check in phase.checks():
            try:
                results[name] = {"ok": True, "detail": check()}
            except Exception as exc:   # a crash inside a check fails that check
                results[name] = {"ok": False, "detail": f"{type(exc).__name__}: {exc}"}
    failed = sum(p.failed for p in phases.values())
    correct = failed == 0 and all(r["ok"] for r in results.values())

    if traced:
        metrics = layer_metrics(tracer, focus) if not focus.failed else {}
        units = dict(PER_LAYER)
    else:
        metrics = {"setup_s": setup_s}
        if not failed:
            for phase in phases.values():
                metrics.update(phase.metrics())
        units = dict(E2E)
    return {
        "result": {
            "correct": correct,
            "attempted": sum(p.ops for p in phases.values()),
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        },
        "checks": results,
        "info": {"setup_s_raw": setup_raw, **{name: p.info for name, p in phases.items()}},
        "spans": tracer.spans if tracer is not None else None,
    }
