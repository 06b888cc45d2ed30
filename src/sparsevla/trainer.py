"""Optimization harness: Adam over the full stack, checkpointing,
closed-loop evaluation in the synthetic world, and finite-difference
gradient verification per parameter group.
"""

from __future__ import annotations

import json

import numpy as np

from .config import FullConfig
from .model import VLAModel
from .tensor import ContractError, Tape, backward, grad_check, grad_of
from .world import (ACTION_DIM, expert_action, is_success, observe, sample_scene,
                    step_scene, episode_samples)

CHECKPOINT_VERSION = 4


# ---------------------------------------------------------------------------
# data plumbing


def collect_samples(episodes: list[dict], chunk: int) -> list[tuple]:
    samples = []
    for ep in episodes:
        samples.extend(episode_samples(ep, chunk))
    return samples


def assemble_batch(samples: list[tuple]) -> dict:
    obs = [s[0] for s in samples]
    nxt = [s[2] for s in samples]

    def stack(recs, key, cast=np.float64):
        return np.stack([r[key] for r in recs]).astype(cast)

    return {
        "views": stack(obs, "views"),
        "depth_patch": stack(obs, "depth_patch"),
        "obj_channels": stack(obs, "obj_channels"),
        "target_mask_m": stack(obs, "target_mask_m", cast=bool),
        "instruction_id": np.array([s[3] for s in samples]),
        "actions": np.stack([s[1] for s in samples]).astype(np.float64),
        "next": {
            "views": stack(nxt, "views"),
            "depth_patch": stack(nxt, "depth_patch"),
            "obj_channels": stack(nxt, "obj_channels"),
            "target_mask_m": stack(nxt, "target_mask_m", cast=bool),
        },
    }


def check_episodes(cfg: FullConfig, episodes: list[dict]) -> None:
    """Raise ContractError unless every episode has the shapes `cfg` expects.

    An observation may carry more views than the model reads (it takes
    the first cfg.n_views), never fewer.
    """
    wc = cfg.world
    s, p = wc.image_size, wc.n_patches

    def expect(where, field, got, want):
        if got != want:
            raise ContractError(f"dataset {where} {field} has shape {got}, "
                                f"config expects {want}")

    for e, ep in enumerate(episodes):
        obs = ep["obs"]
        expect(f"episode {e}", "actions", np.shape(ep["actions"]),
               ((len(obs) - 1) * wc.chunk, ACTION_DIM))
        if not 0 <= ep["instruction_id"] < wc.n_colors:
            raise ContractError(f"dataset episode {e} instruction_id "
                                f"{ep['instruction_id']} is not a colour id "
                                f"below n_colors={wc.n_colors}")
        for t, o in enumerate(obs):
            where = f"episode {e} observation {t}"
            views = np.shape(o["views"])
            v = views[0] if len(views) == 4 and views[0] >= cfg.n_views else cfg.n_views
            expect(where, "views", views, (v, s, s, 3))
            expect(where, "depth_patch", np.shape(o["depth_patch"]), (v, p))
            expect(where, "obj_channels", np.shape(o["obj_channels"]),
                   (v, p, wc.n_colors + 1))
            expect(where, "target_mask_m", np.shape(o["target_mask_m"]), (p,))


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    def __init__(self, params: dict, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        # fixed name order keeps updates deterministic
        self.items = sorted(params.items())
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = {k: np.zeros_like(p.data) for k, p in self.items}
        self.v = {k: np.zeros_like(p.data) for k, p in self.items}
        self.t = 0

    def step(self, grads: dict) -> None:
        self.t += 1
        b1t = 1.0 - self.b1 ** self.t
        b2t = 1.0 - self.b2 ** self.t
        for name, p in self.items:
            g = grad_of(grads, p)
            m = self.m[name] = self.b1 * self.m[name] + (1.0 - self.b1) * g
            v = self.v[name] = self.b2 * self.v[name] + (1.0 - self.b2) * g * g
            p.data = p.data - self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: str, model: VLAModel, step: int) -> None:
    blob = {
        "format_version": CHECKPOINT_VERSION,
        "config_hash": model.cfg.arch_hash(),
        "step": step,
        "params": {k: p.data.tolist() for k, p in sorted(model.named_parameters().items())},
    }
    with open(path, "w") as fh:
        json.dump(blob, fh, sort_keys=True, separators=(",", ":"))


def load_checkpoint(path: str, model: VLAModel) -> int:
    with open(path) as fh:
        blob = json.load(fh)
    if not isinstance(blob, dict):
        raise ContractError(f"checkpoint must be a JSON object, got {type(blob).__name__}")
    if blob.get("format_version") != CHECKPOINT_VERSION:
        raise ContractError(f"unsupported checkpoint version {blob.get('format_version')}")
    if blob.get("config_hash") != model.cfg.arch_hash():
        raise ContractError("checkpoint config hash does not match model config")
    params, saved, step = model.named_parameters(), blob.get("params"), blob.get("step")
    if not isinstance(saved, dict):
        raise ContractError(f"checkpoint params must be a JSON object, got {saved!r:.40}")
    if type(step) is not int:
        raise ContractError(f"checkpoint step must be an integer, got {step!r:.40}")
    missing, extra = sorted(set(params) - set(saved)), sorted(set(saved) - set(params))
    if missing or extra:
        raise ContractError(f"checkpoint parameters do not match the model: "
                            f"missing {missing}, extra {extra}")
    loaded = {}
    for name, vals in saved.items():
        arr = np.asarray(vals, dtype=np.float64)
        if arr.shape != params[name].data.shape:
            raise ContractError(f"checkpoint parameter {name} has shape {arr.shape}, "
                                f"model expects {params[name].data.shape}")
        loaded[name] = arr
    for name, arr in loaded.items():
        params[name].data = arr
    return step


# ---------------------------------------------------------------------------
# training


def train(cfg: FullConfig, episodes: list[dict], loss_sink=None) -> tuple[VLAModel, list[dict]]:
    """Train from scratch; returns (model, loss stream: one record per step).

    Deterministic given (config, dataset): model init seed and batch
    sampling both derive from cfg.train.seed.
    """
    tc = cfg.train
    check_episodes(cfg, episodes)
    samples = collect_samples(episodes, cfg.world.chunk)
    if not samples:
        raise ContractError("dataset contains no training samples")
    model = VLAModel(cfg, seed=tc.seed)
    params = model.trainable_parameters()
    opt = Adam(params, lr=tc.lr)
    rng = np.random.default_rng(tc.seed)
    stream = []
    for step in range(tc.steps):
        picks = rng.integers(len(samples), size=tc.batch_size)
        batch = assemble_batch([samples[i] for i in picks])
        with Tape() as tape:
            total, report = model.compute_losses(
                batch, enable_dyn=tc.enable_dyn_loss, enable_dep=tc.enable_dep_loss,
                aux_target_scale=tc.aux_target_scale)
        if not np.isfinite(total.data):
            raise ContractError(
                f"non-finite loss at step {step}: {report.to_dict()}")
        grads = backward(total, tape)
        opt.step(grads)
        rec = {"step": step, **report.to_dict()}
        stream.append(rec)
        if loss_sink is not None:
            loss_sink(rec)
    return model, stream


def smoothed(stream: list[dict], window: int, key: str = "l_total"):
    """(initial, final) trailing-window means of the loss stream."""
    vals = [r[key] for r in stream]
    if not vals:
        return None, None
    w = min(window, len(vals))
    return float(np.mean(vals[:w])), float(np.mean(vals[-w:]))


# ---------------------------------------------------------------------------
# closed-loop evaluation


def model_policy(model: VLAModel):
    def policy(batch: dict) -> np.ndarray:
        return model.infer_actions(batch)
    return policy


def evaluate_closed_loop(policy, cfg: FullConfig, n_episodes: int, seed: int = 1234,
                         expert: bool = False) -> dict:
    """Roll out predicted chunks open-loop (K actions, then re-observe).

    `policy(batch)` maps a one-element observation batch to [1,K,d_a];
    with expert=True the scripted controller is queried instead.
    Success: gripper within capture radius of the target before horizon.
    """
    wc = cfg.world
    if n_episodes <= 0:
        return {"n_episodes": 0, "success_rate": None, "mean_action_l1": None}
    rng = np.random.default_rng(seed)
    successes = 0
    l1s = []
    n_chunks = -(-wc.horizon // wc.chunk)
    for _ in range(n_episodes):
        scene, instr = sample_scene(rng, wc)
        done = is_success(scene, wc)
        t = 0
        for _c in range(n_chunks):
            if expert:
                actions = []
                s = scene
                for _k in range(wc.chunk):
                    a = expert_action(s, wc)
                    actions.append(a)
                    s = step_scene(s, a, wc)
                actions = np.stack(actions)
            else:
                obs = observe(scene, wc, n_views=cfg.n_views)
                batch = {
                    "views": obs["views"][None],
                    "depth_patch": obs["depth_patch"][None],
                    "obj_channels": obs["obj_channels"][None],
                    "instruction_id": np.array([instr]),
                }
                actions = np.asarray(policy(batch))[0]
            for a in actions:
                l1s.append(float(np.abs(a - expert_action(scene, wc)).mean()))
                scene = step_scene(scene, a, wc)
                t += 1
                if t <= wc.horizon and is_success(scene, wc):
                    done = True
            if done:
                break
        successes += int(done)
    return {
        "n_episodes": n_episodes,
        "success_rate": successes / n_episodes,
        "mean_action_l1": float(np.mean(l1s)) if l1s else None,
    }


# ---------------------------------------------------------------------------
# gradient checks


def run_grad_checks(cfg: FullConfig, seed: int = 0, n_per_group: int = 32,
                    step: float = 1e-5, tol: float = 1e-4,
                    floor: float = 1e-7) -> dict:
    """Finite-difference verification of the full objective's gradients.

    Checks a random n_per_group-entry subset of every trainable parameter
    group and asserts exactly-zero gradients on frozen parameters (the
    spatial3d stream and the aligner's W_t projection).
    """
    from .world import run_expert_episode

    rng = np.random.default_rng(seed)
    model = VLAModel(cfg, seed=seed)

    # prefer a sample whose dynamic-object mask is nonzero so the dyn path
    # carries real gradient; fall back to the first sample otherwise
    batch = None
    for _ in range(25):
        ep = run_expert_episode(rng, cfg.world, n_views=cfg.n_views)
        for sample in episode_samples(ep, cfg.world.chunk):
            cand = assemble_batch([sample])
            if batch is None:
                batch = cand
            _, rep = model.compute_losses(cand)
            if rep.l_dyn4d > 0:
                batch = cand
                break
        else:
            continue
        break

    def f():
        total, _ = model.compute_losses(batch)
        return total

    report = {"pass": True, "tol": tol, "groups": {}, "failing_groups": []}
    for gname, group in sorted(model.parameter_groups().items()):
        rep = grad_check(f, dict(sorted(group.items())), step=step, tol=tol,
                         floor=floor, rng=rng, max_entries=n_per_group)
        report["groups"][gname] = {"max_rel_err": rep["max_rel_err"],
                                   "checked": rep["checked"]}
        if not rep["pass"]:
            report["pass"] = False
            report["failing_groups"].append(gname)

    with Tape() as tape:
        loss = f()
    grads = backward(loss, tape)
    frozen_ok = all(np.all(grad_of(grads, p) == 0.0)
                    for p in model.frozen_parameters().values())
    report["frozen_zero_grad"] = bool(frozen_ok)
    if not frozen_ok:
        report["pass"] = False
        report["failing_groups"].append("frozen")
    return report
