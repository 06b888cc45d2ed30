"""Deterministic toy multi-view manipulation environment.

A planar workspace in [0,1]^2 holds one gripper point, one instruction
target object and 1-3 distractors (all axis-aligned squares). Three views
are rendered: M (identity), L (x-mirrored), R (axes swapped) - fixed,
exactly invertible affine re-renderings, so cross-view correspondence is
known in closed form. Per-view depth images come from a per-view camera
height field minus entity height.

The scripted expert is a clipped proportional controller; episodes are
recorded at action-chunk boundaries and serialized as JSON Lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .config import WorldConfig
from .tensor import ContractError

FORMAT_VERSION = 1
ACTION_DIM = 2  # planar gripper velocity

# palette: object colors first, gripper last
COLORS = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 0.8, 0.0],
    [0.0, 0.0, 1.0],
    [0.9, 0.9, 0.0],
    [0.0, 0.8, 0.8],
    [0.6, 0.3, 0.0],
])
GRIPPER_COLOR = np.array([1.0, 0.0, 1.0])

OBJECT_HEIGHT = 0.5
GRIPPER_HEIGHT = 0.8

# view index -> (A, b): workspace point p maps to A @ p + b
VIEW_AFFINES = [
    (np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, 0.0])),   # M
    (np.array([[-1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0])),  # L
    (np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.0, 0.0])),   # R
]
VIEW_NAMES = ["M", "L", "R"]


@dataclass
class SceneObject:
    pos: np.ndarray
    color: int
    half: float


@dataclass
class Scene:
    gripper: np.ndarray
    objects: list[SceneObject]
    target_idx: int

    def copy(self) -> "Scene":
        return Scene(self.gripper.copy(),
                     [SceneObject(o.pos.copy(), o.color, o.half) for o in self.objects],
                     self.target_idx)

    @property
    def target(self) -> SceneObject:
        return self.objects[self.target_idx]


def sample_scene(rng: np.random.Generator, cfg: WorldConfig) -> tuple[Scene, int]:
    """Random scene; the instruction id is the target object's color id."""
    target_color = int(rng.integers(cfg.n_colors))
    n_dis = int(rng.integers(cfg.n_distractors_min, cfg.n_distractors_max + 1))
    objects = []
    lo, hi = 0.12, 0.88
    objects.append(SceneObject(rng.uniform(lo, hi, 2), target_color, cfg.object_half))
    others = [c for c in range(cfg.n_colors) if c != target_color]
    for _ in range(n_dis):
        c = others[int(rng.integers(len(others)))]
        objects.append(SceneObject(rng.uniform(lo, hi, 2), c, cfg.object_half))
    while True:
        gripper = rng.uniform(lo, hi, 2)
        if np.linalg.norm(gripper - objects[0].pos) > 3 * cfg.capture_radius:
            break
    return Scene(gripper, objects, 0), target_color


def expert_action(scene: Scene, cfg: WorldConfig) -> np.ndarray:
    """Clipped proportional velocity toward the target object."""
    delta = scene.target.pos - scene.gripper
    return np.clip(cfg.p_gain * delta, -1.0, 1.0)


def step_scene(scene: Scene, action: np.ndarray, cfg: WorldConfig) -> Scene:
    nxt = scene.copy()
    a = np.clip(np.asarray(action, dtype=float), -1.0, 1.0)
    nxt.gripper = np.clip(nxt.gripper + cfg.dt * a, 0.0, 1.0)
    return nxt


def is_success(scene: Scene, cfg: WorldConfig) -> bool:
    return float(np.linalg.norm(scene.gripper - scene.target.pos)) <= cfg.capture_radius


# ---------------------------------------------------------------------------
# rendering


def _pixel_grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-centre coordinates (xx, yy), each [S,S]; xx varies along columns."""
    px = (np.arange(size) + 0.5) / size
    return tuple(np.meshgrid(px, px, indexing="xy"))


def _footprint(center, half: float, view: int, grid) -> np.ndarray:
    """Boolean [S,S]: the pixels an axis-aligned square covers in one view."""
    A, b = VIEW_AFFINES[view]
    c = A @ np.asarray(center) + b
    xx, yy = grid
    return (np.abs(xx - c[0]) <= half) & (np.abs(yy - c[1]) <= half)


def _view_depth_base(view: int, grid) -> np.ndarray:
    xx, yy = grid
    if view == 0:
        return np.full(xx.shape, 2.0)
    if view == 1:
        return 1.7 + 0.6 * xx
    return 1.7 + 0.6 * yy


def render_view(scene: Scene, view: int, cfg: WorldConfig):
    """Render one view: RGB image [S,S,3], depth [S,S], top-entity id [S,S].

    Entity ids: -1 background, 0..n_colors-1 object color, n_colors gripper.
    Image rows index y, columns index x.
    """
    size = cfg.image_size
    grid = _pixel_grid(size)
    img = np.zeros((size, size, 3))
    base = _view_depth_base(view, grid)
    depth = base.copy()
    ids = np.full((size, size), -1, dtype=int)

    def draw(center, half, color_rgb, ent_id, height):
        cover = _footprint(center, half, view, grid)
        img[cover] = color_rgb
        depth[cover] = base[cover] - height
        ids[cover] = ent_id

    order = [i for i in range(len(scene.objects)) if i != scene.target_idx]
    order.append(scene.target_idx)
    for i in order:
        o = scene.objects[i]
        draw(o.pos, o.half, COLORS[o.color], o.color, OBJECT_HEIGHT)
    draw(scene.gripper, cfg.gripper_half, GRIPPER_COLOR, cfg.n_colors, GRIPPER_HEIGHT)
    return img, depth, ids


def patch_reduce(grid: np.ndarray, patch: int) -> np.ndarray:
    """Mean-pool [..., S, S] -> flat [..., P] in patch-row-major order."""
    *lead, s, _ = grid.shape
    g = s // patch
    return grid.reshape(*lead, g, patch, g, patch).mean(axis=(-3, -1)).reshape(*lead, g * g)


def object_channels(scene: Scene, view: int, cfg: WorldConfig) -> np.ndarray:
    """Per-patch footprint coverage per entity class -> [P, n_colors+1].

    Footprints are occlusion-free: an entity contributes its full coverage
    even where another entity is drawn on top of it in the RGB render.
    (The gripper sits over the target right when it matters most; an
    id-map-based channel would blind the policy exactly then.)
    """
    size = cfg.image_size
    grid = _pixel_grid(size)
    cover = np.zeros((cfg.n_colors + 1, size, size), dtype=bool)
    for o in scene.objects:
        cover[o.color] |= _footprint(o.pos, o.half, view, grid)
    cover[-1] = _footprint(scene.gripper, cfg.gripper_half, view, grid)
    return patch_reduce(cover.astype(float), cfg.patch_size).T


def target_patch_mask(scene: Scene, view: int, cfg: WorldConfig) -> np.ndarray:
    """Boolean [P]: patches whose footprint overlaps the target object."""
    t = scene.target
    cover = _footprint(t.pos, t.half, view, _pixel_grid(cfg.image_size))
    return patch_reduce(cover.astype(float), cfg.patch_size) > 0


def observe(scene: Scene, cfg: WorldConfig, n_views: int = 3) -> dict:
    """Full observation record for one time step."""
    views, depth_p, obj_ch = [], [], []
    for v in range(n_views):
        img, depth, _ids = render_view(scene, v, cfg)
        views.append(img)
        depth_p.append(patch_reduce(depth, cfg.patch_size))
        obj_ch.append(object_channels(scene, v, cfg))
    return {
        "views": np.stack(views),                # [V,S,S,3]
        "depth_patch": np.stack(depth_p),        # [V,P]
        "obj_channels": np.stack(obj_ch),        # [V,P,C]
        "target_mask_m": target_patch_mask(scene, 0, cfg),  # [P]
    }


# ---------------------------------------------------------------------------
# episodes and dataset files


def replay_succeeds(scene: Scene, actions: np.ndarray, cfg: WorldConfig) -> bool:
    s = scene.copy()
    if is_success(s, cfg):
        return True
    for t, a in enumerate(actions):
        s = step_scene(s, a, cfg)
        if t + 1 <= cfg.horizon and is_success(s, cfg):
            return True
    return False


def run_expert_episode(rng: np.random.Generator, cfg: WorldConfig, n_views: int = 3) -> dict:
    """One data-collection episode with exploration noise.

    At every chunk boundary the recorded action chunk is the noise-free
    expert rollout from the current scene (the behavior-cloning target),
    while the scene itself advances under noisy expert actions so the
    dataset covers off-expert states. Episodes are regenerated until
    replaying the recorded actions from the start reaches the target
    (the contractive controller makes retries rare).
    """
    n_chunks = -(-cfg.horizon // cfg.chunk)  # ceil
    while True:
        start, instr = sample_scene(rng, cfg)
        scene = start.copy()
        obs = [observe(scene, cfg, n_views)]
        actions = []
        for _c in range(n_chunks):
            s = scene.copy()
            for _k in range(cfg.chunk):
                a = expert_action(s, cfg)
                actions.append(a)
                s = step_scene(s, a, cfg)
            for _k in range(cfg.chunk):
                noisy = np.clip(
                    expert_action(scene, cfg) + rng.normal(0.0, cfg.explore_noise, 2),
                    -1.0, 1.0)
                scene = step_scene(scene, noisy, cfg)
            obs.append(observe(scene, cfg, n_views))
        actions = np.stack(actions)  # [n_chunks*K, d_a]
        if replay_succeeds(start, actions, cfg):
            return {
                "instruction_id": instr,
                "success": True,
                "actions": actions,
                "obs": obs,
            }


def _episode_to_json(ep: dict) -> dict:
    return {
        "instruction_id": ep["instruction_id"],
        "success": ep["success"],
        "actions": ep["actions"].tolist(),
        "obs": [
            {
                "views": o["views"].tolist(),
                "depth_patch": o["depth_patch"].tolist(),
                "obj_channels": o["obj_channels"].tolist(),
                "target_mask_m": o["target_mask_m"].astype(int).tolist(),
            }
            for o in ep["obs"]
        ],
    }


def _episode_from_json(d, where: str) -> dict:
    if not isinstance(d, dict):
        raise ContractError(f"{where} is not a JSON object")
    try:
        return {
            "instruction_id": int(d["instruction_id"]),
            "success": bool(d["success"]),
            "actions": np.asarray(d["actions"], dtype=float),
            "obs": [
                {
                    "views": np.asarray(o["views"], dtype=float),
                    "depth_patch": np.asarray(o["depth_patch"], dtype=float),
                    "obj_channels": np.asarray(o["obj_channels"], dtype=float),
                    "target_mask_m": np.asarray(o["target_mask_m"], dtype=int).astype(bool),
                }
                for o in d["obs"]
            ],
        }
    except KeyError as exc:
        raise ContractError(f"{where} has no key {exc}") from None
    except TypeError as exc:   # e.g. an observation that is not an object
        raise ContractError(f"{where} is not a valid episode: {exc}") from None


def generate_dataset(path: str, seed: int, n_episodes: int, horizon: int | None,
                     cfg: WorldConfig, config_hash: str = "", n_views: int = 3) -> None:
    """Write a JSONL dataset: header line, then one episode per line."""
    if n_episodes < 1:
        raise ContractError(f"n_episodes must be >= 1, got {n_episodes}")
    if horizon is not None:
        cfg = WorldConfig(**{**cfg.__dict__, "horizon": horizon})
    if cfg.horizon < 1:
        raise ContractError(f"horizon must be >= 1, got {cfg.horizon}")
    rng = np.random.default_rng(seed)
    header = {"format_version": FORMAT_VERSION, "seed": seed, "config_hash": config_hash}
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for _ in range(n_episodes):
            ep = run_expert_episode(rng, cfg, n_views)
            fh.write(json.dumps(_episode_to_json(ep), sort_keys=True,
                                separators=(",", ":")) + "\n")


def load_dataset(path: str):
    with open(path) as fh:
        header = json.loads(fh.readline())
        version = header.get("format_version") if isinstance(header, dict) else None
        if version != FORMAT_VERSION:
            raise ContractError(f"unsupported dataset format: {version}")
        episodes = [_episode_from_json(json.loads(line), f"{path} line {n}")
                    for n, line in enumerate(fh, start=2) if line.strip()]
    return header, episodes


def episode_samples(ep: dict, chunk: int):
    """Yield (obs, action_chunk, next_obs) training triples."""
    n_chunks = len(ep["obs"]) - 1
    for c in range(n_chunks):
        yield (ep["obs"][c],
               ep["actions"][c * chunk:(c + 1) * chunk],
               ep["obs"][c + 1],
               ep["instruction_id"])


def oracle_dyn_targets(obs: dict, next_obs: dict, sel_indices: np.ndarray,
                       next_feats_m: np.ndarray):
    """Dynamic-object supervision for view M.

    sel_indices: [B,K] selected patch indices in view M.
    next_feats_m: [B,P,d] frozen spatial-stream features of the next scene.
    Returns (targets [B,K,d], mask [B,K]) where the mask marks selected
    patches overlapping the target object both before and after the chunk.
    """
    tgt = np.take_along_axis(next_feats_m, sel_indices[..., None], axis=-2)
    cur = np.take_along_axis(obs["target_mask_m"], sel_indices, axis=-1)
    nxt = np.take_along_axis(next_obs["target_mask_m"], sel_indices, axis=-1)
    return tgt, (cur & nxt).astype(float)
