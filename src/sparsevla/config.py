"""Dataclass configuration for the whole stack, with JSON round-tripping.

A FullConfig nests one sub-config per subsystem under the keys
{world, encoders, aligner, fuser, thinker, train}. Named presets:

  toy         - desk-scale trainable defaults (16x16 images, d=32)
  micro       - 2-view miniature used for finite-difference gradient checks
  paper-dims  - dimension preset for token/FLOPs auditing only; never
                instantiated as a network
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .tensor import ConfigError


@dataclass
class WorldConfig:
    image_size: int = 16
    patch_size: int = 4
    n_colors: int = 4
    n_distractors_min: int = 1
    n_distractors_max: int = 3
    object_half: float = 0.14
    gripper_half: float = 0.12
    p_gain: float = 2.0
    dt: float = 0.07
    capture_radius: float = 0.15
    explore_noise: float = 0.4   # action noise during data collection
    horizon: int = 32
    chunk: int = 8           # action chunk length K

    @property
    def patches_per_side(self) -> int:
        return self.image_size // self.patch_size

    @property
    def n_patches(self) -> int:
        return self.patches_per_side ** 2


@dataclass
class EncoderConfig:
    """The d_v stage. n_heads and d_ff apply to every block of width d_v:
    the encoders, the aligner's fusion layers and the fuser's blocks."""
    d_v: int = 32            # token width of all visual streams
    d_t: int = 16            # instruction embedding width
    n_heads: int = 4
    n_layers_sem: int = 2
    n_layers_geo: int = 2    # L': geometric / spatial3d depth
    d_ff: int = 64


@dataclass
class AlignerConfig:
    k: int = 2               # tokens retained per view (1/8 of 16)
    n_layers: int = 1


@dataclass
class FuserConfig:
    n_agg: int = 8
    psi: float = 0.2
    delta: float = 0.05
    # two-block | per-view; COFuser.run does not depend on it, but the
    # benchmark's agg-only replica (perfbench/workloads.py) still reads it
    layout: str = "two-block"


@dataclass
class ThinkerConfig:
    """The d_model stage. n_heads and d_ff apply to every block of width
    d_model: the sc layers and both auxiliary decoders."""
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 64
    n_dyn_per_view: int = 4
    n_dep: int = 4
    n_instr_tokens: int = 1
    decoder_layers: int = 2


@dataclass
class TrainConfig:
    lr: float = 3e-3
    steps: int = 10000
    batch_size: int = 16
    seed: int = 0
    enable_dyn_loss: bool = True
    enable_dep_loss: bool = True
    # regression targets for the auxiliary decoders are scaled by this
    # factor so their summed squared errors stay comparable to the action
    # loss instead of dominating the shared trunk's gradient
    aux_target_scale: float = 0.01
    smooth_window: int = 100


@dataclass
class AuditConfig:
    """Audit dimensions; `audit.config_audit` derives them from a FullConfig."""
    preset: str = "toy"          # toy (a trainable network's dims) | paper-dims
    # token budgets (per the dimension preset)
    patches_per_view: int = 16
    n_views: int = 3
    k_obj: int = 2
    n_agg: int = 8
    n_instr: int = 1
    n_dyn: int = 12
    n_dep: int = 4
    n_action: int = 8
    # analytical FLOPs dimensions
    d_model: int = 32
    d_ff: int = 64
    n_layers: int = 2


@dataclass
class FullConfig:
    n_views: int = 3
    world: WorldConfig = field(default_factory=WorldConfig)
    encoders: EncoderConfig = field(default_factory=EncoderConfig)
    aligner: AlignerConfig = field(default_factory=AlignerConfig)
    fuser: FuserConfig = field(default_factory=FuserConfig)
    thinker: ThinkerConfig = field(default_factory=ThinkerConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    def arch_hash(self) -> str:
        """Hash of the sections that determine parameter shapes and wiring.

        Train settings are excluded so a checkpoint stays loadable
        when only optimization settings (steps, lr) differ.
        """
        arch = {k: v for k, v in self.to_dict().items() if k != "train"}
        blob = json.dumps(arch, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _typed(where: str, value, default):
    """`value` as its field default's type; a JSON int may fill a float field."""
    want = type(default)
    if want is float and type(value) is int:
        return float(value)
    if type(value) is not want:
        raise ConfigError(f"{where} must be {want.__name__}, "
                          f"got {type(value).__name__} {value!r}")
    return value


def config_from_dict(d: dict) -> FullConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
    cfg = FullConfig()
    unknown = set(d) - set(vars(cfg))
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for key, value in d.items():
        default = getattr(cfg, key)
        if not dataclasses.is_dataclass(default):   # n_views
            value = _typed(key, value, default)
        elif not isinstance(value, dict):
            raise ConfigError(f"[{key}] must be a JSON object, got {type(value).__name__}")
        else:
            fields = vars(default)
            bad = set(value) - set(fields)
            if bad:
                raise ConfigError(f"unknown keys in [{key}]: {sorted(bad)}")
            value = type(default)(**{name: _typed(f"{key}.{name}", v, fields[name])
                                     for name, v in value.items()})
        setattr(cfg, key, value)
    validate(cfg)
    return cfg


def load_config(path: str) -> FullConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def validate(cfg: FullConfig) -> None:
    if not 1 <= cfg.n_views <= 3:
        raise ConfigError(f"n_views must be 1..3, got {cfg.n_views}")
    from .world import COLORS  # deferred: world imports this module
    if not 2 <= cfg.world.n_colors <= len(COLORS):
        raise ConfigError(f"world.n_colors must be 2..{len(COLORS)}, got {cfg.world.n_colors}")
    if cfg.world.image_size % cfg.world.patch_size:
        raise ConfigError("image_size must be divisible by patch_size")
    if cfg.aligner.k > cfg.world.n_patches:
        raise ConfigError(f"k={cfg.aligner.k} exceeds patch count {cfg.world.n_patches}")
    if cfg.fuser.layout not in ("two-block", "per-view"):
        raise ConfigError(f"unknown fuser layout {cfg.fuser.layout!r}")
    if cfg.train.steps < 0 or cfg.train.batch_size < 1:
        raise ConfigError("train.steps must be >= 0 and batch_size >= 1")


def toy_config() -> FullConfig:
    cfg = FullConfig()
    validate(cfg)
    return cfg


def micro_config() -> FullConfig:
    """2-view miniature for finite-difference gradient checks (64-bit)."""
    cfg = FullConfig(
        n_views=2,
        encoders=EncoderConfig(d_v=8, d_t=4, n_heads=2, n_layers_sem=1,
                               n_layers_geo=1, d_ff=12),
        aligner=AlignerConfig(k=2, n_layers=1),
        fuser=FuserConfig(n_agg=2),
        thinker=ThinkerConfig(d_model=8, n_layers=1, n_heads=2, d_ff=12,
                              n_dyn_per_view=2, n_dep=2, decoder_layers=1),
        train=TrainConfig(batch_size=1, steps=1),
    )
    validate(cfg)
    return cfg


def paper_dims_audit() -> AuditConfig:
    """Full-scale dimension preset for budget/FLOPs auditing.

    Only used analytically; the network is never instantiated at these
    sizes. d_model/d_ff/n_layers approximate a 7B decoder backbone.
    """
    return AuditConfig(
        preset="paper-dims",
        patches_per_view=256, n_views=3, k_obj=32, n_agg=64,
        n_instr=16, n_dyn=12, n_dep=4, n_action=8,
        d_model=4096, d_ff=11008, n_layers=32,
    )

