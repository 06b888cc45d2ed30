"""Toy stand-ins for the three encoder streams.

- semantic: instruction-modulated (FiLM) self-attention stack, shared
  across views; each layer computes (1+gamma(t)) * SelfAttn(z) + beta(t).
- geometric: plain per-view transformer exposing the features z_0..z_{L'-1}
  that the fuser reads (L'-1 transformer layers, as nothing reads z_L');
  z_0 is exactly the (bias-free) patch-embedding linear map.
- spatial3d: frozen joint encoder over all views; its patch embedding
  concatenates a linear encoding of oracle per-patch depth and
  object-identity channels, so the stream genuinely carries geometry.
"""

from __future__ import annotations

import numpy as np

from .blocks import LayerNorm, Linear, Module, MultiHeadAttention, TransformerLayer
from .config import EncoderConfig, WorldConfig
from .tensor import ConfigError, Tensor, concat, embedding, reshape


def position_code(n_patches: int, d: int) -> np.ndarray:
    """Unit-scale 2D sinusoidal code over the square patch grid (n_patches
    is always (image_size // patch_size)**2).

    Tokens need a strong positional signal from step one so attention can
    localize objects; a near-zero random init hides patch identity and
    makes position decoding needlessly slow to learn.
    """
    g = int(round(np.sqrt(n_patches)))
    rows = np.repeat(np.arange(g), g) / max(g - 1, 1)
    cols = np.tile(np.arange(g), g) / max(g - 1, 1)
    q = max(d // 4, 1)
    freqs = np.pi * 2.0 ** np.arange(q)
    feats = np.concatenate([
        np.sin(np.outer(rows, freqs)), np.cos(np.outer(rows, freqs)),
        np.sin(np.outer(cols, freqs)), np.cos(np.outer(cols, freqs)),
    ], axis=-1)
    out = np.zeros((n_patches, d))
    out[:, :min(d, feats.shape[1])] = feats[:, :d]
    return out


def patchify(views: np.ndarray, patch: int) -> np.ndarray:
    """[..., S, S, 3] -> [..., P, patch*patch*3], patch-row-major."""
    *lead, s, _, c = views.shape
    g = s // patch
    x = views.reshape(*lead, g, patch, g, patch, c)
    x = np.moveaxis(x, -3, -4)  # [..., g, g, patch, patch, c]
    return x.reshape(*lead, g * g, patch * patch * c)


class SemanticEncoder(Module):
    def __init__(self, rng, cfg: EncoderConfig, patch_dim: int, n_patches: int):
        super().__init__()
        self.cfg = cfg
        self.embed = self.add_module("embed", Linear(rng, patch_dim, cfg.d_v))
        self.pos = self.add_param("pos", position_code(n_patches, cfg.d_v))
        self.lns, self.attns, self.film_g, self.film_b = [], [], [], []
        for i in range(cfg.n_layers_sem):
            self.lns.append(self.add_module(f"ln{i}", LayerNorm(cfg.d_v)))
            self.attns.append(self.add_module(
                f"attn{i}", MultiHeadAttention(rng, cfg.d_v, cfg.n_heads)))
            # zero-init FiLM maps: training starts at identity modulation
            self.film_g.append(self.add_module(
                f"film_g{i}", Linear(rng, cfg.d_t, cfg.d_v, zero_init=True)))
            self.film_b.append(self.add_module(
                f"film_b{i}", Linear(rng, cfg.d_t, cfg.d_v, zero_init=True)))

    def __call__(self, patches: Tensor, t: Tensor) -> Tensor:
        """patches [..., P, pd], t [batch-dims..., d_t] -> [..., P, d_v]."""
        if t.shape[-1] != self.cfg.d_t:
            raise ConfigError(f"instruction width {t.shape[-1]} != d_t {self.cfg.d_t}")
        z = self.embed(patches) + self.pos
        extra = z.ndim - t.ndim - 1  # broadcast t over view/token axes
        for ln, attn, fg, fb in zip(self.lns, self.attns, self.film_g, self.film_b):
            gamma = fg(t)
            beta = fb(t)
            for _ in range(extra + 1):
                gamma = reshape(gamma, (*gamma.shape[:-1], 1, gamma.shape[-1]))
                beta = reshape(beta, (*beta.shape[:-1], 1, beta.shape[-1]))
            zn = ln(z)
            a = z + attn(zn, zn)
            z = (1.0 + gamma) * a + beta
        return z


class GeometricEncoder(Module):
    def __init__(self, rng, cfg: EncoderConfig, patch_dim: int, n_patches: int):
        super().__init__()
        self.embed = self.add_module("embed", Linear(rng, patch_dim, cfg.d_v, bias=False))
        n_layers = cfg.n_layers_geo - 1
        if n_layers:
            self.pos = self.add_param("pos", position_code(n_patches, cfg.d_v))
        self.layers = [self.add_module(f"layer{i}",
                                       TransformerLayer(rng, cfg.d_v, cfg.n_heads, cfg.d_ff))
                       for i in range(n_layers)]

    def __call__(self, patches: Tensor) -> list[Tensor]:
        """Returns per-layer features z_0..z_{L'-1} (L' entries)."""
        z0 = self.embed(patches)
        feats = [z0]
        if self.layers:
            h = z0 + self.pos
            for layer in self.layers:
                h = layer(h)
                feats.append(h)
        return feats


class Spatial3DEncoder(Module):
    """Frozen joint encoder over all views (no trainable parameters)."""

    def __init__(self, rng, cfg: EncoderConfig, world: WorldConfig, patch_dim: int):
        super().__init__()
        d_geo = max(2, cfg.d_v // 2)
        d_px = cfg.d_v - d_geo
        geo_in = 1 + world.n_colors + 1  # depth + color channels + gripper channel
        self.embed_px = self.add_module("embed_px",
                                        Linear(rng, patch_dim, d_px, trainable=False))
        self.embed_geo = self.add_module("embed_geo",
                                         Linear(rng, geo_in, d_geo, trainable=False))
        # positional code shared across views: keeps view-permutation equivariance
        self.pos = self.add_param("pos", position_code(world.n_patches, cfg.d_v),
                                  trainable=False)
        self.n_patches = world.n_patches
        self.d_v = cfg.d_v
        self.layers = [self.add_module(
            f"layer{i}", TransformerLayer(rng, cfg.d_v, cfg.n_heads, cfg.d_ff, trainable=False))
            for i in range(cfg.n_layers_geo)]

    def __call__(self, patches: Tensor, depth: Tensor, obj_ch: Tensor):
        """patches [B,V,P,pd], depth [B,V,P], obj_ch [B,V,P,C].

        Returns (per-layer joint features [B, V*P, d_v] for l=0..L',
                 final per-view features [B, V, P, d_v]).
        """
        b, v, p = patches.shape[0], patches.shape[1], patches.shape[2]
        d1 = reshape(depth, (b, v, p, 1))
        geo_in = concat([d1, obj_ch], axis=-1)
        tok = concat([self.embed_px(patches), self.embed_geo(geo_in)], axis=-1)
        tok = reshape(tok, (b, v * p, self.d_v))
        pos = Tensor(np.tile(self.pos.data, (v, 1)))
        feats = [tok]
        h = tok + pos
        for layer in self.layers:
            h = layer(h)
            feats.append(h)
        final = reshape(feats[-1], (b, v, p, self.d_v))
        return feats, final


class InstructionTable(Module):
    """Learned lookup table standing in for a text encoder."""

    def __init__(self, rng, n_instructions: int, d_t: int):
        super().__init__()
        self.table = self.add_param("table", rng.normal(size=(n_instructions, d_t)))

    def __call__(self, ids: np.ndarray) -> Tensor:
        return embedding(self.table, np.asarray(ids))
