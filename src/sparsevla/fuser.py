"""Cross-object fuser: layer-wise blending of the geometric and frozen
spatial streams under a cosine-decay weight, then block-wise causal
self-attention that lets learned aggregation tokens read the geometry
(never the reverse). `COFuser.run` forms queries for the aggregation rows
only; `build_bc_mask` and `ig_aggregate` give the full block as reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import Module, TransformerLayer
from .config import EncoderConfig, FuserConfig
from .tensor import ConfigError, ContractError, Tensor, concat, narrow
from .types import TokenSet


@dataclass
class AlphaSchedule:
    psi: float
    delta: float
    l_max: int            # L'


def alpha(l: int, sched: AlphaSchedule) -> float:
    """Layer-wise fusion weight; psi at l=0 decaying to psi*delta at l=L'."""
    if not 0 <= l <= sched.l_max:
        raise ContractError(f"layer {l} outside [0, {sched.l_max}]")
    shape = (1.0 + math.cos(l * math.pi / sched.l_max)) / 2.0
    return sched.psi * (sched.delta + (1.0 - sched.delta) * shape)


def group_fuse(z_geo: TokenSet, z_3d: TokenSet, l: int, sched: AlphaSchedule) -> TokenSet:
    """Elementwise blend (1-alpha_l) * geo + alpha_l * spatial."""
    if z_geo.tokens.shape != z_3d.tokens.shape:
        raise ContractError(
            f"group_fuse shape mismatch: {z_geo.tokens.shape} vs {z_3d.tokens.shape}")
    a = alpha(l, sched)
    fused = z_geo.tokens * (1.0 - a) + z_3d.tokens * a
    return TokenSet(fused, role="geo3d")


def build_bc_mask(n_geo_per_view: int, n_views: int, n_agg: int,
                  layout: str = "two-block") -> np.ndarray:
    """Visibility mask over geo(view 0) + ... + geo(view V-1) + agg tokens.

    two-block: geo tokens fully bidirectional across views; agg tokens see
    everything; geo never sees agg.
    per-view: geo tokens of view i additionally restricted to views <= i.
    """
    if n_geo_per_view < 0 or n_views < 0 or n_agg < 0:
        raise ContractError("token counts must be >= 0")
    n_geo = n_geo_per_view * n_views
    total = n_geo + n_agg
    if total == 0:
        raise ContractError("empty mask")
    mask = np.zeros((total, total), dtype=bool)
    if layout == "two-block":
        mask[:n_geo, :n_geo] = True
    elif layout == "per-view":
        for i in range(n_views):
            rows = slice(i * n_geo_per_view, (i + 1) * n_geo_per_view)
            mask[rows, :(i + 1) * n_geo_per_view] = True
    else:
        raise ConfigError(f"unknown bc layout {layout!r}")
    mask[n_geo:, :] = True
    return mask


def ig_aggregate(z_geo3d: TokenSet, agg: Tensor, block: TransformerLayer,
                 mask: np.ndarray) -> tuple[TokenSet, Tensor]:
    """One masked self-attention block over geo3d ++ agg; split back."""
    n_geo = z_geo3d.n_tokens
    n_agg = agg.shape[-2]
    if mask.shape != (n_geo + n_agg, n_geo + n_agg):
        raise ContractError(f"mask shape {mask.shape} != token count {n_geo + n_agg}")
    x = concat([z_geo3d.tokens, agg], axis=-2)
    y = block(x, mask=mask)
    geo_out = narrow(y, -2, 0, n_geo)
    agg_out = narrow(y, -2, n_geo, n_agg)
    return TokenSet(geo_out, role="geo3d"), agg_out


class COFuser(Module):
    """Learned aggregation tokens + one IG-Aggregation block per layer."""

    def __init__(self, rng, cfg: FuserConfig, ec: EncoderConfig):
        super().__init__()
        self.cfg = cfg
        self.sched = AlphaSchedule(cfg.psi, cfg.delta, ec.n_layers_geo)
        self.agg0 = self.add_param("agg0", 0.02 * rng.normal(size=(cfg.n_agg, ec.d_v)))
        self.blocks = [self.add_module(
            f"block{i}", TransformerLayer(rng, ec.d_v, ec.n_heads, ec.d_ff))
            for i in range(ec.n_layers_geo)]

    def run(self, geo_feats: list[TokenSet], spatial_feats: list[TokenSet],
            n_geo_per_view: int, n_views: int) -> TokenSet:
        """Iterate fuse + aggregate over layers; return final agg tokens."""
        n_layers = len(self.blocks)
        if len(geo_feats) != n_layers or len(spatial_feats) != n_layers:
            raise ConfigError(
                f"per-layer feature counts ({len(geo_feats)}, {len(spatial_feats)}) "
                f"!= configured layers {n_layers}")
        n_geo, n_agg = n_geo_per_view * n_views, self.cfg.n_agg
        if any(g.n_tokens != n_geo for g in geo_feats):
            raise ContractError(f"geometric token counts differ from {n_geo}")
        lead = geo_feats[0].tokens.shape[:-2]
        agg = self.agg0 + Tensor(np.zeros((*lead, *self.agg0.shape)))
        for l, (geo, sp, block) in enumerate(zip(geo_feats, spatial_feats, self.blocks)):
            fused = group_fuse(geo, sp, l, self.sched)
            # the agg rows of ig_aggregate's block: they see every key under
            # either layout, and nothing reads the geo rows
            z = block.ln1(concat([fused.tokens, agg], axis=-2))
            h = agg + block.attn(narrow(z, -2, n_geo, n_agg), z)
            agg = h + block.ffn(block.ln2(h))
        return TokenSet(agg, role="agg3d")
