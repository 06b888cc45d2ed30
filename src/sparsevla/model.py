"""End-to-end stack: encoders -> aligner -> fuser -> thinker -> losses.

Batches are plain numpy dicts; the model owns all trainable parameters and
exposes them under named groups so the trainer and the gradient checker can
enumerate them.
"""

from __future__ import annotations

import numpy as np

from .aligner import CVAligner
from .blocks import Module
from .config import FullConfig
from .encoders import (GeometricEncoder, InstructionTable, SemanticEncoder,
                       Spatial3DEncoder, patchify)
from .fuser import COFuser
from .tensor import Tensor, concat, reshape
from .thinker import CSThinker, loss_action, loss_dep4d, loss_dyn4d, total_loss
from .types import TokenSet
from .world import ACTION_DIM, oracle_dyn_targets


class VLAModel(Module):
    def __init__(self, cfg: FullConfig, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        wc, ec = cfg.world, cfg.encoders
        patch_dim = wc.patch_size * wc.patch_size * 3
        self.n_views = cfg.n_views
        # instruction ids are target colour ids
        self.instructions = self.add_module(
            "instruction", InstructionTable(rng, wc.n_colors, ec.d_t))
        self.semantic = self.add_module(
            "semantic", SemanticEncoder(rng, ec, patch_dim, wc.n_patches))
        # the geometric stream sees pixels plus per-patch depth and entity
        # footprint channels directly, so action-relevant geometry reaches
        # the trainable pathway without passing through the frozen encoder
        geo_patch_dim = patch_dim + 1 + (wc.n_colors + 1)
        self.geometric = self.add_module(
            "geometric", GeometricEncoder(rng, ec, geo_patch_dim, wc.n_patches))
        self.spatial = self.add_module(
            "spatial3d", Spatial3DEncoder(rng, ec, wc, patch_dim))
        self.aligner = self.add_module(
            "aligner", CVAligner(rng, cfg.aligner, ec.d_t, ec.d_v))
        self.fuser = self.add_module(
            "fuser", COFuser(rng, cfg.fuser, ec.d_v, ec.n_layers_geo))
        self.thinker = self.add_module(
            "thinker", CSThinker(rng, cfg.thinker, cfg.n_views, cfg.aligner.k,
                                 cfg.fuser.n_agg, ec.d_v, ec.d_t, wc.chunk,
                                 ACTION_DIM, wc.n_patches))

    # -- forward ----------------------------------------------------------

    def encode(self, batch: dict):
        """Run the three streams + aligner + fuser on one observation batch.

        batch keys: views [B,V,S,S,3], depth_patch [B,V,P],
        obj_channels [B,V,P,C], instruction_id [B].
        Returns (obj3d tokens [B,V,K,d], agg token set, t, view -> selection).
        """
        wc = self.cfg.world
        views = np.asarray(batch["views"])[:, :self.n_views]
        depth = Tensor(np.asarray(batch["depth_patch"])[:, :self.n_views])
        obj_ch = Tensor(np.asarray(batch["obj_channels"])[:, :self.n_views])
        b, v, p = views.shape[0], self.n_views, wc.n_patches
        patches = Tensor(patchify(views, wc.patch_size))
        t = self.instructions(batch["instruction_id"])

        z_sem = self.semantic(patches, t)                      # [B,V,P,d]
        geo_in = concat([patches, reshape(depth, (b, v, p, 1)), obj_ch], axis=-1)
        geo_feats = self.geometric(geo_in)                     # list [B,V,P,d]
        sp_feats, sp_final = self.spatial(patches, depth, obj_ch)

        obj3d, sels = self.aligner.align_views(
            TokenSet(z_sem, role="sem"), t, TokenSet(sp_final, role="spatial3d"))

        d = z_sem.shape[-1]
        geo_joint = [TokenSet(reshape(f, (b, v * p, d)), role="geo") for f in geo_feats]
        sp_joint = [TokenSet(f, role="spatial3d")
                    for f in sp_feats[:len(self.fuser.blocks)]]
        agg = self.fuser.run(geo_joint, sp_joint, n_geo_per_view=p, n_views=v)
        return obj3d, agg, t, sels

    def forward(self, batch: dict, run_aux: bool = True) -> dict:
        obj3d, agg, t, sels = self.encode(batch)
        out = self.thinker(obj3d, agg, t, run_aux=run_aux)
        out["selections"] = sels
        return out

    def infer_actions(self, batch: dict) -> np.ndarray:
        """Action chunk only; auxiliary decoders are never evaluated."""
        return self.forward(batch, run_aux=False)["action"].data

    # -- training objective -------------------------------------------------

    def spatial_features_view0(self, batch: dict) -> np.ndarray:
        """Frozen spatial-stream final features of view M (supervision only)."""
        wc = self.cfg.world
        views = np.asarray(batch["views"])[:, :self.n_views]
        depth = Tensor(np.asarray(batch["depth_patch"])[:, :self.n_views])
        obj_ch = Tensor(np.asarray(batch["obj_channels"])[:, :self.n_views])
        patches = Tensor(patchify(views, wc.patch_size))
        _, final = self.spatial(patches, depth, obj_ch)
        return final.data[:, 0]

    def compute_losses(self, batch: dict, enable_dyn: bool = True,
                       enable_dep: bool = True, aux_target_scale: float = 1.0):
        """Full objective on one training batch.

        Extra batch keys: actions [B,K,d_a], target_mask_m [B,P], and a
        nested `next` dict with the post-chunk observation (same obs keys
        plus target_mask_m). aux_target_scale rescales the dyn/dep
        regression targets (the decoders learn scaled features), keeping
        the summed squared errors comparable to the action term.
        """
        out = self.forward(batch, run_aux=enable_dyn or enable_dep)
        l_act = loss_action(out["action"], np.asarray(batch["actions"]))
        zero = Tensor(np.float64(0.0))
        l_dyn, l_dep = zero, zero
        if enable_dyn:
            nxt = batch["next"]
            next_feats = self.spatial_features_view0(nxt)
            sel_m = out["selections"]["M"].indices
            tgt, mask = oracle_dyn_targets(
                {"target_mask_m": np.asarray(batch["target_mask_m"], dtype=bool)},
                {"target_mask_m": np.asarray(nxt["target_mask_m"], dtype=bool)},
                sel_m, next_feats)
            l_dyn = loss_dyn4d(out["dyn_pred"], aux_target_scale * tgt, mask)
        if enable_dep:
            dep_target = np.asarray(batch["next"]["depth_patch"])[:, :self.n_views]
            l_dep = loss_dep4d(out["dep_pred"], aux_target_scale * dep_target)
        total, report = total_loss(l_act, l_dyn, l_dep)
        return total, report

    # -- parameter bookkeeping ---------------------------------------------

    def parameter_groups(self) -> dict[str, dict[str, Tensor]]:
        """Trainable parameters keyed by check-group name."""
        groups: dict[str, dict[str, Tensor]] = {}

        def assign(name: str) -> str:
            if name.startswith("semantic/film"):
                return "film"
            if name.startswith("instruction/"):
                return "instruction"
            if name.startswith("semantic/"):
                return "semantic_encoder"
            if name.startswith("geometric/"):
                return "geometric_encoder"
            if name.startswith("aligner/fusion"):
                return "fusion_blocks"
            if name == "fuser/agg0":
                return "agg_tokens"
            if name.startswith("fuser/"):
                return "fusion_blocks"
            if name.startswith(("thinker/q_", "thinker/proj_", "thinker/sc")):
                return "sc_attn"
            if name.startswith(("thinker/dyn_decoder", "thinker/depth_decoder")):
                return "decoders"
            if name.startswith("thinker/action_head"):
                return "heads"
            return "other"

        for name, p in self.trainable_parameters().items():
            groups.setdefault(assign(name), {})[name] = p
        return groups

    def frozen_parameters(self) -> dict[str, Tensor]:
        return {k: p for k, p in self.named_parameters().items()
                if not p.requires_grad}
