"""Cross-scene thinker: structured-mask attention over context + learned
query tokens, training-only dynamic/depth decoders, parallel action-chunk
decoding, and the three-term objective.

Visibility (query row -> key column):
  obj(i)  -> obj(i), instruction
  agg     -> agg, instruction
  instr   -> instruction only (a broadcast source; it reads nothing else,
             which keeps the visibility graph transitively closed so the
             isolation guarantees below hold for any stack depth)
  dyn(i)  -> obj(i), instruction, dyn(i)
  dep     -> agg, instruction, dep
  action  -> everything
Auxiliary decoders read attention output states only; they feed nothing
back, so the action path is identical with or without them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import CrossAttnLayer, Linear, Module, TransformerLayer
from .config import ThinkerConfig
from .tensor import (ContractError, Tensor, absolute, concat, narrow,
                     reshape, tmean, tsum)
from .types import TokenSet


@dataclass
class SCAttnLayout:
    """Ordered segments of the attention sequence with per-segment counts.

    n_obj / n_dyn may be a single int (same count for every view) or a
    per-view list of length n_views.
    """
    n_views: int
    n_obj: int | list[int]
    n_agg: int
    n_instr: int
    n_dyn: int | list[int]
    n_dep: int
    n_action: int
    view_names: list[str] = field(default_factory=lambda: ["M", "L", "R"])

    def _per_view(self, c) -> list[int]:
        counts = [c] * self.n_views if isinstance(c, int) else list(c)
        if len(counts) != self.n_views:
            raise ContractError(f"expected {self.n_views} per-view counts, got {counts}")
        return counts

    def segments(self) -> list[tuple[str, int]]:
        views = self.view_names[:self.n_views]
        segs = [(f"obj:{v}", c) for v, c in zip(views, self._per_view(self.n_obj))]
        segs += [("agg", self.n_agg), ("instr", self.n_instr)]
        segs += [(f"dyn:{v}", c) for v, c in zip(views, self._per_view(self.n_dyn))]
        segs += [("dep", self.n_dep), ("action", self.n_action)]
        return segs

    def total(self) -> int:
        return sum(c for _, c in self.segments())

    def slices(self) -> dict[str, slice]:
        out, start = {}, 0
        for name, count in self.segments():
            out[name] = slice(start, start + count)
            start += count
        return out


def segment_allows(q: str, k: str) -> bool:
    """Visibility rule for one (query segment, key segment) pair."""
    if q == "action":
        return True
    if q.startswith("obj:"):
        return k == q or k == "instr"
    if q == "agg":
        return k in ("agg", "instr")
    if q == "instr":
        return k == "instr"
    if q.startswith("dyn:"):
        view = q.split(":")[1]
        return k in (f"obj:{view}", "instr", q)
    if q == "dep":
        return k in ("agg", "instr", "dep")
    raise ContractError(f"unknown segment {q!r}")


def build_sc_mask(layout: SCAttnLayout) -> np.ndarray:
    segs = layout.segments()
    total = layout.total()
    if total <= 0:
        raise ContractError("empty layout")
    mask = np.zeros((total, total), dtype=bool)
    slices = layout.slices()
    for qname, _ in segs:
        for kname, _ in segs:
            if segment_allows(qname, kname):
                mask[slices[qname], slices[kname]] = True
    return mask


@dataclass
class LossReport:
    l_action: float
    l_dyn4d: float
    l_dep4d: float
    l_total: float

    def to_dict(self) -> dict:
        return {"l_action": self.l_action, "l_dyn4d": self.l_dyn4d,
                "l_dep4d": self.l_dep4d, "l_total": self.l_total}


# ---------------------------------------------------------------------------
# losses


def loss_dyn4d(pred: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """Masked squared error, summed over the grid, mean over batch."""
    if pred.shape != np.asarray(target).shape:
        raise ContractError(f"dyn loss shape mismatch: {pred.shape} vs {np.shape(target)}")
    m = np.asarray(mask, dtype=float)[..., None]
    diff = pred * m - Tensor(np.asarray(target) * m)
    sq = diff * diff
    batch = pred.shape[0] if pred.ndim > 2 else 1
    return tsum(sq) * (1.0 / batch)


def loss_dep4d(preds: Tensor, targets: np.ndarray) -> Tensor:
    """Sum over views of squared error, mean over batch. preds [B,V,P]."""
    if preds.shape != np.asarray(targets).shape:
        raise ContractError(f"dep loss shape mismatch: {preds.shape} vs {np.shape(targets)}")
    diff = preds - Tensor(np.asarray(targets))
    sq = diff * diff
    batch = preds.shape[0] if preds.ndim > 2 else 1
    return tsum(sq) * (1.0 / batch)


def loss_action(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean absolute error over all chunk entries (and batch)."""
    if pred.shape != np.asarray(target).shape:
        raise ContractError(f"action loss shape mismatch: {pred.shape} vs {np.shape(target)}")
    return tmean(absolute(pred - Tensor(np.asarray(target))))


def total_loss(l_action: Tensor, l_dyn: Tensor, l_dep: Tensor) -> tuple[Tensor, LossReport]:
    total = l_action + l_dyn + l_dep
    report = LossReport(float(l_action.data), float(l_dyn.data),
                        float(l_dep.data), float(total.data))
    return total, report


# ---------------------------------------------------------------------------
# the thinker module


def _tile_batch(p: Tensor, lead: tuple) -> Tensor:
    return p + Tensor(np.zeros((*lead, *p.shape)))


class DynamicDecoder(Module):
    """Cross-attends learned output slots to the dyn states of all views."""

    def __init__(self, rng, cfg: ThinkerConfig, n_slots: int, d_out: int):
        super().__init__()
        self.slots = self.add_param("slots", 0.02 * rng.normal(size=(n_slots, cfg.d_model)))
        self.layers = [self.add_module(
            f"layer{i}", CrossAttnLayer(rng, cfg.d_model, cfg.decoder_heads,
                                        cfg.decoder_d_ff, d_kv=cfg.d_model))
            for i in range(cfg.decoder_layers)]
        # zero-init output head: auxiliary predictions (and hence their
        # gradients into the shared trunk) start at zero and grow gently
        self.head = self.add_module("head", Linear(rng, cfg.d_model, d_out,
                                                   zero_init=True))

    def __call__(self, dyn_states: Tensor) -> Tensor:
        q = _tile_batch(self.slots, dyn_states.shape[:-2])
        for layer in self.layers:
            q = layer(q, dyn_states)
        return self.head(q)


class DepthDecoder(Module):
    """Maps the shared depth states to one view's per-patch depth."""

    def __init__(self, rng, cfg: ThinkerConfig, n_dep: int, n_patches: int):
        super().__init__()
        self.n_dep = n_dep
        self.layers = [self.add_module(
            f"layer{i}", TransformerLayer(rng, cfg.d_model, cfg.decoder_heads,
                                          cfg.decoder_d_ff))
            for i in range(cfg.decoder_layers)]
        # zero-init output head, matching the dynamic decoder
        self.head = self.add_module("head", Linear(rng, n_dep * cfg.d_model,
                                                   n_patches, zero_init=True))

    def __call__(self, dep_states: Tensor) -> Tensor:
        h = dep_states
        for layer in self.layers:
            h = layer(h)
        flat = reshape(h, (*h.shape[:-2], h.shape[-2] * h.shape[-1]))
        return self.head(flat)


class CSThinker(Module):
    def __init__(self, rng, cfg: ThinkerConfig, n_views: int, k_obj: int,
                 n_agg: int, d_v: int, d_t: int, chunk: int, action_dim: int,
                 n_patches: int):
        super().__init__()
        self.cfg = cfg
        self.layout = SCAttnLayout(
            n_views=n_views, n_obj=k_obj, n_agg=n_agg,
            n_instr=cfg.n_instr_tokens, n_dyn=cfg.n_dyn_per_view,
            n_dep=cfg.n_dep, n_action=chunk)
        self.mask = build_sc_mask(self.layout)
        d = cfg.d_model
        self.proj_obj = self.add_module("proj_obj", Linear(rng, d_v, d))
        self.proj_agg = self.add_module("proj_agg", Linear(rng, d_v, d))
        self.proj_instr = self.add_module("proj_instr",
                                          Linear(rng, d_t, cfg.n_instr_tokens * d))
        self.q_dyn = self.add_param(
            "q_dyn", 0.02 * rng.normal(size=(n_views, cfg.n_dyn_per_view, d)))
        self.q_dep = self.add_param("q_dep", 0.02 * rng.normal(size=(cfg.n_dep, d)))
        self.q_act = self.add_param("q_act", 0.02 * rng.normal(size=(chunk, d)))
        self.sc_layers = [self.add_module(
            f"sc{i}", TransformerLayer(rng, d, cfg.n_heads, cfg.d_ff))
            for i in range(cfg.n_layers)]
        self.dyn_decoder = self.add_module(
            "dyn_decoder", DynamicDecoder(rng, cfg, n_slots=k_obj, d_out=d_v))
        self.depth_decoders = [self.add_module(
            f"depth_decoder{v}", DepthDecoder(rng, cfg, cfg.n_dep, n_patches))
            for v in range(n_views)]
        self.action_head = self.add_module("action_head", Linear(rng, d, action_dim))

    def sc_forward(self, obj3d: TokenSet, agg: TokenSet, t: Tensor) -> dict[str, Tensor]:
        """One parallel pass; returns output states per segment name.

        obj3d: [..., V, K, d_v]; its V*K rows are the obj:M/L/R segments in order.
        """
        lay, d = self.layout, self.cfg.d_model
        lead = agg.tokens.shape[:-2]
        obj = self.proj_obj(obj3d.tokens)
        instr = self.proj_instr(t)
        # q_dyn's V*n_dyn rows are the dyn:M/L/R segments in order
        queries = concat([reshape(self.q_dyn, (-1, d)), self.q_dep, self.q_act], axis=0)
        x = concat([reshape(obj, (*lead, -1, d)), self.proj_agg(agg.tokens),
                    reshape(instr, (*instr.shape[:-1], lay.n_instr, d)),
                    _tile_batch(queries, lead)], axis=-2)
        if x.shape[-2] != lay.total():
            raise ContractError(f"sequence length {x.shape[-2]} != layout {lay.total()}")
        for layer in self.sc_layers:
            x = layer(x, mask=self.mask)
        out = {}
        for name, sl in lay.slices().items():
            out[name] = narrow(x, -2, sl.start, sl.stop - sl.start)
        return out

    def decode_dynamic(self, states: dict[str, Tensor]) -> Tensor:
        dyn_all = concat([states[f"dyn:{v}"]
                          for v in self.layout.view_names[:self.layout.n_views]], axis=-2)
        return self.dyn_decoder(dyn_all)

    def decode_depth(self, states: dict[str, Tensor]) -> Tensor:
        preds = [dec(states["dep"]) for dec in self.depth_decoders]
        per_view = [reshape(p, (*p.shape[:-1], 1, p.shape[-1])) for p in preds]
        return concat(per_view, axis=-2)  # [..., V, P]

    def decode_action(self, states: dict[str, Tensor]) -> Tensor:
        return self.action_head(states["action"])

    def __call__(self, obj3d: TokenSet, agg: TokenSet, t: Tensor,
                 run_aux: bool = True) -> dict:
        states = self.sc_forward(obj3d, agg, t)
        out = {"action": self.decode_action(states), "states": states}
        if run_aux:
            out["dyn_pred"] = self.decode_dynamic(states)
            out["dep_pred"] = self.decode_depth(states)
        return out
