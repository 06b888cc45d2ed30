"""Cross-view aligner: instruction-similarity scoring, Top-K token
selection, and per-view cross-attention fusion of spatial features into
the selected object tokens.

Selection is a hard, non-differentiable index set: gradients flow through
the selected token values only, never through the scores. W_t therefore
gets no gradient and is a frozen random projection.
"""

from __future__ import annotations

import warnings

import numpy as np

from .blocks import CrossAttnLayer, Module
from .config import AlignerConfig
from .tensor import ContractError, Tensor, gather_rows
from .types import SelectionResult, TokenSet


def score_tokens(z_sem: TokenSet, t: Tensor, w_t: Tensor) -> np.ndarray:
    """Cosine similarity of every token to the projected instruction.

    Returns scores in [-1, 1]; zero-norm vectors score 0 (with a warning).
    Pure numpy on purpose - scores only pick indices.
    """
    if z_sem.role != "sem":
        raise ContractError(f"score_tokens expects role=sem, got {z_sem.role!r}")
    tokens = z_sem.tokens.data                       # [..., N, d]
    proj = np.matmul(t.data, w_t.data)               # [..., d]
    tn = np.linalg.norm(tokens, axis=-1)             # [..., N]
    pn = np.linalg.norm(proj, axis=-1)               # [...]
    dots = np.einsum("...nd,...d->...n", tokens, proj)
    denom = tn * pn[..., None]
    if (denom == 0).any():
        warnings.warn("zero-norm vector in cosine scoring; scored as 0",
                      RuntimeWarning, stacklevel=2)
    return np.divide(dots, denom, out=np.zeros_like(dots), where=denom != 0)


def es_select(z_sem: TokenSet, t: Tensor, w_t: Tensor, k: int) -> SelectionResult:
    """Retain the k highest-scoring tokens (ties broken by ascending index)."""
    n = z_sem.n_tokens
    if not 1 <= k <= n:
        raise ContractError(f"k={k} must be in [1, {n}]")
    scores = score_tokens(z_sem, t, w_t)
    # stable sort on -score keeps ascending original index among ties
    order = np.argsort(-scores, axis=-1, kind="stable")
    idx = order[..., :k]
    selected = gather_rows(z_sem.tokens, idx)
    src_index = (np.broadcast_to(z_sem.patch_index, scores.shape)
                 if z_sem.patch_index is not None else
                 np.broadcast_to(np.arange(n), scores.shape))
    sel_patch = np.take_along_axis(src_index, idx, axis=-1)
    return SelectionResult(
        indices=idx, scores=scores,
        selected=TokenSet(selected, role="sem", view=z_sem.view, patch_index=sel_patch))


class SingleFusion(Module):
    """Stack of FFN(CrossAttn(q=obj, kv=spatial)) + residual layers."""

    def __init__(self, rng, cfg: AlignerConfig, d_v: int, d_spatial: int | None = None):
        super().__init__()
        d_spatial = d_spatial if d_spatial is not None else d_v
        self.layers = [self.add_module(
            f"layer{i}", CrossAttnLayer(rng, d_v, cfg.n_heads, cfg.d_ff, d_kv=d_spatial))
            for i in range(cfg.n_layers)]

    def __call__(self, z_obj: TokenSet, z_3d: TokenSet) -> TokenSet:
        if z_obj.view != z_3d.view:
            raise ContractError(
                f"single_fusion is per-view: got views {z_obj.view!r} vs {z_3d.view!r}")
        q = z_obj.tokens
        for layer in self.layers:
            q = layer(q, z_3d.tokens)
        return TokenSet(q, role="obj3d", view=z_obj.view, patch_index=z_obj.patch_index)


class CVAligner(Module):
    """W_t projection + ES-Selection + Single-Fusion, shared across views."""

    def __init__(self, rng, cfg: AlignerConfig, d_t: int, d_v: int):
        super().__init__()
        self.cfg = cfg
        std = (2.0 / (d_t + d_v)) ** 0.5
        self.w_t = self.add_param("w_t", std * rng.normal(size=(d_t, d_v)),
                                  trainable=False)
        self.fusion = self.add_module("fusion", SingleFusion(rng, cfg, d_v))

    def align_views(self, z_sem: dict[str, TokenSet], t: Tensor,
                    z_3d: dict[str, TokenSet]) -> tuple[dict[str, TokenSet], dict[str, SelectionResult]]:
        """Per-view selection + fusion; returns (view -> obj3d tokens, view -> selection)."""
        out, sels = {}, {}
        for view in z_sem:
            sel = es_select(z_sem[view], t, self.w_t, self.cfg.k)
            obj = TokenSet(sel.selected.tokens, role="sem", view=view,
                           patch_index=sel.selected.patch_index)
            out[view] = self.fusion(obj, z_3d[view])
            sels[view] = sel
        return out, sels
