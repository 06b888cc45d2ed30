"""Cross-view aligner: instruction-similarity scoring, Top-K token
selection, and per-view cross-attention fusion of spatial features into
the selected object tokens. One shared filter and fusion serve every
view: the view is a batch axis ([B, V, ...]), so each view's object
tokens attend to that view's spatial tokens only.

Selection is a hard, non-differentiable index set: gradients flow through
the selected token values only, never through the scores. W_t therefore
gets no gradient and is a frozen random projection.
"""

from __future__ import annotations

import warnings

import numpy as np

from .blocks import CrossAttnLayer, Module
from .config import AlignerConfig, EncoderConfig
from .tensor import ContractError, Tensor, gather_rows
from .types import SelectionResult, TokenSet
from .world import VIEW_NAMES


def score_tokens(z_sem: TokenSet, t: Tensor, w_t: Tensor) -> np.ndarray:
    """Cosine similarity of every token to the projected instruction.

    Returns scores in [-1, 1]; zero-norm vectors score 0 (with a warning).
    Pure numpy on purpose - scores only pick indices.
    """
    if z_sem.role != "sem":
        raise ContractError(f"score_tokens expects role=sem, got {z_sem.role!r}")
    tokens = z_sem.tokens.data                       # [..., N, d]
    proj = np.matmul(t.data, w_t.data)               # [..., d]
    # broadcast over the axes between t's batch dims and N (the view axis)
    extra = tokens.ndim - 1 - proj.ndim
    proj = proj.reshape(*proj.shape[:-1], *(1,) * extra, proj.shape[-1])
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
    return SelectionResult(idx, TokenSet(gather_rows(z_sem.tokens, idx), role="sem"))


class SingleFusion(Module):
    """Stack of FFN(CrossAttn(q=obj, kv=spatial)) + residual layers."""

    def __init__(self, rng, cfg: AlignerConfig, ec: EncoderConfig):
        super().__init__()
        self.layers = [self.add_module(
            f"layer{i}", CrossAttnLayer(rng, ec.d_v, ec.n_heads, ec.d_ff))
            for i in range(cfg.n_layers)]

    def __call__(self, z_obj: TokenSet, z_3d: TokenSet) -> TokenSet:
        """q [..., K, d] attends to kv [..., P, d] with the same leading axes."""
        q = z_obj.tokens
        for layer in self.layers:
            q = layer(q, z_3d.tokens)
        return TokenSet(q, role="obj3d")


class CVAligner(Module):
    """W_t projection + ES-Selection + Single-Fusion, shared across views."""

    def __init__(self, rng, cfg: AlignerConfig, ec: EncoderConfig):
        super().__init__()
        self.cfg = cfg
        std = (2.0 / (ec.d_t + ec.d_v)) ** 0.5
        self.w_t = self.add_param("w_t", std * rng.normal(size=(ec.d_t, ec.d_v)),
                                  trainable=False)
        self.fusion = self.add_module("fusion", SingleFusion(rng, cfg, ec))

    def align_views(self, z_sem: TokenSet, t: Tensor,
                    z_3d: TokenSet) -> tuple[TokenSet, dict[str, SelectionResult]]:
        """Selection + fusion over every view at once.

        z_sem, z_3d: [B, V, P, d]; t: [B, d_t]. Returns (obj3d tokens
        [B, V, K, d], view name -> selection with indices [B, K]).
        """
        sel = es_select(z_sem, t, self.w_t, self.cfg.k)
        views = VIEW_NAMES[:sel.indices.shape[-2]]
        return self.fusion(sel.selected, z_3d), {
            name: SelectionResult(sel.indices[..., i, :]) for i, name in enumerate(views)}
