"""Shared neural building blocks: linear maps, attention, transformer layers.

Everything operates on batched token matrices [B, n, d] built from the
tensor engine in `tensor.py`. Parameter registration is explicit so the
trainer can enumerate named parameter groups.
"""

from __future__ import annotations

import numpy as np

from .tensor import (ConfigError, Tensor, layer_norm, masked_softmax, matmul,
                     parameter, reshape, swapaxes, tanh)


class Module:
    """Explicit parameter registry with recursive name prefixes."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._mods: dict[str, "Module"] = {}

    def add_param(self, name: str, data, trainable: bool = True) -> Tensor:
        p = parameter(data, requires_grad=trainable)
        self._params[name] = p
        return p

    def add_module(self, name: str, mod: "Module") -> "Module":
        self._mods[name] = mod
        return mod

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out = {}
        for k, p in self._params.items():
            out[f"{prefix}{k}"] = p
        for k, m in self._mods.items():
            out.update(m.named_parameters(prefix=f"{prefix}{k}/"))
        return out

    def trainable_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return {k: p for k, p in self.named_parameters(prefix).items()
                if p.requires_grad}


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    std = (2.0 / (fan_in + fan_out)) ** 0.5
    return rng.normal(0.0, std, size=(fan_in, fan_out))


class Linear(Module):
    def __init__(self, rng, d_in: int, d_out: int, bias: bool = True,
                 zero_init: bool = False):
        super().__init__()
        w0 = np.zeros((d_in, d_out)) if zero_init else glorot(rng, d_in, d_out)
        self.w = self.add_param("w", w0)
        self.b = self.add_param("b", np.zeros(d_out)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        y = matmul(x, self.w)
        return y + self.b if self.b is not None else y


class LayerNorm:
    """Normalization without gain or bias. Every norm here feeds only
    linear maps (attention's wq/wk/wv, the FFN's w1), and a linear map
    absorbs a per-feature gain into its rows and a bias into its own bias."""

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x)


class MultiHeadAttention(Module):
    """Standard scaled dot-product attention; queries and keys/values share width d."""

    def __init__(self, rng, d_model: int, n_heads: int):
        super().__init__()
        if d_model % n_heads:
            raise ConfigError(f"d_model {d_model} not divisible by heads {n_heads}")
        self.d_model, self.n_heads, self.d_head = d_model, n_heads, d_model // n_heads
        self.wq = self.add_module("wq", Linear(rng, d_model, d_model))
        # no key bias: it adds q·b to every score in a query's row, and
        # softmax cancels any shift shared by a row. No value bias: each
        # attention row sums to one, so a value bias c leaves as c·W_o,
        # a constant that wo's own bias already provides
        self.wk = self.add_module("wk", Linear(rng, d_model, d_model, bias=False))
        self.wv = self.add_module("wv", Linear(rng, d_model, d_model, bias=False))
        self.wo = self.add_module("wo", Linear(rng, d_model, d_model))

    def _split(self, x: Tensor) -> Tensor:
        x = reshape(x, (*x.shape[:-1], self.n_heads, self.d_head))
        return swapaxes(x, -3, -2)  # [..., h, n, dh]

    def __call__(self, q_in: Tensor, kv_in: Tensor, mask: np.ndarray | None = None) -> Tensor:
        q = self._split(self.wq(q_in))
        k = self._split(self.wk(kv_in))
        v = self._split(self.wv(kv_in))
        scores = matmul(q, swapaxes(k, -1, -2)) * (1.0 / np.sqrt(self.d_head))
        att = masked_softmax(scores, mask)
        ctx = swapaxes(matmul(att, v), -3, -2)
        ctx = reshape(ctx, (*q_in.shape[:-1], self.d_model))
        return self.wo(ctx)


class FeedForward(Module):
    def __init__(self, rng, d_model: int, d_ff: int):
        super().__init__()
        self.w1 = self.add_module("w1", Linear(rng, d_model, d_ff))
        self.w2 = self.add_module("w2", Linear(rng, d_ff, d_model))

    def __call__(self, x: Tensor) -> Tensor:
        return self.w2(tanh(self.w1(x)))


class TransformerLayer(Module):
    """Pre-LN self-attention block: x + Attn(LN(x)); h + FFN(LN(h))."""

    def __init__(self, rng, d_model: int, n_heads: int, d_ff: int):
        super().__init__()
        self.ln1, self.ln2 = LayerNorm(), LayerNorm()
        self.attn = self.add_module("attn", MultiHeadAttention(rng, d_model, n_heads))
        self.ffn = self.add_module("ffn", FeedForward(rng, d_model, d_ff))

    def __call__(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        z = self.ln1(x)
        h = x + self.attn(z, z, mask=mask)
        return h + self.ffn(self.ln2(h))


class CrossAttnLayer(Module):
    """Fusion layer: FFN(CrossAttn(q, kv)) + q (residual from the layer input)."""

    def __init__(self, rng, d_model: int, n_heads: int, d_ff: int):
        super().__init__()
        self.attn = self.add_module("attn", MultiHeadAttention(rng, d_model, n_heads))
        self.ffn = self.add_module("ffn", FeedForward(rng, d_model, d_ff))

    def __call__(self, q: Tensor, kv: Tensor) -> Tensor:
        return self.ffn(self.attn(q, kv)) + q
