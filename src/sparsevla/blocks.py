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
                 trainable: bool = True, zero_init: bool = False):
        super().__init__()
        w0 = np.zeros((d_in, d_out)) if zero_init else glorot(rng, d_in, d_out)
        self.w = self.add_param("w", w0, trainable)
        self.b = self.add_param("b", np.zeros(d_out), trainable) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        y = matmul(x, self.w)
        return y + self.b if self.b is not None else y


class LayerNorm(Module):
    def __init__(self, d: int, trainable: bool = True, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.g = self.add_param("g", np.ones(d), trainable)
        self.b = self.add_param("b", np.zeros(d), trainable)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, eps=self.eps) * self.g + self.b


class MultiHeadAttention(Module):
    """Standard scaled dot-product attention; queries and keys/values share width d."""

    def __init__(self, rng, d_model: int, n_heads: int, trainable: bool = True):
        super().__init__()
        if d_model % n_heads:
            raise ConfigError(f"d_model {d_model} not divisible by heads {n_heads}")
        self.d_model, self.n_heads, self.d_head = d_model, n_heads, d_model // n_heads
        self.wq = self.add_module("wq", Linear(rng, d_model, d_model, trainable=trainable))
        # no key bias: it adds q·b to every score in a query's row, and
        # softmax cancels any shift shared by a row
        self.wk = self.add_module("wk", Linear(rng, d_model, d_model, bias=False,
                                               trainable=trainable))
        self.wv = self.add_module("wv", Linear(rng, d_model, d_model, trainable=trainable))
        self.wo = self.add_module("wo", Linear(rng, d_model, d_model, trainable=trainable))

    def _split(self, x: Tensor, n: int) -> Tensor:
        b = x.shape[:-2]
        x = reshape(x, (*b, n, self.n_heads, self.d_head))
        return swapaxes(x, -3, -2)  # [..., h, n, dh]

    def __call__(self, q_in: Tensor, kv_in: Tensor, mask: np.ndarray | None = None) -> Tensor:
        nq, nk = q_in.shape[-2], kv_in.shape[-2]
        q = self._split(self.wq(q_in), nq)
        k = self._split(self.wk(kv_in), nk)
        v = self._split(self.wv(kv_in), nk)
        scores = matmul(q, swapaxes(k, -1, -2)) * (1.0 / np.sqrt(self.d_head))
        allow = np.ones((nq, nk), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        att = masked_softmax(scores, allow)
        ctx = swapaxes(matmul(att, v), -3, -2)
        ctx = reshape(ctx, (*q_in.shape[:-1], self.d_model))
        return self.wo(ctx)


class FeedForward(Module):
    def __init__(self, rng, d_model: int, d_ff: int, trainable: bool = True):
        super().__init__()
        self.w1 = self.add_module("w1", Linear(rng, d_model, d_ff, trainable=trainable))
        self.w2 = self.add_module("w2", Linear(rng, d_ff, d_model, trainable=trainable))

    def __call__(self, x: Tensor) -> Tensor:
        return self.w2(tanh(self.w1(x)))


class TransformerLayer(Module):
    """Pre-LN self-attention block: x + Attn(LN(x)); h + FFN(LN(h))."""

    def __init__(self, rng, d_model: int, n_heads: int, d_ff: int,
                 trainable: bool = True):
        super().__init__()
        self.ln1 = self.add_module("ln1", LayerNorm(d_model, trainable))
        self.attn = self.add_module("attn", MultiHeadAttention(rng, d_model, n_heads,
                                                               trainable=trainable))
        self.ln2 = self.add_module("ln2", LayerNorm(d_model, trainable))
        self.ffn = self.add_module("ffn", FeedForward(rng, d_model, d_ff, trainable))

    def __call__(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        z = self.ln1(x)
        h = x + self.attn(z, z, mask=mask)
        return h + self.ffn(self.ln2(h))


class CrossAttnLayer(Module):
    """Fusion layer: FFN(CrossAttn(q, kv)) + q (residual from the layer input)."""

    def __init__(self, rng, d_model: int, n_heads: int, d_ff: int,
                 trainable: bool = True):
        super().__init__()
        self.attn = self.add_module("attn", MultiHeadAttention(rng, d_model, n_heads,
                                                               trainable=trainable))
        self.ffn = self.add_module("ffn", FeedForward(rng, d_model, d_ff, trainable))

    def __call__(self, q: Tensor, kv: Tensor) -> Tensor:
        return self.ffn(self.attn(q, kv)) + q
