"""Minimal dense-tensor engine with reverse-mode differentiation.

Tensors wrap numpy arrays. Operations executed while a Tape is active are
recorded in order; `backward` replays the tape in reverse, accumulating
gradients in a fixed (tape) order so results are bit-reproducible.

All test/oracle code runs in float64. Softmax takes an optional mask:
without one it is a plain row softmax; with one, disallowed logits become
-inf, so exp gives them exact zeros.
"""

from __future__ import annotations

import numpy as np


class ContractError(ValueError):
    """A documented precondition or invariant was violated by the caller."""


class ConfigError(ValueError):
    """Inconsistent or unsupported configuration."""


class Tape:
    """Ordered record of primitive operations for one forward pass."""

    def __init__(self):
        self.ops = []  # (output Tensor, input Tensors, backward fn)

    def __enter__(self):
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.pop()
        return False

    def __len__(self):
        return len(self.ops)


_ACTIVE: list[Tape] = []


class Tensor:
    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data, requires_grad: bool = True) -> Tensor:
    return Tensor(np.array(data, copy=True), requires_grad=requires_grad)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce gradient g to `shape` by summing over broadcast axes."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _record(out: Tensor, inputs, backward):
    """Attach op to the active tape if anything in `inputs` carries grad."""
    if _ACTIVE and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _ACTIVE[-1].ops.append((out, tuple(inputs), backward))
    return out


# ---------------------------------------------------------------------------
# primitives


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data)
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record(out, (a, b), bwd)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else -1]:
        raise ContractError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    out = Tensor(np.matmul(a.data, b.data))

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _record(out, (a, b), bwd)


def masked_softmax(logits, mask=None) -> Tensor:
    """Softmax along the last axis, restricted to `mask`-allowed entries.

    With no mask, a plain row softmax. A mask must broadcast to the logits
    and leave every row at least one allowed entry; disallowed entries come
    out exactly 0. Stabilized by row-max subtraction.
    """
    logits = as_tensor(logits)
    if mask is None:
        y = logits.data - logits.data.max(axis=-1, keepdims=True)
    else:
        m = np.asarray(mask, dtype=bool)
        if np.broadcast_shapes(m.shape, logits.shape) != logits.shape:
            raise ValueError(f"masked_softmax: mask {m.shape} does not broadcast "
                             f"to logits {logits.shape}")
        if not m.any(axis=-1).all():
            raise ContractError("masked_softmax: fully masked row")
        y = np.where(m, logits.data, -np.inf)
        y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _record(out, (logits,), bwd)


def layer_norm(x, eps: float = 1e-5) -> Tensor:
    """Per-row (last axis) normalization to zero mean / unit variance,
    with no gain or bias."""
    x = as_tensor(x)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x.data - mu) * inv
    out = Tensor(y)

    def bwd(g):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        return ((g - gm - y * gym) * inv,)

    return _record(out, (x,), bwd)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    y = np.tanh(x.data)
    out = Tensor(y)
    return _record(out, (x,), lambda g: (g * (1.0 - y * y),))


def absolute(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.abs(x.data))
    return _record(out, (x,), lambda g: (g * np.sign(x.data),))


def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, x.shape).copy(),)

    return _record(out, (x,), bwd)


def tmean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    n = x.data.size if axis is None else x.shape[axis]
    return mul(tsum(x, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.reshape(shape))
    return _record(out, (x,), lambda g: (g.reshape(x.shape),))


def swapaxes(x, a1: int, a2: int) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.swapaxes(x.data, a1, a2))
    return _record(out, (x,), lambda g: (np.swapaxes(g, a1, a2),))


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record(out, tuple(tensors), bwd)


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    x = as_tensor(x)
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = Tensor(x.data[idx])

    def bwd(g):
        full = np.zeros(x.shape, dtype=g.dtype)
        full[idx] = g
        return (full,)

    return _record(out, (x,), bwd)


def gather_rows(x, indices: np.ndarray) -> Tensor:
    """Select rows along axis -2 by integer index.

    x: [..., N, d]; indices: [..., K] (batch dims matching x's). Backward
    scatter-adds into the source rows; unselected rows get zero gradient.
    """
    x = as_tensor(x)
    idx = np.asarray(indices)
    take = np.take_along_axis(x.data, idx[..., None], axis=-2)
    out = Tensor(take)

    def bwd(g):
        full = np.zeros(x.shape, dtype=g.dtype)
        flat = full.reshape(-1, *x.shape[-2:])
        ii = idx.reshape(-1, idx.shape[-1])
        rows = np.arange(ii.shape[0])[:, None]
        np.add.at(flat, (rows, ii), g.reshape(*ii.shape, g.shape[-1]))
        return (full,)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# backward / gradient checking


def backward(loss: Tensor, tape: Tape) -> dict:
    """Reverse sweep over `tape`; returns {id(tensor): grad array}.

    Gradients accumulate in fixed reverse-tape order (reproducibility).
    Tensors not reachable from `loss` simply stay absent; use
    `grad_of` for the zero-filled view.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for out, inputs, bwd in reversed(tape.ops):
        g = grads.get(id(out))
        if g is None:
            continue
        for t, gi in zip(inputs, bwd(g)):
            if gi is None or not t.requires_grad:
                continue
            prev = grads.get(id(t))
            grads[id(t)] = gi if prev is None else prev + gi
    return grads


def grad_of(grads: dict, t: Tensor) -> np.ndarray:
    g = grads.get(id(t))
    return np.zeros_like(t.data) if g is None else g


def grad_check(f, params, step: float = 1e-5, tol: float = 1e-4,
               floor: float = 1e-7, rng=None, max_entries: int | None = None):
    """Compare tape gradients of scalar f() against central differences.

    `params` is {name: Tensor}; f() must rerun the forward from current
    parameter values. Every entry of `params` is checked, or, with
    `max_entries`, a sample of that many drawn from all of them pooled.
    Returns a report with the max relative error per checked parameter and
    overall, the number of entries checked, how many of them have a nonzero
    analytic gradient, and a pass flag.
    """
    with Tape() as tape:
        loss = f()
    if not np.isfinite(loss.data).all():
        raise ContractError("grad_check: non-finite loss")
    grads = backward(loss, tape)
    entries = [(name, p, i) for name, p in params.items() for i in range(p.data.size)]
    if max_entries is not None and len(entries) > max_entries:
        rng = rng or np.random.default_rng(0)
        picks = rng.choice(len(entries), size=max_entries, replace=False)
        entries = [entries[i] for i in picks]
    worst: dict[str, float] = {}
    nonzero = 0
    for name, p, i in entries:
        flat = p.data.reshape(-1)
        orig = flat[i]
        flat[i] = orig + step
        fp = float(f().data)
        flat[i] = orig - step
        fm = float(f().data)
        flat[i] = orig
        numeric = (fp - fm) / (2.0 * step)
        a = float(grad_of(grads, p).reshape(-1)[i])
        nonzero += a != 0.0
        diff = abs(a - numeric)
        err = diff / max(abs(a), abs(numeric), floor) if diff > floor else 0.0
        worst[name] = max(worst.get(name, 0.0), err)
    max_err = max(worst.values(), default=0.0)
    return {"pass": max_err < tol, "tol": tol, "params": worst,
            "max_rel_err": max_err, "checked": len(entries), "nonzero": nonzero}
