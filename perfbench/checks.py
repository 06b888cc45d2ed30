"""Correctness checks on the program's outputs.

Each check recomputes what it verifies apart from the code under test
(pure Python or plain numpy over the program's outputs) and raises
CheckFailed with the reason when the outputs are wrong. On success it
returns a one-line detail for the result file.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    """The program produced a wrong output."""


def directional_gradient(analytic: float, f_plus: float, f_minus: float, h: float,
                         tol: float = 1e-4) -> str:
    """Tape directional derivative vs the central difference (f+ - f-) / 2h."""
    numeric = (f_plus - f_minus) / (2.0 * h)
    scale = max(abs(analytic), abs(numeric))
    if not (math.isfinite(analytic) and math.isfinite(numeric)) or scale == 0.0:
        raise CheckFailed(f"directional derivative not usable: {analytic} vs {numeric}")
    rel = abs(analytic - numeric) / scale
    if rel > tol:
        raise CheckFailed(f"tape {analytic:.10g} vs central difference {numeric:.10g}: "
                          f"relative error {rel:.3g} > {tol}")
    return f"relative error {rel:.3g} (h={h})"


def loss_curve(losses, window: int) -> str:
    """Finite at every step, and the last window's mean below half the first's."""
    bad = [i for i, x in enumerate(losses) if not math.isfinite(x)]
    if bad:
        raise CheckFailed(f"non-finite loss at steps {bad[:5]}")
    if len(losses) < 2 * window:
        raise CheckFailed(f"{len(losses)} steps is fewer than two windows of {window}")
    first = sum(losses[:window]) / window
    last = sum(losses[-window:]) / window
    if not last < 0.5 * first:
        raise CheckFailed(f"smoothed loss {first:.4f} -> {last:.4f} did not halve")
    return f"smoothed loss {first:.4f} -> {last:.4f}"


def frozen_untouched(before: dict, frozen: dict, optimizer_items) -> str:
    """Frozen parameter bytes unchanged, and none of them handed to the optimizer.

    before: name -> bytes at init; frozen: name -> Tensor after training;
    optimizer_items: (name, Tensor) pairs the optimizer updates.
    """
    if set(before) != set(frozen):
        raise CheckFailed(f"frozen parameter names changed: {sorted(set(before) ^ set(frozen))}")
    changed = [k for k, p in frozen.items() if p.data.tobytes() != before[k]]
    if changed:
        raise CheckFailed(f"{len(changed)} frozen parameters changed, e.g. {changed[0]}")
    frozen_ids = {id(p) for p in frozen.values()}
    stepped = [k for k, p in optimizer_items if id(p) in frozen_ids]
    if stepped:
        raise CheckFailed(f"optimizer updates frozen parameters: {stepped[:3]}")
    return f"{len(frozen)} frozen tensors unchanged, none optimized"


def bit_equal(what: str, a, b) -> str:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
        raise CheckFailed(f"{what} differ")
    return f"{what} bit-equal"


def close(what: str, a, b, tol: float) -> str:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise CheckFailed(f"{what}: shapes {a.shape} vs {b.shape}")
    gap = float(np.max(np.abs(a - b))) if a.size else 0.0
    if not gap <= tol:
        raise CheckFailed(f"{what}: max gap {gap:.3g} > {tol}")
    return f"{what}: max gap {gap:.3g} <= {tol}"


def _cosine(x, p) -> float:
    dot = sum(float(a) * float(b) for a, b in zip(x, p))
    nx = math.sqrt(sum(float(a) * float(a) for a in x))
    np_ = math.sqrt(sum(float(b) * float(b) for b in p))
    return dot / (nx * np_) if nx and np_ else 0.0


def topk_selection(tokens, proj, k: int, indices, near_tie: float = 1e-12) -> str:
    """Each row of `indices` is the k highest cosine scores, ties by ascending index.

    tokens [B, P, d] semantic tokens, proj [B, d] instruction projected by
    w_t, indices [B, K] as selected. A position may differ from the
    recomputed order only between scores within `near_tie` of each other
    (the two computations may round the last bit differently).
    """
    tokens, proj, indices = np.asarray(tokens), np.asarray(proj), np.asarray(indices)
    if indices.shape != (tokens.shape[0], k):
        raise CheckFailed(f"selection shape {indices.shape} != {(tokens.shape[0], k)}")
    reordered = 0
    for b in range(tokens.shape[0]):
        scores = [_cosine(tokens[b, j], proj[b]) for j in range(tokens.shape[1])]
        expected = sorted(range(len(scores)), key=lambda j: (-scores[j], j))[:k]
        got = [int(j) for j in indices[b]]
        if got == expected:
            continue
        if len(set(got)) != k or not all(0 <= j < len(scores) for j in got):
            raise CheckFailed(f"row {b}: invalid selection {got}")
        if any(abs(scores[g] - scores[e]) > near_tie for g, e in zip(got, expected)):
            raise CheckFailed(f"row {b}: selected {got}, top-{k} by score is {expected}")
        reordered += 1
    return f"{tokens.shape[0]} rows match ({reordered} near-tie reorders)"


def expert_success(reports) -> str:
    n = sum(r["n_episodes"] for r in reports)
    failed = sum(round((1.0 - r["success_rate"]) * r["n_episodes"]) for r in reports)
    if failed:
        raise CheckFailed(f"scripted expert failed {failed} of {n} episodes")
    return f"expert succeeded on {n} episodes"


def _obs_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(
        np.asarray(a[k]).shape == np.asarray(b[k]).shape
        and np.array_equal(np.asarray(a[k]), np.asarray(b[k])) for k in a)


def dataset_equal(expected: list, loaded: list) -> str:
    """Every episode's instruction id, flags, actions and observations match."""
    if len(expected) != len(loaded):
        raise CheckFailed(f"{len(loaded)} episodes loaded, {len(expected)} generated")
    for i, (e, g) in enumerate(zip(expected, loaded)):
        if int(e["instruction_id"]) != int(g["instruction_id"]):
            raise CheckFailed(f"episode {i}: instruction id {g['instruction_id']} "
                              f"!= {e['instruction_id']}")
        if bool(e["success"]) != bool(g["success"]):
            raise CheckFailed(f"episode {i}: success flag differs")
        if (e["actions"].shape != g["actions"].shape
                or not np.array_equal(e["actions"], g["actions"])):
            raise CheckFailed(f"episode {i}: actions differ")
        if len(e["obs"]) != len(g["obs"]) or not all(
                _obs_equal(a, b) for a, b in zip(e["obs"], g["obs"])):
            raise CheckFailed(f"episode {i}: observations differ")
    return f"{len(loaded)} episodes equal"


def same_bytes(path_a: str, path_b: str) -> str:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        a, b = fa.read(), fb.read()
    if a != b:
        raise CheckFailed(f"{path_a} and {path_b} differ ({len(a)} vs {len(b)} bytes)")
    return f"{len(a)} bytes identical"


def params_equal(expected: dict, loaded: dict) -> str:
    """name -> array maps agree in names, dtype, shape and every bit."""
    if set(expected) != set(loaded):
        raise CheckFailed(f"parameter names differ: {sorted(set(expected) ^ set(loaded))[:5]}")
    for name in sorted(expected):
        a, b = np.asarray(expected[name]), np.asarray(loaded[name])
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            raise CheckFailed(f"parameter {name} differs after the round trip")
    return f"{len(expected)} parameters bit-equal"


def macs_equal(counted: int, expected: int) -> str:
    if counted != expected:
        raise CheckFailed(f"tape-counted MACs {counted} != closed-form {expected}")
    return f"{counted} MACs per sample"
