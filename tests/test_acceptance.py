"""Acceptance gate: one test per release criterion, one printed
pass/fail line each. Tolerances are pinned here and must not be loosened.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
Criterion 9 trains the full stack from scratch and dominates the runtime
(several minutes on a desktop CPU).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from sparsevla.aligner import es_select
from sparsevla.audit import audit_budget, audit_flops
from sparsevla.config import (AuditConfig, FullConfig, micro_config,
                              paper_dims_audit, toy_config)
from sparsevla.fuser import AlphaSchedule, alpha, build_bc_mask
from sparsevla.model import VLAModel
from sparsevla.tensor import Tensor
from sparsevla.thinker import (CSThinker, SCAttnLayout, build_sc_mask,
                               loss_action, loss_dep4d, loss_dyn4d,
                               segment_allows, total_loss)
from sparsevla.trainer import (evaluate_closed_loop, model_policy,
                               run_grad_checks, save_checkpoint, smoothed,
                               train)
from sparsevla.types import TokenSet
from sparsevla.world import generate_dataset, run_expert_episode
from sparsevla.config import ThinkerConfig


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. fusion-weight schedule endpoints


def test_criterion_01_alpha_schedule_endpoints():
    sched = AlphaSchedule(psi=0.2, delta=0.05, l_max=24)
    a0, a24 = alpha(0, sched), alpha(24, sched)
    ok = abs(a0 - 0.2) < 1e-12 and abs(a24 - 0.01) < 1e-12
    check(1, "alpha-schedule-endpoints", ok, f"alpha(0)={a0}, alpha(24)={a24}")


# ---------------------------------------------------------------------------
# 2. token budgets


def test_criterion_02_token_budgets():
    rep = audit_budget(paper_dims_audit())
    r = rep["ratios"]
    ok = (r["obj_vs_dense"]["exact"] == "1/8"
          and r["agg_vs_dense"]["exact"] == "1/12"
          and r["query_token_share"]["value"] < 0.10)
    check(2, "token-budgets", ok,
          f"obj={r['obj_vs_dense']['exact']}, agg={r['agg_vs_dense']['exact']}, "
          f"query-share={r['query_token_share']['value']:.4f}")


# ---------------------------------------------------------------------------
# 3. attention masks vs brute-force rule evaluation


def _brute_sc_mask(layout: SCAttnLayout) -> np.ndarray:
    labels = []
    for name, count in layout.segments():
        labels += [name] * count
    n = len(labels)
    m = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            m[i, j] = segment_allows(labels[i], labels[j])
    return m


def _brute_bc_mask(n_geo_per_view: int, n_views: int, n_agg: int, layout: str) -> np.ndarray:
    # label each token with ("geo", view) or ("agg",), evaluate the rule pairwise
    labels = [("geo", v) for v in range(n_views) for _ in range(n_geo_per_view)]
    labels += [("agg",)] * n_agg
    n = len(labels)
    m = np.zeros((n, n), dtype=bool)
    for i, qi in enumerate(labels):
        for j, kj in enumerate(labels):
            if qi[0] == "agg":
                m[i, j] = True
            elif kj[0] == "agg":
                m[i, j] = False
            elif layout == "two-block":
                m[i, j] = True
            else:  # per-view: geo of view v sees views <= v
                m[i, j] = kj[1] <= qi[1]
    return m


def test_criterion_03_mask_oracles():
    rng = np.random.default_rng(3)
    n_layouts = 0
    for _ in range(120):
        counts = rng.integers(0, 9, size=10)
        lay = SCAttnLayout(n_views=3, n_obj=list(counts[:3]), n_agg=int(counts[3]),
                           n_instr=int(counts[4]), n_dyn=list(counts[5:8]),
                           n_dep=int(counts[8]), n_action=int(counts[9]))
        if lay.total() == 0:
            continue
        np.testing.assert_array_equal(build_sc_mask(lay), _brute_sc_mask(lay))
        n_layouts += 1
    for _ in range(120):
        g, v, a = int(rng.integers(0, 9)), int(rng.integers(1, 4)), int(rng.integers(0, 9))
        layout = ["two-block", "per-view"][int(rng.integers(2))]
        if g * v + a == 0:
            continue
        np.testing.assert_array_equal(build_bc_mask(g, v, a, layout),
                                      _brute_bc_mask(g, v, a, layout))
        n_layouts += 1
    check(3, "mask-oracles", n_layouts >= 200, f"{n_layouts} layouts verified")


# ---------------------------------------------------------------------------
# 4. isolation invariants (exact equality)


def _small_thinker(seed=0):
    rng = np.random.default_rng(seed)
    cfg = ThinkerConfig(d_model=16, n_layers=2, n_heads=2, d_ff=32,
                        n_dyn_per_view=2, n_dep=2, n_instr_tokens=1,
                        decoder_layers=1)
    return CSThinker(rng, cfg, n_views=3, k_obj=2, n_agg=4, d_v=8, d_t=4,
                     chunk=4, action_dim=2, n_patches=16)


def test_criterion_04_isolation_invariants():
    th = _small_thinker()
    n_ok = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        # views M, L, R on axis 1 of [B, V, K, d_v]
        obj = TokenSet(Tensor(np.stack([rng.normal(size=(1, 2, 8)) for _ in "MLR"], axis=1)),
                       role="obj3d")
        agg = TokenSet(Tensor(rng.normal(size=(1, 4, 8))), role="agg3d")
        t = Tensor(rng.normal(size=(1, 4)))
        base = th.sc_forward(obj, agg, t)

        # (a) obj perturbation leaves dep outputs unchanged
        obj_p = TokenSet(Tensor(obj.tokens.data + np.stack(
            [rng.normal(size=(1, 2, 8)) for _ in "MLR"], axis=1)), role="obj3d")
        s = th.sc_forward(obj_p, agg, t)
        np.testing.assert_array_equal(base["dep"].data, s["dep"].data)

        # (b) agg perturbation leaves dyn outputs unchanged
        agg_p = TokenSet(Tensor(agg.tokens.data + rng.normal(size=(1, 4, 8))),
                         role="agg3d")
        s = th.sc_forward(obj, agg_p, t)
        for v in ("M", "L", "R"):
            np.testing.assert_array_equal(base[f"dyn:{v}"].data, s[f"dyn:{v}"].data)

        # (c) obj(L/R) perturbation leaves dyn(M) unchanged
        lr = obj.tokens.data.copy()
        for v in (1, 2):
            lr[:, v] += rng.normal(size=(1, 2, 8))
        obj_lr = TokenSet(Tensor(lr), role="obj3d")
        s = th.sc_forward(obj_lr, agg, t)
        np.testing.assert_array_equal(base["dyn:M"].data, s["dyn:M"].data)

        # (d) query-token perturbation leaves context outputs unchanged
        saved = {n: p.data.copy() for n, p in
                 (("q_dyn", th.q_dyn), ("q_dep", th.q_dep), ("q_act", th.q_act))}
        for p in (th.q_dyn, th.q_dep, th.q_act):
            p.data = p.data + rng.normal(size=p.data.shape)
        s = th.sc_forward(obj, agg, t)
        for seg in ("obj:M", "obj:L", "obj:R", "agg", "instr"):
            np.testing.assert_array_equal(base[seg].data, s[seg].data)
        for p, n in ((th.q_dyn, "q_dyn"), (th.q_dep, "q_dep"), (th.q_act, "q_act")):
            p.data = saved[n]
        n_ok += 1
    check(4, "isolation-invariants", n_ok >= 50, f"{n_ok} random inputs, exact equality")


# ---------------------------------------------------------------------------
# 5. gradient checks


def test_criterion_05_gradient_checks():
    t0 = time.time()
    report = run_grad_checks(micro_config(), seed=0, n_per_group=16,
                             tol=1e-4, floor=1e-7)
    dt = time.time() - t0
    worst = max(g["max_rel_err"] for g in report["groups"].values())
    ok = report["pass"] and report["frozen_zero_grad"] and dt < 300
    check(5, "gradient-checks", ok,
          f"max rel err {worst:.2e} over {len(report['groups'])} groups, "
          f"frozen-zero={report['frozen_zero_grad']}, {dt:.0f}s")


# ---------------------------------------------------------------------------
# 6. loss contracts


def test_criterion_06_loss_contracts():
    rng = np.random.default_rng(6)
    b, n, d, v, p = 2, 3, 4, 2, 5
    # zero at equality
    x = rng.normal(size=(b, n, d))
    dep = rng.normal(size=(b, v, p))
    act = rng.normal(size=(b, 4, 2))
    mask = np.ones((b, n))
    zero_ok = (loss_dyn4d(Tensor(x), x, mask).data == 0.0
               and loss_dep4d(Tensor(dep), dep).data == 0.0
               and loss_action(Tensor(act), act).data == 0.0)
    # constant-offset closed forms
    c = 0.5
    l_dyn = loss_dyn4d(Tensor(x + c), x, mask).data          # n*d*c^2 per item
    l_dep = loss_dep4d(Tensor(dep + c), dep).data            # v*p*c^2 per item
    l_act = loss_action(Tensor(act + c), act).data           # |c|
    closed_ok = (abs(l_dyn - n * d * c * c) < 1e-12
                 and abs(l_dep - v * p * c * c) < 1e-12
                 and abs(l_act - abs(c)) < 1e-12)
    total, rep = total_loss(Tensor(np.float64(0.25)), Tensor(np.float64(1.5)),
                            Tensor(np.float64(0.125)))
    sum_ok = total.data == 0.25 + 1.5 + 0.125 and rep["l_total"] == total.data
    check(6, "loss-contracts", zero_ok and closed_ok and sum_ok,
          f"dyn={l_dyn}, dep={l_dep}, act={l_act}")


# ---------------------------------------------------------------------------
# 7. instruction-guided token selection vs sort oracle


def test_criterion_07_token_selection_oracle():
    rng = np.random.default_rng(7)
    n_ok = 0
    for _ in range(500):
        n = int(rng.integers(2, 12))
        d, dt = 6, 3
        k = int(rng.integers(1, n + 1))
        toks = rng.normal(size=(n, d))
        if rng.random() < 0.3:  # force score ties via duplicated tokens
            toks[rng.integers(n)] = toks[rng.integers(n)]
        z = TokenSet(Tensor(toks), role="sem")
        t = Tensor(rng.normal(size=(dt,)))
        w = Tensor(rng.normal(size=(dt, d)))
        sel = es_select(z, t, w, k)
        # brute-force oracle: sort on (-score, index)
        proj = t.data @ w.data
        scores = toks @ proj / (np.linalg.norm(toks, axis=-1)
                                * np.linalg.norm(proj) + 1e-300)
        want = sorted(range(n), key=lambda i: (-scores[i], i))[:k]
        np.testing.assert_array_equal(sel.indices, want)
        # positive rescaling of the instruction leaves indices unchanged
        sel2 = es_select(z, Tensor(t.data * float(rng.uniform(0.1, 10.0))), w, k)
        np.testing.assert_array_equal(sel2.indices, sel.indices)
        n_ok += 1
    check(7, "token-selection-oracle", n_ok >= 500, f"{n_ok} instances + rescaling")


# ---------------------------------------------------------------------------
# 8. inference/training equivalence of the action chunk


def test_criterion_08_action_invariant_to_aux_decoders():
    th = _small_thinker()
    n_ok = 0
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        obj = TokenSet(Tensor(np.stack([rng.normal(size=(1, 2, 8)) for _ in "MLR"], axis=1)),
                       role="obj3d")
        agg = TokenSet(Tensor(rng.normal(size=(1, 4, 8))), role="agg3d")
        t = Tensor(rng.normal(size=(1, 4)))
        a_full = th(obj, agg, t, run_aux=True)["action"].data
        a_lean = th(obj, agg, t, run_aux=False)["action"].data
        assert a_full.tobytes() == a_lean.tobytes()
        n_ok += 1
    check(8, "action-aux-equivalence", n_ok >= 50, f"{n_ok} inputs, bit-identical")


# ---------------------------------------------------------------------------
# 9. end-to-end training on the reference dataset


@pytest.mark.slow
def test_criterion_09_toy_training():
    t0 = time.time()
    cfg = toy_config()
    rng = np.random.default_rng(0)
    episodes = [run_expert_episode(rng, cfg.world, cfg.n_views) for _ in range(500)]
    model, stream = train(cfg, episodes)
    first, last = smoothed(stream, cfg.train.smooth_window)
    rep = evaluate_closed_loop(model_policy(model), cfg, n_episodes=100, seed=1234)
    dt = time.time() - t0
    ok = (cfg.train.steps <= 20000 and last < 0.5 * first
          and rep["success_rate"] >= 0.9 and dt < 1800)
    check(9, "toy-training",
          ok, f"loss {first:.3f}->{last:.3f}, success {rep['success_rate']:.2f}, "
          f"{dt:.0f}s")


# ---------------------------------------------------------------------------
# 10. analytical FLOPs ratio


def test_criterion_10_flops_ratio():
    rep = audit_flops(paper_dims_audit())
    ratio = rep["ratio"]
    check(10, "flops-ratio", 0.15 <= ratio <= 0.45, f"ratio={ratio:.4f}")


# ---------------------------------------------------------------------------
# 11. determinism


def test_criterion_11_determinism(tmp_path):
    cfg = toy_config()
    # data generation
    p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    for p in (p1, p2):
        generate_dataset(p, seed=11, n_episodes=3, horizon=16, cfg=cfg.world)
    data_ok = open(p1, "rb").read() == open(p2, "rb").read()
    # training at fixed seed (checkpoint bytes), micro scale
    mcfg = micro_config()
    mcfg.train.steps = 3
    rng = np.random.default_rng(0)
    eps = [run_expert_episode(rng, mcfg.world, mcfg.n_views) for _ in range(2)]
    cks = []
    for name in ("c1.json", "c2.json"):
        model, _ = train(mcfg, eps)
        path = str(tmp_path / name)
        save_checkpoint(path, model, step=3)
        cks.append(open(path, "rb").read())
    train_ok = cks[0] == cks[1]
    # audits
    import json
    a1 = json.dumps(audit_budget(paper_dims_audit()), sort_keys=True)
    a2 = json.dumps(audit_budget(paper_dims_audit()), sort_keys=True)
    f1 = json.dumps(audit_flops(AuditConfig()), sort_keys=True)
    f2 = json.dumps(audit_flops(AuditConfig()), sort_keys=True)
    audit_ok = a1 == a2 and f1 == f2
    check(11, "determinism", data_ok and train_ok and audit_ok,
          f"data={data_ok}, train={train_ok}, audits={audit_ok}")
