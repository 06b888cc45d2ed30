"""Tests of the benchmark's own code: each correctness check fails on a
deliberately wrong input, the order statistics match their references,
the tracer accounts self time and tape ops, and BENCHMARK.json names the
metrics the command prints.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from sparsevla import trainer, world  # noqa: E402
from sparsevla.config import micro_config, toy_config  # noqa: E402
from sparsevla.model import VLAModel  # noqa: E402
from sparsevla.tensor import Tape, Tensor, matmul  # noqa: E402


# ---------------------------------------------------------------------------
# order statistics


@pytest.mark.parametrize("n", [1, 2, 5, 10, 101])
def test_median_and_percentile_match_references(n):
    xs = list(np.random.default_rng(n).normal(size=n))
    assert stats.median(xs) == pytest.approx(statistics.median(xs), abs=0)
    for q in (0, 5, 25, 50, 90, 95, 100):
        assert stats.percentile(xs, q) == pytest.approx(np.percentile(xs, q), rel=1e-12)


def test_statistics_reject_empty_and_bad_quantile():
    with pytest.raises(ValueError):
        stats.median([])
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_host_speed_scales_each_timing_by_its_block():
    host = hostspeed.HostSpeed()
    nominal, block = hostspeed.NOMINAL_S["json"], hostspeed.BLOCK_S
    host.samples["json"] = [(10.0, 2 * nominal), (10.0 + 1.2 * block, nominal),
                            (10.0 + 1.4 * block, nominal)]
    scaled = host.scale([(10.0 + 0.1 * block, 1.0), (10.0 + 1.5 * block, 1.0),
                         (10.0 + 9 * block, 1.0), (9.0, 1.0)], "json")
    assert scaled == pytest.approx([0.5, 1.0, 1.0, 0.5])
    assert host.factor("json") == pytest.approx(1.0)
    assert host.spent_s() == pytest.approx(4 * nominal)
    with pytest.raises(ValueError):
        host.scale([(0.0, 1.0)], "compute")
    for kind in hostspeed.KERNELS:
        host.sample(kind, 2)
    assert len(host.samples["compute"]) == 2 and len(host.samples["json"]) == 5
    assert all(dt > 0 for samples in host.samples.values() for _, dt in samples)


# ---------------------------------------------------------------------------
# each check can fail


@pytest.fixture(scope="module")
def micro():
    cfg = micro_config()
    rng = np.random.default_rng(0)
    episodes = [world.run_expert_episode(rng, cfg.world, 3) for _ in range(4)]
    samples = trainer.collect_samples(episodes, cfg.world.chunk)
    return cfg, VLAModel(cfg, seed=0), samples


def test_gradient_check_rejects_scaled_gradient(micro):
    cfg, model, samples = micro
    analytic, f_plus, f_minus = workloads.directional_terms(
        model, samples, seed=0, aux_scale=cfg.train.aux_target_scale)
    h = workloads.GRAD_CHECK_H
    checks.directional_gradient(analytic, f_plus, f_minus, h)
    with pytest.raises(checks.CheckFailed):
        checks.directional_gradient(analytic * 1.01, f_plus, f_minus, h)


def test_topk_check_rejects_permuted_selection():
    cfg = toy_config()
    model = VLAModel(cfg, seed=0)
    _, batch = workloads.observation_batch(cfg, np.random.default_rng(0), 3)
    z, proj = workloads.selection_inputs(model, batch)
    idx = model.forward(batch, run_aux=False)["selections"]["M"].indices
    checks.topk_selection(z[:, 0], proj, cfg.aligner.k, idx)
    with pytest.raises(checks.CheckFailed):
        checks.topk_selection(z[:, 0], proj, cfg.aligner.k, idx[:, ::-1])
    other = idx.copy()
    other[0, -1] = next(j for j in range(cfg.world.n_patches) if j not in idx[0])
    with pytest.raises(checks.CheckFailed):
        checks.topk_selection(z[:, 0], proj, cfg.aligner.k, other)


def test_checkpoint_check_rejects_flipped_parameter(tmp_path):
    cfg = micro_config()
    source, target = VLAModel(cfg, seed=0), VLAModel(cfg, seed=1)
    path = str(tmp_path / "ckpt.json")
    trainer.save_checkpoint(path, source, step=0)
    trainer.load_checkpoint(path, target)
    expected = {k: p.data for k, p in source.named_parameters().items()}
    loaded = {k: p.data.copy() for k, p in target.named_parameters().items()}
    checks.params_equal(expected, loaded)
    loaded["fuser/agg0"].reshape(-1)[0] *= -1.0
    with pytest.raises(checks.CheckFailed):
        checks.params_equal(expected, loaded)
    with pytest.raises(checks.CheckFailed):
        checks.params_equal(expected, {k: v for k, v in loaded.items() if k != "fuser/agg0"})


def test_dataset_check_rejects_dropped_episode(tmp_path):
    cfg = toy_config()
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    for path in (a, b):
        world.generate_dataset(path, seed=3, n_episodes=3, horizon=None, cfg=cfg.world)
    rng = np.random.default_rng(3)
    expected = [world.run_expert_episode(rng, cfg.world, 3) for _ in range(3)]
    _, loaded = world.load_dataset(a)
    checks.dataset_equal(expected, loaded)
    checks.same_bytes(a, b)
    with pytest.raises(checks.CheckFailed):
        checks.dataset_equal(expected, loaded[:1] + loaded[2:])
    loaded[1]["obs"][2]["depth_patch"][0, 0] += 1e-9
    with pytest.raises(checks.CheckFailed):
        checks.dataset_equal(expected, loaded)
    with open(b, "r+b") as fh:
        fh.seek(-3, os.SEEK_END)
        fh.write(b"0")
    with pytest.raises(checks.CheckFailed):
        checks.same_bytes(a, b)


def test_mac_check_rejects_off_by_one():
    cfg = toy_config()
    _, batch = workloads.observation_batch(cfg, np.random.default_rng(0), 2)
    counted = workloads.sc_layer_macs(VLAModel(cfg, seed=0), batch)
    expected = workloads.expected_sc_macs()
    assert expected == 833_664
    checks.macs_equal(counted, expected)
    with pytest.raises(checks.CheckFailed):
        checks.macs_equal(counted + 1, expected)
    with pytest.raises(checks.CheckFailed):
        checks.macs_equal(counted, expected - 1)


def test_loss_curve_check_rejects_bad_streams():
    good = [4.0] * 10 + [0.5] * 10
    checks.loss_curve(good, 10)
    with pytest.raises(checks.CheckFailed):
        checks.loss_curve(good[:-1] + [float("nan")], 10)
    with pytest.raises(checks.CheckFailed):
        checks.loss_curve([4.0] * 10 + [2.5] * 10, 10)
    with pytest.raises(checks.CheckFailed):
        checks.loss_curve(good, 11)


def test_frozen_check_rejects_changed_or_optimized_parameter():
    model = VLAModel(micro_config(), seed=0)
    frozen = model.frozen_parameters()
    before = {k: p.data.tobytes() for k, p in frozen.items()}
    trainable = sorted(model.trainable_parameters().items())
    checks.frozen_untouched(before, frozen, trainable)
    name, p = next(iter(frozen.items()))
    with pytest.raises(checks.CheckFailed):
        checks.frozen_untouched(before, frozen, trainable + [(name, p)])
    p.data = p.data + 1e-12
    with pytest.raises(checks.CheckFailed):
        checks.frozen_untouched(before, frozen, trainable)


def test_equality_and_expert_checks_reject_wrong_outputs():
    a = np.arange(6.0).reshape(2, 3)
    checks.bit_equal("a", a, a.copy())
    with pytest.raises(checks.CheckFailed):
        checks.bit_equal("a", a, a + 1e-15 * (a == 5))
    checks.close("a", a, a + 1e-13, 1e-12)
    with pytest.raises(checks.CheckFailed):
        checks.close("a", a, a + 1e-11, 1e-12)
    checks.expert_success([{"n_episodes": 4, "success_rate": 1.0}])
    with pytest.raises(checks.CheckFailed):
        checks.expert_success([{"n_episodes": 4, "success_rate": 0.75}])


# ---------------------------------------------------------------------------
# tracing


def test_op_macs_counts_matmuls_only():
    a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
    b = Tensor(np.ones((4, 5)), requires_grad=True)
    with Tape() as tape:
        y = matmul(a, b)
        y + y
    assert [spans.op_macs(op) for op in tape.ops] == [2 * 3 * 5 * 4, 0]


class _Toy:
    def outer(self, x):
        time.sleep(0.002)
        return self.inner(x) + x

    def inner(self, x):
        time.sleep(0.004)
        return x * x


def test_tracer_self_time_tape_ops_and_restore():
    orig_outer, orig_inner = _Toy.outer, _Toy.inner
    x = Tensor(np.ones(3), requires_grad=True)
    with spans.Tracer() as tr:
        tr.follow_tapes()
        tr.wrap(_Toy, "outer", "outer")
        tr.wrap(_Toy, "inner", "inner")
        t0 = time.perf_counter()
        with Tape() as tape:
            _Toy().outer(x)
        total = time.perf_counter() - t0
    assert _Toy.outer is orig_outer and _Toy.inner is orig_inner
    assert tr.calls("outer") == tr.calls("inner") == 1
    assert tr.tape_ops("inner") == 1 and tr.tape_ops("outer") == 1 and len(tape) == 2
    assert tr.self_s("inner") >= 0.004 and tr.self_s("outer") >= 0.002
    assert tr.self_s("inner") + tr.self_s("outer") <= total
    assert tr.nested[("outer", "inner")] >= tr.self_s("inner")
    (outer_id, parent, *_), (inner_id, inner_parent, *_) = tr.spans
    assert parent == -1 and inner_parent == outer_id


def test_every_span_target_exists():
    for module, path, _ in spans.SPANS:
        owner, attr = spans.resolve(module, path)
        assert callable(vars(owner)[attr]), (module, path)


# ---------------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == workloads.E2E
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == workloads.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
