import numpy as np
import pytest

from sparsevla import blocks, tensor, trainer
from sparsevla.config import micro_config, toy_config
from sparsevla.model import VLAModel
from sparsevla.tensor import ContractError, Tape, Tensor, backward, grad_of, parameter
from sparsevla.trainer import (Adam, assemble_batch, collect_samples,
                               evaluate_closed_loop, load_checkpoint,
                               model_policy, run_grad_checks, save_checkpoint,
                               smoothed, train)
from sparsevla.world import run_expert_episode


def _episodes(n=3, seed=0, cfg=None):
    cfg = cfg or toy_config()
    rng = np.random.default_rng(seed)
    return [run_expert_episode(rng, cfg.world) for _ in range(n)]


# ---------------------------------------------------------------------------
# Adam oracle


def test_adam_first_step_matches_closed_form():
    # after one step, m_hat = g, v_hat = g^2, update = -lr * g/(|g|+eps)
    p = parameter(np.array([1.0, -2.0]))
    opt = Adam({"p": p}, lr=0.1)
    g = np.array([0.5, -3.0])
    opt.step({id(p): g})
    want = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p.data, want, rtol=1e-9)


def test_adam_two_steps_match_reference_loop():
    rng = np.random.default_rng(0)
    p = parameter(rng.normal(size=(3,)))
    start = p.data.copy()
    g1, g2 = rng.normal(size=3), rng.normal(size=3)
    opt = Adam({"p": p}, lr=0.01)
    opt.step({id(p): g1})
    opt.step({id(p): g2})

    # independent reference implementation
    m = v = np.zeros(3)
    x = start.copy()
    for t, g in enumerate([g1, g2], start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1 - 0.9 ** t)
        vh = v / (1 - 0.999 ** t)
        x = x - 0.01 * mh / (np.sqrt(vh) + 1e-8)
    np.testing.assert_allclose(p.data, x, rtol=1e-12)


def test_adam_zero_gradient_is_fixed_point():
    p = parameter(np.array([2.0]))
    opt = Adam({"p": p}, lr=0.5)
    opt.step({id(p): np.zeros(1)})
    np.testing.assert_array_equal(p.data, [2.0])


# ---------------------------------------------------------------------------
# batching


def test_collect_and_assemble_batch_shapes():
    cfg = toy_config()
    eps = _episodes(2)
    samples = collect_samples(eps, cfg.world.chunk)
    n_chunks = -(-cfg.world.horizon // cfg.world.chunk)
    assert len(samples) == 2 * n_chunks
    b = assemble_batch(samples[:3])
    assert b["views"].shape == (3, 3, 16, 16, 3)
    assert b["actions"].shape == (3, 8, 2)
    assert b["next"]["depth_patch"].shape == (3, 3, 16)
    assert b["target_mask_m"].dtype == bool


# ---------------------------------------------------------------------------
# training loop


def test_train_runs_and_is_deterministic():
    cfg = toy_config()
    cfg.train.steps = 3
    cfg.train.batch_size = 2
    eps = _episodes(2)
    m1, s1 = train(cfg, eps)
    m2, s2 = train(cfg, eps)
    assert s1 == s2 and [r["step"] for r in s1] == [0, 1, 2]
    for (k1, p1), (k2, p2) in zip(sorted(m1.named_parameters().items()),
                                  sorted(m2.named_parameters().items())):
        assert k1 == k2
        np.testing.assert_array_equal(p1.data, p2.data)


@pytest.mark.parametrize("make_cfg", [toy_config, micro_config])
def test_every_trainable_parameter_gets_gradient(make_cfg):
    # a parameter without gradient on a training batch can never move;
    # after a few updates (the zero-init decoder heads need one) every
    # trainable tensor must carry gradient above rounding noise, which is
    # what a tensor cancelled by its downstream op (a key bias under
    # softmax) receives
    cfg = make_cfg()
    cfg.train.steps = 3
    cfg.train.batch_size = 16
    eps = _episodes(4, cfg=cfg)
    model, _ = train(cfg, eps)
    batch = assemble_batch(collect_samples(eps, cfg.world.chunk)[:16])
    with Tape() as tape:
        total, _ = model.compute_losses(batch, aux_target_scale=cfg.train.aux_target_scale)
    grads = backward(total, tape)
    peak = {name: np.abs(grad_of(grads, p)).max()
            for name, p in model.trainable_parameters().items()}
    largest = max(peak.values())
    dead = sorted(name for name, g in peak.items() if g <= 1e-12 * largest)
    assert dead == []


def test_training_leaves_frozen_parameters_alone(monkeypatch):
    cfg = micro_config()
    cfg.train.steps = 3
    cfg.train.batch_size = 2
    optimizers = []

    class RecordingAdam(Adam):
        def __init__(self, *a, **k):
            super().__init__(*a, **k)
            optimizers.append(self)

    monkeypatch.setattr(trainer, "Adam", RecordingAdam)
    before = {k: p.data.tobytes()
              for k, p in VLAModel(cfg, seed=cfg.train.seed).frozen_parameters().items()}
    model, _ = train(cfg, _episodes(2, cfg=cfg))
    frozen = model.frozen_parameters()
    assert frozen and set(frozen) == set(before)
    for k, p in frozen.items():
        assert p.data.tobytes() == before[k], k
    [opt] = optimizers
    assert not {id(p) for _, p in opt.items} & {id(p) for p in frozen.values()}


def test_train_rejects_empty_dataset():
    cfg = toy_config()
    cfg.train.steps = 1
    with pytest.raises(ContractError, match="samples"):
        train(cfg, [])


def test_train_loss_switches_zero_disabled_terms():
    cfg = toy_config()
    cfg.train.steps = 2
    cfg.train.batch_size = 2
    cfg.train.enable_dyn_loss = False
    cfg.train.enable_dep_loss = False
    _, stream = train(cfg, _episodes(1))
    for rec in stream:
        assert rec["l_dyn4d"] == 0.0 and rec["l_dep4d"] == 0.0
        assert rec["l_total"] == rec["l_action"]


def test_smoothed_trailing_windows():
    stream = [{"l_total": float(i)} for i in range(10)]
    first, last = smoothed(stream, 3)
    assert first == 1.0 and last == 8.0
    assert smoothed([], 5) == (None, None)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    cfg = toy_config()
    model = VLAModel(cfg, seed=0)
    path = str(tmp_path / "ck.json")
    save_checkpoint(path, model, step=7)
    other = VLAModel(cfg, seed=99)
    assert not np.array_equal(
        other.named_parameters()["thinker/q_act"].data,
        model.named_parameters()["thinker/q_act"].data)
    step = load_checkpoint(path, other)
    assert step == 7
    for name, p in model.named_parameters().items():
        np.testing.assert_array_equal(other.named_parameters()[name].data, p.data)


def test_checkpoint_rejects_config_mismatch(tmp_path):
    cfg = toy_config()
    model = VLAModel(cfg, seed=0)
    path = str(tmp_path / "ck.json")
    save_checkpoint(path, model, step=0)
    cfg2 = toy_config()
    cfg2.fuser.n_agg = 7
    with pytest.raises(ContractError, match="hash"):
        load_checkpoint(path, VLAModel(cfg2, seed=0))
    # optimization-only changes stay loadable
    cfg3 = toy_config()
    cfg3.train.lr = 123.0
    assert load_checkpoint(path, VLAModel(cfg3, seed=0)) == 0


# ---------------------------------------------------------------------------
# closed-loop evaluation


def test_expert_policy_succeeds():
    cfg = toy_config()
    rep = evaluate_closed_loop(None, cfg, n_episodes=20, seed=3, expert=True)
    assert rep["success_rate"] == 1.0


def test_eval_zero_episodes():
    rep = evaluate_closed_loop(None, toy_config(), n_episodes=0)
    assert rep == {"n_episodes": 0, "success_rate": None, "mean_action_l1": None}


def test_eval_with_model_policy_runs():
    cfg = toy_config()
    model = VLAModel(cfg, seed=0)
    rep = evaluate_closed_loop(model_policy(model), cfg, n_episodes=2, seed=5)
    assert rep["n_episodes"] == 2
    assert 0.0 <= rep["success_rate"] <= 1.0
    assert rep["mean_action_l1"] >= 0.0


def test_eval_renders_only_the_configured_views(monkeypatch):
    import sparsevla.world as world
    rendered = []
    render = world.render_view

    def counting(scene, view, cfg):
        rendered.append(view)
        return render(scene, view, cfg)

    monkeypatch.setattr(world, "render_view", counting)
    cfg = micro_config()
    evaluate_closed_loop(model_policy(VLAModel(cfg, seed=0)), cfg, n_episodes=2, seed=5)
    assert rendered and set(rendered) == {0, 1}


# ---------------------------------------------------------------------------
# gradient verification harness


def test_run_grad_checks_micro_config():
    report = run_grad_checks(micro_config(), seed=0, n_per_group=4)
    assert report["pass"], report["failing_groups"]
    assert report["frozen_zero_grad"]
    assert set(report["groups"]) >= {"film", "sc_attn", "decoders", "heads"}
    for g in report["groups"].values():
        assert 0 <= g["nonzero"] <= g["checked"]


def _tanh_with_1pct_backward_error(x):
    x = tensor.as_tensor(x)
    y = np.tanh(x.data)
    return tensor._record(Tensor(y), (x,), lambda g: (1.01 * g * (1.0 - y * y),))


def _layer_norm_without_y_term(x, eps=1e-5):
    x = tensor.as_tensor(x)
    inv = 1.0 / np.sqrt(x.data.var(axis=-1, keepdims=True) + eps)
    y = (x.data - x.data.mean(axis=-1, keepdims=True)) * inv
    return tensor._record(Tensor(y), (x,),
                          lambda g: ((g - g.mean(axis=-1, keepdims=True)) * inv,))


@pytest.mark.parametrize("name,mutant", [
    ("tanh", _tanh_with_1pct_backward_error),
    ("layer_norm", _layer_norm_without_y_term)])
def test_run_grad_checks_catches_wrong_backward(monkeypatch, name, mutant):
    # the forward values stay exact; only the backward rule is wrong
    monkeypatch.setattr(blocks, name, mutant)
    report = run_grad_checks(micro_config(), seed=0)
    assert not report["pass"]
    assert set(report["failing_groups"]) - {"frozen"}
