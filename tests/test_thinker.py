import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevla.config import ThinkerConfig
from sparsevla.tensor import ContractError, Tensor
from sparsevla.thinker import (CSThinker, SCAttnLayout, build_sc_mask,
                               loss_action, loss_dep4d, loss_dyn4d,
                               segment_allows, total_loss)
from sparsevla.types import TokenSet

TOY_LAYOUT = SCAttnLayout(n_views=3, n_obj=2, n_agg=8, n_instr=1,
                          n_dyn=4, n_dep=4, n_action=8)


def test_layout_totals_and_slices():
    assert TOY_LAYOUT.total() == 3 * 2 + 8 + 1 + 3 * 4 + 4 + 8
    sl = TOY_LAYOUT.slices()
    assert sl["obj:M"] == slice(0, 2)
    assert sl["agg"] == slice(6, 14)
    assert sl["instr"] == slice(14, 15)
    assert sl["dyn:L"] == slice(19, 23)
    assert sl["action"] == slice(31, 39)


def test_layout_per_view_counts():
    lay = SCAttnLayout(n_views=2, n_obj=[2, 3], n_agg=1, n_instr=1,
                       n_dyn=[1, 2], n_dep=1, n_action=2)
    assert lay.total() == 2 + 3 + 1 + 1 + 1 + 2 + 1 + 2
    with pytest.raises(ContractError):
        SCAttnLayout(n_views=2, n_obj=[2], n_agg=1, n_instr=1,
                     n_dyn=1, n_dep=1, n_action=1).total()


def test_segment_rules_spot_checks():
    assert segment_allows("obj:M", "obj:M")
    assert segment_allows("obj:M", "instr")
    assert not segment_allows("obj:M", "obj:L")
    assert not segment_allows("obj:M", "agg")
    assert segment_allows("agg", "agg") and segment_allows("agg", "instr")
    assert not segment_allows("agg", "obj:M")
    assert segment_allows("instr", "instr")
    assert not segment_allows("instr", "obj:R") and not segment_allows("instr", "agg")
    assert not segment_allows("instr", "dyn:M")
    assert segment_allows("dyn:L", "obj:L") and segment_allows("dyn:L", "dyn:L")
    assert not segment_allows("dyn:L", "obj:M") and not segment_allows("dyn:L", "agg")
    assert segment_allows("dep", "agg") and not segment_allows("dep", "obj:M")
    for k in ("obj:M", "agg", "instr", "dyn:R", "dep", "action"):
        assert segment_allows("action", k)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(0, 8), st.integers(0, 8),
       st.integers(0, 8), st.integers(0, 8), st.integers(0, 8),
       st.integers(1, 8))
def test_sc_mask_matches_rule_bruteforce(n_views, n_obj, n_agg, n_instr,
                                         n_dyn, n_dep, n_action):
    lay = SCAttnLayout(n_views=n_views, n_obj=n_obj, n_agg=n_agg,
                       n_instr=n_instr, n_dyn=n_dyn, n_dep=n_dep,
                       n_action=n_action)
    mask = build_sc_mask(lay)
    names = []
    for name, count in lay.segments():
        names.extend([name] * count)
    for q in range(len(names)):
        for k in range(len(names)):
            assert mask[q, k] == segment_allows(names[q], names[k])


def test_sc_mask_rejects_empty():
    lay = SCAttnLayout(n_views=1, n_obj=0, n_agg=0, n_instr=0, n_dyn=0,
                       n_dep=0, n_action=0)
    with pytest.raises(ContractError):
        build_sc_mask(lay)


def test_sc_mask_rows_never_fully_masked_with_instr():
    mask = build_sc_mask(TOY_LAYOUT)
    assert mask.any(axis=1).all()


# ---------------------------------------------------------------------------
# closed-form loss checks


def test_loss_dyn_constant_offset():
    # pred - target = c everywhere, full mask: loss = n * c^2 (batch of 1)
    c = 0.3
    pred = Tensor(np.full((1, 4, 5), c))
    target = np.zeros((1, 4, 5))
    mask = np.ones((1, 4))
    loss = loss_dyn4d(pred, target, mask)
    np.testing.assert_allclose(loss.data, 20 * c * c, rtol=1e-12)


def test_loss_dyn_mask_zero_gives_zero():
    pred = Tensor(np.ones((2, 3, 4)))
    loss = loss_dyn4d(pred, np.zeros((2, 3, 4)), np.zeros((2, 3)))
    assert loss.data == 0.0


def test_loss_dyn_partial_mask():
    pred = Tensor(np.ones((1, 2, 3)))
    mask = np.array([[1.0, 0.0]])
    loss = loss_dyn4d(pred, np.zeros((1, 2, 3)), mask)
    np.testing.assert_allclose(loss.data, 3.0)


def test_loss_dyn_mean_over_batch():
    pred = Tensor(np.ones((4, 2, 3)))
    loss = loss_dyn4d(pred, np.zeros((4, 2, 3)), np.ones((4, 2)))
    np.testing.assert_allclose(loss.data, 6.0)  # 24 / batch 4


def test_loss_dep_sums_over_views():
    c = 0.5
    preds = Tensor(np.full((1, 3, 4), c))
    loss = loss_dep4d(preds, np.zeros((1, 3, 4)))
    np.testing.assert_allclose(loss.data, 3 * 4 * c * c, rtol=1e-12)


def test_loss_action_mean_absolute():
    pred = Tensor(np.full((2, 8, 2), -0.25))
    loss = loss_action(pred, np.zeros((2, 8, 2)))
    np.testing.assert_allclose(loss.data, 0.25, rtol=1e-15)


def test_loss_shape_mismatches_raise():
    with pytest.raises(ContractError):
        loss_action(Tensor(np.zeros((1, 2, 2))), np.zeros((1, 3, 2)))
    with pytest.raises(ContractError):
        loss_dep4d(Tensor(np.zeros((1, 2, 4))), np.zeros((1, 3, 4)))
    with pytest.raises(ContractError):
        loss_dyn4d(Tensor(np.zeros((1, 2, 4))), np.zeros((1, 2, 5)), np.zeros((1, 2)))


def test_total_loss_is_exact_sum():
    la = Tensor(np.float64(0.25))
    ld = Tensor(np.float64(1.5))
    lp = Tensor(np.float64(0.125))
    total, rep = total_loss(la, ld, lp)
    assert total.data == 0.25 + 1.5 + 0.125  # exact in binary floats
    assert rep.to_dict() == {"l_action": 0.25, "l_dyn4d": 1.5,
                             "l_dep4d": 0.125, "l_total": 1.875}


# ---------------------------------------------------------------------------
# thinker isolation invariants


def _thinker(seed=0):
    rng = np.random.default_rng(seed)
    cfg = ThinkerConfig(d_model=16, n_layers=2, n_heads=2, d_ff=32,
                        n_dyn_per_view=2, n_dep=2, n_instr_tokens=1,
                        decoder_layers=1)
    th = CSThinker(rng, cfg, n_views=3, k_obj=2, n_agg=4, d_v=8, d_t=4,
                   chunk=4, action_dim=2, n_patches=16)
    return th


def _inputs(seed=1, b=2):
    # object tokens of views M, L, R stacked on axis 1: [B, V, K, d_v]
    rng = np.random.default_rng(seed)
    obj = TokenSet(Tensor(np.stack([rng.normal(size=(b, 2, 8)) for _ in "MLR"], axis=1)),
                   role="obj3d")
    agg = TokenSet(Tensor(rng.normal(size=(b, 4, 8))), role="agg3d")
    t = Tensor(rng.normal(size=(b, 4)))
    return obj, agg, t


def test_action_identical_with_and_without_aux():
    th = _thinker()
    obj, agg, t = _inputs()
    full = th(obj, agg, t, run_aux=True)
    lean = th(obj, agg, t, run_aux=False)
    np.testing.assert_array_equal(full["action"].data, lean["action"].data)
    assert "dyn_pred" not in lean


def test_dep_states_blind_to_obj_tokens():
    th = _thinker()
    obj, agg, t = _inputs()
    rng = np.random.default_rng(5)
    obj2 = TokenSet(Tensor(obj.tokens.data + rng.normal(size=obj.tokens.shape)),
                    role="obj3d")
    s1 = th.sc_forward(obj, agg, t)
    s2 = th.sc_forward(obj2, agg, t)
    np.testing.assert_array_equal(s1["dep"].data, s2["dep"].data)
    # action tokens do see obj tokens
    assert not np.array_equal(s1["action"].data, s2["action"].data)


def test_dyn_states_blind_to_agg_tokens():
    th = _thinker()
    obj, agg, t = _inputs()
    rng = np.random.default_rng(6)
    agg2 = TokenSet(Tensor(agg.tokens.data + rng.normal(size=agg.tokens.shape)),
                    role="agg3d")
    s1 = th.sc_forward(obj, agg, t)
    s2 = th.sc_forward(obj, agg2, t)
    for v in ("M", "L", "R"):
        np.testing.assert_array_equal(s1[f"dyn:{v}"].data, s2[f"dyn:{v}"].data)
    np.testing.assert_array_equal(s1["obj:M"].data, s2["obj:M"].data)
    assert not np.array_equal(s1["dep"].data, s2["dep"].data)


def test_dyn_view_isolation():
    # dyn:M must ignore obj tokens of views L and R
    th = _thinker()
    obj, agg, t = _inputs()
    rng = np.random.default_rng(7)
    lr = obj.tokens.data.copy()
    lr[:, 1:] += rng.normal(size=lr[:, 1:].shape)
    obj2 = TokenSet(Tensor(lr), role="obj3d")
    s1 = th.sc_forward(obj, agg, t)
    s2 = th.sc_forward(obj2, agg, t)
    np.testing.assert_array_equal(s1["dyn:M"].data, s2["dyn:M"].data)
    assert not np.array_equal(s1["dyn:L"].data, s2["dyn:L"].data)


def test_thinker_rejects_wrong_sequence_length():
    th = _thinker()
    obj, agg, t = _inputs()
    bad_obj = TokenSet(Tensor(np.zeros((2, 3, 3, 8))), role="obj3d")
    with pytest.raises(ContractError, match="length"):
        th.sc_forward(bad_obj, agg, t)


def test_decoder_output_shapes():
    th = _thinker()
    obj, agg, t = _inputs(b=3)
    out = th(obj, agg, t)
    assert out["action"].shape == (3, 4, 2)
    assert out["dyn_pred"].shape == (3, 2, 8)
    assert out["dep_pred"].shape == (3, 3, 16)
