import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevla.blocks import TransformerLayer
from sparsevla.fuser import (AlphaSchedule, COFuser, alpha, build_bc_mask,
                             group_fuse, ig_aggregate)
from sparsevla.config import EncoderConfig, FuserConfig, toy_config
from sparsevla.tensor import ContractError, Tensor
from sparsevla.types import TokenSet

FULL_DEPTH_SCHED = AlphaSchedule(psi=0.2, delta=0.05, l_max=24)


def test_alpha_start_is_psi():
    assert abs(alpha(0, FULL_DEPTH_SCHED) - 0.2) < 1e-12


def test_alpha_end_is_psi_delta():
    assert abs(alpha(24, FULL_DEPTH_SCHED) - 0.01) < 1e-12


def test_alpha_midpoint():
    # psi * (delta + (1-delta)/2) at the half-depth layer
    assert abs(alpha(12, FULL_DEPTH_SCHED) - 0.2 * (0.05 + 0.95 * 0.5)) < 1e-12
    assert abs(alpha(12, FULL_DEPTH_SCHED) - 0.105) < 1e-12


def test_alpha_out_of_range():
    with pytest.raises(ContractError):
        alpha(25, FULL_DEPTH_SCHED)
    with pytest.raises(ContractError):
        alpha(-1, FULL_DEPTH_SCHED)


def test_alpha_strictly_decreasing_with_exact_endpoints():
    vals = [alpha(l, FULL_DEPTH_SCHED) for l in range(25)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert abs(vals[0] - 0.2) < 1e-12 and abs(vals[-1] - 0.01) < 1e-12


def _ts(arr, role="geo"):
    return TokenSet(Tensor(arr), role=role)


def test_group_fuse_alpha_zero_returns_geo():
    sched = AlphaSchedule(psi=0.0, delta=0.5, l_max=2)
    geo, sp = np.ones((3, 4)), np.full((3, 4), 7.0)
    out = group_fuse(_ts(geo), _ts(sp, "spatial3d"), 0, sched)
    np.testing.assert_array_equal(out.tokens.data, geo)


def test_group_fuse_alpha_one_returns_spatial():
    sched = AlphaSchedule(psi=1.0, delta=1.0, l_max=2)  # alpha == 1 everywhere
    geo, sp = np.ones((3, 4)), np.full((3, 4), 7.0)
    out = group_fuse(_ts(geo), _ts(sp, "spatial3d"), 0, sched)
    np.testing.assert_array_equal(out.tokens.data, sp)


def test_group_fuse_midlayer_weight():
    rng = np.random.default_rng(0)
    sp = rng.normal(size=(2, 3))
    out = group_fuse(_ts(np.zeros((2, 3))), _ts(sp, "spatial3d"), 12, FULL_DEPTH_SCHED)
    np.testing.assert_allclose(out.tokens.data, 0.105 * sp, rtol=1e-12)


def test_group_fuse_shape_mismatch():
    with pytest.raises(ContractError):
        group_fuse(_ts(np.zeros((2, 3))), _ts(np.zeros((3, 3)), "spatial3d"),
                   0, FULL_DEPTH_SCHED)


# ---------------------------------------------------------------------------
# block-causal mask


def test_bc_mask_no_agg_is_all_allowed():
    m = build_bc_mask(2, 3, 0)
    assert m.shape == (6, 6) and m.all()


def test_bc_mask_no_geo_is_all_allowed():
    m = build_bc_mask(0, 3, 4)
    assert m.shape == (4, 4) and m.all()


def test_bc_mask_example_8x8():
    m = build_bc_mask(2, 3, 2)
    assert m.shape == (8, 8)
    assert m[:6, :6].all() and not m[:6, 6:].any()
    assert m[6:, :].all()


def _bc_rule(q, k, n_geo, layout, n_geo_per_view):
    q_is_geo, k_is_geo = q < n_geo, k < n_geo
    if not q_is_geo:
        return True  # agg sees everything
    if not k_is_geo:
        return False  # geo never sees agg
    if layout == "two-block":
        return True
    return k // n_geo_per_view <= q // n_geo_per_view


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 8), st.integers(0, 3), st.integers(0, 8),
       st.sampled_from(["two-block", "per-view"]))
def test_bc_mask_matches_bruteforce_rule(n_geo_pv, n_views, n_agg, layout):
    n_geo = n_geo_pv * n_views
    total = n_geo + n_agg
    if total == 0:
        with pytest.raises(ContractError):
            build_bc_mask(n_geo_pv, n_views, n_agg, layout)
        return
    m = build_bc_mask(n_geo_pv, n_views, n_agg, layout)
    for q in range(total):
        for k in range(total):
            assert m[q, k] == _bc_rule(q, k, n_geo, layout, max(n_geo_pv, 1))


# ---------------------------------------------------------------------------
# IG-aggregation


def _zeroed_block(rng, d, heads, ffn):
    block = TransformerLayer(rng, d, heads, ffn)
    block.attn.wv.w.data[:] = 0.0
    block.attn.wo.b.data[:] = 0.0
    block.ffn.w2.w.data[:] = 0.0
    block.ffn.w2.b.data[:] = 0.0
    return block


def test_ig_aggregate_residual_identity():
    rng = np.random.default_rng(2)
    block = _zeroed_block(rng, 4, 1, 8)
    geo = _ts(rng.normal(size=(2, 4)), "geo3d")
    agg = Tensor(rng.normal(size=(1, 4)))
    mask = build_bc_mask(2, 1, 1)
    geo_out, agg_out = ig_aggregate(geo, agg, block, mask)
    np.testing.assert_array_equal(geo_out.tokens.data, geo.tokens.data)
    np.testing.assert_array_equal(agg_out.data, agg.data)


def test_ig_aggregate_geo_blind_to_agg():
    rng = np.random.default_rng(3)
    block = TransformerLayer(rng, 4, 1, 8)
    geo = _ts(rng.normal(size=(2, 4)), "geo3d")
    mask = build_bc_mask(2, 1, 1)
    agg_a = Tensor(rng.normal(size=(1, 4)))
    agg_b = Tensor(agg_a.data + rng.normal(size=(1, 4)))
    out_a, _ = ig_aggregate(geo, agg_a, block, mask)
    out_b, _ = ig_aggregate(geo, agg_b, block, mask)
    np.testing.assert_array_equal(out_a.tokens.data, out_b.tokens.data)


def test_ig_aggregate_matches_hand_oracle():
    rng = np.random.default_rng(4)
    d, heads = 4, 1
    block = TransformerLayer(rng, d, heads, 8)
    geo = rng.normal(size=(2, d))
    agg = rng.normal(size=(1, d))
    mask = build_bc_mask(2, 1, 1)
    got, agg_out = ig_aggregate(_ts(geo, "geo3d"), Tensor(agg), block, mask)

    # hand-rolled pre-LN attention + FFN with the block's own weights
    def lin(m, x):
        return x @ m.w.data + (m.b.data if m.b is not None else 0.0)

    x = np.concatenate([geo, agg], axis=0)
    gn = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)
    q, k, v = lin(block.attn.wq, gn), lin(block.attn.wk, gn), lin(block.attn.wv, gn)
    scores = q @ k.T / np.sqrt(d)
    scores[~mask] = -np.inf
    w = np.exp(scores - scores.max(-1, keepdims=True))
    w = np.where(mask, w, 0.0)
    w /= w.sum(-1, keepdims=True)
    h = x + lin(block.attn.wo, w @ v)
    hn = (h - h.mean(-1, keepdims=True)) / np.sqrt(h.var(-1, keepdims=True) + 1e-5)
    want = h + lin(block.ffn.w2, np.tanh(lin(block.ffn.w1, hn)))
    np.testing.assert_allclose(np.concatenate([got.tokens.data, agg_out.data]),
                               want, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# full fuser run


def _run_cofuser(n_layers=2, n_agg=3, n_geo_pv=2, n_views=3, d=4, lead=(1,)):
    rng = np.random.default_rng(5)
    fuser = COFuser(rng, FuserConfig(n_agg=n_agg),
                    EncoderConfig(d_v=d, n_layers_geo=n_layers, n_heads=1, d_ff=8))
    geo = [_ts(rng.normal(size=(*lead, n_geo_pv * n_views, d)), "geo")
           for _ in range(n_layers)]
    sp = [_ts(rng.normal(size=(*lead, n_geo_pv * n_views, d)), "spatial3d")
          for _ in range(n_layers)]
    return fuser, fuser.run(geo, sp, n_geo_pv, n_views)


def test_run_cofuser_single_layer():
    _, out = _run_cofuser(n_layers=1)
    assert out.role == "agg3d"


def test_run_cofuser_output_count_is_agg_budget():
    for n_views in (1, 2, 3):
        _, out = _run_cofuser(n_agg=5, n_views=n_views)
        assert out.tokens.shape[-2] == 5


def test_run_cofuser_layer_count_mismatch():
    rng = np.random.default_rng(6)
    fuser = COFuser(rng, FuserConfig(n_agg=2),
                    EncoderConfig(d_v=4, n_layers_geo=2, n_heads=1, d_ff=8))
    feats = [_ts(rng.normal(size=(1, 6, 4)), "geo")]
    with pytest.raises(Exception, match="layers"):
        fuser.run(feats, feats, 2, 3)


@pytest.mark.parametrize("layout", ["two-block", "per-view"])
@pytest.mark.parametrize("b", [1, 16])
def test_run_cofuser_equals_agg_rows_of_full_blocks(b, layout):
    # run() forms agg queries only; the reference chains the full masked
    # block and keeps the agg slice, which the geo-row layout cannot change
    cfg = toy_config()
    d, p, v = cfg.encoders.d_v, cfg.world.n_patches, cfg.n_views
    n_layers = cfg.encoders.n_layers_geo
    rng = np.random.default_rng(b)
    fuser = COFuser(rng, cfg.fuser, cfg.encoders)
    geo = [_ts(rng.normal(size=(b, v * p, d)), "geo") for _ in range(n_layers)]
    sp = [_ts(rng.normal(size=(b, v * p, d)), "spatial3d") for _ in range(n_layers)]
    mask = build_bc_mask(p, v, cfg.fuser.n_agg, layout)
    agg = fuser.agg0 + Tensor(np.zeros((b, *fuser.agg0.shape)))
    for l, (g, s, block) in enumerate(zip(geo, sp, fuser.blocks)):
        _, agg = ig_aggregate(group_fuse(g, s, l, fuser.sched), agg, block, mask)
    got = fuser.run(geo, sp, p, v).tokens.data
    assert got.shape == agg.data.shape and got.tobytes() == agg.data.tobytes()


def test_full_scale_preset_agg_ratio():
    # 64 aggregation tokens vs 3 views x 256 patches -> exactly 1/12
    from fractions import Fraction
    assert Fraction(64, 3 * 256) == Fraction(1, 12)
