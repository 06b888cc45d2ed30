from fractions import Fraction

import pytest

from sparsevla.audit import (audit_budget, audit_flops, config_audit, layer_macs,
                             resolve_preset, sequence_length, stack_macs)
from sparsevla.config import AuditConfig, micro_config, paper_dims_audit, toy_config
from sparsevla.model import VLAModel
from sparsevla.tensor import ConfigError


def test_resolve_presets():
    assert resolve_preset("toy").preset == "toy"
    assert resolve_preset("paper-dims").preset == "paper-dims"
    with pytest.raises(ConfigError):
        resolve_preset("mega")


def test_toy_config_derives_default_audit():
    assert config_audit(toy_config()) == AuditConfig()


@pytest.mark.parametrize("make_cfg", [toy_config, micro_config])
def test_config_audit_matches_built_thinker(make_cfg):
    cfg = make_cfg()
    a, th = config_audit(cfg), VLAModel(cfg).thinker
    assert sequence_length(a) == th.layout.total()
    assert (a.d_model, a.d_ff, a.n_layers) == (th.cfg.d_model, th.cfg.d_ff,
                                               len(th.sc_layers))


def test_sequence_lengths_paper_dims():
    a = paper_dims_audit()
    # sparse: 3*32 obj + 64 agg + 16 instr + 12 dyn + 4 dep + 8 action
    assert sequence_length(a) == 96 + 64 + 16 + 12 + 4 + 8 == 200
    # dense replaces the object segment with full patch grids
    assert sequence_length(a, dense=True) == 3 * 256 + 64 + 16 + 12 + 4 + 8 == 872


def test_budget_ratios_paper_dims_exact():
    rep = audit_budget(paper_dims_audit())
    r = rep["ratios"]
    assert r["obj_vs_dense"]["exact"] == "1/8"
    assert Fraction(r["obj_vs_dense"]["exact"]) == Fraction(32, 256)
    assert r["agg_vs_dense"]["exact"] == "1/12"
    assert Fraction(r["agg_vs_dense"]["exact"]) == Fraction(64, 768)
    assert r["query_token_share"]["value"] == 16 / 200
    assert r["query_token_share"]["value"] < 0.10


def test_budget_ratios_toy():
    rep = audit_budget(AuditConfig())
    assert rep["ratios"]["obj_vs_dense"]["exact"] == "1/8"  # 2 of 16
    assert rep["tokens"]["sequence_total"] == sequence_length(AuditConfig())
    assert rep["format_version"] == 1


def test_layer_macs_closed_form():
    # n=2, d=3, d_ff=5: 4*2*9 + 2*4*3 + 2*2*3*5 = 72 + 24 + 60
    assert layer_macs(2, 3, 5) == 156
    assert stack_macs(2, 3, 5, 4) == 4 * 156


def test_layer_macs_quadratic_in_sequence():
    # doubling n: linear terms double, attention term quadruples
    d, dff = 4, 8
    lin = 4 * d * d + 2 * d * dff
    assert layer_macs(2, d, dff) == 2 * lin + 2 * 4 * d
    assert layer_macs(4, d, dff) == 4 * lin + 2 * 16 * d


def test_flops_ratio_paper_dims_in_band():
    rep = audit_flops(paper_dims_audit())
    assert rep["sequence"] == {"with_e3d": 200, "without_e3d": 872}
    ratio = rep["ratio"]
    assert 0.15 <= ratio <= 0.45
    # cross-check against an independent evaluation of the formula
    def macs(n):
        return 32 * (4 * n * 4096 ** 2 + 2 * n * n * 4096 + 2 * n * 4096 * 11008)
    assert rep["macs"]["with_e3d"] == macs(200)
    assert rep["macs"]["without_e3d"] == macs(872)
    assert ratio == macs(200) / macs(872)


def test_flops_zero_layers_ratio_none():
    a = AuditConfig(n_layers=0)
    rep = audit_flops(a)
    assert rep["ratio"] is None
    assert rep["macs"]["with_e3d"] == 0
