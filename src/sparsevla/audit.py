"""Analytical token-budget and FLOPs accounting.

Token ratios are exact rationals of config integers. FLOPs are closed-form
multiply-accumulate counts for the attention sequence with sparsified
budgets (with-E3D) versus dense patch budgets (without-E3D); backbone
components outside the attention stack are deliberately not modeled, so
only the ratio is meaningful.
"""

from __future__ import annotations

from fractions import Fraction

from .config import AuditConfig, FullConfig, paper_dims_audit
from .tensor import ConfigError

REPORT_VERSION = 1


def config_audit(cfg: FullConfig) -> AuditConfig:
    """Audit dims of the network `cfg` builds (the toy config gives AuditConfig())."""
    th = cfg.thinker
    return AuditConfig(
        patches_per_view=cfg.world.n_patches, n_views=cfg.n_views,
        k_obj=cfg.aligner.k, n_agg=cfg.fuser.n_agg, n_instr=th.n_instr_tokens,
        n_dyn=cfg.n_views * th.n_dyn_per_view, n_dep=th.n_dep,
        n_action=cfg.world.chunk, d_model=th.d_model, d_ff=th.d_ff,
        n_layers=th.n_layers)


def resolve_preset(preset: str) -> AuditConfig:
    if preset == "toy":
        return AuditConfig()
    if preset == "paper-dims":
        return paper_dims_audit()
    raise ConfigError(f"unknown audit preset {preset!r}")


def _frac(num: int, den: int) -> dict:
    f = Fraction(num, den)
    return {"exact": f"{f.numerator}/{f.denominator}", "value": num / den}


def sequence_length(a: AuditConfig, dense: bool = False) -> int:
    obj = (a.patches_per_view if dense else a.k_obj) * a.n_views
    return obj + a.n_agg + a.n_instr + a.n_dyn + a.n_dep + a.n_action


def audit_budget(a: AuditConfig) -> dict:
    dense = a.patches_per_view * a.n_views
    total = sequence_length(a)
    return {
        "format_version": REPORT_VERSION,
        "preset": a.preset,
        "tokens": {
            "obj_per_view": a.k_obj,
            "obj_total": a.k_obj * a.n_views,
            "agg": a.n_agg,
            "instruction": a.n_instr,
            "dyn": a.n_dyn,
            "dep": a.n_dep,
            "action": a.n_action,
            "sequence_total": total,
            "dense_patches_per_view": a.patches_per_view,
            "dense_patches_total": dense,
        },
        "ratios": {
            "obj_vs_dense": _frac(a.k_obj, a.patches_per_view),
            "agg_vs_dense": _frac(a.n_agg, dense),
            "query_token_share": _frac(a.n_dyn + a.n_dep, total),
        },
    }


def layer_macs(n: int, d: int, d_ff: int) -> int:
    """Per-layer MACs: QKV+output projections, attention matmuls, FFN."""
    return 4 * n * d * d + 2 * n * n * d + 2 * n * d * d_ff


def stack_macs(n: int, d: int, d_ff: int, n_layers: int) -> int:
    return n_layers * layer_macs(n, d, d_ff)


def audit_flops(a: AuditConfig) -> dict:
    n_sparse = sequence_length(a, dense=False)
    n_dense = sequence_length(a, dense=True)
    with_e3d = stack_macs(n_sparse, a.d_model, a.d_ff, a.n_layers)
    without_e3d = stack_macs(n_dense, a.d_model, a.d_ff, a.n_layers)
    return {
        "format_version": REPORT_VERSION,
        "preset": a.preset,
        "dims": {"d_model": a.d_model, "d_ff": a.d_ff, "n_layers": a.n_layers},
        "sequence": {"with_e3d": n_sparse, "without_e3d": n_dense},
        "macs": {"with_e3d": with_e3d, "without_e3d": without_e3d},
        "ratio": with_e3d / without_e3d if without_e3d else None,
    }
