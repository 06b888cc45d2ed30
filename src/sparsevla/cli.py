"""Command-line front end.

Subcommands: gen-data, train, eval, grad-check, audit-budget, audit-flops,
mask-dump. Each reads an optional JSON config (--config), honors --seed,
writes machine-readable JSON to --out and a human summary to stdout.
Exit codes: 0 success, 1 contract/config violation or bad usage, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .audit import audit_budget, audit_flops, config_audit, resolve_preset
from .config import FullConfig, load_config, micro_config, toy_config
from .fuser import build_bc_mask
from .model import VLAModel
from .tensor import ConfigError, ContractError
from .thinker import SCAttnLayout, build_sc_mask
from .trainer import (evaluate_closed_loop, load_checkpoint, model_policy,
                      run_grad_checks, save_checkpoint, smoothed, train)
from .world import generate_dataset, load_dataset


def _load_cfg(args, default: FullConfig | None = None) -> FullConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return default if default is not None else toy_config()


def _write_json(path: str | None, payload: dict) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")


def mask_to_text(mask: np.ndarray) -> str:
    return "\n".join("".join("1" if b else "0" for b in row) for row in mask)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_gen_data(args) -> int:
    cfg = _load_cfg(args)
    generate_dataset(args.out, seed=args.seed, n_episodes=args.episodes,
                     horizon=args.horizon, cfg=cfg.world,
                     config_hash=cfg.config_hash(), n_views=cfg.n_views)
    print(f"wrote {args.episodes} episodes to {args.out} (seed {args.seed})")
    return 0


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    if args.seed is not None:
        cfg.train.seed = args.seed
    if args.steps is not None:
        cfg.train.steps = args.steps
    _, episodes = load_dataset(args.data)
    sink_fh = open(args.loss_stream, "w") if args.loss_stream else None
    try:
        def sink(rec):
            if sink_fh:
                sink_fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
        model, stream = train(cfg, episodes, loss_sink=sink)
    finally:
        if sink_fh:
            sink_fh.close()
    save_checkpoint(args.out, model, step=cfg.train.steps)
    first, last = smoothed(stream, cfg.train.smooth_window)
    print(f"trained {cfg.train.steps} steps; smoothed loss {first} -> {last}")
    print(f"checkpoint: {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    model = VLAModel(cfg, seed=cfg.train.seed)
    load_checkpoint(args.ckpt, model)
    report = evaluate_closed_loop(model_policy(model), cfg,
                                  n_episodes=args.episodes, seed=args.seed)
    report["format_version"] = 1
    _write_json(args.out, report)
    print(f"success rate: {report['success_rate']}  mean action L1: {report['mean_action_l1']}")
    return 0


def cmd_grad_check(args) -> int:
    cfg = _load_cfg(args, default=micro_config())
    report = run_grad_checks(cfg, seed=args.seed)
    report["format_version"] = 1
    _write_json(args.out, report)
    for name, g in report["groups"].items():
        print(f"{name}: max rel err {g['max_rel_err']:.3e} "
              f"({g['nonzero']} of {g['checked']} entries nonzero)")
    print(f"frozen zero-grad: {report['frozen_zero_grad']}")
    print("PASS" if report["pass"] else f"FAIL: {report['failing_groups']}")
    return 0 if report["pass"] else 1


def cmd_audit_budget(args) -> int:
    a = resolve_preset(args.preset) if args.preset else config_audit(_load_cfg(args))
    report = audit_budget(a)
    _write_json(args.out, report)
    r = report["ratios"]
    print(f"obj ratio {r['obj_vs_dense']['exact']}, agg ratio {r['agg_vs_dense']['exact']}, "
          f"query share {r['query_token_share']['exact']}")
    return 0


def cmd_audit_flops(args) -> int:
    a = resolve_preset(args.preset) if args.preset else config_audit(_load_cfg(args))
    report = audit_flops(a)
    _write_json(args.out, report)
    m = report["macs"]
    print(f"MACs with-E3D {m['with_e3d']:.3e}, without-E3D {m['without_e3d']:.3e}, "
          f"ratio {report['ratio']}")
    return 0


def cmd_mask_dump(args) -> int:
    counts = [int(c) for c in args.counts.split(",")]
    if args.layout == "sc":
        if len(counts) != 10:
            raise ContractError(
                "sc layout needs 10 counts: objM,objL,objR,agg,instr,dynM,dynL,dynR,dep,action")
        layout = SCAttnLayout(n_views=3, n_obj=counts[0:3], n_agg=counts[3],
                              n_instr=counts[4], n_dyn=counts[5:8],
                              n_dep=counts[8], n_action=counts[9])
        mask = build_sc_mask(layout)
    elif args.layout == "bc":
        if len(counts) != 3:
            raise ContractError("bc layout needs 3 counts: n_geo_per_view,n_views,n_agg")
        mask = build_bc_mask(counts[0], counts[1], counts[2], layout=args.bc_layout)
    else:
        raise ConfigError(f"unknown layout {args.layout!r}")
    text = mask_to_text(mask)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sparsevla")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--config")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--episodes", type=int, default=500)
    g.add_argument("--horizon", type=int, default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train on a dataset")
    t.add_argument("--config")
    t.add_argument("--data", required=True)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--steps", type=int, default=None)
    t.add_argument("--out", required=True)
    t.add_argument("--loss-stream")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="closed-loop evaluation of a checkpoint")
    e.add_argument("--config")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--episodes", type=int, default=100)
    e.add_argument("--seed", type=int, default=1234)
    e.add_argument("--out")
    e.set_defaults(fn=cmd_eval)

    c = sub.add_parser("grad-check", help="finite-difference gradient verification")
    c.add_argument("--config")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_grad_check)

    b = sub.add_parser("audit-budget", help="token budget accounting")
    b.add_argument("--config")
    b.add_argument("--preset", choices=["toy", "paper-dims"])
    b.add_argument("--out")
    b.set_defaults(fn=cmd_audit_budget)

    f = sub.add_parser("audit-flops", help="analytical FLOPs accounting")
    f.add_argument("--config")
    f.add_argument("--preset", choices=["toy", "paper-dims"])
    f.add_argument("--out")
    f.set_defaults(fn=cmd_audit_flops)

    m = sub.add_parser("mask-dump", help="dump an attention mask as 0/1 rows")
    m.add_argument("--layout", required=True, choices=["sc", "bc"])
    m.add_argument("--counts", required=True)
    m.add_argument("--bc-layout", default="two-block", choices=["two-block", "per-view"])
    m.add_argument("--out")
    m.set_defaults(fn=cmd_mask_dump)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except (ContractError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
