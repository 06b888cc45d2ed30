import json

import numpy as np
import pytest

from sparsevla.cli import main, mask_to_text
from sparsevla.config import FullConfig, load_config, micro_config


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mask_to_text():
    m = np.array([[True, False], [False, True]])
    assert mask_to_text(m) == "10\n01"


def test_unknown_subcommand_exits_1(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0


def test_gen_data_and_determinism(tmp_path, capsys):
    p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    for p in (p1, p2):
        code, out, _ = run(capsys, "gen-data", "--seed", "5", "--episodes", "2",
                           "--horizon", "8", "--out", p)
        assert code == 0 and "2 episodes" in out
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_gen_data_bad_episode_count(tmp_path, capsys):
    code, _, err = run(capsys, "gen-data", "--episodes", "0",
                       "--out", str(tmp_path / "x.jsonl"))
    assert code == 1 and "error" in err


def test_gen_data_io_error(capsys):
    code, _, err = run(capsys, "gen-data", "--episodes", "1",
                       "--out", "/nonexistent-dir/x.jsonl")
    assert code == 2 and "I/O" in err


def _micro_cfg_file(tmp_path):
    cfg = micro_config()
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    return str(path)


def test_train_eval_grad_check_pipeline(tmp_path, capsys):
    cfgp = _micro_cfg_file(tmp_path)
    data = str(tmp_path / "d.jsonl")
    ck = str(tmp_path / "ck.json")
    stream = str(tmp_path / "loss.jsonl")

    code, _, _ = run(capsys, "gen-data", "--config", cfgp, "--seed", "0",
                     "--episodes", "2", "--horizon", "8", "--out", data)
    assert code == 0

    code, out, _ = run(capsys, "train", "--config", cfgp, "--data", data,
                       "--steps", "2", "--out", ck, "--loss-stream", stream)
    assert code == 0 and "checkpoint" in out
    recs = [json.loads(l) for l in open(stream)]
    assert len(recs) == 2 and set(recs[0]) == {"step", "l_action", "l_dyn4d",
                                               "l_dep4d", "l_total"}

    rep_path = str(tmp_path / "eval.json")
    code, out, _ = run(capsys, "eval", "--config", cfgp, "--ckpt", ck,
                       "--episodes", "2", "--out", rep_path)
    assert code == 0 and "success rate" in out
    rep = json.load(open(rep_path))
    assert rep["n_episodes"] == 2 and rep["format_version"] == 1

    gc_path = str(tmp_path / "gc.json")
    code, out, _ = run(capsys, "grad-check", "--config", cfgp, "--out", gc_path)
    assert code == 0 and "PASS" in out and "frozen zero-grad: True" in out
    gc = json.load(open(gc_path))
    assert gc["pass"] and gc["frozen_zero_grad"]


def test_eval_missing_checkpoint_is_io_error(tmp_path, capsys):
    cfgp = _micro_cfg_file(tmp_path)
    code, _, _ = run(capsys, "eval", "--config", cfgp,
                     "--ckpt", str(tmp_path / "missing.json"), "--episodes", "1")
    assert code == 2


def _edited_checkpoint(tmp_path, name, edit):
    """A saved micro checkpoint with `edit(blob)` applied; returns its path."""
    from sparsevla.model import VLAModel
    from sparsevla.trainer import save_checkpoint
    ck = str(tmp_path / f"{name}.json")
    save_checkpoint(ck, VLAModel(micro_config(), seed=0), step=0)
    blob = json.load(open(ck))
    json.dump(edit(blob), open(ck, "w"))
    return ck


@pytest.mark.parametrize("name,edit,message", [
    ("extra_key", lambda params: params.update({"extra/w": [0.0]}), "extra ['extra/w']"),
    ("missing_key", lambda params: params.pop("fuser/agg0"), "missing ['fuser/agg0']"),
    ("wrong_shape", lambda params: params.update({"fuser/agg0": [[0.0]]}),
     "fuser/agg0 has shape (1, 1)"),
])
def test_eval_rejects_mismatched_checkpoint(tmp_path, capsys, name, edit, message):
    def edit_params(blob):
        edit(blob["params"])
        return blob

    cfgp = _micro_cfg_file(tmp_path)
    ck = _edited_checkpoint(tmp_path, name, edit_params)
    code, _, err = run(capsys, "eval", "--config", cfgp, "--ckpt", ck, "--episodes", "1")
    assert code == 1 and "error" in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda blob: [], "checkpoint must be a JSON object, got list",
                 id="top_level_list"),
    pytest.param(lambda blob: {**blob, "params": 5}, "params must be a JSON object",
                 id="params_int"),
    pytest.param(lambda blob: {k: v for k, v in blob.items() if k != "step"},
                 "step must be an integer, got None", id="step_missing"),
    pytest.param(lambda blob: {**blob, "step": None}, "step must be an integer, got None",
                 id="step_null"),
    pytest.param(lambda blob: {**blob, "format_version": 3},
                 "unsupported checkpoint version 3", id="format_3"),
])
def test_eval_rejects_malformed_checkpoint(tmp_path, capsys, edit, message):
    cfgp = _micro_cfg_file(tmp_path)
    ck = _edited_checkpoint(tmp_path, "malformed", edit)
    code, _, err = run(capsys, "eval", "--config", cfgp, "--ckpt", ck, "--episodes", "1")
    assert code == 1 and err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_audit_budget_cli(tmp_path, capsys):
    out_path = str(tmp_path / "budget.json")
    code, out, _ = run(capsys, "audit-budget", "--preset", "paper-dims",
                       "--out", out_path)
    assert code == 0
    assert "1/8" in out and "1/12" in out
    rep = json.load(open(out_path))
    assert rep["ratios"]["obj_vs_dense"]["exact"] == "1/8"


def test_audit_flops_cli(tmp_path, capsys):
    out_path = str(tmp_path / "flops.json")
    code, out, _ = run(capsys, "audit-flops", "--preset", "paper-dims",
                       "--out", out_path)
    assert code == 0 and "ratio" in out
    rep = json.load(open(out_path))
    assert 0.15 <= rep["ratio"] <= 0.45


def test_audits_byte_identical(tmp_path, capsys):
    pairs = []
    for name in ("a.json", "b.json"):
        p = str(tmp_path / name)
        assert run(capsys, "audit-flops", "--preset", "toy", "--out", p)[0] == 0
        pairs.append(open(p, "rb").read())
    assert pairs[0] == pairs[1]


def test_mask_dump_sc(capsys):
    code, out, _ = run(capsys, "mask-dump", "--layout", "sc",
                       "--counts", "1,1,1,1,1,1,1,1,1,1")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 10 and all(len(r) == 10 for r in rows)
    assert rows[-1] == "1" * 10          # action row sees everything
    assert rows[4] == "0000100000"       # instruction sees only itself


def test_mask_dump_sc_wrong_counts(capsys):
    code, _, err = run(capsys, "mask-dump", "--layout", "sc", "--counts", "1,2,3")
    assert code == 1 and "10 counts" in err


def test_mask_dump_bc(capsys):
    code, out, _ = run(capsys, "mask-dump", "--layout", "bc", "--counts", "2,3,2")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 8
    assert rows[0] == "11111100"
    assert rows[6] == "11111111"


def test_mask_dump_bc_per_view(capsys):
    code, out, _ = run(capsys, "mask-dump", "--layout", "bc", "--counts", "1,3,1",
                       "--bc-layout", "per-view")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "1000"
    assert rows[2] == "1110"


def test_config_file_with_unknown_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"worlds": {}}))
    code, _, err = run(capsys, "audit-budget", "--config", str(bad))
    assert code == 1 and "unknown" in err


def test_config_file_with_removed_train_dtype(tmp_path, capsys):
    bad = tmp_path / "dtype.json"
    bad.write_text(json.dumps({"train": {"dtype": "float32"}}))
    code, _, err = run(capsys, "audit-budget", "--config", str(bad))
    assert code == 1 and "unknown" in err and "dtype" in err


@pytest.mark.parametrize("section,key", [
    ("encoders", "n_instructions"), ("world", "action_dim"),
    ("aligner", "n_heads"), ("aligner", "d_ff"), ("fuser", "n_heads"),
    ("fuser", "d_ff"), ("fuser", "schedule"), ("thinker", "decoder_heads"),
    ("thinker", "decoder_d_ff"), ("train", "log_every")])
def test_config_file_with_removed_derived_value(tmp_path, capsys, section, key):
    # instruction count is world.n_colors; the action width is world.ACTION_DIM;
    # d_v blocks take encoders.n_heads/d_ff and d_model blocks thinker's; alpha
    # has one (cosine) schedule; every training step is logged
    bad = tmp_path / f"{key}.json"
    bad.write_text(json.dumps({section: {key: 3}}))
    code, _, err = run(capsys, "audit-budget", "--config", str(bad))
    assert code == 1 and "unknown keys" in err and key in err


@pytest.mark.parametrize("payload,named", [
    ([], "JSON object"), ({"world": 5}, "[world]"),
    ({"encoders": {"d_v": "32"}}, "encoders.d_v"),
    ({"fuser": {"psi": True}}, "fuser.psi"), ({"n_views": 2.0}, "n_views"),
    ({"train": {"enable_dyn_loss": 1}}, "train.enable_dyn_loss")],
    ids=["top_level_list", "section_int", "str_for_int", "bool_for_float",
         "float_for_int", "int_for_bool"])
def test_config_file_with_wrong_json_type(tmp_path, capsys, payload, named):
    bad = tmp_path / "typed.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run(capsys, "audit-budget", "--config", str(bad))
    assert code == 1 and named in err


def test_config_file_int_fills_float_field(tmp_path):
    # an int is read as the float it stands for, so both spellings share a hash
    paths = [tmp_path / "int.json", tmp_path / "float.json"]
    for p, psi in zip(paths, (1, 1.0)):
        p.write_text(json.dumps({"fuser": {"psi": psi}}))
    a, b = (load_config(str(p)) for p in paths)
    assert type(a.fuser.psi) is float and a.config_hash() == b.config_hash()


@pytest.mark.parametrize("config,horizon,named", [
    pytest.param({"thinker": {"n_heads": 0}}, "8", "thinker.n_heads", id="thinker_heads_0"),
    pytest.param({"encoders": {"n_heads": 0}}, "8", "encoders.n_heads", id="encoder_heads_0"),
    pytest.param({"encoders": {"d_v": 0}}, "8", "encoders.d_v", id="d_v_0"),
    pytest.param({"world": {"patch_size": 0}}, "8", "world.patch_size", id="patch_size_0"),
    pytest.param({"world": {"chunk": 0}}, "8", "world.chunk", id="chunk_0"),
    pytest.param({"train": {"smooth_window": 0}}, "8", "train.smooth_window",
                 id="smooth_window_0"),
    pytest.param({}, "0", "horizon must be >= 1, got 0", id="horizon_0"),
    pytest.param({}, "-3", "horizon must be >= 1, got -3", id="horizon_negative"),
])
def test_bad_sizes_fail_cleanly_before_writing(tmp_path, capsys, config, horizon, named):
    cfgp = tmp_path / "sizes.json"
    cfgp.write_text(json.dumps(config))
    data, ck = tmp_path / "d.jsonl", tmp_path / "ck.json"
    code, _, err = run(capsys, "gen-data", "--config", str(cfgp), "--episodes", "1",
                       "--horizon", horizon, "--out", str(data))
    assert code == 1 and err.startswith("error:") and named in err
    assert "Traceback" not in err and not data.exists()
    if config:
        # the config is refused before the (missing) dataset is opened
        code, _, err = run(capsys, "train", "--config", str(cfgp), "--data", str(data),
                           "--steps", "1", "--out", str(ck))
        assert code == 1 and err.startswith("error:") and named in err
        assert not ck.exists()


@pytest.mark.parametrize("n_colors", [1, 7])
def test_gen_data_rejects_n_colors_outside_palette(tmp_path, capsys, n_colors):
    cfgp = tmp_path / "colors.json"
    cfgp.write_text(json.dumps({"world": {"n_colors": n_colors}}))
    out = tmp_path / "d.jsonl"
    code, _, err = run(capsys, "gen-data", "--config", str(cfgp), "--episodes", "1",
                       "--out", str(out))
    assert code == 1 and "n_colors" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("edit,message", [
    pytest.param({"world": {"n_colors": 6}},
                 "obj_channels has shape (3, 16, 7), config expects (3, 16, 5)",
                 id="n_colors_6"),
    pytest.param({"n_views": 2},
                 "views has shape (2, 16, 16, 3), config expects (3, 16, 16, 3)",
                 id="two_views"),
])
def test_train_rejects_dataset_that_does_not_match_config(tmp_path, capsys, edit, message):
    cfgp = tmp_path / "data_cfg.json"
    cfgp.write_text(json.dumps(edit))
    data, ck = str(tmp_path / "d.jsonl"), tmp_path / "ck.json"
    assert run(capsys, "gen-data", "--config", str(cfgp), "--episodes", "1",
               "--horizon", "8", "--out", data)[0] == 0
    code, _, err = run(capsys, "train", "--data", data, "--steps", "1", "--out", str(ck))
    assert code == 1 and message in err and "Traceback" not in err
    assert not ck.exists()


@pytest.mark.parametrize("line,message", [
    pytest.param('{"instruction_id": 0}', "line 3 has no key 'success'", id="missing_key"),
    pytest.param('[0, 1]', "line 3 is not a JSON object", id="list"),
    pytest.param('{"instruction_id": 0, "success": true, "actions": [], "obs": [5]}',
                 "line 3 is not a valid episode", id="observation_not_object"),
])
def test_train_rejects_malformed_dataset_line(tmp_path, capsys, line, message):
    data, ck = tmp_path / "d.jsonl", tmp_path / "ck.json"
    assert run(capsys, "gen-data", "--episodes", "1", "--horizon", "8",
               "--out", str(data))[0] == 0
    with open(data, "a") as fh:
        fh.write(line + "\n")
    code, _, err = run(capsys, "train", "--data", str(data), "--steps", "1", "--out", str(ck))
    assert code == 1 and message in err
    assert not ck.exists()


def test_config_file_with_audit_section(tmp_path, capsys):
    bad = tmp_path / "audit.json"
    bad.write_text(json.dumps({"audit": {"preset": "toy"}}))
    code, _, err = run(capsys, "audit-flops", "--config", str(bad))
    assert code == 1 and "unknown" in err and "audit" in err


@pytest.mark.parametrize("edit,seq", [
    pytest.param({"thinker": {"d_model": 64, "n_layers": 4}}, 39, id="thinker"),
    pytest.param({"aligner": {"k": 4}}, 45, id="k4"),
    pytest.param({"n_views": 2}, 33, id="two_views"),
])
def test_audits_follow_the_config(tmp_path, capsys, edit, seq):
    from sparsevla.audit import stack_macs
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(edit))
    flops, budget = str(tmp_path / "flops.json"), str(tmp_path / "budget.json")
    assert run(capsys, "audit-flops", "--config", str(cfgp), "--out", flops)[0] == 0
    assert run(capsys, "audit-budget", "--config", str(cfgp), "--out", budget)[0] == 0
    rep, bud = json.load(open(flops)), json.load(open(budget))
    th = {"d_model": 32, "d_ff": 64, "n_layers": 2, **edit.get("thinker", {})}
    assert rep["sequence"]["with_e3d"] == seq == bud["tokens"]["sequence_total"]
    assert rep["macs"]["with_e3d"] == stack_macs(seq, th["d_model"], th["d_ff"],
                                                 th["n_layers"]) != 833_664
    views = edit.get("n_views", 3)
    assert bud["tokens"]["obj_total"] == views * edit.get("aligner", {}).get("k", 2)
