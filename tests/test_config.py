import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from sparsevla import world
from sparsevla.config import FullConfig, config_from_dict, toy_config
from sparsevla.model import VLAModel

# a valid alternative to the toy value of every model-config value
ALTERNATIVES = {
    "n_views": 2,
    "world.image_size": 20, "world.patch_size": 8, "world.n_colors": 3, "world.chunk": 4,
    "encoders.d_v": 16, "encoders.d_t": 8, "encoders.n_heads": 2,
    "encoders.n_layers_sem": 1, "encoders.n_layers_geo": 3, "encoders.d_ff": 32,
    "aligner.k": 3, "aligner.n_layers": 2,
    "fuser.n_agg": 4, "fuser.psi": 0.3, "fuser.delta": 0.1,
    "thinker.d_model": 16, "thinker.n_layers": 1, "thinker.n_heads": 2,
    "thinker.d_ff": 32, "thinker.n_dyn_per_view": 2, "thinker.n_dep": 2,
    "thinker.n_instr_tokens": 2, "thinker.decoder_layers": 1,
}

# fuser.layout changes no model output (COFuser.run forms agg-row queries
# only, and they see every key under either layout); it stays in the config
# because the benchmark's agg-only replica (perfbench/workloads.py) reads it
MODEL_VALUES = ["n_views", "world.image_size", "world.patch_size", "world.n_colors",
                "world.chunk"] + [
    f"{section}.{f.name}"
    for section in ("encoders", "aligner", "fuser", "thinker")
    for f in dataclasses.fields(getattr(FullConfig(), section))
    if f"{section}.{f.name}" != "fuser.layout"]


def _shapes(model: VLAModel) -> dict:
    return {k: p.data.shape for k, p in model.named_parameters().items()}


def _outputs(model: VLAModel, batch: dict) -> list[bytes]:
    out = model.forward(batch, run_aux=True)
    return [out[k].data.tobytes() for k in ("action", "dyn_pred", "dep_pred")]


@pytest.fixture(scope="module")
def toy_batch():
    cfg = toy_config()
    rng = np.random.default_rng(0)
    scenes = [world.sample_scene(rng, cfg.world) for _ in range(2)]
    obs = [world.observe(s, cfg.world, n_views=3) for s, _ in scenes]
    batch = {k: np.stack([o[k] for o in obs])
             for k in ("views", "depth_patch", "obj_channels")}
    batch["instruction_id"] = np.array([instr for _, instr in scenes])
    return batch


@pytest.mark.parametrize("name", MODEL_VALUES)
def test_every_model_config_value_changes_the_network(name, toy_batch):
    *section, key = name.split(".")
    edit = {section[0]: {key: ALTERNATIVES[name]}} if section else {key: ALTERNATIVES[name]}
    toy, model = VLAModel(toy_config(), seed=0), VLAModel(config_from_dict(edit), seed=0)
    if _shapes(model) == _shapes(toy):
        # the listed world values all change shapes, so the toy batch fits
        assert _outputs(model, toy_batch) != _outputs(toy, toy_batch)


def test_readme_lists_every_settable_value():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `([\w.]+)` \[", section, flags=re.M)
    settable = []
    for key, value in FullConfig().to_dict().items():
        settable += [f"{key}.{name}" for name in value] if isinstance(value, dict) else [key]
    assert sorted(listed) == sorted(settable)
    counted = re.search(r"There are (\d+) settable values", section)
    assert counted and int(counted.group(1)) == len(settable)
