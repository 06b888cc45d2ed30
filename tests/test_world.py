import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevla.config import WorldConfig, toy_config
from sparsevla.tensor import ContractError
from sparsevla.world import (COLORS, GRIPPER_COLOR, VIEW_AFFINES, Scene,
                             SceneObject, expert_action, generate_dataset,
                             episode_samples, is_success, load_dataset,
                             object_channels, observe, oracle_dyn_targets,
                             patch_reduce, render_view, run_expert_episode,
                             sample_scene, step_scene, target_patch_mask)

WC = WorldConfig()


def _scene(gripper=(0.5, 0.5), target=(0.8, 0.8), color=0):
    return Scene(np.array(gripper, dtype=float),
                 [SceneObject(np.array(target, dtype=float), color, WC.object_half)], 0)


# ---------------------------------------------------------------------------
# expert controller and dynamics


def test_expert_action_proportional_region():
    s = _scene(gripper=(0.5, 0.5), target=(0.55, 0.48))
    np.testing.assert_allclose(expert_action(s, WC), [0.1, -0.04], rtol=1e-12)


def test_expert_action_saturates():
    s = _scene(gripper=(0.1, 0.9), target=(0.9, 0.1))
    np.testing.assert_array_equal(expert_action(s, WC), [1.0, -1.0])


def test_expert_action_zero_at_target():
    s = _scene(gripper=(0.4, 0.4), target=(0.4, 0.4))
    np.testing.assert_array_equal(expert_action(s, WC), [0.0, 0.0])


def test_step_scene_euler_update():
    s = _scene(gripper=(0.5, 0.5))
    nxt = step_scene(s, np.array([1.0, -0.5]), WC)
    np.testing.assert_allclose(nxt.gripper, [0.5 + 0.07, 0.5 - 0.035], rtol=1e-12)
    # original scene is untouched
    np.testing.assert_array_equal(s.gripper, [0.5, 0.5])


def test_step_scene_clips_action_and_position():
    s = _scene(gripper=(0.99, 0.0))
    nxt = step_scene(s, np.array([5.0, -5.0]), WC)
    np.testing.assert_allclose(nxt.gripper, [1.0, 0.0])


def test_success_boundary():
    s = _scene(gripper=(0.0, 0.5), target=(WC.capture_radius, 0.5))
    assert is_success(s, WC)
    s2 = _scene(gripper=(0.0, 0.5), target=(WC.capture_radius + 1e-9, 0.5))
    assert not is_success(s2, WC)


def test_expert_reaches_target_within_horizon():
    rng = np.random.default_rng(0)
    for _ in range(20):
        scene, _ = sample_scene(rng, WC)
        s = scene
        ok = False
        for _t in range(WC.horizon):
            s = step_scene(s, expert_action(s, WC), WC)
            if is_success(s, WC):
                ok = True
                break
        assert ok


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_sampled_scene_invariants(seed):
    rng = np.random.default_rng(seed)
    scene, instr = sample_scene(rng, WC)
    assert instr == scene.target.color
    colors = [o.color for o in scene.objects]
    assert len(set(colors)) >= 1 and all(0 <= c < WC.n_colors for c in colors)
    assert all(c != scene.target.color for c in colors[1:])
    assert np.linalg.norm(scene.gripper - scene.target.pos) > 3 * WC.capture_radius


# ---------------------------------------------------------------------------
# rendering and patch features


def test_view_affines_are_involutions_or_inverses():
    for a_mat, b in VIEW_AFFINES:
        # every view map composed with itself is the identity
        p = np.array([0.3, 0.7])
        q = a_mat @ (a_mat @ p + b) + b
        np.testing.assert_allclose(q, p, atol=1e-12)


def test_render_view_m_places_target_pixel():
    s = _scene(gripper=(0.1, 0.1), target=(0.53125, 0.53125))  # pixel center 8
    img, depth, ids = render_view(s, 0, WC)
    assert (img[8, 8] == COLORS[0]).all()
    assert ids[8, 8] == 0
    assert depth[8, 8] == 2.0 - 0.5


def test_render_gripper_drawn_last():
    # gripper over the target: gripper wins
    s = _scene(gripper=(0.53125, 0.53125), target=(0.53125, 0.53125))
    img, depth, ids = render_view(s, 0, WC)
    assert (img[8, 8] == GRIPPER_COLOR).all()
    assert ids[8, 8] == WC.n_colors
    assert depth[8, 8] == 2.0 - 0.8


def test_render_left_view_mirrors_x():
    s = _scene(gripper=(0.1, 0.9), target=(0.53125, 0.53125))
    img_m, _, _ = render_view(s, 0, WC)
    img_l, _, _ = render_view(s, 1, WC)
    np.testing.assert_array_equal(img_l, img_m[:, ::-1])


def test_render_right_view_swaps_axes():
    s = _scene(gripper=(0.1, 0.9), target=(0.53125, 0.28125))
    img_m, _, _ = render_view(s, 0, WC)
    img_r, _, _ = render_view(s, 2, WC)
    np.testing.assert_array_equal(img_r, img_m.transpose(1, 0, 2))


def test_patch_reduce_constant_and_checkerboard():
    grid = np.full((8, 8), 3.0)
    np.testing.assert_array_equal(patch_reduce(grid, 4), [3.0, 3.0, 3.0, 3.0])
    cb = np.indices((8, 8)).sum(axis=0) % 2
    np.testing.assert_array_equal(patch_reduce(cb.astype(float), 4), [0.5] * 4)


def test_patch_reduce_order_is_patch_row_major():
    grid = np.zeros((8, 8))
    grid[0:4, 4:8] = 1.0  # top-right patch
    np.testing.assert_array_equal(patch_reduce(grid, 4), [0.0, 1.0, 0.0, 0.0])


def test_object_channels_footprint_coverage():
    s = _scene(gripper=(0.1, 0.1), target=(0.53125, 0.53125))
    ch = object_channels(s, 0, WC)
    assert ch.shape == (WC.n_patches, WC.n_colors + 1)
    assert (ch >= 0.0).all() and (ch <= 1.0).all()
    # total covered pixels in the target channel match the square footprint
    px = (np.arange(WC.image_size) + 0.5) / WC.image_size
    per_axis = np.sum(np.abs(px - 0.53125) <= WC.object_half)
    covered = ch[:, 0].sum() * WC.patch_size ** 2
    np.testing.assert_allclose(covered, per_axis ** 2)
    # colors absent from the scene stay empty
    assert (ch[:, 1:WC.n_colors] == 0.0).all()


def test_object_channels_match_per_colour_loop():
    # reference: per colour, the max over that colour's objects of each square's coverage
    rng = np.random.default_rng(9)
    px = (np.arange(WC.image_size) + 0.5) / WC.image_size
    xx, yy = np.meshgrid(px, px, indexing="xy")

    def cover(center, half, v):
        A, b = VIEW_AFFINES[v]
        c = A @ center + b
        return ((np.abs(xx - c[0]) <= half) & (np.abs(yy - c[1]) <= half)).astype(float)

    shared = 0
    for _ in range(20):
        scene, _ = sample_scene(rng, WC)
        colors = [o.color for o in scene.objects]
        shared += len(set(colors)) < len(colors)
        for v in range(3):
            want = []
            for color in range(WC.n_colors):
                cov = np.zeros((WC.image_size, WC.image_size))
                for o in scene.objects:
                    if o.color == color:
                        cov = np.maximum(cov, cover(o.pos, o.half, v))
                want.append(patch_reduce(cov, WC.patch_size))
            want.append(patch_reduce(cover(scene.gripper, WC.gripper_half, v), WC.patch_size))
            np.testing.assert_array_equal(object_channels(scene, v, WC),
                                          np.stack(want, axis=-1))
    assert shared > 0  # some scenes repeat a distractor colour


def test_object_channels_ignore_gripper_occlusion():
    far = _scene(gripper=(0.1, 0.1), target=(0.53125, 0.53125))
    over = _scene(gripper=(0.53125, 0.53125), target=(0.53125, 0.53125))
    for v in range(3):
        np.testing.assert_array_equal(object_channels(far, v, WC)[:, 0],
                                      object_channels(over, v, WC)[:, 0])


def test_target_patch_mask_matches_rendered_ids():
    rng = np.random.default_rng(5)
    for _ in range(10):
        scene, _ = sample_scene(rng, WC)
        for v in range(3):
            mask = target_patch_mask(scene, v, WC)
            _img, _d, ids = render_view(scene, v, WC)
            # every patch where the target is the top entity must be masked
            top = patch_reduce((ids == scene.target.color).astype(float), WC.patch_size) > 0
            assert (mask | ~top).all()


def test_observe_shapes():
    rng = np.random.default_rng(1)
    scene, _ = sample_scene(rng, WC)
    obs = observe(scene, WC)
    assert obs["views"].shape == (3, 16, 16, 3)
    assert obs["depth_patch"].shape == (3, 16)
    assert obs["obj_channels"].shape == (3, 16, WC.n_colors + 1)
    assert obs["target_mask_m"].shape == (16,) and obs["target_mask_m"].dtype == bool


# ---------------------------------------------------------------------------
# episodes and dataset files


def test_episode_layout():
    rng = np.random.default_rng(2)
    ep = run_expert_episode(rng, WC)
    n_chunks = -(-WC.horizon // WC.chunk)
    assert ep["actions"].shape == (n_chunks * WC.chunk, 2)
    assert len(ep["obs"]) == n_chunks + 1
    assert ep["success"]
    samples = list(episode_samples(ep, WC.chunk))
    assert len(samples) == n_chunks
    obs0, acts0, nxt0, instr = samples[0]
    assert obs0 is ep["obs"][0] and nxt0 is ep["obs"][1]
    np.testing.assert_array_equal(acts0, ep["actions"][:WC.chunk])
    assert instr == ep["instruction_id"]


def test_dataset_roundtrip(tmp_path):
    path = str(tmp_path / "d.jsonl")
    generate_dataset(path, seed=3, n_episodes=2, horizon=8, cfg=WC, config_hash="abc")
    header, eps = load_dataset(path)
    assert header == {"format_version": 1, "seed": 3, "config_hash": "abc"}
    assert len(eps) == 2
    assert eps[0]["actions"].shape == (8, 2)
    assert eps[0]["obs"][0]["target_mask_m"].dtype == bool


def test_dataset_deterministic_bytes(tmp_path):
    p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    generate_dataset(p1, seed=7, n_episodes=3, horizon=8, cfg=WC)
    generate_dataset(p2, seed=7, n_episodes=3, horizon=8, cfg=WC)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_dataset_rejects_empty():
    with pytest.raises(ContractError):
        generate_dataset("/tmp/never.jsonl", seed=0, n_episodes=0, horizon=8, cfg=WC)


def test_dataset_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"format_version": 99}) + "\n")
    with pytest.raises(ContractError, match="format"):
        load_dataset(str(path))


def test_dataset_rejects_header_that_is_not_an_object(tmp_path):
    path = tmp_path / "list.jsonl"
    path.write_text("[]\n")
    with pytest.raises(ContractError, match="format"):
        load_dataset(str(path))


# ---------------------------------------------------------------------------
# dynamic-object supervision oracle


def test_oracle_dyn_targets_hand_case():
    feats = np.arange(2 * 4 * 3, dtype=float).reshape(2, 4, 3)
    sel = np.array([[1, 3], [0, 0]])
    cur = np.array([[False, True, False, True], [True, False, False, False]])
    nxt = np.array([[False, True, False, False], [True, False, False, False]])
    tgt, mask = oracle_dyn_targets({"target_mask_m": cur}, {"target_mask_m": nxt},
                                   sel, feats)
    np.testing.assert_array_equal(tgt[0], feats[0][[1, 3]])
    np.testing.assert_array_equal(tgt[1], feats[1][[0, 0]])
    # patch 3 left the target footprint, so its mask entry drops out
    np.testing.assert_array_equal(mask, [[1.0, 0.0], [1.0, 1.0]])
