import numpy as np
import pytest

from sparsevla.config import EncoderConfig, WorldConfig
from sparsevla.encoders import (GeometricEncoder, InstructionTable,
                                SemanticEncoder, Spatial3DEncoder, patchify)
from sparsevla.tensor import ConfigError, Tensor

EC = EncoderConfig(d_v=8, d_t=4, n_heads=2, n_layers_sem=2, n_layers_geo=2, d_ff=16)


def test_patchify_shape_and_order():
    img = np.zeros((8, 8, 3))
    img[0:4, 4:8, 0] = 1.0  # top-right patch, red channel
    p = patchify(img, 4)
    assert p.shape == (4, 48)
    assert p[1].sum() == 16.0 and p[0].sum() == 0.0


def test_patchify_batched():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 8, 8, 3))
    p = patchify(x, 4)
    assert p.shape == (2, 3, 4, 48)
    np.testing.assert_array_equal(p[1, 2], patchify(x[1, 2], 4))


def test_patchify_roundtrip_pixel_values():
    rng = np.random.default_rng(1)
    img = rng.normal(size=(8, 8, 3))
    p = patchify(img, 4)
    # first patch row-major over its own pixels
    np.testing.assert_array_equal(p[0], img[0:4, 0:4].reshape(-1))


# ---------------------------------------------------------------------------
# semantic encoder (instruction-modulated)


def _sem_encoder(seed=0):
    rng = np.random.default_rng(seed)
    return SemanticEncoder(rng, EC, patch_dim=48, n_patches=4)


def test_semantic_zero_init_film_is_identity_modulation():
    enc = _sem_encoder()
    rng = np.random.default_rng(2)
    patches = Tensor(rng.normal(size=(4, 48)))
    out_a = enc(patches, Tensor(rng.normal(size=(4,))))
    out_b = enc(patches, Tensor(rng.normal(size=(4,))))
    # FiLM maps start at zero, so the instruction has no effect at init
    np.testing.assert_array_equal(out_a.data, out_b.data)


def test_semantic_film_modulation_formula():
    enc = _sem_encoder()
    rng = np.random.default_rng(3)
    # one layer, hand-set FiLM weights
    enc2 = SemanticEncoder(np.random.default_rng(0),
                           EncoderConfig(d_v=8, d_t=4, n_heads=2, n_layers_sem=1,
                                         n_layers_geo=1, d_ff=16),
                           patch_dim=48, n_patches=4)
    g = rng.normal(size=(4, 8))
    b = rng.normal(size=(4, 8))
    enc2.film_g[0].w.data[:] = g
    enc2.film_b[0].w.data[:] = b
    patches = Tensor(rng.normal(size=(4, 48)))
    t = rng.normal(size=(4,))
    out = enc2(patches, Tensor(t))
    base = enc2(patches, Tensor(np.zeros(4)))
    gamma, beta = t @ g, t @ b
    # out = (1+gamma) * selfattn + beta and base = selfattn
    np.testing.assert_allclose(out.data, (1.0 + gamma) * base.data + beta,
                               rtol=1e-10, atol=1e-12)


def test_semantic_rejects_wrong_instruction_width():
    enc = _sem_encoder()
    with pytest.raises(ConfigError, match="d_t"):
        enc(Tensor(np.zeros((4, 48))), Tensor(np.zeros(5)))


def test_semantic_broadcasts_instruction_over_views():
    enc = _sem_encoder()
    rng = np.random.default_rng(4)
    enc.film_g[0].w.data[:] = rng.normal(size=(4, 8))
    patches = Tensor(rng.normal(size=(2, 3, 4, 48)))  # [B,V,P,pd]
    t = Tensor(rng.normal(size=(2, 4)))               # [B,d_t]
    out = enc(patches, t)
    assert out.shape == (2, 3, 4, 8)
    # per-element equality with a single-view call
    single = enc(Tensor(patches.data[1, 2]), Tensor(t.data[1]))
    np.testing.assert_allclose(out.data[1, 2], single.data, rtol=1e-12)


# ---------------------------------------------------------------------------
# geometric encoder


def test_geometric_layer0_is_linear_map():
    rng = np.random.default_rng(5)
    enc = GeometricEncoder(rng, EC, patch_dim=48, n_patches=4)
    a = rng.normal(size=(4, 48))
    b = rng.normal(size=(4, 48))
    za = enc(Tensor(a))[0].data
    zb = enc(Tensor(b))[0].data
    zsum = enc(Tensor(a + b))[0].data
    # bias-free layer 0: additivity and homogeneity hold exactly
    np.testing.assert_allclose(zsum, za + zb, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(enc(Tensor(2.0 * a))[0].data, 2.0 * za, rtol=1e-12)
    np.testing.assert_allclose(za, a @ enc.embed.w.data, rtol=1e-12)


def test_geometric_feature_count():
    rng = np.random.default_rng(6)
    enc = GeometricEncoder(rng, EC, patch_dim=48, n_patches=4)
    feats = enc(Tensor(rng.normal(size=(4, 48))))
    # z_0..z_{L'-1}: the fuser reads L' layers, so the stream runs L'-1
    assert len(feats) == EC.n_layers_geo
    assert len(enc.layers) == EC.n_layers_geo - 1
    assert all(f.shape == (4, 8) for f in feats)


# ---------------------------------------------------------------------------
# frozen spatial encoder


def _spatial(seed=7):
    wc = WorldConfig(image_size=8, patch_size=4)
    rng = np.random.default_rng(seed)
    return Spatial3DEncoder(rng, EC, wc, patch_dim=48), wc


def test_spatial_has_no_trainable_parameters():
    enc, _ = _spatial()
    assert enc.trainable_parameters() == {}
    assert len(enc.named_parameters()) > 0


def test_spatial_output_shapes():
    enc, wc = _spatial()
    rng = np.random.default_rng(8)
    b, v, p = 2, 3, wc.n_patches
    feats, final = enc(Tensor(rng.normal(size=(b, v, p, 48))),
                       Tensor(rng.normal(size=(b, v, p))),
                       Tensor(rng.normal(size=(b, v, p, 5))))
    assert len(feats) == EC.n_layers_geo + 1
    assert all(f.shape == (b, v * p, 8) for f in feats)
    assert final.shape == (b, v, p, 8)


def test_spatial_view_permutation_equivariance():
    # swapping two views permutes the per-view outputs identically
    enc, wc = _spatial()
    rng = np.random.default_rng(9)
    b, v, p = 1, 3, wc.n_patches
    patches = rng.normal(size=(b, v, p, 48))
    depth = rng.normal(size=(b, v, p))
    obj = rng.normal(size=(b, v, p, 5))
    _, final = enc(Tensor(patches), Tensor(depth), Tensor(obj))
    perm = [1, 0, 2]
    _, final_p = enc(Tensor(patches[:, perm]), Tensor(depth[:, perm]),
                     Tensor(obj[:, perm]))
    np.testing.assert_allclose(final_p.data, final.data[:, perm], rtol=1e-10,
                               atol=1e-12)


def test_spatial_depends_on_depth():
    enc, wc = _spatial()
    rng = np.random.default_rng(10)
    b, v, p = 1, 3, wc.n_patches
    patches = rng.normal(size=(b, v, p, 48))
    obj = rng.normal(size=(b, v, p, 5))
    _, f1 = enc(Tensor(patches), Tensor(np.zeros((b, v, p))), Tensor(obj))
    _, f2 = enc(Tensor(patches), Tensor(np.ones((b, v, p))), Tensor(obj))
    assert not np.array_equal(f1.data, f2.data)


# ---------------------------------------------------------------------------
# instruction table


def test_instruction_table_lookup():
    rng = np.random.default_rng(11)
    table = InstructionTable(rng, 4, 6)
    out = table(np.array([2, 0, 2]))
    assert out.shape == (3, 6)
    np.testing.assert_array_equal(out.data[0], table.table.data[2])
    np.testing.assert_array_equal(out.data[0], out.data[2])
