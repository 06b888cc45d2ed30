import numpy as np
import pytest

from sparsevla.blocks import Linear, MultiHeadAttention
from sparsevla.config import micro_config, toy_config
from sparsevla.model import VLAModel
from sparsevla.tensor import Tensor, layer_norm


@pytest.mark.parametrize("make_cfg", [toy_config, micro_config])
def test_no_norm_affine_no_value_bias_and_the_frozen_set(make_cfg):
    model = VLAModel(make_cfg(), seed=0)
    names = model.named_parameters()
    assert not [n for n in names if "/ln" in n or n.endswith("wv/b")]
    frozen = set(model.frozen_parameters())
    assert frozen == {n for n in names if n.startswith("spatial3d/")} | {"aligner/w_t"}


def test_value_bias_equals_output_shift_through_wo():
    # attention rows sum to one, so a value bias c leaves the block as c·W_o
    rng = np.random.default_rng(0)
    d, c = 8, rng.normal(size=8)
    attn = MultiHeadAttention(rng, d, n_heads=2)
    q, kv = Tensor(rng.normal(size=(3, 5, d))), Tensor(rng.normal(size=(3, 7, d)))
    mask = rng.random((5, 7)) < 0.6
    mask[:, 0] = True
    plain = attn(q, kv, mask=mask).data
    attn.wv.b = Tensor(c)
    biased = attn(q, kv, mask=mask).data
    np.testing.assert_allclose(biased, plain + c @ attn.wo.w.data, rtol=0, atol=1e-12)


def test_norm_affine_folds_into_the_next_linear_map():
    # LN(x)·g + b before Linear(W, c) is LN(x) before Linear(diag(g)·W, b·W + c)
    rng = np.random.default_rng(1)
    d_in, d_out = 6, 5
    g, b = rng.normal(size=d_in), rng.normal(size=d_in)
    lin = Linear(rng, d_in, d_out)
    lin.b.data = rng.normal(size=d_out)
    x = rng.normal(size=(4, d_in))
    with_affine = lin(layer_norm(Tensor(x)) * g + b).data
    folded = Linear(rng, d_in, d_out)
    folded.w.data = g[:, None] * lin.w.data
    folded.b.data = b @ lin.w.data + lin.b.data
    np.testing.assert_allclose(folded(layer_norm(Tensor(x))).data, with_affine,
                               rtol=0, atol=1e-12)
