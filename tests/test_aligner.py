import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevla.aligner import CVAligner, SingleFusion, es_select, score_tokens
from sparsevla.config import AlignerConfig, EncoderConfig
from sparsevla.tensor import ContractError, Tape, Tensor, backward, grad_of, parameter, tsum
from sparsevla.types import TokenSet

EC = EncoderConfig(d_v=4, d_t=3, n_heads=1, d_ff=8)


def _sem(arr):
    return TokenSet(Tensor(np.asarray(arr, dtype=float)), role="sem")


def test_score_tokens_aligned_and_orthogonal():
    toks = _sem([[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0]])
    t = Tensor(np.array([1.0]))
    w_t = Tensor(np.array([[1.0, 0.0]]))  # projected instruction = [1, 0]
    scores = score_tokens(toks, t, w_t)
    np.testing.assert_allclose(scores, [1.0, 0.0, -1.0], atol=1e-15)


def test_score_tokens_scale_invariant():
    rng = np.random.default_rng(0)
    toks = rng.normal(size=(5, 3))
    t, w_t = Tensor(rng.normal(size=(2,))), Tensor(rng.normal(size=(2, 3)))
    s1 = score_tokens(_sem(toks), t, w_t)
    s2 = score_tokens(_sem(10.0 * toks), t, w_t)
    np.testing.assert_allclose(s1, s2, atol=1e-12)
    assert (np.abs(s1) <= 1.0 + 1e-12).all()


def test_score_tokens_zero_norm_scores_zero_with_warning():
    toks = _sem([[0.0, 0.0], [1.0, 0.0]])
    t, w_t = Tensor(np.array([1.0])), Tensor(np.array([[1.0, 0.0]]))
    with pytest.warns(RuntimeWarning):
        scores = score_tokens(toks, t, w_t)
    assert scores[0] == 0.0 and scores[1] == 1.0


def test_score_tokens_rejects_wrong_role():
    bad = TokenSet(Tensor(np.ones((2, 2))), role="geo")
    with pytest.raises(ContractError, match="sem"):
        score_tokens(bad, Tensor(np.ones(1)), Tensor(np.ones((1, 2))))


def test_es_select_simple_topk():
    toks = _sem([[2.0, 0.0], [0.5, 0.0], [1.0, 1.0], [-1.0, 0.0]])
    t, w_t = Tensor(np.array([1.0])), Tensor(np.array([[1.0, 0.0]]))
    sel = es_select(toks, t, w_t, k=2)
    # cosines: 1.0, 1.0, 0.707.., -1.0 -> indices 0 and 1 (tie by index)
    np.testing.assert_array_equal(sel.indices, [0, 1])
    np.testing.assert_array_equal(sel.selected.tokens.data, [[2.0, 0.0], [0.5, 0.0]])


def test_es_select_tie_break_ascending_index():
    toks = _sem(np.ones((4, 2)))  # all identical scores
    t, w_t = Tensor(np.array([1.0])), Tensor(np.array([[1.0, 1.0]]))
    sel = es_select(toks, t, w_t, k=3)
    np.testing.assert_array_equal(sel.indices, [0, 1, 2])


def test_es_select_k_bounds():
    toks = _sem(np.ones((3, 2)))
    t, w_t = Tensor(np.array([1.0])), Tensor(np.array([[1.0, 0.0]]))
    for bad_k in (0, 4, -1):
        with pytest.raises(ContractError):
            es_select(toks, t, w_t, k=bad_k)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2 ** 30))
def test_es_select_matches_sort_oracle(n, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n + 1))
    toks = rng.normal(size=(n, 3))
    t, w_t = Tensor(rng.normal(size=(2,))), Tensor(rng.normal(size=(2, 3)))
    sel = es_select(_sem(toks), t, w_t, k)
    scores = score_tokens(_sem(toks), t, w_t)
    # oracle: sort (score desc, index asc), take first k
    oracle = sorted(range(n), key=lambda i: (-scores[i], i))[:k]
    np.testing.assert_array_equal(sel.indices, oracle)
    np.testing.assert_array_equal(sel.selected.tokens.data, toks[oracle])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 30), st.floats(0.1, 100.0))
def test_es_select_invariant_to_positive_score_rescaling(seed, scale):
    # scaling the projected instruction rescales scores positively,
    # so the selected index set must not change
    rng = np.random.default_rng(seed)
    toks = rng.normal(size=(6, 3))
    t = Tensor(rng.normal(size=(2,)))
    w = rng.normal(size=(2, 3))
    s1 = es_select(_sem(toks), t, Tensor(w), 3)
    s2 = es_select(_sem(toks), t, Tensor(scale * w), 3)
    np.testing.assert_array_equal(s1.indices, s2.indices)


def test_es_select_gradient_only_through_selected():
    toks = parameter(np.array([[3.0, 0.0], [0.1, 0.0], [1.0, 0.0]]))
    t, w_t = Tensor(np.array([1.0])), parameter(np.array([[1.0, 0.0]]))
    with Tape() as tape:
        sel = es_select(TokenSet(toks, role="sem"), t, w_t, k=2)
        loss = tsum(sel.selected.tokens)
    grads = backward(loss, tape)
    g = grad_of(grads, toks)
    # indices 0 and 2 selected (scores all 1.0? no: cosine of [0.1,0] is 1.0 too)
    # all three scores are 1.0, tie-break keeps 0 and 1
    np.testing.assert_array_equal(g, [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    # hard selection: the score projection receives no gradient at all
    np.testing.assert_array_equal(grad_of(grads, w_t), [[0.0, 0.0]])


def test_single_fusion_residual_identity_with_zero_value_path():
    rng = np.random.default_rng(2)
    fusion = SingleFusion(rng, AlignerConfig(n_layers=1),
                          EncoderConfig(d_v=4, n_heads=1, d_ff=8))
    layer = fusion.layers[0]
    layer.attn.wv.w.data[:] = 0.0
    layer.attn.wo.b.data[:] = 0.0
    layer.ffn.w2.w.data[:] = 0.0
    layer.ffn.w2.b.data[:] = 0.0
    q = rng.normal(size=(2, 4))
    kv = TokenSet(Tensor(rng.normal(size=(5, 4))), role="spatial3d")
    out = fusion(TokenSet(Tensor(q), role="sem"), kv)
    np.testing.assert_array_equal(out.tokens.data, q)
    assert out.role == "obj3d"


def test_cv_aligner_per_view_independence():
    # changing view L's spatial tokens must not change view M's output
    rng = np.random.default_rng(3)
    aligner = CVAligner(rng, AlignerConfig(k=2), EC)
    # views M, L stacked on axis 1 of [B=1, V=2, P=6, d=4]
    t = Tensor(rng.normal(size=(1, 3)))
    sem = TokenSet(Tensor(np.stack([rng.normal(size=(6, 4)) for _ in "ML"])[None]),
                   role="sem")
    sp_a = np.stack([rng.normal(size=(6, 4)) for _ in "ML"])[None]
    sp_b = sp_a.copy()
    sp_b[:, 1] = rng.normal(size=(6, 4))
    out_a, _ = aligner.align_views(sem, t, TokenSet(Tensor(sp_a), role="spatial3d"))
    out_b, _ = aligner.align_views(sem, t, TokenSet(Tensor(sp_b), role="spatial3d"))
    np.testing.assert_array_equal(out_a.tokens.data[:, 0], out_b.tokens.data[:, 0])
    assert not np.array_equal(out_a.tokens.data[:, 1], out_b.tokens.data[:, 1])


def test_cv_aligner_batched_selection_shapes():
    rng = np.random.default_rng(4)
    aligner = CVAligner(rng, AlignerConfig(k=2), EC)
    t = Tensor(rng.normal(size=(5, 3)))
    # one view: [B=5, V=1, P=6, d=4]
    sem = TokenSet(Tensor(rng.normal(size=(5, 6, 4))[:, None]), role="sem")
    sp = TokenSet(Tensor(rng.normal(size=(5, 6, 4))[:, None]), role="spatial3d")
    out, sels = aligner.align_views(sem, t, sp)
    assert out.tokens.shape == (5, 1, 2, 4)
    assert sels["M"].indices.shape == (5, 2)


def test_cv_aligner_matches_per_view_calls():
    # one call over [B, V, P, d] equals selection + fusion run view by view
    rng = np.random.default_rng(5)
    aligner = CVAligner(rng, AlignerConfig(k=2),
                        EncoderConfig(d_v=4, d_t=3, n_heads=2, d_ff=8))
    t = Tensor(rng.normal(size=(4, 3)))
    sem, sp = rng.normal(size=(2, 4, 3, 6, 4))
    out, sels = aligner.align_views(TokenSet(Tensor(sem), role="sem"), t,
                                    TokenSet(Tensor(sp), role="spatial3d"))
    assert list(sels) == ["M", "L", "R"]
    for v, name in enumerate(sels):
        sel = es_select(TokenSet(Tensor(sem[:, v]), role="sem"), t, aligner.w_t, 2)
        ref = aligner.fusion(sel.selected, TokenSet(Tensor(sp[:, v]), role="spatial3d"))
        np.testing.assert_array_equal(sels[name].indices, sel.indices)
        np.testing.assert_array_equal(out.tokens.data[:, v], ref.tokens.data)
