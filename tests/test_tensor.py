import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevla.tensor import (ContractError, Tape, Tensor, absolute, backward,
                              concat, gather_rows, grad_check, grad_of,
                              layer_norm, masked_softmax, matmul, narrow,
                              parameter, tmean, tsum)


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(matmul(eye, m).data, m.data)


def test_matmul_projector_row():
    p = Tensor([[1.0, 0.0], [0.0, 0.0]])
    v = Tensor([[5.0], [7.0]])
    np.testing.assert_array_equal(matmul(p, v).data, [[5.0], [0.0]])


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    want = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                want[i, j] += a[i, k] * b[k, j]
    np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data, want, rtol=1e-13)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ContractError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_masked_softmax_uniform():
    out = masked_softmax(Tensor([[0.0, 0.0, 0.0]]), np.ones((1, 3), bool))
    np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)


def test_masked_softmax_symmetric_with_masked_middle():
    out = masked_softmax(Tensor([[5.0, 5.0, 5.0]]),
                         np.array([[True, False, True]]))
    np.testing.assert_array_equal(out.data[0, 1], 0.0)
    np.testing.assert_allclose(out.data, [[0.5, 0.0, 0.5]], atol=1e-15)


def test_masked_softmax_matches_restricted_softmax():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(2, 4))
    mask = np.array([[True, False, True, False], [True, True, False, True]])
    out = masked_softmax(Tensor(logits), mask).data
    for r in range(2):
        sub = logits[r][mask[r]]
        ref = np.exp(sub - sub.max())
        ref /= ref.sum()
        np.testing.assert_allclose(out[r][mask[r]], ref, rtol=1e-13)
        assert (out[r][~mask[r]] == 0.0).all()


def test_masked_softmax_fully_masked_row_raises():
    with pytest.raises(ContractError, match="fully masked"):
        masked_softmax(Tensor([[1.0, 2.0]]), np.zeros((1, 2), bool))
    # an [n, k] mask is checked as given, before it meets [B, h, n, k] logits
    mask = np.ones((3, 4), bool)
    mask[1] = False
    with pytest.raises(ContractError, match="fully masked"):
        masked_softmax(Tensor(np.zeros((2, 2, 3, 4))), mask)


@pytest.mark.parametrize("mask_shape", [(3, 5), (2, 3, 4), (2, 2, 2, 3, 4)])
def test_masked_softmax_rejects_mask_that_does_not_broadcast(mask_shape):
    with pytest.raises(ValueError, match="broadcast"):
        masked_softmax(Tensor(np.zeros((2, 1, 3, 4))), np.ones(mask_shape, bool))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(2, 8), st.integers(0, 2 ** 30))
def test_masked_softmax_rows_sum_to_one(rows, cols, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=5.0, size=(rows, cols))
    mask = rng.random((rows, cols)) < 0.6
    mask[np.arange(rows), rng.integers(cols, size=rows)] = True
    out = masked_softmax(Tensor(logits), mask).data
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
    assert (out[~mask] == 0.0).all()
    # no mask is the plain softmax, bit for bit an all-True mask's
    np.testing.assert_array_equal(masked_softmax(Tensor(logits)).data,
                                  masked_softmax(Tensor(logits), np.ones_like(mask)).data)


def test_layer_norm_constant_row_is_zero():
    out = layer_norm(Tensor([[3.0, 3.0, 3.0]]))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_already_normalized():
    out = layer_norm(Tensor([[-1.0, 1.0]]), eps=0.0)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-12)


def test_layer_norm_statistics():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 32))
    out = layer_norm(Tensor(x), eps=1e-12).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-9)


def test_backward_sum_gives_ones():
    x = parameter([1.0, 2.0, 3.0])
    with Tape() as tape:
        loss = tsum(x)
    grads = backward(loss, tape)
    np.testing.assert_array_equal(grad_of(grads, x), [1.0, 1.0, 1.0])


def test_backward_zero_multiplier_gives_zeros():
    x = parameter([1.0, 2.0])
    with Tape() as tape:
        loss = tsum(x * 0.0)
    grads = backward(loss, tape)
    np.testing.assert_array_equal(grad_of(grads, x), [0.0, 0.0])


def test_backward_rejects_nonscalar_loss():
    x = parameter([1.0, 2.0])
    with Tape() as tape:
        y = x * 2.0
    with pytest.raises(ContractError, match="scalar"):
        backward(y, tape)


def test_backward_softmax_matmul_matches_finite_differences():
    rng = np.random.default_rng(5)
    w = parameter(rng.normal(size=(3, 4)))
    x = Tensor(rng.normal(size=(2, 3)))

    def f():
        return tsum(masked_softmax(matmul(x, w), np.ones((2, 4), bool)) * Tensor(rng_fixed))

    rng_fixed = np.random.default_rng(9).normal(size=(2, 4))
    report = grad_check(f, {"w": w}, step=1e-5, tol=1e-4)
    assert report["pass"], report


def test_backward_unreached_tensor_gets_zero():
    x = parameter([1.0, 2.0])
    y = parameter([3.0])
    with Tape() as tape:
        loss = tsum(x)
    grads = backward(loss, tape)
    np.testing.assert_array_equal(grad_of(grads, y), [0.0])


def test_backward_deterministic():
    rng = np.random.default_rng(21)
    w = parameter(rng.normal(size=(4, 4)))
    x = Tensor(rng.normal(size=(4, 4)))

    def run():
        with Tape() as tape:
            loss = tsum(masked_softmax(matmul(x, w), np.ones((4, 4), bool)))
        return grad_of(backward(loss, tape), w)

    g1, g2 = run(), run()
    assert (g1 == g2).all()


def test_grad_check_quadratic():
    x = parameter([1.0, 2.0])

    def f():
        return tsum(x * x)

    report = grad_check(f, {"x": x}, tol=1e-4)
    assert report["pass"]
    assert report["params"]["x"] < 1e-6
    # analytic gradient is [2, 4]
    with Tape() as tape:
        loss = f()
    grads = backward(loss, tape)
    np.testing.assert_allclose(grad_of(grads, x), [2.0, 4.0], rtol=1e-12)


def test_grad_check_constant_function():
    x = parameter([1.0, 2.0])

    def f():
        return Tensor(np.float64(5.0)) + tsum(x * 0.0)

    report = grad_check(f, {"x": x})
    assert report["pass"]
    assert report["params"]["x"] == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 30))
def test_primitive_gradients_match_fd(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = parameter(rng.normal(size=(rows, cols)))
    c = np.sign(rng.normal(size=(rows, cols))) + 2.0  # keep |x| away from 0

    def f():
        h = layer_norm(x + Tensor(c))
        h = masked_softmax(h, np.ones((rows, cols), bool))
        return tmean(absolute(h + x))

    report = grad_check(f, {"x": x}, tol=1e-4)
    assert report["pass"], report


def test_gather_rows_forward_and_backward():
    x = parameter(np.arange(12.0).reshape(4, 3))
    idx = np.array([2, 0, 2])
    with Tape() as tape:
        g = gather_rows(x, idx)
        loss = tsum(g)
    np.testing.assert_array_equal(g.data, x.data[[2, 0, 2]])
    grads = backward(loss, tape)
    want = np.zeros((4, 3))
    want[2] = 2.0  # selected twice
    want[0] = 1.0
    np.testing.assert_array_equal(grad_of(grads, x), want)


@pytest.mark.parametrize("x_shape,indices", [
    ((2, 3, 5, 4), [[0, 4], [3, 1], [2, 2]]),
    ((2, 3, 5, 4), [[1, 1], [0, 0], [4, 4]]),
    # a table lookup, as InstructionTable does it: 2-D table, 1-D ids
    ((5, 4), [3, 0, 3, 1, 4, 4, 2, 0, 3, 1, 1, 4, 0, 2, 3, 3])],
    ids=["unique", "duplicate", "table_lookup"])
def test_gather_rows_batched_backward_matches_per_row_loop(x_shape, indices):
    rng = np.random.default_rng(7)
    x = parameter(rng.normal(size=x_shape))
    idx = np.broadcast_to(np.array(indices), (*x_shape[:-2], np.shape(indices)[-1]))
    up = rng.normal(size=(*idx.shape, x_shape[-1]))
    with Tape() as tape:
        out = gather_rows(x, idx)
        loss = tsum(out * Tensor(up))
    want_out, want = np.zeros_like(up), np.zeros_like(x.data)
    for pos in np.ndindex(idx.shape):
        row = (*pos[:-1], idx[pos])
        want_out[pos] = x.data[row]
        want[row] += up[pos]
    np.testing.assert_array_equal(out.data, want_out)
    np.testing.assert_array_equal(grad_of(backward(loss, tape), x), want)


def test_concat_narrow_roundtrip_grads():
    a = parameter(np.ones((2, 3)))
    b = parameter(np.full((2, 2), 2.0))
    with Tape() as tape:
        c = concat([a, b], axis=-1)
        loss = tsum(narrow(c, -1, 3, 2))
    grads = backward(loss, tape)
    np.testing.assert_array_equal(grad_of(grads, a), np.zeros((2, 3)))
    np.testing.assert_array_equal(grad_of(grads, b), np.ones((2, 2)))
