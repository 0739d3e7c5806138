"""Numerics core: forward oracles, gradient checks, and error paths."""

import gc
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from mtat.attention import AttentionConfig, MediatorConfig, MultiHeadParams, mediator_attention
from mtat.errors import DimensionError, NumericError, UsageError
from mtat.tensor import (
    MacCounter,
    Tensor,
    adaptive_avg_pool2d,
    add,
    attend,
    backward,
    depthwise_conv3x3,
    embedding_row,
    finite_diff_grad,
    gelu,
    layer_norm,
    matmul,
    mean_all,
    mul,
    no_grad,
    reshape,
    scale,
    softmax_rows,
    sub,
    sum_all,
    transpose,
    _POOL_CAP,
    _POOL_MAX,
    _POOL_MIN,
    _check_finite,
    _empty,
    _row_dot,
)


def gradcheck(f, x_data, tol=1e-5, eps=1e-6):
    """Compare the recorded gradient of scalar f against central differences."""
    x = Tensor(np.array(x_data, dtype=np.float64), requires_grad=True)
    backward(f(x))
    numeric = finite_diff_grad(f, Tensor(np.array(x_data, dtype=np.float64)), eps=eps)
    err = np.max(np.abs(x.grad - numeric.data)) / max(1.0, np.max(np.abs(numeric.data)))
    assert err <= tol, f"gradient mismatch: relative error {err}"


def weighted_loss(op, weights):
    # A non-uniform seed; an all-ones seed would hide transposition bugs.
    w = Tensor(weights)

    def f(x):
        return sum_all(mul(op(x), w))

    return f


# ---------------------------------------------------------------------------
# tensor construction


def test_tensor_is_float64_and_contiguous():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.shape == (2, 2)
    assert t.size == 4


# 3 full 64K-element check slices and a partial fourth of 5 entries.
_SLICED = 3 * 2**16 + 5


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", ["first", "second_slice", "partial_slice_end", "strided"])
def test_tensor_rejects_non_finite(value, where):
    with pytest.raises(NumericError, match="^tensor construction produced non-finite values$"):
        Tensor([1.0, value])
    if where == "strided":
        grid = np.ones((4, 2 * 2**16))
        grid[-1, -2] = value
        data = grid[:, ::2]
        assert not data.flags.c_contiguous
    else:
        data = np.ones(_SLICED)
        data[{"first": 0, "second_slice": 2**16, "partial_slice_end": _SLICED - 1}[where]] = value
    with pytest.raises(NumericError, match="^probe produced non-finite values$"):
        _check_finite(data, "probe")
    with pytest.raises(NumericError, match="^tensor construction produced non-finite values$"):
        Tensor(data)


def test_finite_check_builds_no_full_size_mask():
    data = np.ones((4, 1024, 1024))
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        _check_finite(data, "probe")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 128 * 1024


def test_ops_reject_non_finite_results():
    big = Tensor([[1e308, 1e308]])
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        add(big, big)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    out = matmul(eye, eye)
    assert np.array_equal(out.data, np.eye(2))


def test_matmul_hand_case():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
    assert np.array_equal(out.data, [[17.0], [39.0]])


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m, k, p = rng.integers(1, 33, size=3)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, p))
        want = np.zeros((m, p))
        for i in range(m):
            for j in range(p):
                acc = 0.0
                for s in range(k):
                    acc += a[i, s] * b[s, j]
                want[i, j] = acc
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.max(np.abs(got - want)) <= 1e-12


def test_matmul_counter_and_shape_error():
    counter = MacCounter()
    matmul(Tensor(np.ones((7, 5))), Tensor(np.ones((5, 3))), counter=counter, label="x")
    assert counter.get("x") == 7 * 5 * 3
    assert counter.counts == {"x": 7 * 5 * 3}
    with pytest.raises(DimensionError) as err:
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform_row():
    out = softmax_rows(Tensor([[0.0, 0.0, 0.0, 0.0]]))
    assert np.max(np.abs(out.data - 0.25)) <= 1e-15


def test_softmax_saturated_row():
    out = softmax_rows(Tensor([[1000.0, 0.0]]))
    assert abs(out.data[0, 0] - 1.0) <= 1e-12
    assert abs(out.data[0, 1]) <= 1e-12


def test_softmax_log_integers():
    out = softmax_rows(Tensor([[math.log(1), math.log(2), math.log(3)]]))
    assert np.max(np.abs(out.data - [[1 / 6, 2 / 6, 3 / 6]])) <= 1e-15


def test_softmax_rows_sum_to_one_with_huge_spread():
    rng = np.random.default_rng(11)
    for _ in range(50):
        rows, cols = rng.integers(1, 9, size=2)
        x = rng.standard_normal((rows, cols)) * rng.choice([1.0, 50.0, 400.0])
        x[0, 0] += 700.0  # force a spread of at least 700 nats somewhere
        sums = softmax_rows(Tensor(x)).data.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# pooling


def test_pool_constant_field():
    out = adaptive_avg_pool2d(Tensor(np.full((4, 4, 1), 7.0)), (2, 2))
    assert np.array_equal(out.data, np.full((2, 2, 1), 7.0))


def test_pool_identity():
    x = np.arange(12.0).reshape(3, 4, 1)
    out = adaptive_avg_pool2d(Tensor(x), (3, 4))
    assert np.array_equal(out.data, x)


def test_pool_hand_case():
    x = np.arange(16.0).reshape(4, 4, 1)
    out = adaptive_avg_pool2d(Tensor(x), (2, 2))
    assert np.array_equal(out.data[:, :, 0], [[2.5, 4.5], [10.5, 12.5]])


def test_pool_preserves_mean_when_divisible():
    rng = np.random.default_rng(3)
    for _ in range(20):
        h_out, w_out = rng.integers(1, 5, size=2)
        x = rng.standard_normal((int(h_out) * 3, int(w_out) * 2, 2))
        out = adaptive_avg_pool2d(Tensor(x), (h_out, w_out))
        for c in range(2):
            assert abs(out.data[:, :, c].mean() - x[:, :, c].mean()) <= 1e-12


def test_pool_target_exceeding_source_is_an_error():
    with pytest.raises(DimensionError):
        adaptive_avg_pool2d(Tensor(np.zeros((2, 2, 1))), (3, 2))


def loop_pool(image, out_h, out_w):
    """Bin-by-bin Python reference: bin i of an axis of length S averages
    [floor(i S / b), ceil((i + 1) S / b))."""
    height, width, depth = image.shape
    out = np.empty((out_h, out_w, depth))
    for i in range(out_h):
        r0, r1 = math.floor(i * height / out_h), math.ceil((i + 1) * height / out_h)
        for j in range(out_w):
            c0, c1 = math.floor(j * width / out_w), math.ceil((j + 1) * width / out_w)
            out[i, j] = image[r0:r1, c0:c1].mean(axis=(0, 1))
    return out


@pytest.mark.parametrize("shape, target", [((7, 5, 3), (3, 2)), ((8, 8, 2), (3, 3))])
def test_pool_matches_bin_loop_on_non_dividing_grids(shape, target):
    rng = np.random.default_rng(31)
    image = rng.standard_normal(shape)
    want = loop_pool(image, *target)
    # float64 rounding of a sum of at most 16 terms: 1e-12 is ample.
    assert np.max(np.abs(adaptive_avg_pool2d(Tensor(image), target).data - want)) <= 1e-12
    stack = rng.standard_normal((4,) + shape)
    got = adaptive_avg_pool2d(Tensor(stack), target).data
    assert got.shape == (4,) + target + shape[-1:]
    for b in range(4):
        assert np.max(np.abs(got[b] - loop_pool(stack[b], *target))) <= 1e-12


def test_pool_meters_one_accumulate_per_input_cell():
    height, width, depth, batch = 7, 5, 3, 4
    counter = MacCounter()
    adaptive_avg_pool2d(Tensor(np.ones((batch, height, width, depth))), (3, 2), counter)
    assert counter.get("pooling") == batch * height * width * depth
    # not the separable matmuls' multiply count
    assert counter.get("pooling") != batch * depth * (3 * height * width + 3 * 2 * width)


# ---------------------------------------------------------------------------
# depthwise conv


def test_dwconv_delta_kernel_is_identity():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((5, 4, 3))
    kernels = np.zeros((3, 3, 3))
    kernels[1, 1, :] = 1.0
    out = depthwise_conv3x3(Tensor(x), Tensor(kernels))
    assert np.array_equal(out.data, x)


def test_dwconv_ones_kernel_counts_neighbourhood():
    out = depthwise_conv3x3(Tensor(np.ones((3, 3, 1))), Tensor(np.ones((3, 3, 1))))
    grid = out.data[:, :, 0]
    assert grid[1, 1] == 9.0
    for corner in [(0, 0), (0, 2), (2, 0), (2, 2)]:
        assert grid[corner] == 4.0
    for edge in [(0, 1), (1, 0), (1, 2), (2, 1)]:
        assert grid[edge] == 6.0


def test_dwconv_channels_are_independent():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 4, 2))
    k1 = rng.standard_normal((3, 3, 2))
    k2 = k1.copy()
    k2[:, :, 1] = rng.standard_normal((3, 3))
    a = depthwise_conv3x3(Tensor(x), Tensor(k1)).data
    b = depthwise_conv3x3(Tensor(x), Tensor(k2)).data
    assert np.array_equal(a[:, :, 0], b[:, :, 0])


def test_dwconv_kernel_shape_error():
    with pytest.raises(DimensionError):
        depthwise_conv3x3(Tensor(np.zeros((4, 4, 2))), Tensor(np.zeros((3, 3, 3))))


# ---------------------------------------------------------------------------
# backward plumbing


def test_backward_of_sum_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    leaves = backward(sum_all(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))
    assert leaves[x] is x.grad


def test_backward_of_softmax_row_sums_is_zero():
    x = Tensor(np.random.default_rng(0).standard_normal((3, 4)), requires_grad=True)
    backward(sum_all(softmax_rows(x)))
    assert np.max(np.abs(x.grad)) <= 1e-12


def test_backward_accumulates_over_reuse():
    x = Tensor([[2.0]], requires_grad=True)
    backward(sum_all(mul(x, x)))
    assert x.grad[0, 0] == 4.0


def test_backward_requires_a_recorded_output():
    with pytest.raises(UsageError):
        backward(Tensor([1.0], requires_grad=True))


def test_backward_seed_shape_mismatch():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    out = add(x, x)
    with pytest.raises(DimensionError):
        backward(out, seed=Tensor(np.ones((3, 2))))


def test_no_grad_suppresses_recording():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        out = add(x, x)
    with pytest.raises(UsageError):
        backward(out)


def test_grad_is_overwritten_not_accumulated_across_calls():
    x = Tensor([[1.0]], requires_grad=True)
    backward(sum_all(scale(x, 3.0)))
    backward(sum_all(scale(x, 3.0)))
    assert x.grad[0, 0] == 3.0


# ---------------------------------------------------------------------------
# finite differences


def test_finite_diff_square():
    grad = finite_diff_grad(lambda t: sum_all(mul(t, t)), Tensor([3.0]))
    assert abs(grad.data[0] - 6.0) <= 1e-6


def test_finite_diff_linear_map():
    a = np.random.default_rng(2).standard_normal((3, 4))
    grad = finite_diff_grad(
        lambda t: sum_all(matmul(Tensor(a), t)), Tensor(np.zeros((4, 2)))
    )
    want = np.repeat(a.sum(axis=0)[:, None], 2, axis=1)
    assert np.max(np.abs(grad.data - want)) <= 1e-8


def test_finite_diff_constant():
    grad = finite_diff_grad(lambda t: Tensor(np.asarray(5.0)), Tensor([1.0, 2.0]))
    assert np.max(np.abs(grad.data)) <= 1e-9


# ---------------------------------------------------------------------------
# gradient checks for every differentiable op


def test_grad_elementwise_and_shape_ops():
    rng = np.random.default_rng(21)
    x = rng.uniform(-2.0, 2.0, size=(3, 4))
    other = Tensor(rng.uniform(-2.0, 2.0, size=(3, 4)))
    row = Tensor(rng.uniform(-2.0, 2.0, size=4))
    w34 = rng.uniform(-2.0, 2.0, size=(3, 4))
    w43 = rng.uniform(-2.0, 2.0, size=(4, 3))

    gradcheck(weighted_loss(lambda t: add(t, other), w34), x)
    gradcheck(weighted_loss(lambda t: add(t, row), w34), x)
    gradcheck(weighted_loss(lambda t: sub(other, t), w34), x)
    gradcheck(weighted_loss(lambda t: mul(t, other), w34), x)
    gradcheck(weighted_loss(lambda t: scale(t, -1.7), w34), x)
    gradcheck(weighted_loss(lambda t: reshape(t, (4, 3)), w43), x)
    gradcheck(weighted_loss(lambda t: transpose(t), w43), x)
    gradcheck(lambda t: sum_all(t), x)
    gradcheck(lambda t: mean_all(t), x)
    gradcheck(weighted_loss(lambda t: embedding_row(t, 2), w34[0]), x)


def test_grad_matmul_both_sides():
    rng = np.random.default_rng(22)
    x = rng.uniform(-2.0, 2.0, size=(3, 5))
    b = Tensor(rng.uniform(-2.0, 2.0, size=(5, 2)))
    a = Tensor(rng.uniform(-2.0, 2.0, size=(2, 3)))
    w32 = rng.uniform(-2.0, 2.0, size=(3, 2))
    w25 = rng.uniform(-2.0, 2.0, size=(2, 5))
    gradcheck(weighted_loss(lambda t: matmul(t, b), w32), x)
    gradcheck(weighted_loss(lambda t: matmul(a, t), w25), x)


def test_grad_nonlinearities():
    rng = np.random.default_rng(23)
    x = rng.uniform(-2.0, 2.0, size=(4, 6))
    w = rng.uniform(-2.0, 2.0, size=(4, 6))
    gradcheck(weighted_loss(softmax_rows, w), x)
    gradcheck(weighted_loss(gelu, w), x)

    gain = Tensor(rng.uniform(0.5, 1.5, size=6))
    bias = Tensor(rng.uniform(-0.5, 0.5, size=6))
    gradcheck(weighted_loss(lambda t: layer_norm(t, gain, bias), w), x)
    # and through the affine parameters themselves
    fixed = Tensor(x)
    gradcheck(weighted_loss(lambda g: layer_norm(fixed, g, bias), w), gain.data)
    gradcheck(weighted_loss(lambda b: layer_norm(fixed, gain, b), w), bias.data)


def test_grad_spatial_ops():
    rng = np.random.default_rng(24)
    x = rng.uniform(-2.0, 2.0, size=(5, 4, 2))
    w_pool = rng.uniform(-2.0, 2.0, size=(2, 2, 2))
    gradcheck(weighted_loss(lambda t: adaptive_avg_pool2d(t, (2, 2)), w_pool), x)

    kernels = Tensor(rng.uniform(-1.0, 1.0, size=(3, 3, 2)))
    w_conv = rng.uniform(-2.0, 2.0, size=(5, 4, 2))
    gradcheck(weighted_loss(lambda t: depthwise_conv3x3(t, kernels), w_conv), x)
    fixed = Tensor(x)
    w_k = rng.uniform(-2.0, 2.0, size=(5, 4, 2))
    gradcheck(
        weighted_loss(lambda k: depthwise_conv3x3(fixed, k), w_k),
        rng.uniform(-1.0, 1.0, size=(3, 3, 2)),
    )


def test_grad_batched_ops():
    rng = np.random.default_rng(26)
    x = rng.uniform(-2.0, 2.0, size=(2, 3, 4))
    w = rng.uniform(-2.0, 2.0, size=(2, 3, 4))
    right = Tensor(rng.uniform(-2.0, 2.0, size=(4, 5)))
    stacked = Tensor(rng.uniform(-2.0, 2.0, size=(2, 4, 3)))
    per_sample = Tensor(rng.uniform(-2.0, 2.0, size=(2, 1, 4)))
    gradcheck(weighted_loss(lambda t: matmul(t, right), rng.uniform(-2.0, 2.0, (2, 3, 5))), x)
    gradcheck(weighted_loss(lambda t: matmul(t, stacked), rng.uniform(-2.0, 2.0, (2, 3, 3))), x)
    gradcheck(weighted_loss(lambda t: matmul(stacked, t), rng.uniform(-2.0, 2.0, (2, 4, 4))), x)
    gradcheck(weighted_loss(lambda t: add(t, per_sample), w), x)
    gradcheck(
        weighted_loss(lambda t: add(Tensor(x), t), w), rng.uniform(-2.0, 2.0, size=(2, 1, 4))
    )
    gradcheck(weighted_loss(lambda t: transpose(t), np.swapaxes(w, 1, 2)), x)
    gradcheck(weighted_loss(lambda t: transpose(t, (1, 2, 0)), w.transpose(1, 2, 0)), x)
    gradcheck(weighted_loss(softmax_rows, w), x)
    gain = Tensor(rng.uniform(0.5, 1.5, size=4))
    bias = Tensor(rng.uniform(-0.5, 0.5, size=4))
    gradcheck(weighted_loss(lambda t: layer_norm(t, gain, bias), w), x)
    fixed = Tensor(x)
    gradcheck(weighted_loss(lambda g: layer_norm(fixed, g, bias), w), gain.data)
    # rows 2 and 0 picked twice: their gradients add up
    index = np.array([[2, 0], [2, 0], [1, 3]])
    w_rows = rng.uniform(-2.0, 2.0, size=(3, 2, 4))
    gradcheck(weighted_loss(lambda t: embedding_row(t, index), w_rows), rng.uniform(-2.0, 2.0, (4, 4)))


def test_grad_batched_spatial_ops():
    rng = np.random.default_rng(27)
    x = rng.uniform(-2.0, 2.0, size=(2, 7, 5, 2))
    gradcheck(
        weighted_loss(lambda t: adaptive_avg_pool2d(t, (3, 2)), rng.uniform(-2.0, 2.0, (2, 3, 2, 2))),
        x,
    )
    kernels = Tensor(rng.uniform(-1.0, 1.0, size=(3, 3, 2)))
    w_conv = rng.uniform(-2.0, 2.0, size=x.shape)
    gradcheck(weighted_loss(lambda t: depthwise_conv3x3(t, kernels), w_conv), x)
    fixed = Tensor(x)
    gradcheck(
        weighted_loss(lambda k: depthwise_conv3x3(fixed, k), w_conv),
        rng.uniform(-1.0, 1.0, size=(3, 3, 2)),
    )


def test_batched_ops_equal_their_per_sample_results():
    rng = np.random.default_rng(28)
    x = rng.standard_normal((3, 6, 5, 4))
    kernels = Tensor(rng.standard_normal((3, 3, 4)))
    right = Tensor(rng.standard_normal((4, 2)))
    for op in (
        lambda t: depthwise_conv3x3(t, kernels),
        lambda t: adaptive_avg_pool2d(t, (4, 3)),
        lambda t: matmul(t, right),
        softmax_rows,
        gelu,
    ):
        batched = op(Tensor(x)).data
        for b in range(3):
            assert np.max(np.abs(batched[b] - op(Tensor(x[b])).data)) <= 1e-12


def test_batched_shape_errors():
    with pytest.raises(DimensionError):
        matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))
    with pytest.raises(DimensionError):
        add(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 1, 4))))
    with pytest.raises(DimensionError):
        add(Tensor(np.ones((1, 3, 4))), Tensor(np.ones((2, 3, 4))))
    with pytest.raises(DimensionError):
        transpose(Tensor(np.ones((2, 3, 4))), (0, 0, 1))
    with pytest.raises(DimensionError):
        embedding_row(Tensor(np.ones((3, 2))), np.array([0, 3]))
    with pytest.raises(DimensionError):
        embedding_row(Tensor(np.ones((3, 2))), np.array([0.0, 1.0]))


def test_grad_composite_chain():
    rng = np.random.default_rng(25)
    x = rng.uniform(-2.0, 2.0, size=(4, 4))
    b = Tensor(rng.uniform(-2.0, 2.0, size=(4, 4)))
    gain = Tensor(np.ones(4))
    bias = Tensor(np.zeros(4))

    def f(t):
        h = layer_norm(gelu(matmul(softmax_rows(t), b)), gain, bias)
        return mean_all(mul(h, h))

    gradcheck(f, x)


def test_layer_norm_matches_the_mean_formula():
    # Means run as GEMVs; the reference takes numpy means over the last axis.
    rng = np.random.default_rng(29)
    for shape in ((8, 64, 16), (3, 5, 7)):
        x = rng.standard_normal(shape) * 3.0 + 1.0
        g = rng.standard_normal(shape)
        gain, bias = rng.uniform(0.5, 1.5, shape[-1]), rng.uniform(-0.5, 0.5, shape[-1])
        centred = x - x.mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt((centred * centred).mean(axis=-1, keepdims=True) + 1e-5)
        norm = centred * inv_std
        g_norm = g * gain
        want_gx = inv_std * (
            g_norm
            - g_norm.mean(axis=-1, keepdims=True)
            - norm * (g_norm * norm).mean(axis=-1, keepdims=True)
        )
        xt = Tensor(x, requires_grad=True)
        out = layer_norm(xt, Tensor(gain), Tensor(bias))
        backward(out, seed=g)
        want = norm * gain + bias
        assert np.max(np.abs(out.data - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(xt.grad - want_gx)) <= 1e-12 * np.max(np.abs(want_gx))


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_row_sums_do_not_depend_on_how_many_matrices_are_stacked(rows):
    # A batched forward stacks samples; each sample's row sums must keep
    # the bits of its own call, whatever the stack height.
    rng = np.random.default_rng(31 + rows)
    stack = rng.standard_normal((9, 2, rows, 16))
    alone = np.stack([_row_dot(matrix, 0.25) for matrix in stack.reshape(18, rows, 16)])
    for height in range(1, 10):
        got = _row_dot(stack[:height], 0.25)
        assert got.shape == (height, 2, rows, 1)
        assert np.array_equal(got.reshape(-1, rows, 1), alone[: 2 * height])


# ---------------------------------------------------------------------------
# attend


def unfused_attention(q, k, v, factor):
    return matmul(softmax_rows(scale(matmul(q, transpose(k)), factor)), v)


def test_attend_equals_the_unfused_chain():
    rng = np.random.default_rng(30)
    for lead in ((), (2, 3)):
        arrays = [rng.standard_normal(lead + shape) for shape in ((5, 4), (6, 4), (6, 3))]
        w = rng.standard_normal(lead + (5, 3))
        results = []
        for fused in (True, False):
            q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
            out, attn = attend(q, k, v, 0.7) if fused else (unfused_attention(q, k, v, 0.7), None)
            backward(sum_all(mul(out, Tensor(w))))
            results.append((out.data, attn, q.grad, k.grad, v.grad))
        fused, unfused = results
        q, k = Tensor(arrays[0]), Tensor(arrays[1])
        want_attn = softmax_rows(scale(matmul(q, transpose(k)), 0.7))
        assert fused[1].shape == lead + (5, 6)
        assert np.max(np.abs(fused[1].data - want_attn.data)) <= 1e-12
        for got, want in zip(fused[:1] + fused[2:], unfused[:1] + unfused[2:]):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12


def test_attend_map_is_read_only_and_record_less():
    rng = np.random.default_rng(31)
    q, k, v = (Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True) for _ in range(3))
    out, attn = attend(q, k, v, 0.5)
    assert out._record is not None
    assert attn._record is None and not attn.requires_grad
    with pytest.raises(ValueError):
        attn.data[0, 0, 0] = 1.0
    assert np.max(np.abs(attn.data.sum(axis=-1) - 1.0)) <= 1e-12


def test_attend_shifts_every_row_by_its_max():
    # One key per row scores 800 above the rest; without the row max
    # shift exp would overflow. Widths cover both row-max paths.
    for width in (1, 3, 16, 17, 40):
        for hot in sorted({0, width // 2, width - 1}):
            keys = np.zeros((2, width, 1))
            keys[0, hot, 0], keys[1, hot, 0] = 800.0, -800.0
            out, attn = attend(Tensor(np.ones((2, 3, 1))), Tensor(keys), Tensor(keys), 1.0)
            want = np.zeros(width)
            want[hot] = 1.0
            assert np.array_equal(attn.data[0], np.tile(want, (3, 1)))
            assert np.max(np.abs(attn.data[1].sum(axis=-1) - 1.0)) <= 1e-12
            assert np.array_equal(out.data[0], np.full((3, 1), 800.0))


def test_grad_attend():
    rng = np.random.default_rng(32)
    q, k, v = (rng.uniform(-2.0, 2.0, size=(2, 3, n, 2)) for n in (4, 5, 5))
    w = rng.uniform(-2.0, 2.0, size=(2, 3, 4, 2))
    fixed_q, fixed_k, fixed_v = Tensor(q), Tensor(k), Tensor(v)
    square_v = Tensor(v[:, :, :4])
    gradcheck(weighted_loss(lambda t: attend(t, fixed_k, fixed_v, 0.8)[0], w), q)
    gradcheck(weighted_loss(lambda t: attend(fixed_q, t, fixed_v, 0.8)[0], w), k)
    gradcheck(weighted_loss(lambda t: attend(fixed_q, fixed_k, t, 0.8)[0], w), v)
    # One tensor as queries and keys gets both gradients.
    gradcheck(weighted_loss(lambda t: attend(t, t, square_v, 0.8)[0], w), q)


def test_attend_skips_gradients_of_constant_parents():
    rng = np.random.default_rng(33)
    q = Tensor(rng.standard_normal((3, 4, 2)), requires_grad=True)
    k, v = Tensor(rng.standard_normal((3, 5, 2))), Tensor(rng.standard_normal((3, 5, 2)))
    out, _ = attend(q, k, v, 1.0)
    assert out._record.vjp(np.ones(out.shape))[1:] == (None, None)
    leaves = backward(sum_all(out))
    assert list(leaves) == [q]
    assert k.grad is None and v.grad is None


def test_attend_meters_the_two_products():
    rng = np.random.default_rng(34)
    q, k, v = (Tensor(rng.standard_normal((2, 3, n, d))) for n, d in ((5, 4), (6, 4), (6, 7)))
    fused, chain = MacCounter(), MacCounter()
    attend(q, k, v, 0.5, fused, "interaction")
    scores = matmul(q, transpose(k), chain, "interaction")
    matmul(softmax_rows(scores), v, chain, "interaction")
    assert fused.counts == chain.counts == {"interaction": 2 * 3 * 5 * 6 * (4 + 7)}


def split_heads_first(x, heads):
    """(..., N, H*d) to (..., H, N, d) by a taped reshape and transpose."""
    *lead, tokens, width = x.shape
    axes = (*range(len(lead)), len(lead) + 1, len(lead), len(lead) + 2)
    return transpose(reshape(x, (*lead, tokens, heads, width // heads)), axes)


def merge_heads_first(x):
    """(..., H, N, d) back to (..., N, H*d), the inverse of split_heads_first."""
    *lead, heads, tokens, dim = x.shape
    axes = (*range(len(lead)), len(lead) + 1, len(lead), len(lead) + 2)
    return reshape(transpose(x, axes), (*lead, tokens, heads * dim))


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["no-batch", "batch"])
@pytest.mark.parametrize("m, n", [(5, 9), (9, 5), (7, 7)], ids=["m<n", "m>n", "m=n"])
def test_attend_heads_equal_the_split_path_bit_for_bit(heads, lead, m, n):
    rng = np.random.default_rng(35)
    arrays = [rng.standard_normal(lead + (rows, heads * dim)) for rows, dim in ((m, 3), (n, 3), (n, 2))]
    seed = rng.standard_normal(lead + (m, heads * 2))
    results = []
    for split in (False, True):
        q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
        counter = MacCounter()
        if split:
            out, attn = attend(*(split_heads_first(x, heads) for x in (q, k, v)), 0.6, counter)
            out = merge_heads_first(out)
        else:
            out, attn = attend(q, k, v, 0.6, counter, heads=heads)
        backward(out, seed=seed)
        results.append((out.data, attn.data, q.grad, k.grad, v.grad, counter.counts))
    fused, split = results
    assert fused[1].shape == lead + ((heads,) if heads > 1 else ()) + (m, n)
    assert np.array_equal(fused[1], split[1].reshape(fused[1].shape))
    for got, want in zip(fused[:1] + fused[2:5], split[:1] + split[2:5]):
        assert got.shape == want.shape and np.array_equal(got, want)
    assert fused[5] == split[5] == {"attend": math.prod(lead) * heads * m * n * (3 + 2)}


def test_attend_rejects_heads_that_do_not_divide_the_widths():
    q, k = Tensor(np.ones((4, 6))), Tensor(np.ones((5, 6)))
    with pytest.raises(DimensionError):
        attend(q, k, Tensor(np.ones((5, 6))), 1.0, heads=4)
    with pytest.raises(DimensionError):
        attend(q, k, Tensor(np.ones((5, 3))), 1.0, heads=2)
    with pytest.raises(DimensionError):
        attend(q, k, Tensor(np.ones((5, 6))), 1.0, heads=0)


def test_attend_rejects_non_finite_results_and_bad_shapes():
    huge = Tensor(np.full((2, 3), 1e200))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
        attend(huge, huge, Tensor(np.ones((2, 3))), 1.0)
    with pytest.raises(DimensionError):
        attend(Tensor(np.ones((4, 3))), Tensor(np.ones((5, 2))), Tensor(np.ones((5, 2))), 1.0)
    with pytest.raises(DimensionError):
        attend(Tensor(np.ones((4, 3))), Tensor(np.ones((5, 3))), Tensor(np.ones((6, 2))), 1.0)
    k, v = Tensor(np.ones((3, 5, 3))), Tensor(np.ones((3, 5, 2)))
    with pytest.raises(DimensionError):
        attend(Tensor(np.ones((2, 4, 3))), k, v, 1.0)


# ---------------------------------------------------------------------------
# output block pool


def mediated_n1024():
    """One N=1024, 4-head, 16-mediator layer and its inputs: every output
    and both stage maps fall in the pooled sizes."""
    cfg = AttentionConfig.square(1024, 64, 4)
    rng = np.random.default_rng(0)
    z = Tensor(rng.standard_normal((1024, 64)))
    params = MultiHeadParams.random(rng, 64, requires_grad=False)
    kernels = Tensor(rng.normal(0.0, 0.2, (3, 3, 64)))
    return lambda: mediator_attention(z, params, cfg, MediatorConfig(4, 4), kernels)


def result_arrays(result):
    out, maps = result
    return [out.data, maps.query_to_mediator, maps.mediator_to_key]


def test_held_outputs_keep_their_memory_across_calls():
    layer = mediated_n1024()
    with no_grad():
        held = result_arrays(layer())
        held.append(held[0][::3, 5:])  # a view outlives its parent's name
        saved = [a.copy() for a in held]
        fresh = result_arrays(layer())
    for a, want in zip(held, saved):
        assert np.array_equal(a, want)
        assert not any(np.shares_memory(a, b) for b in fresh)
    assert all(np.array_equal(a, b) for a, b in zip(fresh, saved))


def test_dropped_outputs_give_their_blocks_to_the_next_call():
    layer = mediated_n1024()
    pointers = lambda arrays: [a.__array_interface__["data"][0] for a in arrays]
    with no_grad():
        layer()
        gc.collect()  # no cycle from an earlier test frees a block mid-call
        first = pointers(result_arrays(layer()))
        assert pointers(result_arrays(layer())) == first


@pytest.mark.parametrize("nbytes, pooled", [
    (_POOL_MIN - 8, False), (_POOL_MIN, True), (_POOL_MAX - 8, True), (_POOL_MAX, False),
])
def test_only_mid_size_outputs_come_from_the_pool(nbytes, pooled):
    with no_grad():
        block = _empty((nbytes // 8,)).base
    assert (block is not None) == pooled
    if pooled:
        assert block.ndim == 1 and block.nbytes == nbytes
    assert _empty((nbytes // 8,)).base is None  # a recording tape's outputs are plain


def test_pooled_bytes_never_pass_the_cap():
    import mtat.tensor as T

    held = []
    for i, kib in enumerate(range(256, 4096, 96)):
        with no_grad():
            held.append(_empty((kib * 128,)))  # live, so every size needs its own block
        if i % 3:
            held.pop(0)
        with T._pool_lock:
            assert T._pool_bytes == sum(sum(b.nbytes for b in blocks) for blocks in T._pool.values())
            assert T._pool_bytes <= _POOL_CAP


def test_threads_sharing_the_pool_match_a_serial_run():
    rng = np.random.default_rng(7)
    inputs = [
        [Tensor(rng.standard_normal(shape)) for shape in ((1024, 64), (64, 64), (64, 64))]
        for _ in range(4)
    ]

    def run(q, k, v):
        out, attn = attend(q, k, v, 0.25, heads=4)
        return out.data.copy(), attn.data.copy()

    with no_grad():
        serial = [run(*qkv) for qkv in inputs]
    mismatches, done = [], []

    def worker(i):
        with no_grad():
            for _ in range(25):
                got = run(*inputs[i])
                if not all(np.array_equal(a, b) for a, b in zip(got, serial[i])):
                    mismatches.append(i)
        done.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [0, 1, 2, 3] and mismatches == []
