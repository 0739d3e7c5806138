"""Attention layers against dense numpy references, plus MAC accounting."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mtat.attention import (
    AttentionConfig,
    AttentionMaps,
    FlopsReport,
    MediatorConfig,
    MultiHeadParams,
    attention_flops,
    composed_attention_map,
    make_mediators,
    mediator_attention,
    mediator_attention_head,
    mediator_flops,
    multi_head_attention,
    project_qkv,
    vanilla_attention_head,
)
from mtat.errors import ConfigError, DimensionError, NumericError, UsageError
from mtat.tensor import (
    MacCounter,
    Tensor,
    backward,
    finite_diff_grad,
    mean_all,
    mul,
    no_grad,
    sum_all,
)


def np_softmax_rows(x):
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def np_multi_head(z, params, cfg):
    """Monolithic dense reference: no shared code with the library path."""
    q = z @ params.w_query.data
    k = z @ params.w_key.data
    v = z @ params.w_value.data
    d = cfg.head_dim
    pieces = []
    for m in range(cfg.heads):
        sl = slice(m * d, (m + 1) * d)
        attn = np_softmax_rows(q[:, sl] @ k[:, sl].T / math.sqrt(d))
        pieces.append(attn @ v[:, sl])
    return np.concatenate(pieces, axis=1) @ params.w_out.data


def np_pool(image, out_h, out_w):
    h, w = image.shape[0], image.shape[1]
    out = np.zeros((out_h, out_w) + image.shape[2:])
    for i in range(out_h):
        for j in range(out_w):
            r0, r1 = i * h // out_h, -((i + 1) * h // -out_h)
            c0, c1 = j * w // out_w, -((j + 1) * w // -out_w)
            out[i, j] = image[r0:r1, c0:c1].mean(axis=(0, 1))
    return out


def np_mediator(z, params, cfg, mcfg, dw_kernels=None):
    q = z @ params.w_query.data
    k = z @ params.w_key.data
    v = z @ params.w_value.data
    pooled = np_pool(q.reshape(cfg.grid_h, cfg.grid_w, cfg.channels), mcfg.grid_h, mcfg.grid_w)
    t = pooled.reshape(mcfg.count, cfg.channels)
    d = cfg.head_dim
    pieces = []
    for m in range(cfg.heads):
        sl = slice(m * d, (m + 1) * d)
        a_tk = np_softmax_rows(t[:, sl] @ k[:, sl].T / math.sqrt(d))
        a_qt = np_softmax_rows(q[:, sl] @ t[:, sl].T / math.sqrt(d))
        pieces.append(a_qt @ (a_tk @ v[:, sl]))
    merged = np.concatenate(pieces, axis=1)
    if dw_kernels is not None:
        image = v.reshape(cfg.grid_h, cfg.grid_w, cfg.channels)
        padded = np.pad(image, ((1, 1), (1, 1), (0, 0)))
        local = np.zeros_like(image)
        for a in range(3):
            for b in range(3):
                local += (
                    padded[a : a + cfg.grid_h, b : b + cfg.grid_w] * dw_kernels[a, b]
                )
        merged = merged + local.reshape(cfg.n_tokens, cfg.channels)
    return merged @ params.w_out.data


def random_setup(rng, cfg, std=None):
    z = Tensor(rng.standard_normal((cfg.n_tokens, cfg.channels)))
    params = MultiHeadParams.random(rng, cfg.channels, std=std, requires_grad=False)
    return z, params


# ---------------------------------------------------------------------------
# configs


def test_attention_config_validation():
    cfg = AttentionConfig(n_tokens=12, channels=8, heads=2, grid_h=3, grid_w=4)
    assert cfg.head_dim == 4
    with pytest.raises(ConfigError):
        AttentionConfig(n_tokens=12, channels=8, heads=3, grid_h=3, grid_w=4)
    with pytest.raises(ConfigError):
        AttentionConfig(n_tokens=12, channels=8, heads=2, grid_h=3, grid_w=5)
    square = AttentionConfig.square(16, 8, 2)
    assert (square.grid_h, square.grid_w) == (4, 4)


def test_mediator_config_from_count():
    cfg = AttentionConfig.square(16, 8, 2)
    assert MediatorConfig.from_count(4, cfg) == MediatorConfig(2, 2)
    assert MediatorConfig.from_count(16, cfg) == MediatorConfig(4, 4)

    tall = AttentionConfig(n_tokens=16, channels=8, heads=2, grid_h=8, grid_w=2)
    assert MediatorConfig.from_count(4, tall) == MediatorConfig(4, 1)

    # aspect tie on a square grid: prefer the wide split
    assert MediatorConfig.from_count(2, cfg) == MediatorConfig(1, 2)

    with pytest.raises(ConfigError):
        MediatorConfig.from_count(5, cfg)  # no divisor pair fits a 4x4 grid


def test_attention_maps_reject_non_stochastic_rows():
    with pytest.raises(NumericError):
        AttentionMaps.full([np.array([[0.5, 0.2], [0.5, 0.5]])])
    with pytest.raises(NumericError):
        AttentionMaps.full(np.array([[[0.5, 0.2], [0.5, 0.5]]]))
    with pytest.raises(NumericError):
        AttentionMaps.full([np.array([[np.nan, 1.0], [0.5, 0.5]])])


@pytest.mark.parametrize("cols", [4, 16, 64])
@pytest.mark.parametrize("bump", [np.nan, np.inf, 2e-10, None], ids=["nan", "inf", "off", "negative"])
def test_mediated_maps_reject_a_bad_last_entry(cols, bump):
    # The last entry of the last row: NaN, +inf, 2e-10 above a stochastic
    # row's, or -1e-300, which moves no row sum.
    qt = np.full((4, 1024, cols), 1.0 / cols)
    qt[-1, -1, -1] = -1e-300 if bump is None else qt[-1, -1, -1] + bump
    with pytest.raises(NumericError):
        AttentionMaps.mediated(qt, np.full((4, cols, 1024), 1.0 / 1024))


def test_attention_maps_share_an_array_stack_and_copy_lists():
    stack = np.full((2, 3, 3), 1.0 / 3.0)
    maps = AttentionMaps.full(stack)
    assert all(np.shares_memory(head, stack) for head in maps.heads)
    qt, tk = np.full((2, 3, 2), 0.5), np.full((2, 2, 3), 1.0 / 3.0)
    mediated = AttentionMaps.mediated(qt, tk)
    assert np.shares_memory(mediated.query_to_mediator[1], qt)
    assert np.shares_memory(mediated.mediator_to_key[1], tk)
    listed = AttentionMaps.full(list(stack))
    assert len(listed.heads) == 2
    assert not np.shares_memory(listed.heads[0], stack)
    assert np.array_equal(listed.heads[1], stack[1])


def test_captured_maps_are_read_only():
    cfg = AttentionConfig.square(16, 8, 2)
    rng = np.random.default_rng(59)
    z, params = random_setup(rng, cfg)
    _, full = multi_head_attention(z, params, cfg)
    _, mediated = mediator_attention(z, params, cfg, MediatorConfig(2, 2))
    for head in (full.heads[1], mediated.query_to_mediator[0], mediated.mediator_to_key[1]):
        with pytest.raises(ValueError):
            head[0, 0] = 0.5


def test_captured_stages_are_read_only_stacks_of_the_forward_arrays(monkeypatch):
    import mtat.attention

    attend, maps_from_attend = mtat.attention.attend, []

    def recording(*args, **kwargs):
        out, attn = attend(*args, **kwargs)
        maps_from_attend.append(attn)
        return out, attn

    monkeypatch.setattr(mtat.attention, "attend", recording)
    cfg = AttentionConfig.square(16, 8, 2)
    rng = np.random.default_rng(63)
    z, params = random_setup(rng, cfg)
    batch = Tensor(rng.standard_normal((3, cfg.n_tokens, cfg.channels)))
    _, full = multi_head_attention(batch, params, cfg)
    _, mediated = mediator_attention(z, params, cfg, MediatorConfig(2, 2))
    vanilla_map, mediator_to_key_map, query_to_mediator_map = maps_from_attend
    stages = [
        (full.heads, vanilla_map, (6, 16, 16)),
        (mediated.query_to_mediator, query_to_mediator_map, (2, 16, 4)),
        (mediated.mediator_to_key, mediator_to_key_map, (2, 4, 16)),
    ]
    for stage, forward_array, shape in stages:
        assert isinstance(stage, np.ndarray)
        assert stage.shape == shape and stage.dtype == np.float64
        assert not stage.flags.writeable
        assert np.shares_memory(stage, forward_array)

    # A caller's writable stack is viewed read-only and stays writable itself.
    stack = np.full((2, 3, 3), 1.0 / 3.0)
    maps = AttentionMaps.full(stack)
    assert not maps.heads.flags.writeable and stack.flags.writeable
    assert np.shares_memory(maps.heads, stack)


# ---------------------------------------------------------------------------
# projections and single heads


def test_project_qkv_identity_and_zero():
    rng = np.random.default_rng(41)
    z = Tensor(rng.standard_normal((4, 4)))
    eye = Tensor(np.eye(4))
    params = MultiHeadParams(w_query=eye, w_key=eye, w_value=eye, w_out=eye)
    q, k, v = project_qkv(z, params)
    assert np.array_equal(q.data, z.data)
    assert np.array_equal(k.data, z.data)
    assert np.array_equal(v.data, z.data)

    zero = Tensor(np.zeros((4, 4)))
    q, _, _ = project_qkv(zero, params)
    assert np.array_equal(q.data, np.zeros((4, 4)))

    with pytest.raises(DimensionError):
        project_qkv(Tensor(np.zeros((4, 3))), params)


def test_vanilla_head_zero_queries_average_values():
    rng = np.random.default_rng(42)
    v = rng.standard_normal((5, 3))
    out, attn = vanilla_attention_head(
        Tensor(np.zeros((5, 3))), Tensor(rng.standard_normal((5, 3))), Tensor(v)
    )
    assert np.max(np.abs(attn - 0.2)) <= 1e-15
    assert np.max(np.abs(out.data - v.mean(axis=0))) <= 1e-12


def test_vanilla_head_single_token():
    v = Tensor([[1.5, -2.0]])
    out, attn = vanilla_attention_head(Tensor([[0.3, 0.1]]), Tensor([[5.0, 5.0]]), v)
    assert np.array_equal(attn, [[1.0]])
    assert np.array_equal(out.data, v.data)


def test_vanilla_head_matches_row_oracle():
    rng = np.random.default_rng(43)
    q, k, v = (rng.standard_normal((3, 2)) for _ in range(3))
    out, attn = vanilla_attention_head(Tensor(q), Tensor(k), Tensor(v))
    want_attn = np.zeros((3, 3))
    for i in range(3):
        logits = np.array([q[i] @ k[j] / math.sqrt(2) for j in range(3)])
        e = np.exp(logits - logits.max())
        want_attn[i] = e / e.sum()
    assert np.max(np.abs(attn - want_attn)) <= 1e-12
    assert np.max(np.abs(out.data - want_attn @ v)) <= 1e-12


# ---------------------------------------------------------------------------
# multi-head vanilla


def test_multi_head_single_head_reduction():
    cfg = AttentionConfig.square(4, 4, 1)
    rng = np.random.default_rng(44)
    z, params = random_setup(rng, cfg)
    out, maps = multi_head_attention(z, params, cfg)
    q, k, v = project_qkv(z, params)
    head_out, attn = vanilla_attention_head(q, k, v)
    want = head_out.data @ params.w_out.data
    assert np.max(np.abs(out.data - want)) <= 1e-12
    assert np.max(np.abs(maps.heads[0] - attn)) <= 1e-15


def test_vanilla_layer_peaks_near_its_map():
    # N=1024: the (4, 1024, 1024) map is 32 MiB; the rest of the call,
    # projections, softmax scratch and finiteness checks, stays under 3 MiB.
    cfg = AttentionConfig.square(1024, 64, 4)
    rng = np.random.default_rng(48)
    z = Tensor(rng.standard_normal((cfg.n_tokens, cfg.channels)))
    params = MultiHeadParams.random(rng, cfg.channels, requires_grad=False)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        with no_grad():
            _, maps = multi_head_attention(z, params, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < maps.heads.nbytes + 3 * 2**20


def test_multi_head_concat_structure():
    cfg = AttentionConfig.square(4, 4, 2)
    rng = np.random.default_rng(45)
    z = Tensor(rng.standard_normal((4, 4)))
    params = MultiHeadParams(
        w_query=Tensor(rng.standard_normal((4, 4))),
        w_key=Tensor(rng.standard_normal((4, 4))),
        w_value=Tensor(rng.standard_normal((4, 4))),
        w_out=Tensor(np.eye(4)),
    )
    out, _ = multi_head_attention(z, params, cfg)
    q, k, v = project_qkv(z, params)
    head0, _ = vanilla_attention_head(
        Tensor(q.data[:, :2]), Tensor(k.data[:, :2]), Tensor(v.data[:, :2])
    )
    assert np.max(np.abs(out.data[:, :2] - head0.data)) <= 1e-12


def test_multi_head_matches_dense_reference():
    rng = np.random.default_rng(46)
    for _ in range(10):
        heads = int(rng.choice([1, 2, 4]))
        grid_h, grid_w = rng.integers(2, 5, size=2)
        cfg = AttentionConfig(
            n_tokens=int(grid_h * grid_w),
            channels=4 * heads,
            heads=heads,
            grid_h=int(grid_h),
            grid_w=int(grid_w),
        )
        z, params = random_setup(rng, cfg)
        out, maps = multi_head_attention(z, params, cfg)
        assert np.max(np.abs(out.data - np_multi_head(z.data, params, cfg))) <= 1e-12
        assert maps.kind == "full"
        assert len(maps.heads) == heads


def test_vanilla_attention_is_permutation_equivariant():
    cfg = AttentionConfig.square(9, 6, 2)
    rng = np.random.default_rng(47)
    z, params = random_setup(rng, cfg)
    perm = rng.permutation(9)
    out, _ = multi_head_attention(z, params, cfg)
    out_perm, _ = multi_head_attention(Tensor(z.data[perm]), params, cfg)
    assert np.max(np.abs(out_perm.data - out.data[perm])) <= 1e-12


def test_mediator_attention_is_not_permutation_equivariant():
    # Spatial pooling breaks token-order symmetry; this documents it.
    cfg = AttentionConfig.square(16, 8, 2)
    mcfg = MediatorConfig(2, 2)
    rng = np.random.default_rng(48)
    z, params = random_setup(rng, cfg)
    perm = rng.permutation(16)
    out, _ = mediator_attention(z, params, cfg, mcfg)
    out_perm, _ = mediator_attention(Tensor(z.data[perm]), params, cfg, mcfg)
    assert np.max(np.abs(out_perm.data - out.data[perm])) > 1e-6


# ---------------------------------------------------------------------------
# mediators


def test_make_mediators_identity_and_constant():
    cfg = AttentionConfig.square(16, 4, 2)
    rng = np.random.default_rng(49)
    q = Tensor(rng.standard_normal((16, 4)))
    t = make_mediators(q, cfg, MediatorConfig(4, 4))
    assert np.array_equal(t.data, q.data)

    const = Tensor(np.full((16, 4), 3.25))
    t = make_mediators(const, cfg, MediatorConfig(2, 2))
    assert np.array_equal(t.data, np.full((4, 4), 3.25))


def test_make_mediators_hand_pooling():
    cfg = AttentionConfig.square(16, 4, 2)
    q = Tensor(np.repeat(np.arange(16.0)[:, None], 4, axis=1))
    t = make_mediators(q, cfg, MediatorConfig(2, 2))
    want = np.repeat(np.array([2.5, 4.5, 10.5, 12.5])[:, None], 4, axis=1)
    assert np.array_equal(t.data, want)


def test_make_mediators_grid_mismatch():
    cfg = AttentionConfig.square(16, 4, 2)
    with pytest.raises(ConfigError):
        make_mediators(Tensor(np.zeros((16, 4))), cfg, MediatorConfig(5, 1))


# ---------------------------------------------------------------------------
# mediator heads and the fused layer


def test_single_mediator_collapses_outputs():
    rng = np.random.default_rng(50)
    q, k, v = (Tensor(rng.standard_normal((6, 3))) for _ in range(3))
    t = Tensor(rng.standard_normal((1, 3)))
    out, a_qt, a_tk = mediator_attention_head(q, k, v, t)
    assert np.array_equal(a_qt, np.ones((6, 1)))
    spread = out.data.max(axis=0) - out.data.min(axis=0)
    assert np.max(spread) <= 1e-12
    v_med = a_tk @ v.data
    assert np.max(np.abs(out.data[0] - v_med[0])) <= 1e-12


def test_full_mediator_count_shapes_and_stochasticity():
    rng = np.random.default_rng(51)
    q = Tensor(rng.standard_normal((5, 3)))
    k = q
    out, a_qt, a_tk = mediator_attention_head(q, k, Tensor(rng.standard_normal((5, 3))), q)
    assert a_qt.shape == (5, 5) and a_tk.shape == (5, 5)
    assert np.max(np.abs(a_qt.sum(axis=1) - 1.0)) <= 1e-10
    assert np.max(np.abs(a_tk.sum(axis=1) - 1.0)) <= 1e-10
    assert out.shape == (5, 3)


def test_mediator_head_associativity():
    rng = np.random.default_rng(52)
    q, k, v = (rng.standard_normal((5, 3)) for _ in range(3))
    t = rng.standard_normal((2, 3))
    out, a_qt, a_tk = mediator_attention_head(Tensor(q), Tensor(k), Tensor(v), Tensor(t))
    slow = (a_qt @ a_tk) @ v
    assert np.max(np.abs(out.data - slow)) <= 1e-10


def test_mediator_attention_zero_kernels_equal_no_branch():
    cfg = AttentionConfig.square(16, 8, 2)
    mcfg = MediatorConfig(2, 2)
    rng = np.random.default_rng(53)
    z, params = random_setup(rng, cfg)
    out_none, _ = mediator_attention(z, params, cfg, mcfg, dw_kernels=None)
    out_zero, _ = mediator_attention(
        z, params, cfg, mcfg, dw_kernels=Tensor(np.zeros((3, 3, 8)))
    )
    assert np.array_equal(out_none.data, out_zero.data)


def test_mediator_attention_branch_isolation():
    # With W_v = W_O = I and a delta kernel, the conv branch contributes
    # exactly the value tokens: subtracting the no-branch output leaves v.
    cfg = AttentionConfig.square(16, 8, 2)
    mcfg = MediatorConfig(2, 2)
    rng = np.random.default_rng(54)
    z = Tensor(rng.standard_normal((16, 8)))
    eye = Tensor(np.eye(8))
    params = MultiHeadParams(
        w_query=Tensor(rng.standard_normal((8, 8))),
        w_key=Tensor(rng.standard_normal((8, 8))),
        w_value=eye,
        w_out=eye,
    )
    delta = np.zeros((3, 3, 8))
    delta[1, 1, :] = 1.0
    out_with, _ = mediator_attention(z, params, cfg, mcfg, dw_kernels=Tensor(delta))
    out_without, _ = mediator_attention(z, params, cfg, mcfg, dw_kernels=None)
    assert np.max(np.abs((out_with.data - out_without.data) - z.data)) <= 1e-12


def test_mediator_attention_matches_dense_reference():
    cfg = AttentionConfig.square(16, 8, 2)
    mcfg = MediatorConfig(2, 2)
    rng = np.random.default_rng(55)
    z, params = random_setup(rng, cfg)
    kernels = rng.standard_normal((3, 3, 8))
    out, maps = mediator_attention(z, params, cfg, mcfg, dw_kernels=Tensor(kernels))
    want = np_mediator(z.data, params, cfg, mcfg, dw_kernels=kernels)
    assert np.max(np.abs(out.data - want)) <= 1e-10
    assert maps.kind == "mediated"


# ---------------------------------------------------------------------------
# composed maps


def test_composed_map_single_mediator_rows_identical():
    rng = np.random.default_rng(56)
    q, k, v = (Tensor(rng.standard_normal((6, 3))) for _ in range(3))
    t = Tensor(rng.standard_normal((1, 3)))
    _, a_qt, a_tk = mediator_attention_head(q, k, v, t)
    maps = AttentionMaps.mediated([a_qt], [a_tk])
    composed = composed_attention_map(maps)[0]
    assert np.max(np.abs(composed - a_tk[0])) <= 1e-15


def test_composed_map_one_hot_selection():
    a_qt = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    a_tk = np.array([[0.25, 0.25, 0.5], [0.1, 0.2, 0.7]])
    maps = AttentionMaps.mediated([a_qt], [a_tk])
    composed = composed_attention_map(maps)[0]
    assert np.array_equal(composed[0], a_tk[1])
    assert np.array_equal(composed[1], a_tk[0])
    assert np.array_equal(composed[2], a_tk[1])


def test_composed_map_rows_stochastic_and_usage_error():
    cfg = AttentionConfig.square(16, 8, 2)
    mcfg = MediatorConfig(2, 2)
    rng = np.random.default_rng(57)
    z, params = random_setup(rng, cfg)
    _, maps = mediator_attention(z, params, cfg, mcfg)
    for composed in composed_attention_map(maps):
        assert np.max(np.abs(composed.sum(axis=1) - 1.0)) <= 1e-10

    _, full = multi_head_attention(z, params, cfg)
    with pytest.raises(UsageError):
        composed_attention_map(full)


def test_composed_map_is_the_per_head_product_bit_for_bit():
    cfg = AttentionConfig.square(64, 16, 4)
    rng = np.random.default_rng(64)
    z, params = random_setup(rng, cfg)
    batch = Tensor(rng.standard_normal((2, cfg.n_tokens, cfg.channels)))
    for tokens in (z, batch):
        for count in (1, 4, 16, 64):
            _, maps = mediator_attention(tokens, params, cfg, MediatorConfig.from_count(count, cfg))
            qt, tk = maps.query_to_mediator, maps.mediator_to_key
            reference = np.stack([qt[h] @ tk[h] for h in range(len(qt))])
            composed = composed_attention_map(maps)
            assert composed.shape == (len(maps.query_to_mediator), 64, 64)
            assert np.array_equal(composed, reference)


# ---------------------------------------------------------------------------
# gradients through the layers


def test_multi_head_attention_gradient():
    cfg = AttentionConfig.square(9, 6, 2)
    rng = np.random.default_rng(58)
    z_data = rng.uniform(-2.0, 2.0, size=(9, 6))
    params = MultiHeadParams.random(rng, 6, requires_grad=False)
    w = Tensor(rng.uniform(-2.0, 2.0, size=(9, 6)))

    def f(z):
        out, _ = multi_head_attention(z, params, cfg)
        return sum_all(mul(out, w))

    z = Tensor(z_data, requires_grad=True)
    backward(f(z))
    numeric = finite_diff_grad(f, Tensor(z_data))
    err = np.max(np.abs(z.grad - numeric.data)) / max(1.0, np.max(np.abs(numeric.data)))
    assert err <= 1e-5


def test_mediator_attention_gradient_with_branch():
    cfg = AttentionConfig.square(16, 4, 2)
    mcfg = MediatorConfig(2, 2)
    rng = np.random.default_rng(59)
    z_data = rng.uniform(-2.0, 2.0, size=(16, 4))
    params = MultiHeadParams.random(rng, 4, requires_grad=False)
    kernels = Tensor(rng.uniform(-1.0, 1.0, size=(3, 3, 4)))
    w = Tensor(rng.uniform(-2.0, 2.0, size=(16, 4)))

    def f(z):
        out, _ = mediator_attention(z, params, cfg, mcfg, dw_kernels=kernels)
        return sum_all(mul(out, w))

    z = Tensor(z_data, requires_grad=True)
    backward(f(z))
    numeric = finite_diff_grad(f, Tensor(z_data))
    err = np.max(np.abs(z.grad - numeric.data)) / max(1.0, np.max(np.abs(numeric.data)))
    assert err <= 1e-5


def test_mediator_loss_gradient_in_parameters():
    # The composite case: scalar loss through q, k, v projections at once.
    cfg = AttentionConfig.square(9, 4, 1)
    mcfg = MediatorConfig(1, 3)
    rng = np.random.default_rng(60)
    z = Tensor(rng.uniform(-1.0, 1.0, size=(9, 4)))
    fixed = MultiHeadParams.random(rng, 4, requires_grad=False)

    def f(wq):
        params = MultiHeadParams(
            w_query=wq, w_key=fixed.w_key, w_value=fixed.w_value, w_out=fixed.w_out
        )
        out, _ = mediator_attention(z, params, cfg, mcfg)
        return mean_all(mul(out, out))

    wq_data = rng.uniform(-0.7, 0.7, size=(4, 4))
    wq = Tensor(wq_data, requires_grad=True)
    backward(f(wq))
    numeric = finite_diff_grad(f, Tensor(wq_data))
    err = np.max(np.abs(wq.grad - numeric.data)) / max(1.0, np.max(np.abs(numeric.data)))
    assert err <= 1e-5


# ---------------------------------------------------------------------------
# MAC accounting


def test_flops_report_structure():
    report = FlopsReport(qkv_proj=3, interaction=5, pooling=7, dwconv=11, out_proj=13)
    assert report.total_macs == 39
    assert report.total_flops == 78
    doubled = report + report
    assert doubled.interaction == 10
    assert report.times(3).pooling == 21
    payload = report.to_json_dict()
    assert list(payload) == [
        "qkv_proj",
        "interaction",
        "pooling",
        "dwconv",
        "out_proj",
        "total_macs",
        "total_flops",
    ]
    assert json.dumps(payload)  # plain ints only, JSON-safe


def test_vanilla_interaction_closed_form():
    cfg = AttentionConfig.square(256, 384, 6)
    report = attention_flops(cfg)
    assert report.interaction == 2 * 256**2 * 384 == 50_331_648
    assert report.qkv_proj == 3 * 256 * 384**2
    assert report.out_proj == 256 * 384**2
    assert report.pooling == 0 and report.dwconv == 0


def test_mediator_interaction_closed_form():
    cfg = AttentionConfig.square(256, 384, 6)
    report = mediator_flops(cfg, MediatorConfig(8, 8))
    assert report.interaction == 4 * 64 * 256 * 384 == 25_165_824
    assert report.pooling == 256 * 384
    assert report.dwconv == 9 * 256 * 384


def test_crossover_at_half_the_tokens():
    cfg = AttentionConfig.square(64, 16, 2)
    mcfg = MediatorConfig.from_count(32, cfg)
    assert mediator_flops(cfg, mcfg).interaction == attention_flops(cfg).interaction


def test_layer_multiplier():
    cfg = AttentionConfig.square(16, 8, 2)
    assert attention_flops(cfg, layers=3).total_macs == 3 * attention_flops(cfg).total_macs


def test_instrumented_counts_match_analytic_exactly():
    rng = np.random.default_rng(61)
    for heads, grid in [(1, (2, 3)), (2, (4, 4)), (4, (2, 4))]:
        cfg = AttentionConfig(
            n_tokens=grid[0] * grid[1],
            channels=8 * heads,
            heads=heads,
            grid_h=grid[0],
            grid_w=grid[1],
        )
        z, params = random_setup(rng, cfg)

        counter = MacCounter()
        multi_head_attention(z, params, cfg, counter=counter)
        measured = FlopsReport.from_counter(counter)
        assert measured == attention_flops(cfg)

        mcfg = MediatorConfig(1, 2)
        kernels = Tensor(rng.standard_normal((3, 3, cfg.channels)))
        counter = MacCounter()
        mediator_attention(z, params, cfg, mcfg, dw_kernels=kernels, counter=counter)
        measured = FlopsReport.from_counter(counter)
        assert measured == mediator_flops(cfg, mcfg)

        counter = MacCounter()
        mediator_attention(z, params, cfg, mcfg, dw_kernels=None, counter=counter)
        measured = FlopsReport.from_counter(counter)
        assert measured == replace(mediator_flops(cfg, mcfg), dwconv=0)


def test_from_counter_rejects_unknown_labels():
    counter = MacCounter()
    counter.add("mystery", 10)
    with pytest.raises(UsageError):
        FlopsReport.from_counter(counter)


def test_row_stochasticity_over_random_configs():
    rng = np.random.default_rng(62)
    for _ in range(25):
        heads = int(rng.choice([1, 2]))
        grid_h, grid_w = (int(v) for v in rng.integers(2, 5, size=2))
        cfg = AttentionConfig(
            n_tokens=grid_h * grid_w,
            channels=4 * heads,
            heads=heads,
            grid_h=grid_h,
            grid_w=grid_w,
        )
        z, params = random_setup(rng, cfg)
        _, full = multi_head_attention(z, params, cfg)
        for head in full.heads:
            assert np.max(np.abs(head.sum(axis=1) - 1.0)) <= 1e-10
        mcfg = MediatorConfig(1, int(rng.integers(1, grid_w + 1)))
        _, med = mediator_attention(z, params, cfg, mcfg)
        for a_qt, a_tk in zip(med.query_to_mediator, med.mediator_to_key):
            assert np.max(np.abs(a_qt.sum(axis=1) - 1.0)) <= 1e-10
            assert np.max(np.abs(a_tk.sum(axis=1) - 1.0)) <= 1e-10
