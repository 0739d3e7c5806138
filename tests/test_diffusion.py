"""Flow-matching model, training loop, sampler, and the quality proxy."""

import gc
import math

import numpy as np
import pytest

import mtat.tensor as T
from mtat.attention import composed_attention_map
from mtat.diffusion import (
    FidReference,
    ModelBundle,
    SgdState,
    ToyDiffusionModel,
    ToyModelConfig,
    batch_loss,
    capture_redundancy,
    euler_sample,
    euler_samples,
    fid_proxy,
    image_from_tokens,
    interpolate,
    synth_dataset,
    time_features,
    tokens_from_image,
    train_step,
)
from mtat.errors import ConfigError, DimensionError, DomainError, NumericError, UsageError
from mtat.redundancy import redundancy_score
from mtat.scheduler import MediatorSchedule, ScheduleLevel, run_scheduled_sampling
from mtat.tensor import MacCounter, Tensor, add, backward, mean_all, mul, no_grad, scale, sub
from mtat.attention import FlopsReport
from mtat.util import stream_rng

MICRO = ToyModelConfig(
    grid_h=4,
    grid_w=4,
    channels=1,
    hidden=8,
    heads=2,
    layer_kinds=("vanilla", "mediator"),
    time_width=4,
    classes=2,
    default_mediators=2,
    mlp_ratio=2,
)


def warmed_model(cfg=MICRO, seed=0, scale=0.3):
    """Fresh model with a non-zero output head, so velocities are not
    identically zero."""
    model = ToyDiffusionModel(cfg, seed=seed)
    rng = stream_rng(700 + seed, "init")
    model.params["head.w"] = Tensor(
        scale * rng.standard_normal(model.params["head.w"].shape), requires_grad=True
    )
    return model


# ---------------------------------------------------------------------------
# the bridge


def test_interpolate_endpoints():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    eps = np.array([[0.5, 0.5], [0.5, 0.5]])
    x_t, v = interpolate(x, eps, 0.0)
    assert np.array_equal(x_t, x)
    assert np.array_equal(v, eps - x)
    x_t, v = interpolate(x, eps, 1.0)
    assert np.array_equal(x_t, eps)
    assert np.array_equal(v, eps - x)


def test_interpolate_midpoint():
    x_t, v = interpolate(np.array([2.0]), np.array([0.0]), 0.5)
    assert x_t[0] == 1.0
    assert v[0] == -2.0


def test_interpolate_rejects_bad_inputs():
    with pytest.raises(DomainError):
        interpolate(np.zeros(2), np.zeros(2), 1.5)
    with pytest.raises(DomainError):
        interpolate(np.zeros(2), np.zeros(2), -0.1)
    with pytest.raises(DimensionError):
        interpolate(np.zeros(2), np.zeros(3), 0.5)


def test_time_features_shape_and_origin():
    feats = time_features(0.0, 8)
    assert feats.shape == (8,)
    assert np.array_equal(feats[:4], np.ones(4))
    assert np.array_equal(feats[4:], np.zeros(4))
    assert not np.array_equal(time_features(0.3, 8), time_features(0.7, 8))


def test_time_features_width_validation():
    with pytest.raises(ConfigError):
        time_features(0.5, 7)
    with pytest.raises(ConfigError):
        time_features(0.5, 0)


# ---------------------------------------------------------------------------
# config and shapes


def test_config_validation():
    with pytest.raises(ConfigError):
        ToyModelConfig(layer_kinds=())
    with pytest.raises(ConfigError):
        ToyModelConfig(layer_kinds=("vanilla", "exotic"))
    with pytest.raises(ConfigError):
        ToyModelConfig(classes=0)
    with pytest.raises(ConfigError):
        ToyModelConfig(hidden=7, heads=2)  # heads must divide hidden


def test_config_json_roundtrip():
    payload = MICRO.to_json_dict()
    assert ToyModelConfig.from_json_dict(payload) == MICRO
    assert payload["grid"] == [4, 4]
    assert ToyModelConfig.from_json_dict({}) == ToyModelConfig()
    for grid in ("wide", [8, 8, 3]):
        with pytest.raises(ConfigError):
            ToyModelConfig.from_json_dict({"grid": grid})


def test_init_draws_parameters_in_the_documented_order():
    # Checkpoint bytes follow from this order: every normal draw comes from
    # one "init" stream, lift first, then each layer's four attention
    # weights and two MLP weights; the rest is constant.
    cfg = ToyModelConfig(layer_kinds=("mediator", "vanilla", "mediator"))
    hid, mlp = cfg.hidden, cfg.mlp_ratio * cfg.hidden
    rng = stream_rng(5, "init")
    want = {
        "in_proj.w": rng.normal(0.0, cfg.channels**-0.5, (cfg.channels, hid)),
        "in_proj.b": np.zeros(hid),
        "time_proj.w": rng.normal(0.0, cfg.time_width**-0.5, (cfg.time_width, hid)),
        "time_proj.b": np.zeros(hid),
        "class_embed": rng.normal(0.0, 0.5, (cfg.classes, hid)),
        "head.w": np.zeros((hid, cfg.channels)),
        "head.b": np.zeros(cfg.channels),
    }
    for i, kind in enumerate(cfg.layer_kinds):
        want[f"layer{i}.norm1.gain"] = np.ones(hid)
        want[f"layer{i}.norm1.bias"] = np.zeros(hid)
        for w in ("w_query", "w_key", "w_value", "w_out"):
            want[f"layer{i}.attn.{w}"] = rng.normal(0.0, hid**-0.5, (hid, hid))
        if kind == "mediator":
            want[f"layer{i}.attn.dw"] = np.zeros((3, 3, hid))
        want[f"layer{i}.norm2.gain"] = np.ones(hid)
        want[f"layer{i}.norm2.bias"] = np.zeros(hid)
        want[f"layer{i}.mlp.w1"] = rng.normal(0.0, hid**-0.5, (hid, mlp))
        want[f"layer{i}.mlp.b1"] = np.zeros(mlp)
        want[f"layer{i}.mlp.w2"] = rng.normal(0.0, mlp**-0.5, (mlp, hid))
        want[f"layer{i}.mlp.b2"] = np.zeros(hid)
    model = ToyDiffusionModel(cfg, seed=5)
    assert list(model.params) == list(want)
    assert {name: p.data.tolist() for name, p in model.params.items()} == {
        name: array.tolist() for name, array in want.items()
    }
    assert all(p.requires_grad for p in model.params.values())


def test_token_image_roundtrip():
    rng = np.random.default_rng(0)
    image = rng.standard_normal((4, 4, 1))
    tokens = tokens_from_image(image, MICRO)
    assert tokens.shape == (16, 1)
    assert np.array_equal(image_from_tokens(tokens, MICRO), image)
    # token-shaped input passes through
    assert np.array_equal(tokens_from_image(tokens, MICRO), tokens)
    with pytest.raises(DimensionError):
        tokens_from_image(np.zeros((3, 3, 1)), MICRO)
    # a stack of images and a stack of token matrices give the same tokens
    images = rng.standard_normal((3, 4, 4, 1))
    stacked = tokens_from_image(images, MICRO, (3,))
    assert stacked.shape == (3, 16, 1)
    assert np.array_equal(tokens_from_image(stacked, MICRO, (3,)), stacked)
    assert np.array_equal(stacked[1], tokens_from_image(images[1], MICRO))
    with pytest.raises(DimensionError):
        tokens_from_image(images, MICRO, (2,))


def test_untrained_model_predicts_zero_velocity():
    model = ToyDiffusionModel(MICRO, seed=4)
    x = np.ones((16, 1))
    v, _ = model.forward(x, 0.5, 0)
    assert np.array_equal(v.data, np.zeros((16, 1)))


def test_forward_shape_and_domain_checks():
    model = warmed_model()
    v, maps = model.forward(np.zeros((16, 1)), 0.25, 1)
    assert v.shape == (16, 1)
    assert maps is None
    with pytest.raises(DomainError):
        model.forward(np.zeros((16, 1)), 1.25, 0)
    with pytest.raises(DomainError):
        model.forward(np.zeros((16, 1)), 0.5, 5)


def test_mediator_count_changes_output_not_shape():
    model = warmed_model()
    x = stream_rng(1, "init").standard_normal((16, 1))
    v4, _ = model.forward(x, 0.5, 0, mediator_count=4)
    v8, _ = model.forward(x, 0.5, 0, mediator_count=8)
    assert v4.shape == v8.shape == (16, 1)
    assert np.all(np.isfinite(v4.data)) and np.all(np.isfinite(v8.data))
    assert not np.array_equal(v4.data, v8.data)


def test_forward_counter_matches_analytic_flops():
    model = warmed_model()
    for count in (2, 4, 8):
        counter = MacCounter()
        model.forward(np.zeros((16, 1)), 0.5, 0, mediator_count=count, counter=counter)
        assert FlopsReport.from_counter(counter) == model.step_flops(count)


def test_capture_returns_one_maps_per_layer():
    model = warmed_model()
    _, captured = model.forward(np.zeros((16, 1)), 0.5, 0, capture=True)
    assert len(captured) == 2
    assert captured[0].kind == "full"
    assert captured[1].kind == "mediated"


def test_state_dict_roundtrip_preserves_outputs():
    model = warmed_model()
    clone = ToyDiffusionModel.from_state(MICRO, model.state_dict())
    x = stream_rng(2, "init").standard_normal((16, 1))
    a, _ = model.forward(x, 0.3, 1)
    b, _ = clone.forward(x, 0.3, 1)
    assert np.array_equal(a.data, b.data)


# ---------------------------------------------------------------------------
# gradients through the whole model


def test_model_gradients_match_finite_differences():
    model = warmed_model()
    rng = stream_rng(3, "init")
    images = rng.standard_normal((2, 4, 4, 1))
    labels = [0, 1]
    times = [0.3, 0.8]
    noises = [rng.standard_normal((4, 4, 1)) for _ in range(2)]

    def loss_for(params):
        probe = ToyDiffusionModel(MICRO, params=params)
        return batch_loss(probe, images, labels, times, noises).item()

    loss = batch_loss(model, images, labels, times, noises)
    backward(loss)

    spots = [
        ("head.w", (3, 0)),
        ("in_proj.w", (0, 5)),
        ("class_embed", (1, 2)),
        ("layer0.attn.w_query", (2, 3)),
        ("layer1.attn.w_query", (4, 1)),
        ("layer1.attn.dw", (0, 1, 2)),
        ("layer0.mlp.w1", (6, 7)),
        ("layer1.norm1.gain", (5,)),
        ("time_proj.w", (1, 0)),
    ]
    eps = 1e-6
    for name, idx in spots:
        base = model.params[name].data
        bumped = {k: Tensor(v.data, requires_grad=True) for k, v in model.params.items()}
        plus = base.copy()
        plus[idx] += eps
        bumped[name] = Tensor(plus, requires_grad=True)
        up = loss_for(bumped)
        minus = base.copy()
        minus[idx] -= eps
        bumped[name] = Tensor(minus, requires_grad=True)
        down = loss_for(bumped)
        numeric = (up - down) / (2 * eps)
        analytic = model.params[name].grad[idx]
        assert abs(analytic - numeric) <= 1e-4 * max(1.0, abs(numeric)), (name, idx)


# ---------------------------------------------------------------------------
# one forward per batch

# float64 carries ~1.1e-16 relative error per rounding; batching changes
# only the order of a few sums, so 1e-12 leaves four orders of headroom
# and still catches a sample or head read from the wrong slot.
BATCH_RTOL = 1e-12


def randomised_default_model(seed=5):
    """Default-config model with every weight drawn at random, including
    the head and depthwise kernels that start at zero."""
    model = ToyDiffusionModel(ToyModelConfig(), seed=seed)
    rng = stream_rng(seed, "test-weights")
    for name, param in model.params.items():
        model.params[name] = Tensor(
            param.data + 0.3 * rng.standard_normal(param.shape), requires_grad=True
        )
    return model


def batch_inputs(cfg, size, seed=6):
    rng = stream_rng(seed, "test-batch")
    images = rng.standard_normal((size, cfg.grid_h, cfg.grid_w, cfg.channels))
    labels = np.arange(size) % cfg.classes
    times = rng.uniform(0.0, 1.0, size)
    noises = [rng.standard_normal(img.shape) for img in images]
    return images, labels, times, noises


def relative_gap(got, want):
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-300)


@pytest.mark.parametrize("count", [4, 16, 64])
def test_batched_forward_equals_single_sample_forwards(count):
    model = randomised_default_model()
    cfg = model.cfg
    images, labels, times, _ = batch_inputs(cfg, 5)
    tokens = np.stack([tokens_from_image(img, cfg) for img in images])
    batched, _ = model.forward(tokens, times, labels, mediator_count=count)
    from_images, _ = model.forward(images, times, labels, mediator_count=count)
    assert np.array_equal(from_images.data, batched.data)
    single = np.stack([
        model.forward(tokens[b], times[b], labels[b], mediator_count=count)[0].data
        for b in range(len(tokens))
    ])
    assert batched.shape == single.shape == (5, cfg.n_tokens, cfg.channels)
    assert relative_gap(batched.data, single) <= BATCH_RTOL


def test_batched_forward_captures_every_sample_head():
    model = randomised_default_model()
    cfg = model.cfg
    images, labels, times, _ = batch_inputs(cfg, 3)
    tokens = np.stack([tokens_from_image(img, cfg) for img in images])
    _, (full, mediated) = model.forward(tokens, times, labels, capture=True)
    assert len(full.heads) == len(mediated.query_to_mediator) == 3 * cfg.heads
    _, (full1, mediated1) = model.forward(tokens[1], times[1], labels[1], capture=True)
    for h in range(cfg.heads):
        i = cfg.heads + h  # sample 1, head h
        assert relative_gap(full.heads[i], full1.heads[h]) <= BATCH_RTOL
        assert relative_gap(mediated.query_to_mediator[i], mediated1.query_to_mediator[h]) <= BATCH_RTOL


def test_batched_forward_rejects_mismatched_batches():
    model = randomised_default_model()
    cfg = model.cfg
    tokens = np.zeros((3, cfg.n_tokens, cfg.channels))
    with pytest.raises(DimensionError):
        model.forward(tokens, [0.1, 0.2, 0.3], [0, 1])
    with pytest.raises(DimensionError):
        model.forward(tokens[:2], [0.1, 0.2, 0.3], [0, 1, 2])
    with pytest.raises(DomainError):
        model.forward(tokens, [0.1, 1.2, 0.3], [0, 1, 2])
    # A batch is one array: a ragged list, or one mixing images and token
    # matrices, is refused by the forward and by the loss alike.
    image = np.zeros((cfg.grid_h, cfg.grid_w, cfg.channels))
    ragged = [tokens[0], tokens[1, :-1]]
    mixed = [tokens[0], image]
    for batch in (ragged, mixed):
        with pytest.raises(DimensionError):
            model.forward(batch, [0.1, 0.2], [0, 1])
        with pytest.raises(DimensionError):
            batch_loss(model, batch, [0, 1], [0.1, 0.2], [image, image])
        with pytest.raises(DimensionError):
            batch_loss(model, [image, image], [0, 1], [0.1, 0.2], batch)


@pytest.mark.parametrize("which, counts", [("micro", (1, 4, 16)), ("default", (4, 16, 64))])
def test_forward_at_one_time_equals_each_samples_own_forward(which, counts):
    # Bit for bit, not within a tolerance: the sampler stacks the latents
    # of one step and promises every row its single-sample result.
    model = warmed_model() if which == "micro" else randomised_default_model()
    cfg = model.cfg
    rng = stream_rng(7, "test-batch-invariance")
    with no_grad():
        for count in counts:
            for size in (1, 2, 3, 5, 9):
                tokens = rng.standard_normal((size, cfg.n_tokens, cfg.channels))
                labels = np.arange(size) % cfg.classes
                batched, maps = model.forward(
                    tokens, 0.625, labels, mediator_count=count, capture=True
                )
                for b in range(size):
                    single, single_maps = model.forward(
                        tokens[b], 0.625, int(labels[b]), mediator_count=count, capture=True
                    )
                    assert np.array_equal(batched.data[b], single.data), (count, size, b)
                    heads = slice(b * cfg.heads, (b + 1) * cfg.heads)
                    for layer, alone in zip(maps, single_maps):
                        for stage in ("heads", "query_to_mediator", "mediator_to_key"):
                            stack = getattr(layer, stage)
                            if stack is not None:
                                assert np.array_equal(stack[heads], getattr(alone, stage)), (
                                    count, size, b, stage,
                                )


def test_batch_loss_and_gradients_equal_the_per_sample_mean():
    model = randomised_default_model()
    cfg = model.cfg
    images, labels, times, noises = batch_inputs(cfg, 6)

    total = None
    for image, label, t, eps in zip(images, labels, times, noises):
        x_t, v_target = interpolate(image, eps, t)
        pred, _ = model.forward(tokens_from_image(x_t, cfg), float(t), int(label))
        diff = sub(pred, Tensor(tokens_from_image(v_target, cfg)))
        err = mean_all(mul(diff, diff))
        total = err if total is None else add(total, err)
    reference = scale(total, 1.0 / len(images))
    want = {name: grad.copy() for name, grad in zip(model.params, _grads(model, reference))}

    loss = batch_loss(model, images, labels, times, noises)
    got = dict(zip(model.params, _grads(model, loss)))
    assert abs(loss.item() - reference.item()) <= BATCH_RTOL * abs(reference.item())
    for name in model.params:
        assert relative_gap(got[name], want[name]) <= BATCH_RTOL, name


def _grads(model, loss):
    backward(loss)
    return [param.grad for param in model.params.values()]


def test_default_batch_tapes_at_most_150_records():
    cfg = ToyModelConfig()
    model = ToyDiffusionModel(cfg, seed=0)
    images, labels, times, noises = batch_inputs(cfg, 8)
    loss = batch_loss(model, images, labels, times, noises)
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if node._record is None or id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._record.parents)
    assert len(seen) <= 150


def taped_ops(output):
    """The op tag of every record reachable from ``output``."""
    seen, stack = {}, [output]
    while stack:
        node = stack.pop()
        if node._record is None or id(node) in seen:
            continue
        seen[id(node)] = node._record.op
        stack.extend(node._record.parents)
    return list(seen.values())


def taped_records(output):
    return len(taped_ops(output))


def test_default_batch_tapes_one_record_per_attention_product():
    # Each softmax-attention product is one fused record.
    cfg = ToyModelConfig()
    model = ToyDiffusionModel(cfg, seed=0)
    images, labels, times, noises = batch_inputs(cfg, 8)
    assert taped_records(batch_loss(model, images, labels, times, noises)) <= 66


def test_default_batch_tapes_no_head_layout_ops():
    # The heads are split and merged inside attend, so no reshape and
    # transpose pair sits between the projections and the products.
    cfg = ToyModelConfig()
    model = ToyDiffusionModel(cfg, seed=0)
    images, labels, times, noises = batch_inputs(cfg, 8)
    ops = taped_ops(batch_loss(model, images, labels, times, noises))
    assert len(ops) <= 48
    assert "transpose" not in ops


# ---------------------------------------------------------------------------
# optimiser and training


def test_sgd_momentum_hand_values():
    opt = SgdState(0.1, 0.5)
    params = {"w": Tensor(np.array([1.0]), requires_grad=True)}
    grads = {"w": np.array([1.0])}
    params = opt.apply(params, grads)
    assert params["w"].data[0] == pytest.approx(0.9)
    params = opt.apply(params, grads)
    # buffer = 0.5 * 1 + 1 = 1.5, so the step is 0.15
    assert params["w"].data[0] == pytest.approx(0.75)


def test_sgd_treats_missing_grads_as_zero():
    opt = SgdState(0.1, 0.0)
    params = {"w": Tensor(np.array([2.0]), requires_grad=True)}
    updated = opt.apply(params, {})
    assert np.array_equal(updated["w"].data, params["w"].data)


def test_train_step_with_zero_lr_keeps_params():
    data = synth_dataset(11, MICRO.classes, 4, 4, 8)
    model = ToyDiffusionModel(MICRO, seed=0)
    opt = SgdState(0.0, 0.9)
    rng = stream_rng(11, "init")
    after, loss = train_step(model, opt, data.images[:4], data.labels[:4], rng)
    assert loss > 0.0
    for name, param in model.params.items():
        assert np.array_equal(after.params[name].data, param.data), name


def test_training_is_deterministic():
    data = synth_dataset(11, MICRO.classes, 4, 4, 8)

    def run():
        model = ToyDiffusionModel(MICRO, seed=0)
        opt = SgdState(0.01, 0.9)
        rng = stream_rng(11, "init")
        losses = []
        for _ in range(3):
            idx = rng.integers(0, 8, size=4)
            model, loss = train_step(model, opt, data.images[idx], data.labels[idx], rng)
            losses.append(loss)
        return model, losses

    model_a, losses_a = run()
    model_b, losses_b = run()
    assert losses_a == losses_b

    # One step's batched noise draw is the per-sample draws, in order: the
    # loss matches batch_loss on a twin generator's per-sample noises, and
    # both generators end in the same state.
    model = ToyDiffusionModel(MICRO, seed=0)
    rng, twin = stream_rng(12, "init"), stream_rng(12, "init")
    images, labels = data.images[:4], data.labels[:4]
    _, loss = train_step(model, SgdState(0.01, 0.9), images, labels, rng)
    times = twin.uniform(0.0, 1.0, len(images))
    noises = [twin.standard_normal(img.shape) for img in images]
    assert loss == batch_loss(model, images, labels, times, noises).item()
    assert rng.bit_generator.state == twin.bit_generator.state
    for name in model_a.params:
        assert np.array_equal(model_a.params[name].data, model_b.params[name].data)


def test_training_halves_held_out_loss():
    data = synth_dataset(11, MICRO.classes, 4, 4, 32)

    def eval_loss(model):
        ev = stream_rng(99, "init")
        times = ev.uniform(0.0, 1.0, 8)
        noises = [ev.standard_normal((4, 4, 1)) for _ in range(8)]
        return batch_loss(model, data.images[:8], data.labels[:8], times, noises).item()

    model = ToyDiffusionModel(MICRO, seed=0)
    opt = SgdState(0.01, 0.9)
    rng = stream_rng(11, "init")
    before = eval_loss(model)
    for _ in range(120):
        idx = rng.integers(0, 32, size=4)
        model, _ = train_step(model, opt, data.images[idx], data.labels[idx], rng)
    after = eval_loss(model)
    assert after < 0.5 * before


def empty_pool(monkeypatch, cap):
    """Give the rest of the test an empty op output pool of ``cap`` bytes;
    a cap of 0 turns pooling off."""
    monkeypatch.setattr(T, "_pool", {})
    monkeypatch.setattr(T, "_pool_bytes", 0)
    monkeypatch.setattr(T, "_POOL_CAP", cap)


def test_a_pooled_tape_gives_the_unpooled_loss_and_gradients(monkeypatch):
    model = randomised_default_model()
    first, second = batch_inputs(model.cfg, 8), batch_inputs(model.cfg, 8, seed=7)

    def loss_and_grads():
        loss = batch_loss(model, *first)
        batch_loss(model, *second)  # a dropped taped forward while the first tape is live
        grads = backward(loss)
        return loss.data.tobytes(), {n: grads[p].tobytes() for n, p in model.params.items()}

    empty_pool(monkeypatch, T._POOL_CAP)
    pooled = loss_and_grads()
    assert T._pool_bytes > 0
    empty_pool(monkeypatch, 0)
    assert loss_and_grads() == pooled
    assert T._pool_bytes == 0


def test_train_steps_after_the_first_add_no_pool_block(monkeypatch):
    empty_pool(monkeypatch, T._POOL_CAP)
    model = ToyDiffusionModel(ToyModelConfig(), seed=0)
    data = synth_dataset(0, model.cfg.classes, 8, 8, 64)
    opt, rng = SgdState(0.01, 0.9), stream_rng(0, "data", "train")
    gc.collect()
    states = []
    for _ in range(5):
        picks = rng.integers(0, 64, size=8)
        model, _ = train_step(model, opt, data.images[picks], data.labels[picks], rng)
        blocks = {size: [id(b) for b in bs] for size, bs in T._pool.items()}
        states.append((T._pool_bytes, blocks))
    assert states[0][0] > 0
    assert states[1:] == states[:1] * 4


def test_batch_loss_rejects_empty_batch():
    model = ToyDiffusionModel(MICRO, seed=0)
    with pytest.raises(UsageError):
        batch_loss(model, [], [], [], [])


# ---------------------------------------------------------------------------
# synthetic data


def test_synth_dataset_standardised_and_deterministic():
    data = synth_dataset(5, 4, 8, 8, 64)
    assert data.images.shape == (64, 8, 8, 1)
    assert abs(data.images.mean()) <= 1e-12
    assert abs(data.images.std() - 1.0) <= 1e-12
    again = synth_dataset(5, 4, 8, 8, 64)
    assert np.array_equal(data.images, again.images)
    assert np.array_equal(data.labels, again.labels)
    assert not np.array_equal(data.images, synth_dataset(6, 4, 8, 8, 64).images)


def test_synth_dataset_classes_are_separable():
    data = synth_dataset(5, 4, 8, 8, 128)
    flat = data.images.reshape(128, -1)
    means = np.stack([flat[data.labels == c].mean(axis=0) for c in range(4)])
    guessed = np.argmin(
        ((flat[:, None, :] - means[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    assert (guessed == data.labels).mean() >= 0.95


def test_synth_dataset_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        synth_dataset(0, 0, 8, 8, 4)
    with pytest.raises(ConfigError):
        synth_dataset(0, 2, 8, 8, 0)


# ---------------------------------------------------------------------------
# sampling


def test_single_step_sample_is_noise_minus_velocity():
    model = warmed_model()
    result = euler_sample(model, 1, 1, seed=5)
    rng = stream_rng(5, "sampling", 0)
    x0 = rng.standard_normal((16, 1))
    v, _ = model.forward(x0, 1.0, 1)
    want = image_from_tokens(x0 - v.data, MICRO)
    assert np.array_equal(image_from_tokens(result.latent, MICRO), want)


def test_untrained_model_sample_returns_the_noise():
    model = ToyDiffusionModel(MICRO, seed=0)
    result = euler_sample(model, 0, 4, seed=9)
    noise = stream_rng(9, "sampling", 0).standard_normal((16, 1))
    assert np.array_equal(image_from_tokens(result.latent, MICRO), image_from_tokens(noise, MICRO))
    assert result.trace.deltas == [0.0, 0.0, 0.0, 0.0]


def test_sampling_is_bit_reproducible():
    model = warmed_model()
    a = euler_sample(model, 1, 6, seed=13)
    b = euler_sample(model, 1, 6, seed=13)
    assert np.array_equal(a.latent, b.latent)
    assert a.trace.deltas == b.trace.deltas
    assert a.flops == b.flops
    c = euler_sample(model, 1, 6, seed=14)
    assert not np.array_equal(a.latent, c.latent)


def test_sample_indices_draw_distinct_noise():
    model = warmed_model()
    a = euler_sample(model, 0, 2, seed=3, sample_index=0)
    b = euler_sample(model, 0, 2, seed=3, sample_index=1)
    assert not np.array_equal(a.latent, b.latent)


def test_lockstep_samples_equal_samples_drawn_one_at_a_time(monkeypatch):
    model = warmed_model()
    rows = []
    velocity = ModelBundle.velocity

    def counted(self, x, t, count, labels):
        rows.append(len(x))
        return velocity(self, x, t, count, labels)

    monkeypatch.setattr(ModelBundle, "velocity", counted)
    schedules = [
        None,
        MediatorSchedule(1, (ScheduleLevel(0.9, 4), ScheduleLevel(0.5, 16))),
        MediatorSchedule(1, (ScheduleLevel(0.8, 16),)),
    ]
    labels = [0, 1, 1]
    grid = euler_samples(model, labels, 5, seed=8, schedules=schedules)
    # 45 (schedule, sample) steps; the first step is shared by every
    # schedule, and rows that ran the same count went through one call.
    assert max(rows) > 1 and sum(rows) < 45
    for schedule, row in zip(schedules, grid):
        assert len(row) == len(labels)
        for s, (label, result) in enumerate(zip(labels, row)):
            alone = euler_sample(model, label, 5, seed=8, schedule=schedule, sample_index=s)
            assert np.array_equal(result.latent, alone.latent)
            assert result.trace == alone.trace
            assert result.flops == alone.flops


def test_lockstep_samples_fail_one_by_one(monkeypatch):
    model = warmed_model()
    velocity = ModelBundle.velocity

    def failing(self, x, t, count, labels):
        if 1 in list(labels):
            raise NumericError("label 1 diverged")
        return velocity(self, x, t, count, labels)

    monkeypatch.setattr(ModelBundle, "velocity", failing)
    ((ok, failed),) = euler_samples(model, [0, 1], 3, seed=4)
    with pytest.raises(NumericError, match="label 1 diverged"):
        failed.result()
    latent, trace, flops = ok.result()
    alone = euler_sample(model, 0, 3, seed=4)
    assert np.array_equal(latent, alone.latent)
    assert trace == alone.trace and flops == alone.flops


def test_sampling_leaves_weights_untouched():
    model = warmed_model()
    before = {name: p.data.tobytes() for name, p in model.params.items()}
    schedule = MediatorSchedule(2, (ScheduleLevel(1.0, 8),))
    euler_sample(model, 0, 4, seed=1, schedule=schedule)
    for name, p in model.params.items():
        assert p.data.tobytes() == before[name], name
        assert p.grad is None


def test_scheduled_sampling_switches_counts():
    model = warmed_model()
    schedule = MediatorSchedule(2, (ScheduleLevel(1.0, 8),))
    result = euler_sample(model, 0, 4, seed=1, schedule=schedule)
    assert result.trace.selected[0] == 2
    assert set(result.trace.selected[1:]) == {8}
    assert result.trace.step_macs[0] < result.trace.step_macs[1]


# ---------------------------------------------------------------------------
# redundancy capture


def test_capture_matches_direct_scores():
    model = warmed_model()
    trace = capture_redundancy(model, [0], steps=2, seed=3)
    assert trace.scores.shape == (2, 2)
    assert trace.samples == 1 and trace.heads == 2

    rng = stream_rng(3, "sampling", 0)
    x0 = rng.standard_normal((16, 1))
    bundle = ModelBundle(model, capture=True)
    run_scheduled_sampling(bundle, [x0], [0], 2)
    assert trace.scores[0, 0] == redundancy_score(bundle.step_maps[0][0].heads)
    assert trace.scores[1, 1] == redundancy_score(
        composed_attention_map(bundle.step_maps[1][1])
    )


def test_capture_sample_starts_from_the_euler_sample_noise(monkeypatch):
    model = warmed_model()
    starts = []
    velocity = ModelBundle.velocity

    def recording(self, x, t, count, labels):
        if t == 1.0:
            starts.append((list(labels), np.array(x)))
        return velocity(self, x, t, count, labels)

    monkeypatch.setattr(ModelBundle, "velocity", recording)
    labels = [1, 0]
    capture_redundancy(model, labels, steps=2, seed=6)
    captured = list(starts)
    starts.clear()
    for s, label in enumerate(labels):
        euler_sample(model, label, 2, seed=6, sample_index=s)
    assert len(captured) == len(starts) == 2
    for (cap_label, cap_x), (label, x) in zip(captured, starts):
        assert cap_label == label
        assert np.array_equal(cap_x, x)
    assert not np.array_equal(starts[0][1], starts[1][1])


def test_capture_scores_stay_in_bounds():
    model = warmed_model()
    trace = capture_redundancy(model, [0, 1], steps=3, seed=4)
    assert trace.scores.shape == (2, 3)
    assert np.all(trace.scores >= 0.0)
    assert np.all(trace.scores <= math.log(2.0) + 1e-12)


# ---------------------------------------------------------------------------
# quality proxy


def test_fid_proxy_zero_for_identical_sets():
    rng = np.random.default_rng(0)
    block = rng.standard_normal((10, 6))
    assert abs(fid_proxy(block, block.copy())) <= 1e-8


def test_fid_proxy_hand_value():
    # means 0 and 3, both population variances 1: distance is 3^2 = 9
    assert fid_proxy([[-1.0], [1.0]], [[2.0], [4.0]]) == pytest.approx(9.0, abs=1e-9)


def test_fid_proxy_is_shuffle_invariant():
    rng = np.random.default_rng(1)
    gen = rng.standard_normal((20, 5))
    ref = rng.standard_normal((20, 5)) + 0.5
    base = fid_proxy(gen, ref)
    perm = rng.permutation(20)
    assert abs(fid_proxy(gen[perm], ref) - base) <= 1e-10
    assert abs(fid_proxy(gen, ref[perm]) - base) <= 1e-10


def test_fid_proxy_projects_wide_samples_deterministically():
    rng = np.random.default_rng(2)
    gen = rng.standard_normal((12, 4, 4, 9))  # 144 dims, above the cap
    ref = rng.standard_normal((12, 4, 4, 9))
    a = fid_proxy(gen, ref, seed=3)
    assert a == fid_proxy(gen, ref, seed=3)
    assert a != fid_proxy(gen, ref, seed=4)
    assert abs(fid_proxy(gen, gen.copy(), seed=3)) <= 1e-8


def test_fid_proxy_grows_with_mean_shift():
    rng = np.random.default_rng(3)
    ref = rng.standard_normal((40, 8))
    near = fid_proxy(ref + 0.1, ref)
    far = fid_proxy(ref + 2.0, ref)
    assert near < far


def test_fid_proxy_input_validation():
    with pytest.raises(DimensionError):
        fid_proxy(np.zeros((0, 3)), np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        fid_proxy(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(DimensionError):
        fid_proxy(np.zeros(3), np.zeros(3))
    with pytest.raises(NumericError):
        fid_proxy(np.array([[np.nan]]), np.array([[0.0]]))


def test_prepared_reference_is_bit_equal_to_the_array_path():
    rng = np.random.default_rng(6)
    for shape, max_dims in (((5, 3, 2), 64), ((5, 4, 4, 9), 64), ((5, 12), 8)):
        gen = rng.standard_normal(shape)
        ref = rng.standard_normal((7,) + shape[1:]) + 0.3
        prepared = FidReference.fit(ref, seed=3, max_dims=max_dims)
        assert (prepared.basis is None) == (prepared.dims <= max_dims)
        assert not (prepared.mean.flags.writeable or prepared.root.flags.writeable)
        value = fid_proxy(gen, prepared, seed=3, max_dims=max_dims)
        assert value == fid_proxy(gen, ref, seed=3, max_dims=max_dims)
        assert value == fid_proxy(gen, prepared, seed=3, max_dims=max_dims)
    # The last reference is projected: 12 dims onto 8.
    assert prepared.basis.shape == (12, 8)
    with pytest.raises(UsageError):
        fid_proxy(gen, prepared, seed=4, max_dims=8)
    with pytest.raises(UsageError):
        fid_proxy(gen, prepared, seed=3, max_dims=64)
    with pytest.raises(DimensionError):
        fid_proxy(gen[:, :11], prepared, seed=3, max_dims=8)
