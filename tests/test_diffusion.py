"""Flow-matching model, training loop, sampler, and the quality proxy."""

import math

import numpy as np
import pytest

from mtat.attention import composed_attention_map
from mtat.diffusion import (
    ModelBundle,
    SgdConfig,
    SgdState,
    ToyDiffusionModel,
    ToyModelConfig,
    batch_loss,
    capture_redundancy,
    euler_sample,
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
from mtat.tensor import MacCounter, Tensor, backward, mean_all
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
    with pytest.raises(ConfigError):
        ToyModelConfig.from_json_dict({"grid": "wide"})


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
    assert full.head_count == mediated.head_count == 3 * cfg.heads
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


def test_batch_loss_and_gradients_equal_the_per_sample_mean():
    model = randomised_default_model()
    cfg = model.cfg
    images, labels, times, noises = batch_inputs(cfg, 6)

    total = None
    for image, label, t, eps in zip(images, labels, times, noises):
        x_t, v_target = interpolate(image, eps, t)
        pred, _ = model.forward(tokens_from_image(x_t, cfg), float(t), int(label))
        diff = pred - Tensor(tokens_from_image(v_target, cfg))
        err = mean_all(diff * diff)
        total = err if total is None else total + err
    reference = total * (1.0 / len(images))
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


def taped_records(output):
    seen, stack = set(), [output]
    while stack:
        node = stack.pop()
        if node._record is None or id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._record.parents)
    return len(seen)


def test_default_batch_tapes_one_record_per_attention_product():
    # Each softmax-attention product is one fused record.
    cfg = ToyModelConfig()
    model = ToyDiffusionModel(cfg, seed=0)
    images, labels, times, noises = batch_inputs(cfg, 8)
    assert taped_records(batch_loss(model, images, labels, times, noises)) <= 66


# ---------------------------------------------------------------------------
# optimiser and training


def test_sgd_momentum_hand_values():
    opt = SgdState(SgdConfig(lr=0.1, momentum=0.5))
    params = {"w": Tensor(np.array([1.0]), requires_grad=True)}
    grads = {"w": np.array([1.0])}
    params = opt.apply(params, grads)
    assert params["w"].data[0] == pytest.approx(0.9)
    params = opt.apply(params, grads)
    # buffer = 0.5 * 1 + 1 = 1.5, so the step is 0.15
    assert params["w"].data[0] == pytest.approx(0.75)


def test_sgd_treats_missing_grads_as_zero():
    opt = SgdState(SgdConfig(lr=0.1, momentum=0.0))
    params = {"w": Tensor(np.array([2.0]), requires_grad=True)}
    updated = opt.apply(params, {})
    assert np.array_equal(updated["w"].data, params["w"].data)


def test_train_step_with_zero_lr_keeps_params():
    data = synth_dataset(11, MICRO.classes, 4, 4, 8)
    model = ToyDiffusionModel(MICRO, seed=0)
    opt = SgdState(SgdConfig(lr=0.0, momentum=0.9))
    rng = stream_rng(11, "init")
    after, loss = train_step(model, opt, data.images[:4], data.labels[:4], rng)
    assert loss > 0.0
    for name, param in model.params.items():
        assert np.array_equal(after.params[name].data, param.data), name


def test_training_is_deterministic():
    data = synth_dataset(11, MICRO.classes, 4, 4, 8)

    def run():
        model = ToyDiffusionModel(MICRO, seed=0)
        opt = SgdState(SgdConfig(lr=0.01, momentum=0.9))
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
    opt = SgdState(SgdConfig(lr=0.01, momentum=0.9))
    rng = stream_rng(11, "init")
    before = eval_loss(model)
    for _ in range(120):
        idx = rng.integers(0, 32, size=4)
        model, _ = train_step(model, opt, data.images[idx], data.labels[idx], rng)
    after = eval_loss(model)
    assert after < 0.5 * before


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
    assert np.array_equal(result.image, want)


def test_untrained_model_sample_returns_the_noise():
    model = ToyDiffusionModel(MICRO, seed=0)
    result = euler_sample(model, 0, 4, seed=9, record_trajectory=True)
    assert np.array_equal(result.image, image_from_tokens(result.trajectory[0], MICRO))
    assert result.trace.deltas == [0.0, 0.0, 0.0, 0.0]
    assert result.trace.delta0 == 0.0


def test_sampling_is_bit_reproducible():
    model = warmed_model()
    a = euler_sample(model, 1, 6, seed=13)
    b = euler_sample(model, 1, 6, seed=13)
    assert np.array_equal(a.image, b.image)
    assert a.trace.deltas == b.trace.deltas
    assert a.flops == b.flops
    c = euler_sample(model, 1, 6, seed=14)
    assert not np.array_equal(a.image, c.image)


def test_sample_indices_draw_distinct_noise():
    model = warmed_model()
    a = euler_sample(model, 0, 2, seed=3, sample_index=0)
    b = euler_sample(model, 0, 2, seed=3, sample_index=1)
    assert not np.array_equal(a.image, b.image)


def test_trajectory_records_every_state():
    model = warmed_model()
    result = euler_sample(model, 0, 5, seed=2, record_trajectory=True)
    assert len(result.trajectory) == 6
    assert np.array_equal(
        image_from_tokens(result.trajectory[-1], MICRO), result.image
    )
    moved = [
        np.abs(a - b).max() for a, b in zip(result.trajectory, result.trajectory[1:])
    ]
    assert all(m > 0 for m in moved)


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


def test_per_count_weights_take_over_after_the_switch():
    base = warmed_model(seed=0)
    other = warmed_model(seed=1)
    schedule = MediatorSchedule(2, (ScheduleLevel(1.0, 8),))
    shared = euler_sample(base, 0, 4, seed=1, schedule=schedule)
    swapped = euler_sample(
        base, 0, 4, seed=1, schedule=schedule, models_by_count={8: other}
    )
    assert not np.array_equal(shared.image, swapped.image)
    # the first step runs before any switch, on the base weights
    assert shared.trace.deltas[0] == swapped.trace.deltas[0]


def test_per_count_weights_must_share_config():
    base = warmed_model()
    misfit = ToyDiffusionModel(
        ToyModelConfig(
            grid_h=4, grid_w=4, hidden=8, heads=2, time_width=4,
            classes=3, default_mediators=2, mlp_ratio=2,
        ),
        seed=0,
    )
    with pytest.raises(ConfigError):
        ModelBundle(base, 0, models_by_count={8: misfit})


# ---------------------------------------------------------------------------
# redundancy capture


def test_capture_matches_direct_scores():
    model = warmed_model()
    trace = capture_redundancy(model, [0], steps=2, seed=3)
    assert trace.scores.shape == (2, 2)
    assert trace.samples == 1 and trace.heads == 2

    rng = stream_rng(3, "sampling", 0)
    x0 = rng.standard_normal((16, 1))
    bundle = ModelBundle(model, 0, capture=True)
    run_scheduled_sampling(bundle, x0, 2)
    assert trace.scores[0, 0] == redundancy_score(bundle.step_maps[0][0])
    assert trace.scores[1, 1] == redundancy_score(
        composed_attention_map(bundle.step_maps[1][1])
    )


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
