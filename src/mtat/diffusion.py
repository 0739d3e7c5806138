"""Desk-scale flow-matching harness for exercising the attention kernels.

A small pre-norm transformer predicts the straight-path velocity field
on token grids a few pixels wide. It exists to generate real attention
maps, real schedules, and real MAC counts in seconds on a laptop; it is
not trying to be a competitive image model. Layers can mix vanilla and
mediated attention freely, and the mediator count is a runtime argument
so one set of weights serves every schedule level.
"""

import functools
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .attention import (
    AttentionConfig,
    FlopsReport,
    MediatorConfig,
    MultiHeadParams,
    attention_flops,
    composed_attention_map,
    mediator_attention,
    mediator_flops,
    multi_head_attention,
)
from .errors import ConfigError, DimensionError, DomainError, NumericError, UsageError
from .redundancy import RedundancyTrace, redundancy_score
from .scheduler import run_scheduled_sampling
from .tensor import (
    Tensor,
    add,
    backward,
    embedding_row,
    gelu,
    layer_norm,
    matmul,
    mean_all,
    mul,
    no_grad,
    sub,
)
from .util import stream_rng

LAYER_KINDS = ("vanilla", "mediator")


def interpolate(x, eps, t):
    """Straight-line bridge between data and noise.

    Returns (x_t, velocity target) for x_t = (1 - t) x + t eps; the
    velocity of that path is eps - x everywhere on it. ``t`` is one
    time, or one time per sample along the leading axes of a stack.
    """
    x = np.asarray(x, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x.shape != eps.shape:
        raise DimensionError(f"data and noise shapes differ: {x.shape} vs {eps.shape}")
    t = np.asarray(t, dtype=np.float64)
    if x.shape[: t.ndim] != t.shape:
        raise DimensionError(f"times of shape {t.shape} do not lead data of shape {x.shape}")
    if not np.all((0.0 <= t) & (t <= 1.0)):
        raise DomainError(f"interpolation time {t} outside [0, 1]")
    t = t.reshape(t.shape + (1,) * (x.ndim - t.ndim))
    return (1.0 - t) * x + t * eps, eps - x


def time_features(t, width):
    """Sinusoidal features of times in [0, 1]: shape (width,) for a
    scalar, t.shape + (width,) for an array."""
    if width < 2 or width % 2:
        raise ConfigError(f"time feature width must be even and >= 2, got {width}")
    half = width // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    angles = 1000.0 * np.asarray(t, dtype=np.float64)[..., None] * freqs
    return np.concatenate([np.cos(angles), np.sin(angles)], axis=-1)


def grid_extents(grid, what):
    """A config grid as (rows, cols): it must be a list of two extents."""
    if not isinstance(grid, list) or len(grid) != 2:
        raise ConfigError(f"{what} must be a list of two extents, got {grid!r}")
    return tuple(grid)


@dataclass(frozen=True)
class ToyModelConfig:
    """Shape of the toy velocity model."""

    grid_h: int = 8
    grid_w: int = 8
    channels: int = 1
    hidden: int = 16
    heads: int = 2
    layer_kinds: tuple = ("vanilla", "mediator")
    time_width: int = 8
    classes: int = 4
    default_mediators: int = 4
    mlp_ratio: int = 4

    def __post_init__(self):
        object.__setattr__(self, "layer_kinds", tuple(self.layer_kinds))
        for kind in self.layer_kinds:
            if kind not in LAYER_KINDS:
                raise ConfigError(f"layer kind {kind!r} not in {LAYER_KINDS}")
        if not self.layer_kinds:
            raise ConfigError("model needs at least one layer")
        if self.classes < 1 or self.channels < 1 or self.mlp_ratio < 1:
            raise ConfigError(f"invalid model config: {self}")
        # AttentionConfig validates the rest (grid, heads, hidden).
        self.attention_config  # noqa: B018

    @property
    def n_tokens(self):
        return self.grid_h * self.grid_w

    @property
    def attention_config(self):
        return AttentionConfig(self.n_tokens, self.hidden, self.heads, self.grid_h, self.grid_w)

    def to_json_dict(self):
        payload = {field.name: getattr(self, field.name) for field in fields(self)}
        payload["grid"] = [payload.pop("grid_h"), payload.pop("grid_w")]
        payload["layer_kinds"] = list(self.layer_kinds)
        return payload

    @classmethod
    def from_json_dict(cls, payload):
        """The inverse of ``to_json_dict``; absent keys take the defaults."""
        payload = dict(payload)
        grid = payload.pop("grid", None)
        if grid is not None:
            payload["grid_h"], payload["grid_w"] = grid_extents(grid, "model grid")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigError(f"malformed model config: {exc}") from exc


def tokens_from_image(image, cfg):
    arr = np.asarray(image, dtype=np.float64)
    if arr.shape == (cfg.n_tokens, cfg.channels):
        return arr
    if arr.shape == (cfg.grid_h, cfg.grid_w, cfg.channels):
        return arr.reshape(cfg.n_tokens, cfg.channels)
    raise DimensionError(
        f"expected image ({cfg.grid_h}, {cfg.grid_w}, {cfg.channels}) or tokens "
        f"({cfg.n_tokens}, {cfg.channels}), got {arr.shape}"
    )


def image_from_tokens(tokens, cfg):
    arr = np.asarray(tokens, dtype=np.float64)
    return arr.reshape(cfg.grid_h, cfg.grid_w, cfg.channels)


_ATTENTION_WEIGHTS = tuple(field.name for field in fields(MultiHeadParams))


def _param_table(cfg):
    """Every parameter of a ``cfg`` model as (name, shape, init), in the
    order the ``init`` stream draws them. ``init`` is "normal" (std
    fan_in**-0.5, fan_in the leading extent), "embed" (std 0.5), "zeros"
    or "ones"; only the first two draw.
    """
    hid, mlp = cfg.hidden, cfg.mlp_ratio * cfg.hidden
    table = [
        ("in_proj.w", (cfg.channels, hid), "normal"),
        ("in_proj.b", (hid,), "zeros"),
        ("time_proj.w", (cfg.time_width, hid), "normal"),
        ("time_proj.b", (hid,), "zeros"),
        ("class_embed", (cfg.classes, hid), "embed"),
        ("head.w", (hid, cfg.channels), "zeros"),
        ("head.b", (cfg.channels,), "zeros"),
    ]
    for i, kind in enumerate(cfg.layer_kinds):
        prefix = f"layer{i}"
        table += [
            (f"{prefix}.norm1.gain", (hid,), "ones"),
            (f"{prefix}.norm1.bias", (hid,), "zeros"),
        ]
        table += [(f"{prefix}.attn.{w}", (hid, hid), "normal") for w in _ATTENTION_WEIGHTS]
        if kind == "mediator":
            table.append((f"{prefix}.attn.dw", (3, 3, hid), "zeros"))
        table += [
            (f"{prefix}.norm2.gain", (hid,), "ones"),
            (f"{prefix}.norm2.bias", (hid,), "zeros"),
            (f"{prefix}.mlp.w1", (hid, mlp), "normal"),
            (f"{prefix}.mlp.b1", (mlp,), "zeros"),
            (f"{prefix}.mlp.w2", (mlp, hid), "normal"),
            (f"{prefix}.mlp.b2", (hid,), "zeros"),
        ]
    return table


@functools.lru_cache(maxsize=64)
def _step_flops(cfg, count):
    """The MAC bill of one forward of a ``cfg`` model with ``count``
    mediators, built once per pair: a sampling loop asks for it every
    step, and FlopsReport is immutable."""
    attn_cfg = cfg.attention_config
    total = FlopsReport()
    for kind in cfg.layer_kinds:
        if kind == "vanilla":
            total = total + attention_flops(attn_cfg)
        else:
            total = total + mediator_flops(attn_cfg, count)
    return total


class ToyDiffusionModel:
    """Pre-norm transformer over raster tokens predicting velocities.

    Conditioning is additive: a projected sinusoidal time row and a
    learned class row are added to every token after the input lift.
    The output head starts at zero so an untrained model predicts the
    zero field.
    """

    def __init__(self, cfg, params=None, seed=0):
        self.cfg = cfg
        self.params = params if params is not None else self._init_params(seed)
        self._validate_params()

    def _init_params(self, seed):
        rng = stream_rng(seed, "init")
        draws = {
            "normal": lambda shape: rng.normal(0.0, shape[0] ** -0.5, shape),
            "embed": lambda shape: rng.normal(0.0, 0.5, shape),
            "zeros": np.zeros,
            "ones": np.ones,
        }
        return {
            name: Tensor(draws[init](shape), requires_grad=True)
            for name, shape, init in _param_table(self.cfg)
        }

    def _validate_params(self):
        expected = {name: shape for name, shape, _ in _param_table(self.cfg)}
        got = set(self.params)
        if got != set(expected):
            missing = sorted(set(expected) - got)
            stray = sorted(got - set(expected))
            raise ConfigError(f"parameter names mismatch: missing {missing}, stray {stray}")
        for name, shape in expected.items():
            if self.params[name].shape != shape:
                raise ConfigError(
                    f"parameter {name} has shape {self.params[name].shape}, expected {shape}"
                )

    def _layer_params(self, index):
        return MultiHeadParams(
            **{w: self.params[f"layer{index}.attn.{w}"] for w in _ATTENTION_WEIGHTS}
        )

    def forward(self, x, t, label, mediator_count=None, counter=None, capture=False):
        """Predict the velocity field for tokens ``x`` at time ``t``.

        One sample: ``x`` is an image or an (N, C) token matrix, ``t`` a
        scalar and ``label`` an int, and the velocity is (N, C). A batch:
        ``t`` and ``label`` hold one entry per sample and ``x`` is the
        (B, N, C) stack, run through every op at once; the velocity is
        (B, N, C). Returns (velocity tensor, captured per-layer maps or
        None); a batch's map stacks hold every sample's heads in order. Only
        attention work is metered by ``counter``; the lift, conditioning,
        and MLPs are off the books by design.
        """
        cfg = self.cfg
        times = np.asarray(t, dtype=np.float64)
        if not np.all((0.0 <= times) & (times <= 1.0)):
            raise DomainError(f"time {t} outside [0, 1]")
        labels = np.asarray(label, dtype=np.int64)
        if labels.shape != times.shape:
            raise DimensionError(f"{labels.size} labels for {times.size} times")
        if np.any((labels < 0) | (labels >= cfg.classes)):
            raise DomainError(f"label {label} outside [0, {cfg.classes})")
        count = cfg.default_mediators if mediator_count is None else int(mediator_count)
        attn_cfg = cfg.attention_config
        if times.ndim:
            tokens = Tensor(np.stack([tokens_from_image(sample, cfg) for sample in x]))
        else:
            tokens = Tensor(tokens_from_image(x, cfg))
        if tokens.shape != times.shape + (cfg.n_tokens, cfg.channels):
            raise DimensionError(
                f"tokens of shape {tokens.shape} do not match {times.size} time(s)"
            )

        # Conditioning rows are (..., 1, hidden), added to every token.
        z = add(matmul(tokens, self.params["in_proj.w"]), self.params["in_proj.b"])
        t_row = matmul(
            Tensor(time_features(times[..., None], cfg.time_width)), self.params["time_proj.w"]
        )
        z = add(z, add(t_row, self.params["time_proj.b"]))
        z = add(z, embedding_row(self.params["class_embed"], labels[..., None]))

        captured = [] if capture else None
        for i, kind in enumerate(cfg.layer_kinds):
            prefix = f"layer{i}"
            normed = layer_norm(
                z, self.params[f"{prefix}.norm1.gain"], self.params[f"{prefix}.norm1.bias"]
            )
            if kind == "vanilla":
                attn_out, maps = multi_head_attention(
                    normed, self._layer_params(i), attn_cfg, counter
                )
            else:
                mcfg = MediatorConfig.from_count(count, attn_cfg)
                attn_out, maps = mediator_attention(
                    normed,
                    self._layer_params(i),
                    attn_cfg,
                    mcfg,
                    dw_kernels=self.params[f"{prefix}.attn.dw"],
                    counter=counter,
                )
            z = add(z, attn_out)
            if capture:
                captured.append(maps)
            normed = layer_norm(
                z, self.params[f"{prefix}.norm2.gain"], self.params[f"{prefix}.norm2.bias"]
            )
            hidden = gelu(add(matmul(normed, self.params[f"{prefix}.mlp.w1"]), self.params[f"{prefix}.mlp.b1"]))
            mlp_out = add(matmul(hidden, self.params[f"{prefix}.mlp.w2"]), self.params[f"{prefix}.mlp.b2"])
            z = add(z, mlp_out)

        velocity = add(matmul(z, self.params["head.w"]), self.params["head.b"])
        return velocity, captured

    def step_flops(self, mediator_count=None):
        """Analytic attention MACs for one forward pass (all layers)."""
        count = self.cfg.default_mediators if mediator_count is None else int(mediator_count)
        return _step_flops(self.cfg, count)

    def state_dict(self):
        return dict(self.params)

    @classmethod
    def from_state(cls, cfg, tensors):
        params = {name: Tensor(t.data, requires_grad=True) for name, t in tensors.items()}
        return cls(cfg, params=params)


# ---------------------------------------------------------------------------
# training


@dataclass
class SgdConfig:
    lr: float = 0.05
    momentum: float = 0.9


class SgdState:
    """Plain SGD with classical momentum over a named parameter dict."""

    def __init__(self, config):
        self.config = config
        self.velocity = {}

    def apply(self, params, grads):
        updated = {}
        for name, param in params.items():
            grad = grads.get(name)
            if grad is None:
                grad = np.zeros(param.shape)
            buf = self.velocity.get(name)
            buf = grad if buf is None else self.config.momentum * buf + grad
            self.velocity[name] = buf
            updated[name] = Tensor(param.data - self.config.lr * buf, requires_grad=True)
        return updated


def batch_loss(model, images, labels, times, noises, mediator_count=None):
    """Mean squared velocity error over a batch: one forward over the
    stacked samples, as one graph."""
    if len(images) == 0:
        raise UsageError("batch_loss needs at least one sample")
    cfg = model.cfg
    x, eps = (np.stack([tokens_from_image(a, cfg) for a in arrays]) for arrays in (images, noises))
    x_t, v_target = interpolate(x, eps, times)
    pred, _ = model.forward(x_t, times, labels, mediator_count)
    diff = sub(pred, Tensor(v_target))
    return mean_all(mul(diff, diff))


def train_step(model, optimizer, images, labels, rng, mediator_count=None):
    """One SGD step on a batch; returns (updated model, loss value).

    Times and noises are drawn from ``rng``; parameters are rebound to
    fresh tensors rather than mutated, so old graphs stay valid.
    """
    times = rng.uniform(0.0, 1.0, len(images))
    noises = [rng.standard_normal(np.shape(img)) for img in images]
    for param in model.params.values():
        param.grad = None
    loss = batch_loss(model, images, labels, times, noises, mediator_count)
    backward(loss)
    grads = {name: param.grad for name, param in model.params.items()}
    new_params = optimizer.apply(model.params, grads)
    return ToyDiffusionModel(model.cfg, params=new_params), loss.item()


# ---------------------------------------------------------------------------
# synthetic data


@dataclass
class SynthData:
    images: np.ndarray
    labels: np.ndarray


def synth_dataset(seed, classes, grid_h, grid_w, size, channels=1):
    """Class-conditional gratings and blobs, standardised to zero mean
    and unit variance over the whole set.

    Even classes are oriented gratings, odd classes off-centre blobs;
    per-sample phase or position jitter plus mild pixel noise keeps the
    classes from being singletons.
    """
    if classes < 1 or size < 1:
        raise ConfigError(f"need positive classes and size, got {classes}, {size}")
    rng = stream_rng(seed, "data")
    labels = np.arange(size) % classes
    rng.shuffle(labels)
    ys, xs = np.meshgrid(
        np.linspace(-1.0, 1.0, grid_h), np.linspace(-1.0, 1.0, grid_w), indexing="ij"
    )
    images = np.empty((size, grid_h, grid_w, channels))
    for i in range(size):
        c = int(labels[i])
        for ch in range(channels):
            angle = math.pi * (c + ch) / max(classes, 2)
            if c % 2 == 0:
                freq = 1.0 + 0.5 * (c % 6)
                phase = rng.uniform(-0.4, 0.4)
                pattern = np.cos(
                    math.pi * freq * (math.cos(angle) * xs + math.sin(angle) * ys) + phase
                )
            else:
                cx = 0.5 * math.cos(2.0 * math.pi * c / classes) + rng.normal(0.0, 0.08)
                cy = 0.5 * math.sin(2.0 * math.pi * c / classes) + rng.normal(0.0, 0.08)
                pattern = np.exp(-(((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * 0.35**2)))
            images[i, :, :, ch] = pattern + rng.normal(0.0, 0.05, (grid_h, grid_w))
    images -= images.mean()
    images /= images.std()
    return SynthData(images=images, labels=labels.astype(np.int64))


# ---------------------------------------------------------------------------
# sampling bundles


class ModelBundle:
    """Adapter exposing a trained model to the sampling loop.

    One weight set serves every mediator count, since pooling has no
    parameters; ``default_count``, the model's default, runs every step
    of an unscheduled run.
    """

    def __init__(self, model, label, capture=False):
        self.model = model
        self.label = int(label)
        self.capture = capture
        self.step_maps = []
        self.default_count = model.cfg.default_mediators

    def velocity(self, x, t, count):
        with no_grad():
            out, maps = self.model.forward(
                x, t, self.label, mediator_count=count, capture=self.capture
            )
        if self.capture:
            self.step_maps.append(maps)
        return out.data

    def step_flops(self, count):
        return self.model.step_flops(count)


@dataclass
class SampleResult:
    image: np.ndarray
    trace: object
    flops: FlopsReport


def _initial_noise(cfg, seed, sample_index):
    """The t=1 latent that sample ``sample_index`` under ``seed`` starts from."""
    rng = stream_rng(seed, "sampling", int(sample_index))
    return rng.standard_normal((cfg.n_tokens, cfg.channels))


def euler_sample(model, label, steps, seed, schedule=None, sample_index=0, cache=None):
    """Draw one sample by deterministic Euler integration from noise.

    ``sample_index`` separates the noise streams of samples drawn under
    one seed; ``cache`` goes to ``run_scheduled_sampling`` and may only
    be shared between calls with the same model, label, seed, sample
    index and step count. The cache also keeps the initial noise,
    read-only, under the key ``"noise"`` (step keys are tuples), so
    calls that share a cache draw it once. Returns a SampleResult with
    the final image on the spatial grid.
    """
    cfg = model.cfg
    x_init = None if cache is None else cache.get("noise")
    if x_init is None:
        x_init = _initial_noise(cfg, seed, sample_index)
        if cache is not None:
            x_init.flags.writeable = False
            cache["noise"] = x_init
    final, trace, flops = run_scheduled_sampling(
        ModelBundle(model, label), x_init, steps, schedule, cache
    )
    return SampleResult(image=image_from_tokens(final, cfg), trace=trace, flops=flops)


def capture_redundancy(model, labels, steps, seed, schedule=None, pair_cap=None):
    """Sample once per label while recording attention maps, and score
    each step's layers as the sample's run ends, so only one sample's
    maps are held at a time. Mediated layers are composed to full maps
    before scoring. Sample ``s`` starts from the noise of
    ``euler_sample`` with ``sample_index=s``.

    Returns a RedundancyTrace with scores averaged over the samples. Its
    ``timing`` holds the scoring wall time, per (layer, step) cell and
    in total, and as ``capture_s`` the rest of the run: sampling with
    capture and composing the mediated maps.
    """
    if len(labels) < 1:
        raise UsageError("capture_redundancy needs at least one label")
    start = time.perf_counter()
    scores = np.zeros((len(model.cfg.layer_kinds), steps))
    seconds = np.zeros_like(scores)
    for s, label in enumerate(labels):
        bundle = ModelBundle(model, label, capture=True)
        run_scheduled_sampling(bundle, _initial_noise(model.cfg, seed, s), steps, schedule)
        for t, step_maps in enumerate(bundle.step_maps):
            for layer, maps in enumerate(step_maps):
                if maps.kind == "mediated":
                    maps = composed_attention_map(maps)
                scored = time.perf_counter()
                scores[layer, t] += redundancy_score(maps, pair_cap=pair_cap, seed=seed)
                seconds[layer, t] += time.perf_counter() - scored
    scores /= len(labels)
    score_s = float(seconds.sum())
    timing = {
        "capture_s": time.perf_counter() - start - score_s,
        "score_s": score_s,
        "score_ms": (seconds * 1e3).tolist(),
    }
    return RedundancyTrace(scores=scores, samples=len(labels), heads=model.cfg.heads, timing=timing)


# ---------------------------------------------------------------------------
# sample-quality proxy


def _sample_matrix(samples):
    """Validate one sample set and flatten it to (samples, features)."""
    block = np.asarray(samples, dtype=np.float64)
    if block.ndim < 2:
        raise DimensionError("sample sets must be arrays of at least one sample each")
    if block.shape[0] == 0:
        raise DimensionError("sample sets must be non-empty")
    block = block.reshape(block.shape[0], -1)
    if not np.all(np.isfinite(block)):
        raise NumericError("sample sets contain non-finite values")
    return block


def _gaussian_fit(block):
    mean = block.mean(axis=0)
    centred = block - mean
    cov = centred.T @ centred / block.shape[0]
    return mean, cov + 1e-6 * np.eye(block.shape[1])


def _psd_root(cov):
    w, basis = np.linalg.eigh(cov)
    return (basis * np.sqrt(np.clip(w, 0.0, None))) @ basis.T


@dataclass(frozen=True, eq=False)
class FidReference:
    """The reference side of ``fid_proxy``, fitted once.

    ``dims`` is the flattened sample width, ``basis`` the seeded
    projection applied when ``dims > max_dims`` (else None); ``mean``,
    ``trace`` and ``root`` describe the (projected) Gaussian fit, with
    ``root`` its covariance's PSD square root. A sweep scores many
    generated sets against one reference; preparing it once saves an
    ``eigh`` per score and gives bit-identical values.
    """

    seed: int
    max_dims: int
    dims: int
    basis: object
    mean: np.ndarray
    trace: float
    root: np.ndarray

    @classmethod
    def fit(cls, reference, seed=0, max_dims=64):
        ref = _sample_matrix(reference)
        dims, basis = ref.shape[1], None
        if dims > max_dims:
            rng = stream_rng(seed, "fid-projection")
            basis, _ = np.linalg.qr(rng.standard_normal((dims, max_dims)))
            ref = ref @ basis
        mean, cov = _gaussian_fit(ref)
        root = _psd_root(cov)
        for array in (basis, mean, root):
            if array is not None:
                array.flags.writeable = False
        return cls(seed, max_dims, dims, basis, mean, np.trace(cov), root)


def fid_proxy(generated, reference, seed=0, max_dims=64):
    """Fréchet distance between Gaussian fits of two sample sets.

    Samples are flattened; sets wider than ``max_dims`` are first passed
    through a shared seeded orthonormal projection. Covariances use the
    population convention and get a 1e-6 diagonal ridge, so tiny or
    degenerate sets stay well defined. Identical sets score zero up to
    floating-point noise. ``reference`` is a sample array or a
    ``FidReference`` fitted with the same ``seed`` and ``max_dims``;
    both give the same value bit for bit.
    """
    if not isinstance(reference, FidReference):
        reference = FidReference.fit(reference, seed, max_dims)
    elif (reference.seed, reference.max_dims) != (seed, max_dims):
        raise UsageError(
            f"reference prepared for seed={reference.seed}, max_dims={reference.max_dims}; "
            f"called with seed={seed}, max_dims={max_dims}"
        )
    gen = _sample_matrix(generated)
    if gen.shape[1] != reference.dims:
        raise DimensionError(
            f"sample dimensions differ: {gen.shape[1]} vs {reference.dims}"
        )
    if reference.basis is not None:
        gen = gen @ reference.basis
    mu_g, cov_g = _gaussian_fit(gen)
    # tr sqrt(Sg Sr) = tr sqrt(Sg^1/2 Sr Sg^1/2), the sum of the singular
    # values of Sr^1/2 Sg^1/2. Taking them from the product itself, not as
    # square roots of its Gram matrix's eigenvalues, keeps the ridge-sized
    # directions accurate, so identical sets still score ~0.
    tr_covmean = np.sum(np.linalg.svd(reference.root @ _psd_root(cov_g), compute_uv=False))
    mean_term = float(np.sum((mu_g - reference.mean) ** 2))
    trace_term = float(np.trace(cov_g) + reference.trace - 2.0 * tr_covmean)
    return mean_term + trace_term
