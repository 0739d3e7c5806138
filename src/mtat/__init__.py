"""Mediator-token attention toolkit.

Linear-cost attention through pooled mediator tokens, divergence-based
redundancy analysis of attention maps, displacement-driven mediator
schedules, exact MAC accounting, and a desk-scale flow-matching harness
to exercise it all end to end.
"""

from .attention import (
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
from .diffusion import (
    FidReference,
    ModelBundle,
    SampleResult,
    SgdConfig,
    SgdState,
    SynthData,
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
from .errors import (
    ConfigError,
    DegenerateTrajectoryError,
    DimensionError,
    DomainError,
    MtatError,
    NumericError,
    UsageError,
)
from .redundancy import (
    Distribution,
    RedundancyTrace,
    js_divergence,
    kl_divergence,
    redundancy_score,
)
from .scheduler import (
    LatentTrace,
    MediatorSchedule,
    ScheduleLevel,
    SweepPoint,
    latent_distance,
    pareto_envelope,
    run_scheduled_sampling,
    select_mediator_count,
    sweep_thresholds,
    threshold_grid,
)
from .serialize import (
    load_checkpoint,
    load_tensor,
    save_checkpoint,
    save_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
)
from .tensor import (
    GradRecord,
    MacCounter,
    Tensor,
    backward,
    finite_diff_grad,
    no_grad,
)

__version__ = "0.1.0"
