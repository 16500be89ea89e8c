"""Self-calibrating score-prior reconstruction for undersampled multi-coil MRI."""

from .cg import CGConfig, CGResult, cg_solve, solve_p3, solve_p3_family
from .calibration import (
    DeltaOptState,
    MaskPartition,
    delta_penalty,
    partition_mask,
    ssl_loss,
    update_delta,
)
from .errors import FormatError, InvalidArgumentError, NumericError
from .forward import (
    ForwardOperator,
    SamplingMask,
    add_noise,
    apply_adjoint,
    apply_forward,
    generate_mask,
    load_mask,
    save_mask,
    synth_coil_maps,
)
from .fourier import fft2c, ifft2c
from .metrics import psnr, ssim
from .phantom import PhantomSpec, make_phantom
from .pipeline import (
    ReconConfig,
    ReconReport,
    StepRecord,
    emit_images,
    format_ablation_table,
    paired_gain,
    reconstruct,
    run_ablation,
    shifted_cases,
    trace_columns,
)
from .priors import GaussianPrior, ScorePrior, gaussian_score, identity_delta, white_prior
from .regularization import (
    RegAdaptState,
    convergence_criterion,
    mc_divergence,
    probe_weights,
    sure_loss,
    update_gamma,
)
from .sampler import build_schedule, renoise, tweedie_denoise
from .tensorio import read_tensor, write_tensor
from .unet import (
    UNetArch,
    UNetScorePrior,
    UNetWeights,
    dsm_loss,
    init_weights,
    load_weights,
    low_band,
    modulate_bands,
    save_weights,
    train_toy_denoiser,
    unet_forward,
)

__version__ = "0.1.0"
