"""Clustering of asynchronous event sequences with a Bayesian mixture of
temporal point processes and a repulsive prior over component base rates."""

from .backbone import (
    FeatureSet,
    HawkesModel,
    HomogeneousPoisson,
    SelfCorrecting,
    SinusoidPoisson,
    hawkes_compensator,
    hawkes_intensity,
    hawkes_loglik,
    hawkes_loglik_grad,
)
from .core import (
    BasisConfig,
    Component,
    ConfigError,
    Dataset,
    DegenerateModelError,
    DppConfig,
    EventSequence,
    HawkesParams,
    MixtureState,
    NumericalError,
    PriorBundle,
    SgldSchedule,
    read_jsonl,
    validate_dataset,
    write_jsonl,
)
from .dpp import build_spectral_model, dpp_log_density, dpp_log_ratio, model_for_data
from .metrics import EvalResult, ari, ell, m_summary, purity
from .pretrain import PretrainConfig, pretrain_mixture
from .sampler import PosteriorTrace, RunReport, SamplerConfig, psi_log, run_sampler, state_log_joint
from .simulate import (
    SIM_BASIS,
    build_hawkes_delta_dataset,
    build_hybrid_dataset,
    sample_mixture,
    thinning_sample,
)

__version__ = "0.1.0"
