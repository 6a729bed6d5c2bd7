"""Pretraining: rough mixture initialisation for the posterior sampler.

Hard-assignment EM: sequences start in random clusters, each cluster's
parameters are improved by a few projected gradient-ascent steps on its
members' summed log likelihood (with backtracking so the objective never
drops), and sequences are reassigned to their best-fitting cluster.  Emptied
clusters are removed.  The result is wrapped into a sampler-ready state:
weight seeds equal member counts, no spare components, and the auxiliary
variable drawn from its full conditional.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .backbone import FeatureSet
from .core import (
    BasisConfig,
    Component,
    ConfigError,
    Dataset,
    MixtureState,
    PriorBundle,
)
from .dpp import DppSpectralModel

__all__ = ["PretrainConfig", "pretrain_mixture"]

log = logging.getLogger(__name__)

_MU_FLOOR = 1e-6
_INIT_JITTER = 0.1  # relative spread of the initial base rates


@dataclass(frozen=True)
class PretrainConfig:
    rounds: int = 3
    gd_steps: int = 25
    learning_rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 0 or self.gd_steps < 0:
            raise ConfigError("pretrain rounds/gd_steps must be nonnegative")
        if self.learning_rate <= 0:
            raise ConfigError("pretrain learning rate must be positive")


def _cluster_ascent(features: FeatureSet, idx: np.ndarray, mu: np.ndarray, a: np.ndarray,
                    cfg: PretrainConfig):
    """Projected gradient ascent on the summed log likelihood of one cluster.

    Gradients are averaged per member so the step size is insensitive to the
    cluster size; backtracking halves the step until the objective improves.
    """
    best = features.loglik_sum(mu, a, idx)
    scale = max(len(idx), 1)
    for _ in range(cfg.gd_steps):
        gmu, ga = _grads(features, idx, mu, a)
        step = cfg.learning_rate
        improved = False
        for _ in range(5):
            mu_new = np.maximum(mu + step * gmu / scale, _MU_FLOOR)
            a_new = np.maximum(a + step * ga / scale, 0.0)
            cand = features.loglik_sum(mu_new, a_new, idx)
            if cand > best:
                mu, a, best = mu_new, a_new, cand
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return mu, a, best


def _grads(features: FeatureSet, idx: np.ndarray, mu: np.ndarray, a: np.ndarray):
    gmu, ga = features.loglik_grad(mu, a, idx)
    if ga is None:  # nonpositive rate: push mass up via the mu gradient only
        ga = np.zeros_like(a)
    return gmu, ga


def pretrain_mixture(data: Dataset, m_init: int, config: PretrainConfig,
                     prior: PriorBundle, basis: BasisConfig,
                     features: FeatureSet | None = None,
                     dpp_model: DppSpectralModel | None = None) -> MixtureState:
    """Initialise a mixture state with ``m_init`` clusters refined by hard EM.

    When a repulsive-prior model is supplied, the fitted base rates are
    clamped into its box (slightly inside the faces) so the returned state has
    positive prior density.
    """
    if m_init < 1:
        raise ConfigError("m_init must be >= 1")
    n = len(data.sequences)
    if n == 0:
        raise ConfigError("cannot pretrain on an empty dataset")
    if features is None:
        features = FeatureSet(data, basis)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    D, nb = data.n_types, basis.n_basis

    assign = rng.integers(0, m_init, size=n)
    lam_bar = data.mean_rate_per_type()
    mus, As = [], []
    for _ in range(m_init):
        jitter = 1.0 + _INIT_JITTER * (2.0 * rng.random(D) - 1.0)
        mus.append(np.maximum(lam_bar * jitter, _MU_FLOOR))
        As.append(np.full((D, D, nb), 0.01))

    keep = [m for m in range(len(mus)) if np.any(assign == m)]
    mus = [mus[m] for m in keep]
    As = [As[m] for m in keep]
    assign = np.searchsorted(np.asarray(keep), assign)

    for _ in range(config.rounds):
        cols = np.empty((n, len(mus)))
        for m in range(len(mus)):
            idx = np.flatnonzero(assign == m)
            mus[m], As[m], _ = _cluster_ascent(features, idx, mus[m], As[m], config)
            cols[:, m] = features.loglik_all(mus[m], As[m])
        assign = cols.argmax(axis=1)
        keep = [m for m in range(len(mus)) if np.any(assign == m)]
        if len(keep) < len(mus):
            log.debug("pretrain dropped %d empty cluster(s)", len(mus) - len(keep))
            mus = [mus[m] for m in keep]
            As = [As[m] for m in keep]
            assign = np.searchsorted(np.asarray(keep), assign)

    if dpp_model is not None:
        width = dpp_model.box_hi - dpp_model.box_lo
        lo = dpp_model.box_lo + 1e-3 * width
        hi = dpp_model.box_hi - 1e-3 * width
        mus = [np.clip(mu, lo, hi) for mu in mus]
        # clipping can land several clusters on the same box face; spread them
        # slightly, always toward the interior so the nudge cannot clip back
        # onto the face it started from
        mid = 0.5 * (lo + hi)
        for m in range(1, len(mus)):
            while any(np.array_equal(mus[m], mus[j]) for j in range(m)):
                step = 1e-3 * width * rng.random(D)
                mus[m] = np.clip(mus[m] + np.where(mus[m] > mid, -step, step), lo, hi)

    counts = np.bincount(assign, minlength=len(mus))
    components = [
        Component(mu=mus[m], w=As[m], r=float(counts[m])) for m in range(len(mus))
    ]
    u = float(rng.gamma(n, 1.0 / float(counts.sum())))
    return MixtureState(components, [], assign, u, basis)
