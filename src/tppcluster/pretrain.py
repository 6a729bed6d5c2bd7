"""Pretraining: rough mixture initialisation for the posterior sampler.

Hard-assignment EM: sequences start in random clusters, each cluster's
parameters are improved by a few projected gradient-ascent steps on its
members' summed log likelihood (with backtracking so the objective never
drops), and sequences are reassigned to their best-fitting cluster.  Emptied
clusters are removed at the top of each round.  Every score reads real
event rows alone (``backbone.EventRows``), never a padded slot.  The
result is wrapped into a sampler-ready state: base rates inside the
repulsive prior's box, weight seeds equal member counts, no spare
components, and the auxiliary variable drawn from its full conditional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import EventRows, FeatureSet
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

_MU_FLOOR = 1e-6
_INIT_JITTER = 0.1  # relative spread of the initial base rates


@dataclass(frozen=True)
class PretrainConfig:
    rounds: int = 3
    gd_steps: int = 25
    learning_rate: float = 0.2

    def __post_init__(self):
        if self.rounds < 0 or self.gd_steps < 0:
            raise ConfigError("pretrain rounds/gd_steps must be nonnegative")
        if self.learning_rate <= 0:
            raise ConfigError(f"pretrain learning_rate must be positive, got {self.learning_rate}")


def _cluster_ascent(features: FeatureSet, idx: np.ndarray, mu: np.ndarray, a: np.ndarray,
                    cfg: PretrainConfig):
    """Projected gradient ascent on the summed log likelihood of one cluster.

    Gradients are averaged per member so the step size is insensitive to the
    cluster size; backtracking halves the step until the objective improves.
    A step that overflows fails as one that does not improve.
    The cluster's real event rows are gathered once, and the gradient at a
    point reuses the excitation its objective was scored from.
    """
    rows = EventRows(features, idx)
    x = rows.excitation(a)
    best = float(rows.loglik(mu, a, x).sum())
    scale = len(idx)  # emptied clusters were dropped, so every cluster has members
    for _ in range(cfg.gd_steps):
        # mu >= _MU_FLOOR and a >= 0, so every rate is positive and the gradient exists
        gmu, ga = rows.grad(mu, a, x)
        step = cfg.learning_rate
        for _ in range(5):
            # a step that overflows scores NaN or -inf, and fails the test below
            with np.errstate(over="ignore", invalid="ignore"):
                mu_new = np.maximum(mu + step * gmu / scale, _MU_FLOOR)
                a_new = np.maximum(a + step * ga / scale, 0.0)
                x_new = rows.excitation(a_new)
                cand = float(rows.loglik(mu_new, a_new, x_new).sum())
            if cand > best:
                mu, a, x, best = mu_new, a_new, x_new, cand
                break
            step *= 0.5
        else:  # no halving improved the objective
            break
    return mu, a


def pretrain_mixture(data: Dataset, m_init: int, config: PretrainConfig,
                     prior: PriorBundle, basis: BasisConfig, *,
                     features: FeatureSet, dpp_model: DppSpectralModel,
                     rng: np.random.Generator) -> MixtureState:
    """Initialise a mixture state with ``m_init`` clusters refined by hard EM.

    ``features`` is the store of ``data`` under ``basis``, and every random
    draw comes from ``rng``.  The fitted base rates are clamped into
    ``dpp_model``'s box (slightly inside the faces), so the returned state
    has positive prior density.  ``prior`` is not read; it stays the fourth
    argument because ``bench/tracing.py`` unpacks the first five.
    """
    if m_init < 1:
        raise ConfigError("m_init must be >= 1")
    n = len(data.sequences)
    if n == 0:
        raise ConfigError("cannot pretrain on an empty dataset")
    D, nb = data.n_types, basis.n_basis

    every = EventRows(features, np.arange(n))
    assign = rng.integers(0, m_init, size=n)
    lam_bar = data.mean_rate_per_type()
    mus, As = [], []
    for _ in range(m_init):
        jitter = 1.0 + _INIT_JITTER * (2.0 * rng.random(D) - 1.0)
        mus.append(np.maximum(lam_bar * jitter, _MU_FLOOR))
        As.append(np.full((D, D, nb), 0.01))

    for r in range(config.rounds + 1):
        keep = [m for m in range(len(mus)) if np.any(assign == m)]
        mus = [mus[m] for m in keep]
        As = [As[m] for m in keep]
        assign = np.searchsorted(np.asarray(keep), assign)
        if r == config.rounds:
            break
        cols = np.empty((n, len(mus)))
        for m in range(len(mus)):
            idx = np.flatnonzero(assign == m)
            mus[m], As[m] = _cluster_ascent(features, idx, mus[m], As[m], config)
            cols[:, m] = every.loglik(mus[m], As[m])
        assign = cols.argmax(axis=1)

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
