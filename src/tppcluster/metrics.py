"""Clustering quality and held-out fit metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .backbone import FeatureSet
from .core import ConfigError, Dataset, MixtureState

__all__ = ["purity", "ari", "ell", "m_summary", "EvalResult"]


def _as_labels(x) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 1 or x.size == 0:
        raise ConfigError("labels must be a nonempty 1-d array")
    return x


def purity(pred, truth) -> float:
    """Fraction of points whose predicted cluster's majority truth label
    matches their own: (1/N) sum_k max_j |pred_k intersect truth_j|."""
    pred, truth = _as_labels(pred), _as_labels(truth)
    if pred.size != truth.size:
        raise ConfigError("label vectors must have equal length")
    total = 0
    for p in np.unique(pred):
        members = truth[pred == p]
        total += int(np.unique(members, return_counts=True)[1].max())
    return total / pred.size


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


def ari(pred, truth) -> float:
    """Adjusted Rand index via pair counting.

    Zero expected value under independent random labellings, one for a
    perfect match (up to label permutation).  Degenerate cases where both
    labellings are single clusters (or both all-singletons) return 1.0.
    """
    pred, truth = _as_labels(pred), _as_labels(truth)
    if pred.size != truth.size:
        raise ConfigError("label vectors must have equal length")
    table = _contingency(pred, truth)

    def comb2(x):
        x = np.asarray(x, dtype=np.float64)
        return x * (x - 1.0) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    n_pairs = comb2(pred.size)
    expected = sum_rows * sum_cols / n_pairs if n_pairs else 0.0
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def ell(state: MixtureState, data_eval: Dataset) -> float:
    """Expected log likelihood per event of held-out sequences under the
    mixture point estimate.

    Mixture weights come from the weight seeds, pi_m = r_m / sum r (all
    components, spares included); the value is
    sum_n log sum_m pi_m L(s_n | theta_m) divided by the total event count.
    """
    if len(data_eval.sequences) == 0:
        raise ConfigError("evaluation split is empty")
    n_events = data_eval.n_events
    if n_events == 0:
        raise ConfigError("evaluation split contains no events")
    features = FeatureSet(data_eval, state.basis)
    comps = state.allocated + state.non_allocated
    r = np.array([c.r for c in comps])
    log_pi = np.log(r) - math.log(r.sum())
    cols = np.stack([features.loglik_all(c.mu, c.w) for c in comps], axis=1)
    per_seq = logsumexp(cols + log_pi[None, :], axis=1)
    return float(per_seq.sum() / n_events)


def m_summary(k_values) -> tuple[float, dict]:
    """Posterior summary of the allocated component count: (mean, histogram)."""
    ks = np.asarray(k_values, dtype=np.int64)
    if ks.size == 0:
        raise ConfigError("no post-burn-in samples to summarise")
    vals, cnts = np.unique(ks, return_counts=True)
    return float(ks.mean()), {int(v): int(c) for v, c in zip(vals, cnts)}


@dataclass
class EvalResult:
    purity: float | None
    ari: float | None
    ell: float | None
    k_mean: float
    k_hist: dict

    def to_dict(self) -> dict:
        return {
            "purity": self.purity,
            "ari": self.ari,
            "ell": self.ell,
            "k_mean": self.k_mean,
            "k_hist": {str(k): v for k, v in sorted(self.k_hist.items())},
        }

    def csv_row(self) -> str:
        def fmt(x):
            return "" if x is None else repr(float(x))
        return ",".join([fmt(self.purity), fmt(self.ari), fmt(self.ell), fmt(self.k_mean)])
