"""Event-sequence simulation via thinning, plus synthetic dataset recipes.

The thinning loop proposes candidate times from a dominating constant rate
that each model guarantees on a lookahead window given the frozen history,
accepts with probability total-rate / bound, and assigns the mark
proportionally to the per-type rates at the accepted time.  Models whose
bound holds for the whole remaining horizon (Poisson, Hawkes with truncated
kernels) use a single window per accepted event; the self-correcting model
re-bounds on short windows because its rate drifts upward between events.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .backbone import (
    HawkesModel,
    HomogeneousPoisson,
    SelfCorrecting,
    SinusoidPoisson,
)
from .core import BasisConfig, ConfigError, Dataset, EventSequence, HawkesParams, NumericalError

__all__ = [
    "thinning_sample",
    "sample_mixture",
    "SIM_BASIS",
    "check_delta",
    "build_hawkes_delta_dataset",
    "build_hybrid_dataset",
    "write_metadata",
]

_MAX_EVENTS = 200_000


def thinning_sample(model, horizon: float, rng: np.random.Generator,
                    id: str = "", label: int | None = None) -> EventSequence:
    """Draw one sequence from an intensity model on (0, horizon] by thinning.

    The history lives in two buffers that double when full; the model sees
    the accepted events as ascending ``[:n]`` views of them.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ConfigError(f"horizon must be a finite positive number, got {horizon}")
    times = np.empty(64)
    types = np.empty(64, dtype=np.int64)
    n = 0
    t_arr, d_arr = times[:0], types[:0]
    t = 0.0
    while t < horizon:
        until = min(t + model.lookahead(), horizon)
        bound = model.upper_bound(t, t_arr, d_arr, until)
        if not math.isfinite(bound) or bound < 0:
            raise NumericalError(f"dominating rate {bound} is not usable at t={t}")
        if bound == 0.0:
            if until >= horizon:
                break
            t = until
            continue
        gap = rng.exponential(1.0 / bound)
        if t + gap > until:
            t = until
            continue
        t = t + gap
        lam = model.evaluate(t, t_arr, d_arr)
        total = float(np.add.reduce(lam))  # lam.sum() without its Python wrapper
        if total > bound * (1.0 + 1e-9):
            raise NumericalError(
                f"intensity {total} exceeded its dominating rate {bound} at t={t}"
            )
        if rng.random() * bound <= total:
            # accumulate adds in order as cumsum does, so the mark keeps its bits
            cum = list(itertools.accumulate(lam.tolist()))
            d = min(bisect.bisect_right(cum, rng.random() * total), model.n_types - 1)
            if n == times.size:
                times = np.concatenate([times, np.empty_like(times)])
                types = np.concatenate([types, np.empty_like(types)])
            times[n] = t
            types[n] = d
            n += 1
            if n > _MAX_EVENTS:
                raise NumericalError("runaway simulation: event cap exceeded")
            t_arr, d_arr = times[:n], types[:n]
    return EventSequence(t_arr.copy(), d_arr.copy(), horizon, id=id, label=label)


# ---------------------------------------------------------------------------
# mixtures of generators


def sample_mixture(components: list, horizon: float, n_per_component: int, seed: int = 0,
                   metadata: dict | None = None) -> Dataset:
    """Generate a labelled dataset with ``n_per_component`` sequences on
    (0, ``horizon``] from each intensity model in ``components``; per-sequence
    RNG substreams keep every sequence reproducible independently of the others."""
    if not components:
        raise ConfigError("mixture needs at least one component")
    if n_per_component < 1:
        raise ConfigError(f"n_per_component must be >= 1, got {n_per_component}")
    if len({m.n_types for m in components}) != 1:
        raise ConfigError("all mixture components must share one type alphabet")
    root = np.random.SeedSequence(seed)
    labels = np.repeat(np.arange(len(components)), n_per_component)
    # sequence i draws from child i + 1: child 0 stays unused so that datasets
    # simulated by earlier versions, which spent it on labels, keep their bytes
    streams = root.spawn(len(labels) + 1)[1:]
    width = max(4, len(str(max(len(labels) - 1, 1))))
    sequences = [
        thinning_sample(components[int(lab)], horizon, np.random.default_rng(streams[i]),
                        id=f"seq-{i:0{width}d}", label=int(lab))
        for i, lab in enumerate(labels)
    ]
    meta = dict(metadata or {})
    meta.update(
        seed=seed,
        horizon=horizon,
        n_types=components[0].n_types,
        components=[m.describe() for m in components],
    )
    return Dataset(sequences, components[0].n_types, meta)


# ---------------------------------------------------------------------------
# canned recipes

# Simulation-side triggering basis: one wide bump at lag zero, truncated at 3.
# Generated datasets record it in their metadata so runs stay self-describing.
SIM_BASIS = BasisConfig(centers=np.array([0.0]), sigma=1.0, tau_max=3.0)


def _uniform_hawkes(mu: float, coef: float, n_types: int) -> HawkesModel:
    """Base rate ``mu`` for every type, every coefficient ``coef``, on SIM_BASIS."""
    a = np.full((n_types, n_types, SIM_BASIS.n_basis), float(coef))
    return HawkesModel(HawkesParams(np.full(n_types, float(mu)), a, SIM_BASIS))


def check_delta(k_clusters: int, delta: float, n_types: int = 3) -> None:
    """Reject a separation ``delta`` that is not a finite nonnegative number, or
    that overflows the fastest cluster's total base rate
    ``n_types * (0.5 + delta * (k_clusters - 1))``."""
    if not (math.isfinite(delta) and delta >= 0):
        raise ConfigError(f"delta must be a finite nonnegative number, got {delta}")
    if not math.isfinite(n_types * (0.5 + delta * (k_clusters - 1))):
        raise ConfigError(
            f"delta {delta} overflows the total base rate of {k_clusters} clusters"
        )


def build_hawkes_delta_dataset(k_clusters: int, delta: float, n_per_cluster: int = 100,
                               horizon: float = 10.0, seed: int = 0,
                               n_types: int = 3) -> Dataset:
    """Graded-separation benchmark: ``k`` self-exciting clusters whose base
    rates are (0.5 + delta * m) per type, m = 0..k-1, sharing one triggering
    kernel (coefficient 0.1).  Larger ``delta`` spreads the clusters apart."""
    if k_clusters < 1:
        raise ConfigError("k_clusters must be >= 1")
    check_delta(k_clusters, delta, n_types)
    comps = [
        _uniform_hawkes(0.5 + delta * m, 0.1, n_types)
        for m in range(k_clusters)
    ]
    return sample_mixture(
        comps, horizon, n_per_component=n_per_cluster, seed=seed,
        metadata={"recipe": "hawkes_delta", "delta": delta, "k_clusters": k_clusters},
    )


def build_hybrid_dataset(k_clusters: int, n_per_cluster: int = 100, horizon: float = 20.0,
                         seed: int = 0, n_types: int = 3) -> Dataset:
    """Mixed-dynamics benchmark with 3..5 qualitatively different generators.

    k=3: homogeneous Poisson + sinusoidal Poisson + self-exciting;
    k=4: adds a self-correcting component;
    k=5: adds a second, differently parameterised self-exciting component
         (stand-in for a neural generator, which this package does not ship).

    The three core generators are kept apart in both average rate and burst
    structure (deep slow modulation vs. short self-excited bursts) so that a
    self-exciting mixture fit tells them apart by parameters, not only by
    event counts.
    """
    if k_clusters not in (3, 4, 5):
        raise ConfigError("hybrid recipe supports k_clusters in {3, 4, 5}")
    comps = [
        HomogeneousPoisson(np.full(n_types, 0.4)),
        SinusoidPoisson(np.full(n_types, 1.8), np.full(n_types, 1.6), period=horizon / 2.0),
        _uniform_hawkes(0.8, 0.15, n_types),
    ]
    if k_clusters >= 4:
        comps.append(SelfCorrecting(eta=1.0, gamma=0.5, n_types=n_types))
    if k_clusters == 5:
        comps.append(_uniform_hawkes(1.8, 0.08, n_types))
    return sample_mixture(
        comps, horizon, n_per_component=n_per_cluster, seed=seed,
        metadata={"recipe": "hybrid", "k_clusters": k_clusters},
    )


# ---------------------------------------------------------------------------
# dataset metadata sidecar


def write_metadata(data: Dataset, path) -> None:
    rec = {"n_types": data.n_types, "n_sequences": len(data.sequences), **data.metadata}
    Path(path).write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n", encoding="utf-8")
