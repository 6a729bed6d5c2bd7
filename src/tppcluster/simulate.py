"""Event-sequence simulation via thinning, plus synthetic dataset recipes.

The thinning loop proposes candidate times from a dominating constant rate
that each model guarantees on a lookahead window given the frozen history,
accepts with probability total-rate / bound, and assigns the mark
proportionally to the per-type rates at the accepted time.  Models whose
bound holds for the whole remaining horizon (Poisson, Hawkes with truncated
kernels) use a single window per accepted event; the self-correcting model
re-bounds on short windows because its rate drifts upward between events.

The sequences of one mixture component are drawn together, up to
``_BATCH`` at a time.  Each runs its own thinning loop (:func:`_thinning`,
a generator) with its own random stream, history buffers and bounds, and
draws gap, accept test and mark in the order a lone sequence does.  A step
resumes every live loop up to its next candidate, scores all the
candidates with one batched ``model.intensity`` call, and hands each loop
its rates; a lone sequence (:func:`thinning_sample`) is a batch of one.

Why the bytes hold.  A sequence's bound alone fixes the bits of each gap.
The rates enter only the accept test ``u * bound <= total`` and the mark's
search of their running sum, whose last entry is the total.  A row of
``model.intensity`` depends on its own sequence only, with the same bits in
any batch, so a sequence draws the same events alone as in a batch.  Rates
that differ from another implementation's in their last bits would move an
accepted time or mark only if a uniform draw landed within rounding of a
boundary.
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
# Sequences drawn together.  A step resumes every live loop in turn; past a
# few hundred, their state falls out of cache and each step slows (the
# 20,000-sequence README recipe drew in about 14 s in batches of 256, about
# 20 s in batches of 5,000), and every buffer in the batch stays alive.
_BATCH = 256


def _named(id: str, message: str) -> str:
    return f"{id}: {message}" if id else message


def _thinning(model, horizon: float, rng: np.random.Generator, id: str, label: int | None):
    """One sequence's thinning loop, suspended at each candidate.

    Yields ``(t, times, types)``: the candidate time and the accepted events
    as ascending ``[:n]`` views of two buffers that double when full.  Is
    sent the candidate's per-type rates as a list.  Returns the finished
    :class:`EventSequence`.  Its errors name the sequence ``id``.
    """
    lookahead, n_types = model.lookahead(), model.n_types
    times = np.empty(64)
    types = np.empty(64, dtype=np.int64)
    n = 0
    t_arr, d_arr = times[:0], types[:0]
    t = 0.0
    while t < horizon:
        until = min(t + lookahead, horizon)
        bound = model.upper_bound(t, t_arr, d_arr, until)
        if not math.isfinite(bound) or bound < 0:
            raise NumericalError(_named(id, f"dominating rate {bound} is not usable at t={t}"))
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
        # the running sum of the rates, added in order as cumsum does so the
        # mark keeps its bits; its last entry is the total
        cum = list(itertools.accumulate((yield t, t_arr, d_arr)))
        total = cum[-1]
        if total > bound * (1.0 + 1e-9):
            raise NumericalError(
                _named(id, f"intensity {total} exceeded its dominating rate {bound} at t={t}"))
        if rng.random() * bound <= total:
            d = min(bisect.bisect_right(cum, rng.random() * total), n_types - 1)
            if n == times.size:
                times = np.concatenate([times, np.empty_like(times)])
                types = np.concatenate([types, np.empty_like(types)])
            times[n] = t
            types[n] = d
            n += 1
            if n > _MAX_EVENTS:
                raise NumericalError(_named(id, "runaway simulation: event cap exceeded"))
            t_arr, d_arr = times[:n], types[:n]
    return EventSequence(t_arr.copy(), d_arr.copy(), horizon, id=id, label=label)


def _thin(model, horizon: float, rngs: list, ids: list, label: int | None) -> list:
    """Draw one sequence per generator in ``rngs`` from ``model`` on (0, horizon],
    stepping every live sequence's thinning loop in lockstep: each step sends
    every loop the rates of its last candidate and scores all the next
    candidates with one ``model.intensity`` call."""
    if not (math.isfinite(horizon) and horizon > 0):
        raise ConfigError(f"horizon must be a finite positive number, got {horizon}")
    sequences = [None] * len(rngs)
    walks = [(i, _thinning(model, horizon, rng, id, label))
             for i, (rng, id) in enumerate(zip(rngs, ids))]
    replies = [None] * len(walks)  # a loop starts on None
    while walks:
        live, candidates = [], []
        for (i, walk), reply in zip(walks, replies):
            try:
                candidates.append(walk.send(reply))
            except StopIteration as done:
                sequences[i] = done.value
            else:
                live.append((i, walk))
        walks = live
        if live:
            replies = model.intensity(*zip(*candidates)).tolist()
    return sequences


def thinning_sample(model, horizon: float, rng: np.random.Generator,
                    id: str = "", label: int | None = None) -> EventSequence:
    """Draw one sequence from an intensity model on (0, horizon] by thinning,
    as a batch of one."""
    return _thin(model, horizon, [rng], [id], label)[0]


# ---------------------------------------------------------------------------
# mixtures of generators


def sample_mixture(components: list, horizon: float, n_per_component: int, seed: int = 0,
                   metadata: dict | None = None) -> Dataset:
    """Generate a labelled dataset with ``n_per_component`` sequences on
    (0, ``horizon``] from each intensity model in ``components``; per-sequence
    RNG substreams keep every sequence reproducible independently of the others,
    and each component's sequences are drawn together in lockstep batches."""
    if not components:
        raise ConfigError("mixture needs at least one component")
    if n_per_component < 1:
        raise ConfigError(f"n_per_component must be >= 1, got {n_per_component}")
    if len({m.n_types for m in components}) != 1:
        raise ConfigError("all mixture components must share one type alphabet")
    root = np.random.SeedSequence(seed)
    n_seq = len(components) * n_per_component
    # sequence i draws from child i + 1: child 0 stays unused so that datasets
    # simulated by earlier versions, which spent it on labels, keep their bytes
    streams = root.spawn(n_seq + 1)[1:]
    width = max(4, len(str(max(n_seq - 1, 1))))
    sequences = []
    for lab, model in enumerate(components):
        end = (lab + 1) * n_per_component
        for lo in range(lab * n_per_component, end, _BATCH):
            idx = range(lo, min(lo + _BATCH, end))
            sequences += _thin(model, horizon, [np.random.default_rng(streams[i]) for i in idx],
                               [f"seq-{i:0{width}d}" for i in idx], lab)
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
