"""Trans-dimensional Gibbs sampler for the repulsive mixture of
self/cross-exciting sequences.

One sweep updates, in order:

1. non-allocated components — birth/death Metropolis moves on the base-rate
   configuration (the coefficient and weight-seed marginals are integrated
   out, which reduces the weight factor to psi(u) = 1 / (1 + u)), then exact
   refreshes of their weight seeds (Exp(1 + u)) and coefficients (prior);
2. allocated components — random-walk Metropolis on each base-rate vector
   (repulsive-prior ratio times the members' likelihood ratio), exact
   conjugate draws of the weight seeds (Gamma(n_m + 1, 1 + u)), and a
   stochastic-gradient Langevin step on the triggering coefficients;
3. allocations — every sequence picks a component (allocated or spare) with
   probability proportional to r_m * L(s | theta_m), after which components
   are repartitioned by occupancy;
4. the auxiliary scalar u — Gamma(N, rate = sum of all r).

Each component caches its per-event excitation under its coefficients, so
the excitation GEMM runs once per value of w: reallocation computes it, and
the next base-rate walk and Langevin step read their rows from it in place.
Reallocation also caches the event log-rates its likelihood column sums,
under the same (mu, w), and the walk reads its current rates' term from
them (in the first sweep, after scoring as reallocation does), so it scores
only the proposal.  ``Component.move`` drops these caches when mu or w
changes.  Every repulsive-prior density of a fit, in its ratios and stored
samples alike, is passed the fit context's ``DppCache``.  A Langevin
gradient or a stored log joint that is not finite raises ``NumericalError``.

Every Metropolis move exposes its proposal and acceptance log-ratio through a
small info record so tests can replay it against the full log joint.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .backbone import FeatureSet, hawkes_loglik
from .core import (
    Component,
    ConfigError,
    Dataset,
    DegenerateModelError,
    MixtureState,
    NumericalError,
    PriorBundle,
)
from .dpp import DppCache, DppSpectralModel, dpp_log_density, dpp_log_ratio
from .metrics import k_hist_json, m_summary

__all__ = [
    "SamplerConfig",
    "PosteriorTrace",
    "RunReport",
    "FitContext",
    "psi_log",
    "birth_death_move",
    "refresh_non_allocated",
    "update_allocated_mu",
    "resample_allocated_r",
    "sgld_update_w",
    "resample_allocations",
    "resample_u",
    "state_log_joint",
    "run_sampler",
]


def psi_log(u: float) -> float:
    """log of int_0^inf e^(-u r) p(r) dr for the unit-rate exponential prior
    on weight seeds; evaluates to -log(1 + u)."""
    if u <= -1.0:
        raise ValueError("psi(u) requires u > -1")
    return -math.log1p(u)


@dataclass(frozen=True)
class SamplerConfig:
    iterations: int = 500
    burn_in: int = 200
    p_birth: float = 0.5
    bd_attempts: int = 1          # birth/death proposals per sweep
    s_mu: float = 0.05            # base-rate random-walk scale, unit-cube units
    stride: int = 1               # store every stride-th post-burn-in sweep

    def __post_init__(self):
        # a fit reports the best stored sample, so it needs one
        if self.iterations <= self.burn_in:
            raise ConfigError("sampler iterations must exceed burn_in")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be nonnegative")
        if not (0.0 < self.p_birth < 1.0):
            raise ConfigError("p_birth must lie strictly between 0 and 1")
        if self.bd_attempts < 0:
            raise ConfigError("bd_attempts must be nonnegative")
        # a step wider than the box leaves it almost surely; far wider, it overflows
        if not 0.0 < self.s_mu <= 1.0:
            raise ConfigError(f"proposal scale s_mu must lie in (0, 1] prior-box widths, "
                              f"got {self.s_mu:g}")
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")


@dataclass
class FitContext:
    """Everything a sweep needs besides the state itself."""

    data: Dataset
    features: FeatureSet
    prior: PriorBundle
    dpp_model: DppSpectralModel
    config: SamplerConfig
    # passed to every repulsive-prior density of the fit; each context has its own
    dpp_cache: DppCache = field(default_factory=DppCache, init=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.data.sequences)


# ---------------------------------------------------------------------------
# individual moves


def _excitation(comp: Component, ctx: FitContext) -> np.ndarray:
    """``comp``'s cached whole-store excitation block, which a move cuts to
    its sequences with ``rows``; computed when it has none (a new or changed
    w, or a first sweep)."""
    if comp.excitation is None:
        comp.excitation = ctx.features.excitation(comp.w)
    return comp.excitation


def birth_death_move(state: MixtureState, ctx: FitContext, rng: np.random.Generator) -> dict:
    """One birth/death proposal on the non-allocated components.

    Birth draws a base-rate vector uniformly on the prior box and accepts with

        min{1, exp(dpp ratio) * psi(u) * (1 - p_b) / (p_b * (l + 1))},

    filling in coefficients and weight seed from their exact conditionals on
    acceptance; death removes a uniformly chosen spare with the reciprocal
    ratio.  Proposing a death with no spares is a no-op.
    """
    cfg = ctx.config
    model = ctx.dpp_model
    u = state.u
    l = state.l
    all_mu = state.all_mu()
    if rng.random() < cfg.p_birth:
        cube = rng.random(model.q)
        mu_star = model.box_lo + cube * (model.box_hi - model.box_lo)
        delta = dpp_log_ratio(model, all_mu, add=mu_star, cache=ctx.dpp_cache)
        log_acc = delta + psi_log(u) + math.log((1.0 - cfg.p_birth) / (cfg.p_birth * (l + 1)))
        accepted = math.log(rng.random()) < log_acc
        info = {"kind": "birth", "mu": mu_star, "log_acc": log_acc,
                "accepted": accepted, "l_before": l}
        if accepted:
            w = ctx.prior.w_sample(rng, (model.q, model.q, state.basis.n_basis))
            r = rng.exponential(1.0 / (1.0 + u))
            state.non_allocated.append(Component(mu_star, w, float(r)))
            info["w"] = w
            info["r"] = r
        return info
    if l == 0:
        return {"kind": "death", "accepted": False, "log_acc": -math.inf,
                "l_before": 0, "noop": True}
    j = int(rng.integers(l))
    victim = state.non_allocated[j]
    delta = dpp_log_ratio(model, all_mu, remove=victim.mu, cache=ctx.dpp_cache)
    log_acc = delta - psi_log(u) + math.log(cfg.p_birth * l / (1.0 - cfg.p_birth))
    accepted = math.log(rng.random()) < log_acc
    info = {"kind": "death", "victim": victim, "index": j, "log_acc": log_acc,
            "accepted": accepted, "l_before": l}
    if accepted:
        state.non_allocated.pop(j)
    return info


def refresh_non_allocated(state: MixtureState, ctx: FitContext, rng: np.random.Generator) -> None:
    """Exact conditional refresh of spare components: r ~ Exp(1 + u) and
    coefficients from their prior (no data is attached to them)."""
    u = state.u
    for comp in state.non_allocated:
        comp.r = float(rng.exponential(1.0 / (1.0 + u)))
        comp.move(w=ctx.prior.w_sample(rng, comp.w.shape))


def update_allocated_mu(state: MixtureState, ctx: FitContext, rng: np.random.Generator) -> list[dict]:
    """Random-walk Metropolis on each allocated component's base rates.

    The acceptance ratio combines the repulsive-prior change of swapping the
    old vector for the proposed one with the likelihood ratio over the
    component's member sequences.  Proposals leaving the prior box are
    rejected outright.
    """
    model = ctx.dpp_model
    cfg = ctx.config
    width = model.box_hi - model.box_lo
    infos = []
    for m, comp in enumerate(state.allocated):
        step = cfg.s_mu * width * rng.standard_normal(model.q)
        prop = comp.mu + step
        info = {"kind": "mu_walk", "m": m, "mu_prop": prop}
        if not model.in_box(prop):
            info.update(log_acc=-math.inf, accepted=False)
            infos.append(info)
            continue
        members = (state.c == m).nonzero()[0]
        rows = ctx.features.rows(members)
        delta_dpp = dpp_log_ratio(model, state.all_mu(), add=prop, remove=comp.mu,
                                  cache=ctx.dpp_cache)
        x = _excitation(comp, ctx)[rows]
        _score(comp, ctx)  # the current rates' log-rates, as reallocation caches them
        horizon_sum = float(np.add.reduce(ctx.features.horizons[members]))
        delta_lik = (
            ctx.features.event_term(prop, x, members)
            - float(np.add.reduce(comp.log_rates[rows], axis=None))
            - (np.add.reduce(prop) - np.add.reduce(comp.mu)) * horizon_sum
        )
        log_acc = delta_dpp + delta_lik
        accepted = math.log(rng.random()) < log_acc
        info.update(log_acc=log_acc, accepted=accepted)
        if accepted:
            comp.move(mu=prop)
        infos.append(info)
    return infos


def resample_allocated_r(state: MixtureState, rng: np.random.Generator) -> None:
    """Exact conjugate draw of each allocated weight seed:
    r_m | ... ~ Gamma(n_m + 1, rate 1 + u)."""
    counts = state.counts()
    for m, comp in enumerate(state.allocated):
        comp.r = float(rng.gamma(counts[m] + 1.0, 1.0 / (1.0 + state.u)))


def sgld_update_w(state: MixtureState, ctx: FitContext, sweep: int,
                  rng: np.random.Generator) -> None:
    """Stochastic-gradient Langevin step on every allocated coefficient tensor.

    Uses the schedule step eps_j, a minibatch of min(n_m, n_*) member
    sequences with the n_m / batch drift rescale, Gaussian noise of variance
    eps_j, and reflection at zero to stay in the nonnegative orthant.  Rates
    are at least the box's lower face, so a gradient that is not finite is
    an overflow: it raises ``NumericalError`` naming component and sweep.
    """
    sched = ctx.prior.sgld
    eps = sched.step_size(sweep)
    for m, comp in enumerate(state.allocated):
        members = (state.c == m).nonzero()[0]
        n_m = members.size
        b = min(sched.minibatch, n_m)
        batch = rng.choice(members, size=b, replace=False) if b < n_m else members
        x = _excitation(comp, ctx)[ctx.features.rows(batch)]
        grad = ctx.features.grad_a(comp.mu, comp.w, batch, x)
        if grad is None or not np.logical_and.reduce(np.isfinite(grad), axis=None):
            raise NumericalError(f"the Langevin gradient of allocated component {m} is not "
                                 f"finite at sweep {sweep}")
        drift = -ctx.prior.beta_w + (n_m / b) * grad
        noise = rng.normal(0.0, math.sqrt(eps), size=comp.w.shape)
        comp.move(w=np.abs(comp.w + noise + 0.5 * eps * drift))


def _score(comp: Component, ctx: FitContext) -> np.ndarray:
    """``comp``'s likelihood column, cached with its event log-rates when it has none."""
    if comp.loglik_col is None:
        comp.loglik_col, comp.log_rates = ctx.features.loglik_all(
            comp.mu, comp.w, x=_excitation(comp, ctx), log_rates=True)
    return comp.loglik_col


def _component_columns(state: MixtureState, ctx: FitContext) -> np.ndarray:
    # (N, k + l), a transposed view: the columns' values, with none of column_stack's wrapping
    return np.array([_score(comp, ctx) for comp in state.allocated + state.non_allocated]).T


def resample_allocations(state: MixtureState, ctx: FitContext,
                         rng: np.random.Generator) -> None:
    """Draw every assignment from p(c_i = m) ∝ r_m L(s_i | theta_m) over all
    allocated and spare components, then repartition by occupancy.

    Sampling uses the Gumbel-argmax form of the categorical, which is exact
    and needs no explicit normalisation.
    """
    comps = state.allocated + state.non_allocated
    cols = _component_columns(state, ctx)
    log_r = np.log(np.array([comp.r for comp in comps]))
    logits = cols + log_r[None, :]
    finite_rows = np.logical_or.reduce(np.isfinite(logits), axis=1)
    if not np.logical_and.reduce(finite_rows):
        bad = int((~finite_rows).nonzero()[0][0])
        raise DegenerateModelError(
            f"sequence {ctx.data.sequences[bad].id!r} has zero likelihood "
            "under every component"
        )
    gumbel = rng.gumbel(size=logits.shape)
    choice = np.where(np.isfinite(logits), logits + gumbel, -np.inf).argmax(axis=1)

    counts = np.bincount(choice, minlength=len(comps))
    alloc_idx = (counts > 0).nonzero()[0]
    spare_idx = (counts == 0).nonzero()[0]
    remap = np.empty(len(comps), dtype=np.int64)
    remap[alloc_idx] = np.arange(alloc_idx.size)
    state.allocated = [comps[i] for i in alloc_idx]
    state.non_allocated = [comps[i] for i in spare_idx]
    state.c = remap[choice]


def resample_u(state: MixtureState, ctx: FitContext, rng: np.random.Generator) -> None:
    """u | ... ~ Gamma(N, rate t) with t the sum of every weight seed."""
    t = state.t_total()
    state.u = float(rng.gamma(ctx.n, 1.0 / t))


# ---------------------------------------------------------------------------
# driver


@dataclass
class PosteriorTrace:
    """Stored post-burn-in samples (every ``stride``-th sweep)."""

    iterations: list[int] = field(default_factory=list)
    k: list[int] = field(default_factory=list)
    l: list[int] = field(default_factory=list)
    log_joint: list[float] = field(default_factory=list)
    labels: list[np.ndarray] = field(default_factory=list)
    components: list[list[dict]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.iterations)


@dataclass
class RunReport:
    """Summary of one sampler run (JSON-friendly via ``to_dict``)."""

    iterations: int
    burn_in: int
    k_mean: float
    k_hist: dict
    kl_mean: float
    acceptance: dict
    map_iteration: int
    map_log_joint: float
    map_state: MixtureState
    dpp_summary: dict
    wall_clock_sec: float

    def to_dict(self) -> dict:
        return {
            "n_sequences": self.map_state.c.size,
            "iterations": self.iterations,
            "burn_in": self.burn_in,
            "k_mean": self.k_mean,
            "k_hist": k_hist_json(self.k_hist),
            "kl_mean": self.kl_mean,
            "acceptance": self.acceptance,
            "map": {"iteration": self.map_iteration, "log_joint": self.map_log_joint,
                    **self.map_state.to_dict()},
            "dpp": self.dpp_summary,
            "wall_clock_sec": self.wall_clock_sec,
        }


def _canonicalize(state: MixtureState) -> MixtureState:
    """Sort components lexicographically by base rates (allocated first).

    Makes the sweep's processing order a function of the state's content, so
    label permutations of the same state produce identical chains.
    """
    order_a = sorted(range(state.k), key=lambda m: tuple(state.allocated[m].mu))
    order_n = sorted(range(state.l), key=lambda m: tuple(state.non_allocated[m].mu))
    remap = np.empty(state.k, dtype=np.int64)
    remap[np.asarray(order_a, dtype=np.int64)] = np.arange(state.k)
    return MixtureState(
        [state.allocated[m] for m in order_a],
        [state.non_allocated[m] for m in order_n],
        remap[state.c],
        state.u,
        state.basis,
    )


def state_log_joint(state: MixtureState, data: Dataset, prior: PriorBundle,
                    dpp_model: DppSpectralModel, cols: np.ndarray | None = None,
                    cache: DppCache | None = None) -> float:
    """Unnormalised log joint density of a full mixture state given ``data``
    (up to one state-independent constant):

        log p = log dpp(all mu)
              + sum_alloc [ log p(w_m) + log p(r_m) + n_m log r_m ]
              + sum_i log L(s_i | theta_{c_i})
              + sum_non_alloc [ log p(w_m) + log p(r_m) ]
              + (N - 1) log u - u * t - log (N-1)!        with t = sum of all r.

    ``cols`` are the cached likelihood columns, ``(N, k + l)`` with the
    allocated components first; without them each sequence is scored by
    ``hawkes_loglik``, the independent reference.  A fit passes its
    context's ``DppCache`` as ``cache``; without it the density is computed
    from scratch, the reference the Metropolis-ratio oracle compares against.
    Invalid states (nonpositive weight seeds or ``u``, points outside the
    prior box, a singular Gram matrix) get -inf rather than raising, so
    Metropolis ratios can treat them as auto-rejects.  Duplicated base-rate
    vectors are not certain to: their Gram matrix may be singular only up to
    rounding (see ``dpp_log_density``).
    """
    n = len(data.sequences)
    if state.c.size != n:
        raise ValueError(f"state covers {state.c.size} sequences, dataset has {n}")
    if not (state.u > 0 and np.isfinite(state.u)) or any(
            comp.r <= 0 for comp in state.allocated + state.non_allocated):
        return -math.inf
    total = dpp_log_density(dpp_model, state.all_mu(), cache)
    if not np.isfinite(total):
        return -math.inf
    counts = state.counts()
    for m, comp in enumerate(state.allocated):
        total += prior.w_log_prior(comp.w) - comp.r + counts[m] * math.log(comp.r)
    if cols is None:
        params = [comp.params(state.basis) for comp in state.allocated]
        loglik = np.array([hawkes_loglik(params[m], seq)
                           for m, seq in zip(state.c, data.sequences)])
    else:
        loglik = cols[np.arange(n), state.c]
    total += float(np.add.reduce(loglik))
    for comp in state.non_allocated:
        total += prior.w_log_prior(comp.w) - comp.r
    t = state.t_total()
    total += (n - 1) * math.log(state.u) - state.u * t - float(gammaln(n))
    return float(total) if np.isfinite(total) else -math.inf


def run_sampler(data: Dataset, init: MixtureState, prior: PriorBundle,
                config: SamplerConfig, features: FeatureSet, dpp_model: DppSpectralModel, *,
                rng: np.random.Generator):
    """Run the full conditional sweep scheme; returns (trace, report).

    Iterations up to ``burn_in`` are discarded; afterwards every
    ``stride``-th sweep is stored, giving ceil((iterations - burn_in)/stride)
    samples, at least one.  The maximum-log-joint stored sample is kept as
    the point estimate.  All randomness flows through the one generator
    ``rng``, so a run is fixed by the seed it was made from.
    """
    t0 = time.perf_counter()
    ctx = FitContext(data, features, prior, dpp_model, config)
    state = init.copy()
    bad = state.violations(len(data.sequences))
    if bad:
        raise ConfigError("invalid initial state: " + "; ".join(bad))
    state = _canonicalize(state)
    if not all(dpp_model.in_box(c.mu) for c in state.allocated + state.non_allocated):
        raise ConfigError("initial base rates must lie inside the prior box")
    if dpp_log_density(dpp_model, state.all_mu(), ctx.dpp_cache) == -math.inf:
        raise ConfigError(
            f"the initial state's {state.k + state.l} components have repulsive-prior density "
            f"zero (a singular Gram matrix) at prior.dpp.rho={dpp_model.rho:g}, "
            f"prior.dpp.alpha={dpp_model.alpha:g}; lower alpha or rho, or start from fewer "
            f"components")

    trace = PosteriorTrace()
    accept = {"birth": [0, 0], "death": [0, 0], "mu_walk": [0, 0]}
    map_iter = None

    for sweep in range(1, config.iterations + 1):
        for _ in range(config.bd_attempts):
            info = birth_death_move(state, ctx, rng)
            if not info.get("noop"):
                accept[info["kind"]][1] += 1
                accept[info["kind"]][0] += int(info["accepted"])
        refresh_non_allocated(state, ctx, rng)
        for info in update_allocated_mu(state, ctx, rng):
            accept["mu_walk"][1] += 1
            accept["mu_walk"][0] += int(info["accepted"])
        resample_allocated_r(state, rng)
        sgld_update_w(state, ctx, sweep, rng)
        resample_allocations(state, ctx, rng)
        resample_u(state, ctx, rng)

        if sweep > config.burn_in and (sweep - config.burn_in - 1) % config.stride == 0:
            lj = state_log_joint(state, data, prior, dpp_model, _component_columns(state, ctx),
                                 ctx.dpp_cache)
            if not math.isfinite(lj):
                raise NumericalError(f"the log joint of the sample stored at sweep {sweep} "
                                     "is not finite")
            trace.iterations.append(sweep)
            trace.k.append(state.k)
            trace.l.append(state.l)
            trace.log_joint.append(lj)
            trace.labels.append(state.c.copy())
            trace.components.append([
                {"mu": c.mu.tolist(), "r": c.r,
                 "w_mean": float(np.add.reduce(c.w, axis=None)) / c.w.size}
                for c in state.allocated
            ])
            if map_iter is None or lj > map_log_joint:
                map_log_joint = lj
                map_iter = sweep
                map_state = state.copy()

    wall = time.perf_counter() - t0
    k_mean, k_hist = m_summary(trace.k)
    kl_mean = float((np.asarray(trace.k) + np.asarray(trace.l)).mean())
    rates = {
        name: (cnt[0] / cnt[1] if cnt[1] else None) for name, cnt in accept.items()
    }
    report = RunReport(
        iterations=config.iterations,
        burn_in=config.burn_in,
        k_mean=k_mean,
        k_hist=k_hist,
        kl_mean=kl_mean,
        acceptance=rates,
        map_iteration=map_iter,
        map_log_joint=map_log_joint,
        map_state=map_state,
        dpp_summary=dpp_model.describe(),
        wall_clock_sec=wall,
    )
    return trace, report
