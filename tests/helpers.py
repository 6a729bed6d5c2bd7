"""Shared oracle helpers.

Each function runs one independently-coded check against the package and
returns a measurable (max error, p-value, boolean) that both the unit tests
and the acceptance gate assert on.  Everything is seeded and deterministic.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, stats

from tppcluster.backbone import (
    FeatureSet,
    HomogeneousPoisson,
    basis_integrals,
    basis_values,
    hawkes_compensator,
    hawkes_intensity,
    hawkes_loglik,
    hawkes_loglik_grad,
)
from tppcluster.cli import FitConfig, run_fit
from tppcluster.core import (
    BasisConfig,
    Component,
    EventSequence,
    HawkesParams,
    MixtureState,
    PriorBundle,
)
from tppcluster.dpp import build_spectral_model, dpp_log_density, dpp_log_ratio
from tppcluster.metrics import ari
from tppcluster.sampler import (
    FitContext,
    SamplerConfig,
    birth_death_move,
    refresh_non_allocated,
    resample_allocated_r,
    resample_allocations,
    resample_u,
    state_log_joint,
    update_allocated_mu,
)
from tppcluster.simulate import build_hawkes_delta_dataset, thinning_sample

# ---------------------------------------------------------------------------
# random model/sequence instances


def random_instance(rng, max_types=3, max_basis=3, max_events=12):
    """One random (HawkesParams, EventSequence) pair with a finite likelihood."""
    D = int(rng.integers(1, max_types + 1))
    nb = int(rng.integers(1, max_basis + 1))
    tau = float(rng.uniform(0.5, 3.0))
    centers = np.sort(rng.uniform(0.0, tau, size=nb))
    basis = BasisConfig(centers, sigma=float(rng.uniform(0.2, 1.0)), tau_max=tau)
    mu = rng.uniform(0.2, 2.0, size=D)
    a = rng.uniform(0.0, 0.5, size=(D, D, nb))
    params = HawkesParams(mu, a, basis)
    horizon = float(rng.uniform(2.0, 6.0))
    times = np.unique(rng.uniform(1e-3, horizon, size=int(rng.integers(1, max_events + 1))))
    types = rng.integers(0, D, size=times.size)
    return params, EventSequence(times, types, horizon)


# ---------------------------------------------------------------------------
# backbone oracles


def gradient_fd_max_rel_err(n_instances=100, seed=0, step=1e-5):
    """Central finite differences of the log likelihood vs the analytic
    gradient; returns max over instances of max|fd - grad| / max(1, max|grad|)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        params, seq = random_instance(rng)
        dmu, da = hawkes_loglik_grad(params, seq)

        def ll(mu, a):
            return hawkes_loglik(HawkesParams(mu, a, params.basis), seq)

        fd_mu = np.empty_like(dmu)
        for d in range(params.n_types):
            up, dn = params.mu.copy(), params.mu.copy()
            up[d] += step
            dn[d] -= step
            fd_mu[d] = (ll(up, params.a) - ll(dn, params.a)) / (2 * step)
        fd_a = np.empty_like(da)
        for idx in np.ndindex(da.shape):
            up, dn = params.a.copy(), params.a.copy()
            up[idx] += step
            dn[idx] -= step
            fd_a[idx] = (ll(params.mu, up) - ll(params.mu, dn)) / (2 * step)
        scale = max(1.0, np.abs(dmu).max(), np.abs(da).max())
        err = max(np.abs(fd_mu - dmu).max(), np.abs(fd_a - da).max()) / scale
        worst = max(worst, err)
    return worst


def compensator_quad_max_rel_err(n_instances=15, seed=1):
    """Closed-form compensator vs adaptive quadrature of the total intensity,
    split at every integrand breakpoint (events and kernel-truncation lags)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        params, seq = random_instance(rng, max_events=8)
        exact = hawkes_compensator(params, seq)
        breaks = np.concatenate(
            [[0.0, seq.horizon], seq.times, seq.times + params.basis.tau_max]
        )
        breaks = np.unique(breaks[(breaks >= 0.0) & (breaks <= seq.horizon)])
        total = 0.0
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            val, _ = integrate.quad(
                lambda t: float(hawkes_intensity(params, seq.times, seq.types, t).sum()),
                lo, hi, epsabs=1e-11, epsrel=1e-11, limit=200,
            )
            total += val
        worst = max(worst, abs(total - exact) / max(1.0, abs(exact)))
    return worst


# ---------------------------------------------------------------------------
# repulsive-prior oracles


def small_dpp_model(q=2, radius=2, rho=3.0, alpha=0.1, lo=0.5, hi=2.0):
    return build_spectral_model(q, radius, rho, alpha, np.full(q, lo), np.full(q, hi))


def dpp_ratio_vs_recompute_max_abs(n_sets=50, seed=2):
    """Incremental add/remove log ratios vs full density recomputation."""
    rng = np.random.default_rng(seed)
    model = small_dpp_model()
    worst = 0.0
    for _ in range(n_sets):
        m = int(rng.integers(1, 6))
        pts = rng.uniform(0.6, 1.9, size=(m, model.q))
        add = rng.uniform(0.6, 1.9, size=model.q)
        remove = pts[int(rng.integers(m))]
        mode = rng.integers(3)
        a = add if mode in (0, 2) else None
        r = remove if mode in (1, 2) else None
        ratio = dpp_log_ratio(model, pts, add=a, remove=r)
        after = pts
        if r is not None:
            after = np.delete(after, np.flatnonzero(np.all(after == r, axis=1))[0], axis=0)
        if a is not None:
            after = np.vstack([after, a[None, :]])
        full = dpp_log_density(model, after) - dpp_log_density(model, pts)
        worst = max(worst, abs(ratio - full))
    return worst


def dpp_permutation_max_abs(n_sets=25, seed=3):
    rng = np.random.default_rng(seed)
    model = small_dpp_model()
    worst = 0.0
    for _ in range(n_sets):
        pts = rng.uniform(0.6, 1.9, size=(int(rng.integers(2, 7)), model.q))
        base = dpp_log_density(model, pts)
        perm = dpp_log_density(model, pts[rng.permutation(pts.shape[0])])
        worst = max(worst, abs(base - perm))
    return worst


def dpp_duplicate_is_neg_inf():
    model = small_dpp_model()
    pts = np.array([[1.0, 1.2], [1.0, 1.2]])
    return dpp_log_density(model, pts) == -math.inf


# ---------------------------------------------------------------------------
# sampler oracles


def _tiny_fit_context(seed=0):
    """Small dataset + context used by the Metropolis-ratio oracle."""
    data = build_hawkes_delta_dataset(2, 0.9, n_per_cluster=6, horizon=5.0,
                                      seed=seed, n_types=2)
    basis = BasisConfig.for_data(data, n_basis=2)
    features = FeatureSet(data, basis)
    prior = PriorBundle()
    from tppcluster.dpp import model_for_data

    dpp_model = model_for_data(data, prior.dpp, default_rho=2)
    config = SamplerConfig(iterations=1, burn_in=0, seed=seed)
    ctx = FitContext(data, features, prior, dpp_model, config)
    from tppcluster.pretrain import PretrainConfig, pretrain_mixture

    state = pretrain_mixture(data, 2, PretrainConfig(seed=seed), prior, basis,
                             features=features, dpp_model=dpp_model)
    return ctx, state


def mh_oracle_max_abs_diff(n_per_move=100, seed=4):
    """Replay every Metropolis acceptance log-ratio against the full
    log-joint recompute plus exact proposal-density corrections.

    Returns (max abs diff, dict of proposal counts per move type).
    """
    ctx, state = _tiny_fit_context(seed)
    rng = np.random.default_rng(seed + 1)
    oracle_rng = np.random.default_rng(seed + 2)
    p_b = ctx.config.p_birth
    counts = {"birth": 0, "death": 0, "mu_walk": 0}
    worst = 0.0

    def joint(s):
        cols = np.stack([ctx.features.loglik_all(c.mu, c.w)
                         for c in s.allocated + s.non_allocated], axis=1)
        return state_log_joint(s, ctx.data, ctx.prior, ctx.dpp_model, cols)

    def check(lhs, rhs):
        nonlocal worst
        if math.isinf(lhs) and lhs == rhs:
            return
        diff = abs(lhs - rhs)  # NaN when either side is; max() would keep worst past it
        worst = math.inf if math.isnan(diff) else max(worst, diff)

    guard = 0
    while min(counts.values()) < n_per_move and guard < 4000:
        guard += 1
        before = state.copy()
        lj_before = joint(before)
        info = birth_death_move(state, ctx, rng)
        if info["kind"] == "birth":
            counts["birth"] += 1
            u = before.u
            if info["accepted"]:
                w, r = info["w"], info["r"]
            else:
                w = ctx.prior.w_sample(oracle_rng, (ctx.dpp_model.q, ctx.dpp_model.q,
                                                    state.basis.n_basis))
                r = float(oracle_rng.exponential(1.0 / (1.0 + u)))
            after = before.copy()
            after.non_allocated.append(Component(info["mu"].copy(), w.copy(), r))
            q_fwd = (math.log(p_b) + ctx.prior.w_log_prior(w)
                     + math.log1p(u) - (1.0 + u) * r)
            q_rev = math.log(1.0 - p_b) - math.log(info["l_before"] + 1)
            check(info["log_acc"], joint(after) - lj_before + q_rev - q_fwd)
        elif not info.get("noop"):
            counts["death"] += 1
            victim = info["victim"]
            u = before.u
            after = before.copy()
            after.non_allocated.pop(info["index"])
            q_fwd = math.log(1.0 - p_b) - math.log(info["l_before"])
            q_rev = (math.log(p_b) + ctx.prior.w_log_prior(victim.w)
                     + math.log1p(u) - (1.0 + u) * victim.r)
            check(info["log_acc"], joint(after) - lj_before + q_rev - q_fwd)

        # replay the sequential base-rate walk: each proposal is judged from
        # the state left behind by the previous accepted move
        before = state.copy()
        lj_before = joint(before)
        for info in update_allocated_mu(state, ctx, rng):
            counts["mu_walk"] += 1
            after = before.copy()
            after.allocated[info["m"]].mu = info["mu_prop"].copy()
            lj_after = joint(after)
            check(info["log_acc"], lj_after - lj_before)
            if info["accepted"]:
                before, lj_before = after, lj_after

        refresh_non_allocated(state, ctx, rng)
        resample_allocated_r(state, rng)
        resample_allocations(state, ctx, rng)
        resample_u(state, ctx, rng)
    return worst, counts


def psi_quad_max_rel_err(us=(0.0, 0.3, 1.0, 4.0)):
    """psi(u) = integral of e^{-ur} e^{-r} dr vs the closed form 1/(1+u)."""
    from tppcluster.sampler import psi_log

    worst = 0.0
    for u in us:
        numeric, _ = integrate.quad(lambda r: math.exp(-(1.0 + u) * r), 0.0, np.inf)
        closed = math.exp(psi_log(u))
        worst = max(worst, abs(numeric - closed) / closed)
    return worst


def conjugate_vs_mh_min_ks_pvalue(n=10_000, seed=5):
    """Exact conjugate draws vs a generic random-walk MH targeting the same
    conditionals, compared with two-sample KS tests.

    Covers the allocated weight seed (Gamma(n_m+1, 1+u)), the spare weight
    seed (Exp(1+u)), and the ancillary u (Gamma(N, t)).  Returns the smallest
    of the three p-values.
    """
    rng = np.random.default_rng(seed)
    basis = BasisConfig(np.array([0.0]), 1.0, 1.0)
    n_m, u_fixed = 9, 1.0

    class _Ctx:  # resample_u only touches .n
        n = 6

    # exact conjugate draws through the package samplers
    state_a = MixtureState([Component(np.array([1.0]), np.zeros((1, 1, 1)), 1.0)],
                           [], np.zeros(n_m, np.int64), u_fixed, basis)
    cons_r = np.empty(n)
    for i in range(n):
        resample_allocated_r(state_a, rng)
        cons_r[i] = state_a.allocated[0].r

    prior = PriorBundle(beta_w=10.0)
    state_n = MixtureState([Component(np.array([1.0]), np.zeros((1, 1, 1)), 1.0)],
                           [Component(np.array([1.5]), np.zeros((1, 1, 1)), 1.0)],
                           np.zeros(1, np.int64), u_fixed, basis)
    ctx_n = FitContext.__new__(FitContext)
    ctx_n.prior = prior
    cons_rna = np.empty(n)
    for i in range(n):
        refresh_non_allocated(state_n, ctx_n, rng)
        cons_rna[i] = state_n.non_allocated[0].r

    t_fixed = 3.5
    state_u = MixtureState([Component(np.array([1.0]), np.zeros((1, 1, 1)), t_fixed)],
                           [], np.zeros(1, np.int64), 1.0, basis)
    cons_u = np.empty(n)
    for i in range(n):
        resample_u(state_u, _Ctx, rng)
        cons_u[i] = state_u.u

    def mh_chain(log_target, x0, steps=300, scale=0.5):
        """Vectorized log-space random-walk MH; returns exp(final states)."""
        x = x0.copy()
        for _ in range(steps):
            prop = x + scale * rng.standard_normal(x.size)
            la = log_target(prop) - log_target(x)
            x = np.where(np.log(rng.random(x.size)) < la, prop, x)
        return np.exp(x)

    # targets in x = log r space (density includes the e^x Jacobian)
    mh_r = mh_chain(lambda x: (n_m + 1) * x - (1 + u_fixed) * np.exp(x),
                    rng.normal(math.log(5.0), 1.0, n))
    mh_rna = mh_chain(lambda x: x - (1 + u_fixed) * np.exp(x),
                      rng.normal(math.log(0.5), 1.0, n))
    mh_u = mh_chain(lambda x: _Ctx.n * x - t_fixed * np.exp(x),
                    rng.normal(math.log(2.0), 1.0, n))

    return min(
        stats.ks_2samp(cons_r, mh_r).pvalue,
        stats.ks_2samp(cons_rna, mh_rna).pvalue,
        stats.ks_2samp(cons_u, mh_u).pvalue,
    )


# ---------------------------------------------------------------------------
# metric / simulation oracles


def ari_bruteforce_max_abs_diff(n_instances=50, n=20, seed=6):
    """Package ARI vs an O(N^2) explicit pair-enumeration oracle."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        pred = rng.integers(0, int(rng.integers(2, 6)), size=n)
        truth = rng.integers(0, int(rng.integers(2, 6)), size=n)
        together = 0.0
        pred_pairs = 0.0
        truth_pairs = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                sp = pred[i] == pred[j]
                st = truth[i] == truth[j]
                together += sp and st
                pred_pairs += sp
                truth_pairs += st
        n_pairs = n * (n - 1) / 2.0
        expected = pred_pairs * truth_pairs / n_pairs
        max_index = 0.5 * (pred_pairs + truth_pairs)
        oracle = 1.0 if max_index == expected else (together - expected) / (max_index - expected)
        worst = max(worst, abs(ari(pred, truth) - oracle))
    return worst


def thinning_poisson_mean_count(n_reps=1000, rate=2.0, horizon=50.0, seed=7):
    """Mean event count of thinned homogeneous-Poisson draws; expectation 100."""
    model = HomogeneousPoisson([rate])
    streams = np.random.SeedSequence(seed).spawn(n_reps)
    counts = [
        thinning_sample(model, horizon, np.random.default_rng(s)).n_events
        for s in streams
    ]
    return float(np.mean(counts))


def rescaled_increments(times, compensator_at):
    """Time-rescaling increments Lambda(t_i) - Lambda(t_{i-1}); Exp(1) iid
    when the simulator matches the model."""
    vals = np.array([compensator_at(t) for t in times])
    return np.diff(np.concatenate([[0.0], vals]))


def hawkes_compensator_at(params, seq):
    """Returns Lambda(t) for the truncated-kernel self-exciting model."""
    col = params.a.sum(axis=0)  # (D, n_basis)

    def at(t):
        total = t * float(params.mu.sum())
        past = seq.times < t
        if np.any(past):
            G = basis_integrals(params.basis, t - seq.times[past])
            total += float(np.einsum("ij,ij->", col[seq.types[past]], G))
        return total

    return at


# ---------------------------------------------------------------------------
# reference simulator: the whole-history thinning loop the windowed one must
# reproduce byte for byte


def whole_history_intensity(params, times, types, t):
    """Per-type intensity at ``t`` from a mask over the whole history: the
    strict past, then lags within ``tau_max``, summed by one einsum."""
    times = np.asarray(times, dtype=np.float64)
    types = np.asarray(types, dtype=np.int64)
    past = times < t
    lam = params.mu.copy()
    if np.any(past):
        dts = t - times[past]
        keep = dts <= params.basis.tau_max
        if np.any(keep):
            g = basis_values(params.basis, dts[keep])
            src = types[past][keep]
            lam = lam + np.einsum("dpj,pj->d", params.a[:, src, :], g)
    return lam


def whole_history_features(data, basis):
    """Padded ``(excite, comp)`` of ``data`` from the whole history: each event
    adds the bump values of every earlier event of its sequence, in ascending
    order (zero beyond ``tau_max``), and each event adds its integrated bump
    mass to its sequence's compensator features."""
    D, nb = data.n_types, basis.n_basis
    imax = max([s.n_events for s in data.sequences] + [1])
    excite = np.zeros((len(data.sequences), imax, D, nb))
    comp = np.zeros((len(data.sequences), D, nb))
    for s, seq in enumerate(data.sequences):
        for i in range(seq.n_events):
            g = basis_values(basis, seq.times[i] - seq.times[:i])  # (i, n_basis)
            np.add.at(excite[s, i], seq.types[:i], g)
        np.add.at(comp[s], seq.types, basis_integrals(basis, seq.horizon - seq.times))
    return excite, comp


class WholeHistoryHawkes:
    """A self-exciting simulation model that reads the whole history."""

    def __init__(self, params):
        self.params = params
        self.n_types = params.n_types
        self._gmax = (1.0 / math.sqrt(2.0 * math.pi)) / params.basis.sigma
        self._colsum = params.a.sum(axis=(0, 2))

    def intensity(self, ts, times, types):
        return np.array([whole_history_intensity(self.params, x, y, t)
                         for t, x, y in zip(ts, times, types)])

    def upper_bound(self, t, times, types, until):
        times = np.asarray(times, dtype=np.float64)
        types = np.asarray(types, dtype=np.int64)
        lo = np.searchsorted(times, t - self.params.basis.tau_max, side="right")
        return float(self.params.mu.sum() + self._gmax * self._colsum[types[lo:]].sum())

    def lookahead(self):
        return math.inf


def list_thinning_sample(model, horizon, rng):
    """Thinning with the history kept in Python lists and copied into fresh
    arrays for every candidate, without the error checks; returns (times, types)."""
    times, types = [], []
    t = 0.0
    while t < horizon:
        until = min(t + model.lookahead(), horizon)
        t_arr = np.asarray(times, dtype=np.float64)
        d_arr = np.asarray(types, dtype=np.int64)
        bound = model.upper_bound(t, t_arr, d_arr, until)
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
        lam = np.asarray(model.intensity([t], [t_arr], [d_arr])[0], dtype=np.float64)
        total = float(lam.sum())
        if rng.random() * bound <= total:
            cum = np.cumsum(lam)
            d = int(np.searchsorted(cum, rng.random() * total, side="right"))
            times.append(t)
            types.append(min(d, model.n_types - 1))
    return np.asarray(times, dtype=np.float64), np.asarray(types, dtype=np.int64)


# ---------------------------------------------------------------------------
# determinism oracles


def simulate_deterministic(seed=8):
    a = build_hawkes_delta_dataset(2, 0.7, n_per_cluster=5, horizon=6.0, seed=seed)
    b = build_hawkes_delta_dataset(2, 0.7, n_per_cluster=5, horizon=6.0, seed=seed)
    return all(
        np.array_equal(x.times, y.times) and np.array_equal(x.types, y.types)
        and x.label == y.label and x.id == y.id
        for x, y in zip(a.sequences, b.sequences)
    )


def fit_deterministic(seed=9):
    data = build_hawkes_delta_dataset(2, 1.0, n_per_cluster=8, horizon=6.0, seed=3)
    cfg = FitConfig.resolve(None, {
        "seed": seed,
        "eval_fraction": 0.0,
        "pretrain": {"m_init": 2},
        "sampler": {"iterations": 50, "burn_in": 20},
    })
    r1 = run_fit(data, cfg)
    r2 = run_fit(data, cfg)
    return (
        r1.trace.log_joint == r2.trace.log_joint
        and r1.trace.k == r2.trace.k
        and all(np.array_equal(x, y) for x, y in zip(r1.trace.labels, r2.trace.labels))
        and r1.report.map_log_joint == r2.report.map_log_joint
        and np.array_equal(r1.report.map_state.c, r2.report.map_state.c)
    )
