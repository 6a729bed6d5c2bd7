"""Gibbs sweep moves and the posterior-sampler driver."""

import json
import math

import numpy as np
import pytest

import helpers
from tppcluster.backbone import FeatureSet
from tppcluster.core import (
    BasisConfig,
    Component,
    ConfigError,
    Dataset,
    DegenerateModelError,
    EventSequence,
    MixtureState,
    PriorBundle,
    SgldSchedule,
)
from tppcluster.dpp import build_spectral_model, model_for_data
from tppcluster.metrics import purity
from tppcluster.pretrain import PretrainConfig, pretrain_mixture
from tppcluster.sampler import (
    FitContext,
    SamplerConfig,
    _canonicalize,
    _component_columns,
    birth_death_move,
    psi_log,
    refresh_non_allocated,
    resample_allocated_r,
    resample_allocations,
    resample_u,
    run_sampler,
    sgld_update_w,
    state_log_joint,
    update_allocated_mu,
)
from tppcluster.simulate import build_hawkes_delta_dataset

BASIS1 = BasisConfig(np.array([0.0]), 1.0, 3.0)


def _empty_seq(horizon=1.0):
    return EventSequence(np.array([]), np.array([]), horizon)


def _simple_ctx(data, basis, prior=None, **cfg_kw):
    prior = prior or PriorBundle()
    features = FeatureSet(data, basis)
    model = build_spectral_model(data.n_types, 2, 2.0, 0.1,
                                 np.full(data.n_types, 0.05),
                                 np.full(data.n_types, 5.0))
    config = SamplerConfig(**{"iterations": 1, "burn_in": 0, **cfg_kw})
    return FitContext(data, features, prior, model, config)


# ---------------------------------------------------------------------------
# weight-seed marginal


def test_psi_closed_form():
    assert psi_log(0.0) == 0.0
    assert psi_log(1.0) == pytest.approx(-math.log(2.0))
    with pytest.raises(ValueError):
        psi_log(-1.0)
    assert helpers.psi_quad_max_rel_err() < 1e-8


def test_sampler_config_validation():
    cfg = SamplerConfig()
    assert cfg.iterations == 500 and cfg.burn_in == 200
    with pytest.raises(ConfigError):
        SamplerConfig(iterations=10, burn_in=11)
    with pytest.raises(ConfigError, match="exceed burn_in"):
        SamplerConfig(iterations=6, burn_in=6)  # a run stores at least one sample
    with pytest.raises(ConfigError):
        SamplerConfig(iterations=6, burn_in=-1)
    with pytest.raises(ConfigError):
        SamplerConfig(p_birth=0.0)
    with pytest.raises(ConfigError):
        SamplerConfig(p_birth=1.0)
    with pytest.raises(ConfigError):
        SamplerConfig(bd_attempts=-1)
    with pytest.raises(ConfigError):
        SamplerConfig(s_mu=0.0)
    with pytest.raises(ConfigError):
        SamplerConfig(stride=0)


# ---------------------------------------------------------------------------
# birth / death


def test_death_with_no_spares_is_noop():
    ctx, state = helpers._tiny_fit_context(0)
    assert state.l == 0
    # first uniform draw >= p_birth selects the death branch
    seed = next(s for s in range(100)
                if np.random.default_rng(s).random() >= ctx.config.p_birth)
    before = state.copy()
    info = birth_death_move(state, ctx, np.random.default_rng(seed))
    assert info["kind"] == "death" and info.get("noop")
    assert not info["accepted"]
    assert info["log_acc"] == -math.inf
    assert state.l == 0 and state.k == before.k


def test_accepted_birth_appends_spare():
    ctx, state = helpers._tiny_fit_context(0)
    rng = np.random.default_rng(0)
    for _ in range(500):
        l_before = state.l
        info = birth_death_move(state, ctx, rng)
        if info["kind"] == "birth" and info["accepted"]:
            assert state.l == l_before + 1
            new = state.non_allocated[-1]
            assert np.array_equal(new.mu, info["mu"])
            assert ctx.dpp_model.in_box(new.mu)
            assert new.r == info["r"] and new.r > 0
            assert np.all(new.w >= 0)
            return
        refresh_non_allocated(state, ctx, rng)  # keep spare seeds moving
    pytest.fail("no accepted birth in 500 proposals")


# ---------------------------------------------------------------------------
# exact conditionals


def test_spare_refresh_distributions():
    prior = PriorBundle(beta_w=10.0)
    state = MixtureState(
        [Component(np.array([1.0]), np.zeros((1, 1, 1)), 1.0)],
        [Component(np.array([1.5]), np.full((1, 1, 1), 0.3), 1.0)],
        np.zeros(1, np.int64), 1.0, BASIS1,
    )
    ctx = FitContext.__new__(FitContext)
    ctx.prior = prior
    state.non_allocated[0].loglik_col = np.zeros(1)
    rng = np.random.default_rng(8)
    n = 20_000
    rs = np.empty(n)
    ws = np.empty(n)
    for i in range(n):
        refresh_non_allocated(state, ctx, rng)
        rs[i] = state.non_allocated[0].r
        ws[i] = state.non_allocated[0].w.item()
    assert state.non_allocated[0].loglik_col is None
    # r ~ Exp(1 + u) with u = 1: mean 1/2;  w ~ Exp(beta_w): mean 1/10
    assert abs(rs.mean() - 0.5) <= 3.0 * 0.5 / math.sqrt(n)
    assert abs(ws.mean() - 0.1) <= 3.0 * 0.1 / math.sqrt(n)


def test_allocated_weight_seed_conjugate_moments():
    state = MixtureState(
        [Component(np.array([1.0]), np.zeros((1, 1, 1)), 1.0)],
        [], np.zeros(9, np.int64), 1.0, BASIS1,
    )
    rng = np.random.default_rng(9)
    n = 20_000
    draws = np.empty(n)
    for i in range(n):
        resample_allocated_r(state, rng)
        draws[i] = state.allocated[0].r
    # Gamma(n_m + 1 = 10, rate 1 + u = 2): mean 5, sd sqrt(10)/2
    assert abs(draws.mean() - 5.0) <= 3.0 * (math.sqrt(10.0) / 2.0) / math.sqrt(n)
    assert abs(draws.var() - 2.5) <= 0.1


def test_u_conditional_moments_and_rate_scaling():
    class _Ctx:
        n = 6

    def make(r):
        return MixtureState([Component(np.array([1.0]), np.zeros((1, 1, 1)), r)],
                            [], np.zeros(1, np.int64), 1.0, BASIS1)

    state = make(3.5)
    rng = np.random.default_rng(10)
    n = 20_000
    draws = np.empty(n)
    for i in range(n):
        resample_u(state, _Ctx, rng)
        draws[i] = state.u
    # Gamma(N = 6, rate t = 3.5)
    assert abs(draws.mean() - 6.0 / 3.5) <= 3.0 * (math.sqrt(6.0) / 3.5) / math.sqrt(n)
    # doubling the total weight halves the draw exactly (same generator state)
    a, b = make(3.5), make(7.0)
    resample_u(a, _Ctx, np.random.default_rng(4))
    resample_u(b, _Ctx, np.random.default_rng(4))
    assert b.u == pytest.approx(a.u / 2.0, rel=1e-15)


# ---------------------------------------------------------------------------
# base-rate walk


def test_self_proposal_is_accepted_with_zero_ratio():
    ctx, state = helpers._tiny_fit_context(1)

    class _StubRng:
        def standard_normal(self, n):
            return np.zeros(n)

        def random(self):
            return 0.5

    mus_before = [c.mu.copy() for c in state.allocated]
    infos = update_allocated_mu(state, ctx, _StubRng())
    assert len(infos) == state.k
    for info, mu in zip(infos, mus_before):
        assert np.array_equal(info["mu_prop"], mu)
        assert info["log_acc"] == pytest.approx(0.0, abs=1e-10)
        assert info["accepted"]


def test_walk_rejects_out_of_box_outright():
    ctx, state = helpers._tiny_fit_context(1)
    width = float((ctx.dpp_model.box_hi - ctx.dpp_model.box_lo).max())

    class _HugeStep:
        def standard_normal(self, n):
            return np.full(n, 1e6)

        def random(self):  # must not be consumed for outright rejections
            raise AssertionError("acceptance draw should be skipped")

    infos = update_allocated_mu(state, ctx, _HugeStep())
    for info in infos:
        assert not info["accepted"]
        assert info["log_acc"] == -math.inf
    assert width > 0  # sanity: the box is nondegenerate


# ---------------------------------------------------------------------------
# triggering-coefficient Langevin step


def _sgld_setup(minibatch):
    data = build_hawkes_delta_dataset(2, 0.9, n_per_cluster=6, horizon=5.0,
                                      seed=0, n_types=2)
    basis = BasisConfig.for_data(data, n_basis=2)
    prior = PriorBundle(sgld=SgldSchedule(minibatch=minibatch))
    features = FeatureSet(data, basis)
    dpp_model = model_for_data(data, prior.dpp, default_rho=2)
    ctx = FitContext(data, features, prior, dpp_model,
                     SamplerConfig(iterations=1, burn_in=0))
    state = pretrain_mixture(data, 2, PretrainConfig(seed=0), prior, basis,
                             features=features, dpp_model=dpp_model)
    return ctx, state


@pytest.mark.parametrize("minibatch", [3, 64])
def test_sgld_matches_manual_replication(minibatch):
    ctx, state = _sgld_setup(minibatch)
    sched = ctx.prior.sgld
    sweep = 7
    eps = sched.step_size(sweep)
    rng_pkg = np.random.default_rng(42)
    rng_ref = np.random.default_rng(42)

    expected = []
    for m, comp in enumerate(state.allocated):
        members = np.flatnonzero(state.c == m)
        n_m = members.size
        b = min(sched.minibatch, n_m)
        batch = rng_ref.choice(members, size=b, replace=False) if b < n_m else members
        grad = ctx.features.grad_a(comp.mu, comp.w, batch)
        drift = -ctx.prior.beta_w + (n_m / b) * grad
        noise = rng_ref.normal(0.0, math.sqrt(eps), size=comp.w.shape)
        expected.append(np.abs(comp.w + noise + 0.5 * eps * drift))

    out = sgld_update_w(state, ctx, sweep, rng_pkg)
    assert out["eps"] == pytest.approx(eps)
    assert out["skipped"] == 0
    for comp, want in zip(state.allocated, expected):
        assert np.array_equal(comp.w, want)
        assert comp.loglik_col is None


def test_sgld_drift_is_prior_rate_without_events():
    data = Dataset([_empty_seq(), _empty_seq(), _empty_seq()], 1)
    ctx = _simple_ctx(data, BASIS1)
    w0 = np.full((1, 1, 1), 0.05)
    state = MixtureState([Component(np.array([1.0]), w0.copy(), 3.0)],
                         [], np.zeros(3, np.int64), 1.0, BASIS1)
    eps = ctx.prior.sgld.step_size(1)
    noise = np.random.default_rng(6).normal(0.0, math.sqrt(eps), size=w0.shape)
    sgld_update_w(state, ctx, 1, np.random.default_rng(6))
    # empty sequences contribute no gradient, leaving only the prior drift
    want = np.abs(w0 + noise - 0.5 * eps * ctx.prior.beta_w)
    assert np.array_equal(state.allocated[0].w, want)


# ---------------------------------------------------------------------------
# allocations


def test_identical_components_split_evenly():
    n = 10_000
    data = Dataset([_empty_seq() for _ in range(n)], 1)
    ctx = _simple_ctx(data, BASIS1)
    comps = [Component(np.array([1.0]), np.zeros((1, 1, 1)), 1.0) for _ in range(2)]
    state = MixtureState(comps, [], np.tile([0, 1], n // 2), 1.0, BASIS1)
    resample_allocations(state, ctx, np.random.default_rng(3))
    assert state.k == 2
    frac = state.c.mean()
    assert 0.48 <= frac <= 0.52


def test_allocation_follows_likelihood_ratio():
    times = np.linspace(0.02, 0.98, 25)
    seq = EventSequence(times, np.zeros(25, np.int64), 1.0)
    n = 10_000
    data = Dataset([seq] * n, 1)
    ctx = _simple_ctx(data, BASIS1)
    good = Component(np.array([2.0]), np.zeros((1, 1, 1)), 1.0)
    poor = Component(np.array([1.0]), np.zeros((1, 1, 1)), 1.0)
    state = MixtureState([good, poor], [], np.zeros(n, np.int64), 1.0, BASIS1)
    resample_allocations(state, ctx, np.random.default_rng(12))
    # per-row odds of the poor component: exp(1 - 25 log 2) ~ 8e-8
    if state.k == 1:
        misses = 0
    else:
        misses = int(np.bincount(state.c, minlength=2).min())
    assert misses <= 2
    assert state.allocated[0].mu[0] == 2.0


def test_emptied_component_is_demoted_to_spare():
    times = np.linspace(0.02, 0.98, 25)
    seq = EventSequence(times, np.zeros(25, np.int64), 1.0)
    data = Dataset([seq] * 10, 1)
    ctx = _simple_ctx(data, BASIS1)
    good = Component(np.array([2.0]), np.zeros((1, 1, 1)), 1.0)
    poor = Component(np.array([1.0]), np.zeros((1, 1, 1)), 1.0)
    state = MixtureState([poor, good], [], np.tile([0, 1], 5), 1.0, BASIS1)
    resample_allocations(state, ctx, np.random.default_rng(1))
    assert state.k == 1 and state.l == 1
    assert state.allocated[0] is good
    assert state.non_allocated[0] is poor
    assert np.all(state.c == 0)


def test_unexplainable_sequence_raises():
    seq = EventSequence(np.array([0.5]), np.array([0]), 1.0)
    data = Dataset([seq], 1)
    ctx = _simple_ctx(data, BASIS1)
    dead = Component(np.array([0.0]), np.zeros((1, 1, 1)), 1.0)
    state = MixtureState([dead], [], np.zeros(1, np.int64), 1.0, BASIS1)
    with pytest.raises(DegenerateModelError):
        resample_allocations(state, ctx, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# driver


def _driver_setup(seed=0, n_per_cluster=5, delta=0.9):
    data = build_hawkes_delta_dataset(2, delta, n_per_cluster=n_per_cluster,
                                      horizon=4.0, seed=1, n_types=1)
    basis = BasisConfig.for_data(data, n_basis=1)
    prior = PriorBundle()
    features = FeatureSet(data, basis)
    dpp_model = model_for_data(data, prior.dpp, default_rho=2)
    init = pretrain_mixture(data, 2, PretrainConfig(seed=seed), prior, basis,
                            features=features, dpp_model=dpp_model)
    return data, init, prior, features, dpp_model


@pytest.mark.parametrize("iterations,burn_in,stride,expect", [
    (7, 3, 2, [4, 6]),
    (10, 0, 3, [1, 4, 7, 10]),
])
def test_trace_storage_schedule(iterations, burn_in, stride, expect):
    data, init, prior, *fit = _driver_setup()
    cfg = SamplerConfig(iterations=iterations, burn_in=burn_in, stride=stride, seed=2)
    trace, _ = run_sampler(data, init, prior, cfg, *fit)
    assert trace.iterations == expect
    assert len(trace) == math.ceil((iterations - burn_in) / stride)


def test_repeat_runs_are_bit_identical():
    data, init, prior, features, dpp_model = _driver_setup()
    cfg = SamplerConfig(iterations=30, burn_in=10, seed=4)
    t1, r1 = run_sampler(data, init, prior, cfg, features, dpp_model)
    t2, r2 = run_sampler(data, init, prior, cfg, features, dpp_model)
    assert t1.log_joint == t2.log_joint
    assert t1.k == t2.k and t1.l == t2.l
    assert all(np.array_equal(a, b) for a, b in zip(t1.labels, t2.labels))
    assert r1.acceptance == r2.acceptance
    assert r1.map_log_joint == r2.map_log_joint
    # the same chain driven move by move, in run_sampler's order: the state
    # invariants hold after every sweep
    ctx = FitContext(data, features, prior, dpp_model, cfg)
    state = _canonicalize(init.copy())
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    for sweep in range(1, cfg.iterations + 1):
        for _ in range(cfg.bd_attempts):
            birth_death_move(state, ctx, rng)
        refresh_non_allocated(state, ctx, rng)
        update_allocated_mu(state, ctx, rng)
        resample_allocated_r(state, rng)
        sgld_update_w(state, ctx, sweep, rng)
        resample_allocations(state, ctx, rng)
        resample_u(state, ctx, rng)
        assert state.violations(len(data.sequences)) == []
        if sweep > cfg.burn_in:
            stored = sweep - cfg.burn_in - 1
            assert state.k == t1.k[stored] and np.array_equal(state.c, t1.labels[stored])


def test_component_relabeling_does_not_change_the_chain():
    data, init, prior, *fit = _driver_setup()
    assert init.k == 2
    swapped = MixtureState(
        [init.allocated[1].copy(), init.allocated[0].copy()],
        [c.copy() for c in init.non_allocated],
        1 - init.c,
        init.u,
        init.basis,
    )
    cfg = SamplerConfig(iterations=25, burn_in=5, seed=5)
    t1, _ = run_sampler(data, init, prior, cfg, *fit)
    t2, _ = run_sampler(data, swapped, prior, cfg, *fit)
    assert t1.log_joint == t2.log_joint
    assert t1.k == t2.k
    assert all(np.array_equal(a, b) for a, b in zip(t1.labels, t2.labels))


def test_map_is_the_best_stored_sample():
    data, init, prior, *fit = _driver_setup()
    cfg = SamplerConfig(iterations=40, burn_in=10, seed=6)
    trace, report = run_sampler(data, init, prior, cfg, *fit)
    best = int(np.argmax(trace.log_joint))
    assert report.map_log_joint == trace.log_joint[best]
    assert report.map_iteration == trace.iterations[best]
    assert np.array_equal(report.map_labels, trace.labels[best])
    assert report.map_state is not None
    assert report.kl_mean >= report.k_mean
    assert set(report.acceptance) == {"birth", "death", "mu_walk"}
    for rate in report.acceptance.values():
        assert rate is None or 0.0 <= rate <= 1.0
    json.dumps(report.to_dict())


def test_stored_components_follow_the_state():
    data, init, prior, *fit = _driver_setup()
    cfg = SamplerConfig(iterations=12, burn_in=2, seed=7)
    trace, _ = run_sampler(data, init, prior, cfg, *fit)
    for k, comps in zip(trace.k, trace.components):
        assert len(comps) == k
        for c in comps:
            assert set(c) == {"mu", "r", "w_mean"}
            assert c["r"] > 0


def test_run_sampler_rejects_invalid_initial_states():
    data, init, prior, *fit = _driver_setup()
    bad = init.copy()
    bad.c[0] = 99  # label outside the component range
    with pytest.raises(ConfigError):
        run_sampler(data, bad, prior, SamplerConfig(iterations=2, burn_in=0), *fit)
    outside = init.copy()
    outside.allocated[0].mu = outside.allocated[0].mu + 1e6
    with pytest.raises(ConfigError):
        run_sampler(data, outside, prior, SamplerConfig(iterations=2, burn_in=0), *fit)


def test_cached_column_log_joint_matches_oracle():
    ctx, state = helpers._tiny_fit_context(3)
    cached = state_log_joint(state, ctx.data, ctx.prior, ctx.dpp_model,
                             _component_columns(state, ctx))
    oracle = state_log_joint(state, ctx.data, ctx.prior, ctx.dpp_model)
    assert math.isfinite(oracle)
    assert cached == pytest.approx(oracle, abs=1e-8)


# ---------------------------------------------------------------------------
# cross-cutting oracles


def test_metropolis_ratios_match_the_log_joint():
    worst, counts = helpers.mh_oracle_max_abs_diff(n_per_move=100)
    assert all(v >= 100 for v in counts.values()), counts
    assert worst < 1e-8


def test_conjugate_draws_match_reference_mh():
    assert helpers.conjugate_vs_mh_min_ks_pvalue() > 0.01


def test_two_well_separated_clusters_are_recovered(tiny2):
    labels = np.array([s.label for s in tiny2.sequences])
    basis = BasisConfig.for_data(tiny2, n_basis=3)
    prior = PriorBundle()
    features = FeatureSet(tiny2, basis)
    dpp_model = model_for_data(tiny2, prior.dpp, default_rho=2)
    init = pretrain_mixture(tiny2, 2, PretrainConfig(seed=0), prior, basis,
                            features=features, dpp_model=dpp_model)
    cfg = SamplerConfig(iterations=150, burn_in=50, seed=11)
    trace, report = run_sampler(tiny2, init, prior, cfg, features, dpp_model)
    ks = np.asarray(trace.k)
    assert (ks == 2).mean() >= 0.9
    assert purity(report.map_labels, labels) >= 0.9
