"""Gibbs sweep moves and the posterior-sampler driver."""

import hashlib
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
    NumericalError,
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
    with pytest.raises(ConfigError, match="s_mu"):
        SamplerConfig(s_mu=1.0 + 1e-9)
    SamplerConfig(s_mu=1.0)
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
    state = pretrain_mixture(data, 2, PretrainConfig(), prior, basis, features=features,
                             dpp_model=dpp_model, rng=np.random.default_rng(0))
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

    sgld_update_w(state, ctx, sweep, rng_pkg)
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


def test_sgld_raises_on_a_gradient_that_is_not_finite():
    """A Langevin step is taken or the fit fails: a NaN coefficient gives its
    component a gradient that is not finite, which raises NumericalError
    naming the component and the sweep rather than leaving w unmoved."""
    ctx, state = _sgld_setup(64)
    state.allocated[1].w[0, 0, 0] = np.nan
    with pytest.raises(NumericalError, match="component 1 is not finite at sweep 7"):
        sgld_update_w(state, ctx, 7, np.random.default_rng(0))


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
    init = pretrain_mixture(data, 2, PretrainConfig(), prior, basis, features=features,
                            dpp_model=dpp_model, rng=np.random.default_rng(seed))
    return data, init, prior, features, dpp_model


@pytest.mark.parametrize("iterations,burn_in,stride,expect", [
    (7, 3, 2, [4, 6]),
    (10, 0, 3, [1, 4, 7, 10]),
])
def test_trace_storage_schedule(iterations, burn_in, stride, expect):
    data, init, prior, *fit = _driver_setup()
    cfg = SamplerConfig(iterations=iterations, burn_in=burn_in, stride=stride)
    trace, _ = run_sampler(data, init, prior, cfg, *fit, rng=np.random.default_rng(2))
    assert trace.iterations == expect
    assert len(trace) == math.ceil((iterations - burn_in) / stride)


def test_repeat_runs_are_bit_identical():
    data, init, prior, features, dpp_model = _driver_setup()
    cfg = SamplerConfig(iterations=30, burn_in=10)
    t1, r1 = run_sampler(data, init, prior, cfg, features, dpp_model, rng=np.random.default_rng(4))
    t2, r2 = run_sampler(data, init, prior, cfg, features, dpp_model, rng=np.random.default_rng(4))
    assert t1.log_joint == t2.log_joint
    assert t1.k == t2.k and t1.l == t2.l
    assert all(np.array_equal(a, b) for a, b in zip(t1.labels, t2.labels))
    assert r1.acceptance == r2.acceptance
    assert r1.map_log_joint == r2.map_log_joint
    # the same chain driven move by move, in run_sampler's order: the state
    # invariants hold after every sweep
    ctx = FitContext(data, features, prior, dpp_model, cfg)
    state = _canonicalize(init.copy())
    rng = np.random.default_rng(4)
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


def test_caches_follow_the_state():
    """Driven move by move, every cached excitation block, likelihood column
    and log-rate block equals a fresh computation from its component's
    current w and mu, bit for bit; copies carry no cache."""
    ctx, init = helpers._tiny_fit_context(1)
    features = ctx.features
    state = _canonicalize(init.copy())
    rng = np.random.default_rng(np.random.SeedSequence(6))
    moves = [
        lambda sweep: birth_death_move(state, ctx, rng),
        lambda sweep: refresh_non_allocated(state, ctx, rng),
        lambda sweep: update_allocated_mu(state, ctx, rng),
        lambda sweep: resample_allocated_r(state, rng),
        lambda sweep: sgld_update_w(state, ctx, sweep, rng),
        lambda sweep: resample_allocations(state, ctx, rng),
        lambda sweep: resample_u(state, ctx, rng),
    ]
    refreshed = 0  # spares that reach the refresh holding a cache
    for sweep in range(1, 16):
        for move in moves:
            if move is moves[1]:
                refreshed += sum(c.excitation is not None for c in state.non_allocated)
            move(sweep)
            for comp in state.allocated + state.non_allocated:
                if comp.excitation is not None:
                    assert np.array_equal(comp.excitation, features.excitation(comp.w))
                assert (comp.loglik_col is None) == (comp.log_rates is None)
                if comp.loglik_col is not None:
                    col, log_rates = features.loglik_all(comp.mu, comp.w, log_rates=True)
                    assert np.array_equal(comp.loglik_col, col)
                    assert np.array_equal(comp.loglik_col, features.loglik_all(comp.mu, comp.w))
                    assert np.array_equal(comp.log_rates, log_rates)
        # reallocation scored every component from its cache
        assert all(c.excitation is not None and c.loglik_col is not None
                   for c in state.allocated + state.non_allocated)
    assert refreshed
    assert all(c.excitation is None and c.loglik_col is None and c.log_rates is None
               for c in state.copy().allocated + state.copy().non_allocated)


def _small_cli_fit(tmp_path):
    from tppcluster.cli import main

    assert main(["simulate", "--recipe", "hawkes-delta", "--k", "2", "--delta", "1.0",
                 "--n-per-cluster", "5", "--horizon", "5.0", "--seed", "11",
                 "--out", str(tmp_path / "sim")]) == 0
    assert main(["fit", "--data", str(tmp_path / "sim" / "dataset.jsonl"),
                 "--iterations", "40", "--burn-in", "20", "--m-init", "2", "--seed", "2",
                 "--out", str(tmp_path / "fit")]) == 0


def test_fit_keeps_its_bytes(tmp_path, monkeypatch):
    """A small CLI fit writes the same trace.jsonl and report.json (less its
    clock and data path) as when these digests were first taken.  The fit
    covers the branches a cache could get wrong: births, and base-rate
    proposals that are accepted, rejected and outside the box."""
    from tppcluster import sampler

    seen = {"birth": 0, "accepted": 0, "rejected": 0, "outside": 0}
    walk, birth_death = sampler.update_allocated_mu, sampler.birth_death_move

    def counted_walk(*args):
        infos = walk(*args)
        for info in infos:
            # an in-box proposal has a finite ratio: its rates are positive
            kind = ("outside" if info["log_acc"] == -math.inf
                    else "accepted" if info["accepted"] else "rejected")
            seen[kind] += 1
        return infos

    def counted_birth_death(*args):
        info = birth_death(*args)
        seen["birth"] += info["kind"] == "birth" and info["accepted"]
        return info

    monkeypatch.setattr(sampler, "update_allocated_mu", counted_walk)
    monkeypatch.setattr(sampler, "birth_death_move", counted_birth_death)
    _small_cli_fit(tmp_path)
    assert all(seen.values()), seen
    report = json.loads((tmp_path / "fit" / "report.json").read_text())
    del report["wall_clock_sec"], report["data_path"]
    digests = (hashlib.sha256((tmp_path / "fit" / "trace.jsonl").read_bytes()).hexdigest(),
               hashlib.sha256(json.dumps(report).encode()).hexdigest())
    assert digests == (
        "200a20a22894f7d75a13c21a1cc38c26e7fcc3117ed71e62548120fd07cc49e5",
        "5888a2e0bff19187a17e50ddb5a9edcb73d4bc741058a22c643f352359727301",
    )


def test_a_walk_reads_its_current_rates_from_reallocation(tmp_path, monkeypatch):
    """Along a small CLI fit, every in-box base-rate walk scores its current
    rates from the log-rates its component's last reallocation cached: its
    log ratio equals the one with both terms from ``event_term``, bit for
    bit, over accepted and rejected walks and the first in-box walks of
    components born as spares.  Only the first sweep's walks come before any
    reallocation, and they score their component as reallocation does; every
    in-box walk calls ``event_term`` once, for the proposal."""
    from tppcluster import sampler

    walk, birth_death, ratio = (sampler.update_allocated_mu, sampler.birth_death_move,
                                sampler.dpp_log_ratio)
    event_term = FeatureSet.event_term
    seen = {"accepted": 0, "rejected": 0, "born": 0, "uncached": 0, "calls": 0, "sweep": 0}
    ratios, born = [], {}

    def counted_event_term(self, *args):
        seen["calls"] += 1
        return event_term(self, *args)

    def recorded_ratio(*args, **kwargs):
        ratios.append(ratio(*args, **kwargs))
        return ratios[-1]

    def tracked_birth_death(state, ctx, rng):
        info = birth_death(state, ctx, rng)
        if info["kind"] == "birth" and info["accepted"]:
            born[id(state.non_allocated[-1])] = state.non_allocated[-1]
        return info

    def checked_walk(state, ctx, rng):
        seen["sweep"] += 1
        before = [(comp, comp.mu, comp.log_rates is not None) for comp in state.allocated]
        c, calls = state.c.copy(), seen["calls"]
        ratios.clear()
        infos = walk(state, ctx, rng)
        calls = seen["calls"] - calls
        feats = ctx.features
        in_box = [info for info in infos if ctx.dpp_model.in_box(info["mu_prop"])]
        assert len(ratios) == len(in_box)
        for info, delta in zip(in_box, ratios):
            comp, mu, cached = before[info["m"]]
            assert cached or seen["sweep"] == 1
            members = np.flatnonzero(c == info["m"])
            x = feats.excitation(comp.w)[feats.rows(members)]
            prop = info["mu_prop"]
            want = delta + (event_term(feats, prop, x, members) - event_term(feats, mu, x, members)
                            - (prop.sum() - mu.sum()) * float(feats.horizons[members].sum()))
            assert info["log_acc"] == want, (seen["sweep"], info["m"])
            seen["accepted" if info["accepted"] else "rejected"] += 1
            seen["born"] += born.pop(id(comp), None) is comp
            seen["uncached"] += not cached
        assert calls == len(in_box), (seen["sweep"], calls)
        return infos

    monkeypatch.setattr(FeatureSet, "event_term", counted_event_term)
    monkeypatch.setattr(sampler, "dpp_log_ratio", recorded_ratio)
    monkeypatch.setattr(sampler, "birth_death_move", tracked_birth_death)
    monkeypatch.setattr(sampler, "update_allocated_mu", checked_walk)
    _small_cli_fit(tmp_path)
    assert seen["accepted"] and seen["rejected"] and seen["born"], seen
    assert 0 < seen["uncached"] <= 2, seen  # the first sweep's walks of the two initial clusters


def test_the_sampler_builds_no_sub_store(tmp_path, monkeypatch):
    """The sampler reads its minibatch and member rows in place: it never
    calls ``FeatureSet.take``, which pretraining still uses."""
    from tppcluster import cli

    run, runs = cli.run_sampler, []

    def no_take(self, idx):
        raise AssertionError("the sampler built a sub-store")

    def guarded(*args, **kwargs):
        runs.append(1)
        with monkeypatch.context() as mp:
            mp.setattr(FeatureSet, "take", no_take)
            return run(*args, **kwargs)

    monkeypatch.setattr(cli, "run_sampler", guarded)
    _small_cli_fit(tmp_path)
    assert runs == [1]


def test_a_dpp_ratio_computes_fewer_than_two_densities(tmp_path, monkeypatch):
    """The sampler's repulsive-prior ratios read the density of the
    configuration they start from out of the fit context's ``DppCache``
    whenever the previous ratio evaluated it; without the cache each computes
    two.  A walk ratio puts the proposed base rates in the old ones' slot,
    where an accepted walk keeps them, so the ratio that follows it computes
    one.  The start check computes the feature rows of every initial point;
    the ratios read them from the cache, so each computes at most one, and a
    stored sample's log joint, which reads the same cache, computes none."""
    from tppcluster import dpp, sampler

    calls = {"ratio": 0, "density": 0, "first": None, "after_walk": 0, "joint": 0}
    trig = {"start": [], "ratio": [], "joint": []}  # rows of trigonometry, per caller
    where, walked = [None], [None]
    ratio, density, joint = sampler.dpp_log_ratio, sampler.dpp_log_density, sampler.state_log_joint
    features, feature_rows = dpp.DppCache.features, dpp.DppSpectralModel.feature_rows

    def counted_ratio(model, points, add=None, remove=None, **kwargs):
        calls["ratio"] += 1
        densities = calls["density"]
        del trig["ratio"][:]
        where[0] = "ratio"
        out = ratio(model, points, add=add, remove=remove, **kwargs)
        where[0] = None
        rows = sum(trig["ratio"])
        calls["first"] = calls["density"] - densities if calls["first"] is None else calls["first"]
        assert rows <= 1, trig
        if points.tobytes() == walked[0]:  # the state an accepted walk left
            calls["after_walk"] += 1
            assert calls["density"] - densities == 1
        walked[0] = None
        if add is not None and remove is not None:
            slot = points.copy()
            slot[(points == remove).all(axis=1).argmax()] = add
            walked[0] = slot.tobytes()
        return out

    def counted_features(*args):  # every density the cache computes
        calls["density"] += 1
        return features(*args)

    def counted_density(*args):  # the start check, or the joint's density
        if where[0] is not None:
            return density(*args)
        where[0] = "start"
        try:
            return density(*args)
        finally:
            where[0] = None

    def counted_joint(*args):
        calls["joint"] += 1
        where[0] = "joint"
        try:
            return joint(*args)
        finally:
            where[0] = None

    def counted_rows(self, x):
        if where[0] is not None:
            trig[where[0]].append(len(x))
        return feature_rows(self, x)

    monkeypatch.setattr(sampler, "dpp_log_ratio", counted_ratio)
    monkeypatch.setattr(sampler, "dpp_log_density", counted_density)
    monkeypatch.setattr(sampler, "state_log_joint", counted_joint)
    monkeypatch.setattr(dpp.DppCache, "features", counted_features)
    monkeypatch.setattr(dpp.DppSpectralModel, "feature_rows", counted_rows)
    _small_cli_fit(tmp_path)
    assert calls["ratio"] > 0 and sum(trig["start"]) >= 2 and calls["first"] <= 1, (calls, trig)
    assert calls["density"] / calls["ratio"] < 1.5, calls
    assert calls["after_walk"] > 0 and calls["joint"] > 0, calls
    assert trig["joint"] == [], trig


def test_a_stored_sample_joint_is_a_lookup(tmp_path, monkeypatch):
    """Every stored sample's configuration, in order, is in the fit
    context's ``DppCache`` when its log joint is taken, so its density forms
    no Gram matrix."""
    from tppcluster import dpp, sampler

    joint, gram_of = sampler.state_log_joint, dpp.DppSpectralModel.gram_of
    calls = {"joint": 0, "gram": 0}
    inside = [False]

    def counted_joint(*args):
        calls["joint"] += 1
        inside[0] = True
        try:
            return joint(*args)
        finally:
            inside[0] = False

    def counted_gram(self, c, s):
        calls["gram"] += inside[0]
        return gram_of(self, c, s)

    monkeypatch.setattr(sampler, "state_log_joint", counted_joint)
    monkeypatch.setattr(dpp.DppSpectralModel, "gram_of", counted_gram)
    _small_cli_fit(tmp_path)
    assert calls == {"joint": 20, "gram": 0}, calls


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
    cfg = SamplerConfig(iterations=25, burn_in=5)
    t1, _ = run_sampler(data, init, prior, cfg, *fit, rng=np.random.default_rng(5))
    t2, _ = run_sampler(data, swapped, prior, cfg, *fit, rng=np.random.default_rng(5))
    assert t1.log_joint == t2.log_joint
    assert t1.k == t2.k
    assert all(np.array_equal(a, b) for a, b in zip(t1.labels, t2.labels))


def test_map_is_the_best_stored_sample():
    data, init, prior, *fit = _driver_setup()
    cfg = SamplerConfig(iterations=40, burn_in=10)
    trace, report = run_sampler(data, init, prior, cfg, *fit, rng=np.random.default_rng(6))
    best = int(np.argmax(trace.log_joint))
    assert report.map_log_joint == trace.log_joint[best]
    assert report.map_iteration == trace.iterations[best]
    assert np.array_equal(report.map_state.c, trace.labels[best])
    assert report.map_state is not None
    assert report.kl_mean >= report.k_mean
    assert set(report.acceptance) == {"birth", "death", "mu_walk"}
    for rate in report.acceptance.values():
        assert rate is None or 0.0 <= rate <= 1.0
    json.dumps(report.to_dict())


def test_stored_components_follow_the_state():
    data, init, prior, *fit = _driver_setup()
    cfg = SamplerConfig(iterations=12, burn_in=2)
    trace, _ = run_sampler(data, init, prior, cfg, *fit, rng=np.random.default_rng(7))
    for k, comps in zip(trace.k, trace.components):
        assert len(comps) == k
        for c in comps:
            assert set(c) == {"mu", "r", "w_mean"}
            assert c["r"] > 0


def test_run_sampler_rejects_invalid_initial_states():
    data, init, prior, *fit = _driver_setup()
    bad = init.copy()
    bad.c[0] = 99  # label outside the component range
    cfg, rng = SamplerConfig(iterations=2, burn_in=0), np.random.default_rng(0)
    with pytest.raises(ConfigError):
        run_sampler(data, bad, prior, cfg, *fit, rng=rng)
    outside = init.copy()
    outside.allocated[0].mu = outside.allocated[0].mu + 1e6
    with pytest.raises(ConfigError):
        run_sampler(data, outside, prior, cfg, *fit, rng=rng)


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
    init = pretrain_mixture(tiny2, 2, PretrainConfig(), prior, basis, features=features,
                            dpp_model=dpp_model, rng=np.random.default_rng(0))
    cfg = SamplerConfig(iterations=150, burn_in=50)
    trace, report = run_sampler(tiny2, init, prior, cfg, features, dpp_model,
                                rng=np.random.default_rng(11))
    ks = np.asarray(trace.k)
    assert (ks == 2).mean() >= 0.9
    assert purity(report.map_state.c, labels) >= 0.9
