"""Hard-assignment EM initialisation of the mixture state."""

import numpy as np
import pytest

from tppcluster.backbone import EventRows, FeatureSet, HomogeneousPoisson, hawkes_loglik_grad
from tppcluster.core import BasisConfig, ConfigError, Dataset, DppConfig, HawkesParams, PriorBundle
from tppcluster.dpp import model_for_data
from tppcluster.metrics import purity
from tppcluster.pretrain import PretrainConfig, pretrain_mixture
from tppcluster.simulate import sample_mixture, thinning_sample

PRIOR = PriorBundle(beta_w=10.0, dpp=DppConfig())


def _poisson_data(rates, n=30, horizon=8.0, seed=13):
    return sample_mixture([HomogeneousPoisson(rates)], horizon, n_per_component=n, seed=seed)


def _inputs(data, basis):
    """The feature store and the default-box prior model a fit builds for ``data``."""
    return {"features": FeatureSet(data, basis),
            "dpp_model": model_for_data(data, PRIOR.dpp, default_rho=2.0)}


def test_single_cluster_recovers_poisson_rates():
    rates = np.array([1.5, 0.7])
    data = _poisson_data(rates)
    basis = BasisConfig.for_data(data, n_basis=3)
    state = pretrain_mixture(data, 1, PretrainConfig(), PRIOR, basis, **_inputs(data, basis),
                             rng=np.random.default_rng(0))
    assert state.k == 1
    assert state.l == 0
    counts = np.zeros(2)
    total_time = 0.0
    for seq in data.sequences:
        counts += np.bincount(seq.types, minlength=2)
        total_time += seq.horizon
    mle = counts / total_time
    # triggering starts tiny, so fitted base rates approach the Poisson MLE
    assert np.allclose(state.allocated[0].mu, mle, rtol=0.15)
    assert np.all(state.allocated[0].mu > 0)


def test_separated_clusters_are_found(tiny2):
    labels = np.array([s.label for s in tiny2.sequences])
    basis = BasisConfig.for_data(tiny2, n_basis=3)
    state = pretrain_mixture(tiny2, 2, PretrainConfig(), PRIOR, basis,
                             **_inputs(tiny2, basis), rng=np.random.default_rng(1))
    assert state.k == 2
    assert purity(state.c, labels) >= 0.99
    assert state.violations() == []


def test_cluster_gradient_matches_per_sequence():
    data = _poisson_data([1.5, 0.7], n=12)
    basis = BasisConfig.for_data(data, n_basis=3)
    features = FeatureSet(data, basis)
    longest = int(np.argmax(features.n_events))
    idx = np.array([i for i in range(0, len(data.sequences), 2) if i != longest])
    assert features.n_events[idx].max() < features.n_events[longest]
    rng = np.random.default_rng(3)
    mu, a = rng.uniform(0.5, 1.5, size=2), rng.uniform(0.0, 0.3, size=(2, 2, 3))
    gmu, ga = EventRows(features, idx).grad(mu, a)
    per_seq = [hawkes_loglik_grad(HawkesParams(mu, a, basis), data.sequences[i]) for i in idx]
    assert np.allclose(gmu, sum(g[0] for g in per_seq), rtol=0, atol=1e-10)
    assert np.allclose(ga, sum(g[1] for g in per_seq), rtol=0, atol=1e-10)


def test_pretraining_reads_no_padded_store(monkeypatch):
    """On one long sequence among short ones, pretraining scores and climbs on
    real event rows alone: it neither cuts a padded sub-store nor scores the
    padded likelihood columns."""
    short = _poisson_data([0.9, 1.8], n=10, horizon=3.0, seed=8).sequences
    long = thinning_sample(HomogeneousPoisson([0.9, 1.8]), 200.0, np.random.default_rng(9),
                           id="long", label=1)
    data = Dataset(short + [long], 2)
    basis = BasisConfig.for_data(data, n_basis=3)
    inputs = _inputs(data, basis)
    assert inputs["features"].n_events.max() > 10 * np.median(inputs["features"].n_events)

    def padded(*_args, **_kwargs):
        raise AssertionError("pretraining read the padded layout")

    monkeypatch.setattr(FeatureSet, "take", padded)
    monkeypatch.setattr(FeatureSet, "loglik_all", padded)
    state = pretrain_mixture(data, 3, PretrainConfig(), PRIOR, basis, **inputs,
                             rng=np.random.default_rng(4))
    assert state.violations() == []
    assert state.c.shape == (len(data.sequences),)


def test_zero_rounds_is_raw_initialisation():
    data = _poisson_data([1.0], n=12)
    basis = BasisConfig.for_data(data, n_basis=3)
    cfg = PretrainConfig(rounds=0)
    state = pretrain_mixture(data, 3, cfg, PRIOR, basis, **_inputs(data, basis),
                             rng=np.random.default_rng(5))
    lam = data.mean_rate_per_type()
    for comp in state.allocated:
        assert np.all(comp.w == 0.01)              # untouched triggering seed
        assert abs(comp.mu[0] - lam) <= 0.1 * lam  # jittered pooled rate
        assert float(comp.r).is_integer()          # weight seeds = member counts
    assert sum(c.r for c in state.allocated) == len(data.sequences)
    assert np.array_equal(np.bincount(state.c), [c.r for c in state.allocated])
    assert state.l == 0
    assert state.u > 0


def test_same_seed_same_state():
    data = _poisson_data([0.8, 1.6], n=16)
    basis = BasisConfig.for_data(data, n_basis=3)
    a, b = (pretrain_mixture(data, 2, PretrainConfig(), PRIOR, basis, **_inputs(data, basis),
                             rng=np.random.default_rng(7)) for _ in range(2))
    assert np.array_equal(a.c, b.c)
    assert a.u == b.u
    for x, y in zip(a.allocated, b.allocated):
        assert np.array_equal(x.mu, y.mu)
        assert np.array_equal(x.w, y.w)
        assert x.r == y.r


def test_more_rounds_never_hurt_the_fit():
    data = _poisson_data([0.9, 1.8], n=20, seed=3)
    basis = BasisConfig.for_data(data, n_basis=3)
    inputs = _inputs(data, basis)
    features = inputs["features"]

    def objective(state):
        cols = np.stack(
            [features.loglik_all(c.mu, c.w) for c in state.allocated], axis=1
        )
        return float(cols.max(axis=1).sum())

    scores = [
        objective(pretrain_mixture(data, 2, PretrainConfig(rounds=r), PRIOR, basis,
                                   **inputs, rng=np.random.default_rng(2)))
        for r in range(4)
    ]
    for earlier, later in zip(scores, scores[1:]):
        assert later >= earlier - 1e-3


def test_box_clamp_keeps_rates_inside_and_distinct():
    data = _poisson_data([3.0], n=10, seed=4)
    basis = BasisConfig.for_data(data, n_basis=3)
    # a deliberately narrow box far below the fitted rates forces clamping
    cfg = DppConfig(box_lo=(0.2,), box_hi=(0.4,))
    dpp_model = model_for_data(data, cfg, default_rho=2.0)
    state = pretrain_mixture(data, 3, PretrainConfig(), PRIOR, basis,
                             features=FeatureSet(data, basis), dpp_model=dpp_model,
                             rng=np.random.default_rng(6))
    mus = state.all_mu()
    assert np.all(mus >= 0.2) and np.all(mus <= 0.4)
    for i in range(len(mus)):
        for j in range(i + 1, len(mus)):
            assert not np.array_equal(mus[i], mus[j])


def test_validation_errors():
    data = _poisson_data([1.0], n=4)
    basis = BasisConfig.for_data(data, n_basis=3)
    # both checks fire before the inputs are read
    inputs = {**_inputs(data, basis), "rng": np.random.default_rng(0)}
    with pytest.raises(ConfigError):
        pretrain_mixture(data, 0, PretrainConfig(), PRIOR, basis, **inputs)
    with pytest.raises(ConfigError):
        pretrain_mixture(Dataset([], 1), 1, PretrainConfig(), PRIOR,
                         BasisConfig(np.array([0.0]), 1.0, 3.0), **inputs)
    with pytest.raises(ConfigError):
        PretrainConfig(rounds=-1)
    with pytest.raises(ConfigError):
        PretrainConfig(learning_rate=0.0)


def test_returned_state_is_sampler_ready(tiny2):
    basis = BasisConfig.for_data(tiny2, n_basis=3)
    dpp_model = model_for_data(tiny2, DppConfig(), default_rho=2.0)
    state = pretrain_mixture(tiny2, 4, PretrainConfig(), PRIOR, basis,
                             features=FeatureSet(tiny2, basis), dpp_model=dpp_model,
                             rng=np.random.default_rng(9))
    assert state.violations() == []
    assert state.c.shape == (len(tiny2.sequences),)
    assert state.c.max() < state.k
    for mu in state.all_mu():
        assert dpp_model.in_box(mu)
