"""Thinning simulator and the synthetic benchmark recipes."""

import hashlib
import json
import math

import numpy as np
import pytest
from scipy import stats

import helpers
from tppcluster import simulate
from tppcluster.backbone import (
    HawkesModel,
    HomogeneousPoisson,
    SelfCorrecting,
    SinusoidPoisson,
)
from tppcluster.cli import main
from tppcluster.core import (
    BasisConfig,
    ConfigError,
    HawkesParams,
    NumericalError,
    validate_dataset,
)
from tppcluster.simulate import (
    SIM_BASIS,
    build_hawkes_delta_dataset,
    build_hybrid_dataset,
    sample_mixture,
    thinning_sample,
    write_metadata,
)


def test_poisson_event_count_calibration():
    mean = helpers.thinning_poisson_mean_count(n_reps=300)
    # 300 reps of ~Poisson(100): three-sigma band on the mean
    assert abs(mean - 100.0) <= 3.0 * 10.0 / math.sqrt(300)


def test_interarrival_distribution_pure_birth():
    # with zero triggering the self-exciting model is Poisson(sum mu)
    params = HawkesParams(np.array([0.7, 1.3]), np.zeros((2, 2, 1)), SIM_BASIS)
    seq = thinning_sample(HawkesModel(params), 1500.0, np.random.default_rng(21))
    gaps = np.diff(np.concatenate([[0.0], seq.times]))
    assert seq.n_events > 2000
    p = stats.kstest(gaps, "expon", args=(0, 1.0 / 2.0)).pvalue
    assert p > 0.01


def test_negative_horizon_rejected():
    for horizon in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="horizon"):
            thinning_sample(HomogeneousPoisson([1.0]), horizon, np.random.default_rng(0))


class _LyingBound:
    n_types = 1

    def intensity(self, ts, times, types):
        return np.full((len(ts), 1), 5.0)

    def upper_bound(self, t, times, types, until):
        return 0.5

    def lookahead(self):
        return math.inf


class _NanBound(_LyingBound):
    def upper_bound(self, t, times, types, until):
        return math.nan


def test_violated_dominating_rate_raises():
    with pytest.raises(NumericalError):
        thinning_sample(_LyingBound(), 100.0, np.random.default_rng(1))
    with pytest.raises(NumericalError):
        thinning_sample(_NanBound(), 100.0, np.random.default_rng(1))
    # in a batch, the error names the sequence that raised it
    with pytest.raises(NumericalError, match="^seq-0000: intensity 5.0 exceeded"):
        sample_mixture([_LyingBound()], 100.0, n_per_component=3)
    with pytest.raises(NumericalError, match="^seq-0000: dominating rate nan is not usable"):
        sample_mixture([_NanBound()], 100.0, n_per_component=3)


def test_simulation_is_deterministic():
    assert helpers.simulate_deterministic()


@pytest.mark.parametrize("make_params, horizon, min_events", [
    (lambda: HawkesParams(np.array([0.9]), np.array([[[0.4]]]), SIM_BASIS), 60.0, 50),
    (lambda: HawkesParams(np.array([0.5, 0.8, 0.3]), np.full((3, 3, 1), 0.1), SIM_BASIS),
     40.0, 50),
    (lambda: HawkesParams(np.array([0.6, 0.4]),
                          np.random.default_rng(3).uniform(0.0, 0.3, (2, 2, 3)),
                          BasisConfig(np.array([0.2, 0.9, 1.7]), sigma=0.35, tau_max=2.0)),
     50.0, 50),
    (lambda: HawkesParams(np.array([1.5]), np.array([[[0.3]]]), SIM_BASIS), 600.0, 1025),
], ids=["hawkes-d1", "hawkes-d3", "hawkes-multi-bump", "hawkes-long"])
def test_windowed_hawkes_thinning_matches_whole_history(make_params, horizon, min_events):
    params = make_params()
    seq = thinning_sample(HawkesModel(params), horizon, np.random.default_rng(4))
    times, types = helpers.list_thinning_sample(
        helpers.WholeHistoryHawkes(params), horizon, np.random.default_rng(4)
    )
    assert seq.n_events >= min_events
    assert seq.times.tobytes() == times.tobytes()
    assert seq.types.tobytes() == types.tobytes()


@pytest.mark.parametrize("model", [
    HomogeneousPoisson([0.4, 1.1]),
    SinusoidPoisson([1.8, 1.0], [1.6, 0.5], period=7.0),
    SelfCorrecting(eta=1.0, gamma=0.5, n_types=3),
], ids=["poisson", "sinusoid", "self-correcting"])
def test_buffered_thinning_matches_list_history(model):
    seq = thinning_sample(model, 60.0, np.random.default_rng(5))
    times, types = helpers.list_thinning_sample(model, 60.0, np.random.default_rng(5))
    assert seq.n_events > 50
    assert seq.times.tobytes() == times.tobytes()
    assert seq.types.tobytes() == types.tobytes()


@pytest.mark.parametrize("recipe, some_empty", [
    (lambda: build_hawkes_delta_dataset(3, 0.6, n_per_cluster=6, horizon=8.0, seed=5), False),
    (lambda: build_hybrid_dataset(5, n_per_cluster=3, horizon=4.0), False),
    (lambda: simulate.sample_mixture(
        [HomogeneousPoisson(np.zeros(3)), HomogeneousPoisson([0.3, 0.0, 0.0])],
        horizon=4.0, n_per_component=3, seed=2), True),
], ids=["hawkes-delta", "hybrid", "zero-event"])
def test_batched_sequences_match_lone_ones(monkeypatch, recipe, some_empty):
    """A sequence drawn in its component's batch has the bytes of the same
    stream drawn alone by thinning_sample and by the list-history oracle.
    Batches of at most 4 split the larger components.  The hybrid mixture
    includes the self-correcting component with its finite lookahead; the
    last mixture has sequences with no event."""
    monkeypatch.setattr(simulate, "_BATCH", 4)
    calls = []

    def spy(components, horizon, n_per_component, seed=0, metadata=None):
        calls.append((components, horizon, n_per_component, seed))
        return sample_mixture(components, horizon, n_per_component, seed, metadata)

    monkeypatch.setattr(simulate, "sample_mixture", spy)
    data = recipe()
    (components, horizon, n_per, seed), = calls
    streams = np.random.SeedSequence(seed).spawn(len(data.sequences) + 1)[1:]
    for i, seq in enumerate(data.sequences):
        model = components[i // n_per]
        alone = thinning_sample(model, horizon, np.random.default_rng(streams[i]))
        times, types = helpers.list_thinning_sample(model, horizon,
                                                    np.random.default_rng(streams[i]))
        assert seq.times.tobytes() == alone.times.tobytes() == times.tobytes()
        assert seq.types.tobytes() == alone.types.tobytes() == types.tobytes()
    counts = [s.n_events for s in data.sequences]
    assert sum(counts) > 0 and (min(counts) == 0) == some_empty


def test_event_cap_is_reached(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(simulate, "_MAX_EVENTS", 20_000)
    params = HawkesParams(np.array([1.0]), np.array([[[0.2]]]), SIM_BASIS)
    with pytest.raises(NumericalError, match="runaway simulation"):
        thinning_sample(HawkesModel(params), 1e9, np.random.default_rng(0))
    rc = main(["simulate", "--recipe", "hybrid", "--k", "3", "--n-per-cluster", "2",
               "--horizon", "1e9", "--out", str(tmp_path / "runaway")])
    assert rc == 2
    # the first component's sequences reach the cap together; the first one names itself
    assert "seq-0000: runaway simulation: event cap exceeded" in capsys.readouterr().err


def _sha256(sequences):
    h = hashlib.sha256()
    for s in sequences:
        h.update(f"{s.id}\0{s.label}\0".encode())
        h.update(s.times.tobytes())
        h.update(s.types.tobytes())
    return h.hexdigest()


def test_recipes_keep_their_bytes():
    """The simulator's outputs are pinned bit for bit: a change to the thinning
    loop or the intensity that moves one accepted time or mark fails here."""
    readme = build_hawkes_delta_dataset(4, 0.6, n_per_cluster=50, horizon=10.0, seed=7)
    assert sum(s.n_events for s in readme.sequences) == 9582
    assert _sha256(readme.sequences) == (
        "48bd492e2a7a2d81cde8c0056fb1d59c7b7352359bb1a56aeafda134f7985a98")
    wide = build_hawkes_delta_dataset(3, 0.5, n_per_cluster=4, horizon=10.0, seed=3, n_types=6)
    assert _sha256(wide.sequences) == (
        "85937bfe54ed3ab45b56458d9606f211e00d074d224fe6efa7006799ef50fa8d")
    # one long sequence of the fastest heavy-tail cluster
    params = HawkesParams(np.full(3, 1.8), np.full((3, 3, 1), 0.1), SIM_BASIS)
    long = thinning_sample(HawkesModel(params), 250.0, np.random.default_rng(11),
                           id="long", label=2)
    assert long.n_events > 1500
    assert _sha256([long]) == (
        "f62c1ea92bcc0746f54613bc107b11a65e048c95d7e16a6853a03498ee28e8ba")
    hybrid = {
        3: "f77bd6227c0a594a7428b9718e0b674d1879fbe6321c2bff2bbefe0b8c4e82c2",
        4: "27e63837850675b96b4a3891c2d045edebb3da7a2645bb459ed914974ecf6bde",
        5: "6b7a3bf9bb0d4e4fb2cb854010e38a10949de4b9561f81dea97204b0b9a92538",
    }
    for k, digest in hybrid.items():
        assert _sha256(build_hybrid_dataset(k, n_per_cluster=5).sequences) == digest


def test_graded_separation_recipe():
    data = build_hawkes_delta_dataset(4, 0.6, n_per_cluster=10, horizon=5.0, seed=2)
    assert len(data.sequences) == 40
    assert data.n_types == 3
    assert validate_dataset(data) == []
    labels = [s.label for s in data.sequences]
    assert sorted(set(labels)) == [0, 1, 2, 3]
    assert all(labels.count(m) == 10 for m in range(4))
    assert data.metadata["recipe"] == "hawkes_delta"
    assert data.metadata["delta"] == 0.6
    mus = [c["mu"] for c in data.metadata["components"]]
    assert np.allclose(mus, [[0.5] * 3, [1.1] * 3, [1.7] * 3, [2.3] * 3])


def test_recipe_defaults_and_validation():
    data = build_hawkes_delta_dataset(5, 0.2, horizon=2.0, seed=3)
    assert len(data.sequences) == 500  # default 100 per cluster
    assert data.sequences[0].id == "seq-0000"
    assert data.sequences[499].id == "seq-0499"
    with pytest.raises(ConfigError):
        build_hawkes_delta_dataset(0, 0.5)
    with pytest.raises(ConfigError):
        build_hawkes_delta_dataset(2, -0.1)
    with pytest.raises(ConfigError, match="overflows the total base rate"):
        build_hawkes_delta_dataset(2, 1e308)
    with pytest.raises(ConfigError, match="overflows the total base rate"):
        build_hawkes_delta_dataset(3, 6e307, n_types=2)  # 2 * (0.5 + 1.2e308)


def test_hybrid_recipe_composition():
    expected = {
        3: ["homogeneous_poisson", "sinusoid_poisson", "hawkes"],
        4: ["homogeneous_poisson", "sinusoid_poisson", "hawkes", "self_correcting"],
        5: ["homogeneous_poisson", "sinusoid_poisson", "hawkes", "self_correcting", "hawkes"],
    }
    for k, names in expected.items():
        data = build_hybrid_dataset(k, n_per_cluster=2, horizon=4.0, seed=1)
        assert [c["model"] for c in data.metadata["components"]] == names
        assert len(data.sequences) == 2 * k
        assert validate_dataset(data) == []
    with pytest.raises(ConfigError):
        build_hybrid_dataset(2)
    with pytest.raises(ConfigError):
        build_hybrid_dataset(6)


def test_mixture_spec_validation():
    a, b = HomogeneousPoisson([0.5]), HomogeneousPoisson([2.0])
    with pytest.raises(ConfigError):
        sample_mixture([], horizon=3.0, n_per_component=2)
    for horizon in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="horizon"):
            sample_mixture([a, b], horizon=horizon, n_per_component=2)
    for count in (0, -3):
        with pytest.raises(ConfigError, match="n_per_component"):
            sample_mixture([a, b], horizon=3.0, n_per_component=count)
    with pytest.raises(ConfigError):
        sample_mixture([a, HomogeneousPoisson([1.0, 1.0])], horizon=3.0, n_per_component=2)


def test_self_correcting_time_rescaling():
    # one long run: rescaled event times of a correct simulator form a unit
    # Poisson process, so their gaps are Exp(1).  (Pooling many short windows
    # would bias the gaps small: a fixed horizon censors large gaps.)
    model = SelfCorrecting(eta=1.0, gamma=0.5, n_types=2)
    seq = thinning_sample(model, 600.0, np.random.default_rng(77))

    def compensator_at(t):
        ts = seq.times[seq.times < t]
        knots = np.concatenate([[0.0], ts, [t]])
        counts = np.arange(knots.size - 1)
        # exponents stay O(1): the count correction balances the time term
        seg = np.exp(knots[1:] - 0.5 * counts) - np.exp(knots[:-1] - 0.5 * counts)
        return float(seg.sum())

    gaps = helpers.rescaled_increments(seq.times, compensator_at)
    assert gaps.size > 700
    assert stats.kstest(gaps, "expon").pvalue > 0.01


def test_hawkes_time_rescaling():
    params = HawkesParams(np.array([0.8]), np.array([[[0.5]]]), SIM_BASIS)
    model = HawkesModel(params)
    seq = thinning_sample(model, 900.0, np.random.default_rng(78))
    gaps = helpers.rescaled_increments(
        seq.times, helpers.hawkes_compensator_at(params, seq)
    )
    assert gaps.size > 700
    assert stats.kstest(gaps, "expon").pvalue > 0.01


def test_metadata_sidecar_round_trip(tmp_path):
    data = build_hawkes_delta_dataset(2, 0.5, n_per_cluster=3, horizon=2.0, seed=9)
    path = tmp_path / "dataset.meta.json"
    write_metadata(data, path)
    rec = json.loads(path.read_text(encoding="utf-8"))
    assert rec["n_types"] == 3
    assert rec["n_sequences"] == 6
    assert rec["recipe"] == "hawkes_delta"
    assert rec["delta"] == 0.5
    assert len(rec["components"]) == 2
