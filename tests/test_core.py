"""Data model, validation, priors, and the reference log joint."""

import json
import math

import numpy as np
import pytest
from scipy.special import gammaln

from tppcluster.backbone import FeatureSet, hawkes_loglik
from tppcluster.cli import FitConfig, run_fit
from tppcluster.core import (
    BasisConfig,
    Component,
    ConfigError,
    Dataset,
    DppConfig,
    EventSequence,
    HawkesParams,
    MixtureState,
    PriorBundle,
    SgldSchedule,
    read_jsonl,
    validate_dataset,
    write_jsonl,
)
from tppcluster.dpp import dpp_log_density, model_for_data
from tppcluster.sampler import state_log_joint
from tppcluster.simulate import build_hawkes_delta_dataset


def _seq(times, types, horizon, **kw):
    return EventSequence(np.asarray(times, float), np.asarray(types, int), horizon, **kw)


# ---------------------------------------------------------------------------
# sequences and datasets


def test_sequence_valid():
    s = _seq([0.5, 1.0, 2.5], [0, 1, 0], 3.0, id="s0", label=1)
    assert s.n_events == 3
    assert Dataset([s], 2).sequences == [s]


def test_sequence_violations():
    for times, types, horizon, rule in (
        ([1.0, 1.0], [0, 0], 3.0, "timestamps not strictly increasing"),
        ([2.0, 1.0], [0, 0], 3.0, "timestamps not strictly increasing"),  # decreasing
        ([0.0], [0], 3.0, r"event times outside \(0, 3.0\]"),  # at the open left end
        ([3.5], [0], 3.0, r"event times outside \(0, 3.0\]"),  # beyond the horizon
        ([1.0], [-1], 3.0, "negative event type"),
        ([], [], 0.0, "horizon must be positive and finite, got 0.0"),
        ([1.0, math.nan], [0, 0], 3.0, "non-finite event timestamp"),
        ([1.0], [0, 0], 3.0, "times/types length mismatch"),
    ):
        with pytest.raises(ConfigError, match=rf"^s0: {rule}"):
            _seq(times, types, horizon, id="s0")
    with pytest.raises(ConfigError, match="^<unnamed>: negative event type"):
        _seq([1.0], [-1], 3.0)


def test_dataset_summaries():
    data = Dataset([_seq([1.0, 2.0], [0, 1], 4.0), _seq([0.5], [1], 6.0)], 2)
    assert len(data) == 2
    assert data.n_events == 3
    assert data.total_time == 10.0
    assert data.mean_rate_per_type() == pytest.approx(3 / (10.0 * 2))
    assert data.mean_gap() == pytest.approx(10.0 / 3)
    assert data.labels() is None  # unlabeled sequences present


def test_dataset_labels_and_subset():
    data = Dataset([_seq([1.0], [0], 2.0, label=1), _seq([], [], 2.0, label=0)], 1)
    assert np.array_equal(data.labels(), [1, 0])
    sub = data.subset([1])
    assert len(sub) == 1 and sub.sequences[0].label == 0


def test_validate_dataset():
    good = Dataset([_seq([1.0], [0], 2.0)], 1)
    assert validate_dataset(good) == []
    assert validate_dataset(Dataset([], 1)) == ["dataset contains no sequences"]
    assert validate_dataset(Dataset([_seq([], [], 2.0)], 1)) == ["dataset contains no events"]
    for mark in (2, 3):  # marks outside the alphabet
        with pytest.raises(ConfigError,
                           match=f"^s0: event type {mark + 1} exceeds declared type count 2"):
            Dataset([good.sequences[0], _seq([1.0], [mark], 2.0, id="s0")], 2)
    with pytest.raises(ConfigError, match="^n_types must be >= 1, got 0"):
        Dataset([good.sequences[0]], 0)
    Dataset([_seq([1.0], [1], 3.0)], 2)  # the boundary mark builds


# ---------------------------------------------------------------------------
# basis and parameters


def test_basis_validation():
    with pytest.raises(ConfigError):
        BasisConfig(np.array([0.0]), sigma=0.0, tau_max=1.0)
    with pytest.raises(ConfigError):
        BasisConfig(np.array([0.0]), sigma=1.0, tau_max=-1.0)
    with pytest.raises(ConfigError):
        BasisConfig(np.array([2.0]), sigma=1.0, tau_max=1.0)  # center outside


def test_basis_for_data_defaults():
    data = Dataset([_seq([1.0, 2.0, 3.0], [0, 0, 0], 6.0)], 1)
    b = BasisConfig.for_data(data, n_basis=3)
    assert b.tau_max == pytest.approx(3.0 * data.mean_gap())
    assert np.allclose(b.centers, np.linspace(0.0, b.tau_max, 3))
    assert b.sigma == pytest.approx(b.centers[1] - b.centers[0])
    b1 = BasisConfig.for_data(data, n_basis=1)
    assert b1.centers.tolist() == [0.0] and b1.sigma == pytest.approx(b1.tau_max)
    bx = BasisConfig.for_data(data, n_basis=2, tau_max=4.0, sigma=0.3)
    assert bx.tau_max == 4.0 and bx.sigma == 0.3


def test_basis_round_trip():
    b = BasisConfig(np.array([0.0, 1.0]), 0.5, 2.0)
    b2 = BasisConfig.from_dict(json.loads(json.dumps(b.to_dict())))
    assert np.array_equal(b.centers, b2.centers)
    assert (b.sigma, b.tau_max) == (b2.sigma, b2.tau_max)


def test_params_shape_check_and_round_trip():
    basis = BasisConfig(np.array([0.0]), 1.0, 2.0)
    with pytest.raises(ConfigError):
        HawkesParams(np.ones(2), np.zeros((2, 2, 3)), basis)
    p = HawkesParams(np.array([0.5, 1.5]), np.full((2, 2, 1), 0.1), basis)
    d = json.loads(json.dumps(p.to_dict()))
    p2 = HawkesParams(np.asarray(d["mu"]), np.asarray(d["a"]), BasisConfig.from_dict(d["basis"]))
    assert np.array_equal(p.mu, p2.mu) and np.array_equal(p.a, p2.a)


# ---------------------------------------------------------------------------
# prior bundle


def test_sgld_schedule():
    s = SgldSchedule(eps0=1e-3, decay=0.6, offset=10.0, minibatch=4)
    assert s.step_size(0) == pytest.approx(1e-3 * 10.0 ** -0.6)
    assert s.step_size(100) < s.step_size(10) < s.step_size(0)
    with pytest.raises(ConfigError):
        SgldSchedule(decay=0.5)  # needs decay > 0.5
    with pytest.raises(ConfigError):
        SgldSchedule(eps0=0.0)


def test_dpp_config_validation():
    with pytest.raises(ConfigError):
        DppConfig(rho=-1.0)
    with pytest.raises(ConfigError):
        DppConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        DppConfig(box_lo=(0.1,))  # missing box_hi
    with pytest.raises(ConfigError):
        DppConfig(lo_factor=1.0)


def test_w_prior_density_and_sampling():
    prior = PriorBundle(beta_w=10.0)
    w = np.full((1, 1, 2), 0.1)
    assert prior.w_log_prior(w) == pytest.approx(2 * math.log(10.0) - 10.0 * 0.2)
    assert prior.w_log_prior(np.array([[-0.1]])) == -math.inf
    draws = prior.w_sample(np.random.default_rng(0), (100_000,))
    assert abs(draws.mean() - 0.1) < 3 * 0.1 / math.sqrt(100_000)


# ---------------------------------------------------------------------------
# mixture state


def _simple_state(u=1.0):
    basis = BasisConfig(np.array([0.0]), 1.0, 1.0)
    c0 = Component(np.array([1.0]), np.zeros((1, 1, 1)), 2.0)
    c1 = Component(np.array([2.0]), np.zeros((1, 1, 1)), 1.0)
    spare = Component(np.array([3.0]), np.zeros((1, 1, 1)), 0.5)
    return MixtureState([c0, c1], [spare], np.array([0, 1, 0]), u, basis)


def test_state_accessors():
    st = _simple_state()
    assert (st.k, st.l) == (2, 1)
    assert st.counts().tolist() == [2, 1]
    assert st.t_total() == pytest.approx(3.5)
    assert st.all_mu().shape == (3, 1)
    assert st.violations(3) == []


def test_state_copy_is_deep():
    st = _simple_state()
    cp = st.copy()
    cp.allocated[0].mu[0] = 9.0
    cp.c[0] = 1
    assert st.allocated[0].mu[0] == 1.0 and st.c[0] == 0


def test_state_violations():
    st = _simple_state()
    st.c = np.array([0, 0, 0])  # component 1 left without members
    assert st.violations(3)
    st = _simple_state(u=-1.0)
    assert st.violations(3)
    st = _simple_state()
    st.allocated[0].r = 0.0
    assert st.violations(3)
    assert MixtureState([], [], np.array([], dtype=int), 1.0,
                        _simple_state().basis).violations(0)


def _assert_same_state(got: MixtureState, want: MixtureState):
    assert np.array_equal(got.c, want.c) and got.c.dtype == np.int64
    assert got.u == want.u
    assert np.array_equal(got.basis.centers, want.basis.centers)
    assert (got.basis.sigma, got.basis.tau_max) == (want.basis.sigma, want.basis.tau_max)
    for g, w in ((got.allocated, want.allocated), (got.non_allocated, want.non_allocated)):
        assert len(g) == len(w)
        for a, b in zip(g, w):
            assert a.mu.tobytes() == b.mu.tobytes() and a.w.tobytes() == b.w.tobytes()
            assert a.r == b.r


def test_state_json_round_trip():
    rng = np.random.default_rng(5)
    basis = BasisConfig(np.array([0.0, 0.7]), 0.35, 1.4)
    comps = [Component(rng.uniform(0.5, 2.0, 2), rng.exponential(0.1, (2, 2, 2)),
                       float(rng.gamma(3.0))) for _ in range(3)]
    st = MixtureState(comps[:2], comps[2:], np.array([1, 0, 0, 1, 1]), float(rng.gamma(5.0)),
                      basis)
    _assert_same_state(MixtureState.from_dict(json.loads(json.dumps(st.to_dict())), 2, 5), st)
    # a fit's report carries its point estimate in the same form
    data = build_hawkes_delta_dataset(2, 1.0, n_per_cluster=4, horizon=5.0, seed=3)
    cfg = FitConfig.resolve(None, {"eval_fraction": 0.0, "pretrain": {"m_init": 2},
                                   "sampler": {"iterations": 8, "burn_in": 4}})
    report = run_fit(data, cfg).report
    rep = json.loads(json.dumps(report.to_dict()))
    _assert_same_state(MixtureState.from_dict(rep["map"], data.n_types, len(data)),
                       report.map_state)


# ---------------------------------------------------------------------------
# reference log joint


def _poisson_setup():
    """One sequence, one unit-rate component with no excitation."""
    basis = BasisConfig(np.array([0.0]), 1.0, 1.0)
    data = Dataset([_seq([1.0, 2.0], [0, 0], 3.0)], 1)
    comp = Component(np.array([1.0]), np.zeros((1, 1, 1)), 1.0)
    state = MixtureState([comp], [], np.array([0]), 0.7, basis)
    prior = PriorBundle(beta_w=10.0, dpp=DppConfig(box_lo=(0.5,), box_hi=(2.0,), rho=2.0))
    model = model_for_data(data, prior.dpp, default_rho=1)
    return state, data, prior, model


def test_log_joint_poisson_assembly():
    state, data, prior, model = _poisson_setup()
    # unit rate, two events on (0, 3]: log likelihood = 2 log 1 - 3 = -3
    assert hawkes_loglik(state.allocated[0].params(state.basis),
                         data.sequences[0]) == pytest.approx(-3.0)
    expected = (
        dpp_log_density(model, state.all_mu())
        + prior.w_log_prior(state.allocated[0].w)
        - 1.0                      # Exp(1) prior on the weight seed
        + 1 * math.log(1.0)        # allocation mass r^{n_m}
        - 3.0                      # member log likelihood
        + 0 * math.log(state.u)    # (N-1) log u
        - state.u * 1.0            # -u t
        - float(gammaln(1))
    )
    got = state_log_joint(state, data, prior, model)
    assert got == pytest.approx(expected, abs=1e-12)
    # the cached-column path agrees with the per-sequence path
    feats = FeatureSet(data, state.basis)
    cols = feats.loglik_all(state.allocated[0].mu, state.allocated[0].w)[:, None]
    assert state_log_joint(state, data, prior, model, cols=cols) == pytest.approx(got)


def test_log_joint_invalid_states():
    state, data, prior, model = _poisson_setup()
    dup = state.copy()
    dup.non_allocated.append(Component(np.array([1.0]), np.zeros((1, 1, 1)), 1.0))
    assert state_log_joint(dup, data, prior, model) == -math.inf  # duplicated mu
    bad_r = state.copy()
    bad_r.allocated[0].r = -0.5
    assert state_log_joint(bad_r, data, prior, model) == -math.inf
    bad_u = state.copy()
    bad_u.u = 0.0
    assert state_log_joint(bad_u, data, prior, model) == -math.inf
    outside = state.copy()
    outside.allocated[0].mu = np.array([9.0])  # beyond the prior box
    assert state_log_joint(outside, data, prior, model) == -math.inf


def test_log_joint_weight_seed_scaling_identity():
    """Scaling one allocated weight seed by c shifts the log joint by
    n_m log c - (c - 1) r (1 + u):  n_m log c from the allocation mass,
    -(c-1)r from the Exp(1) prior, -u(c-1)r through t."""
    state, data, prior, model = _poisson_setup()
    base = state_log_joint(state, data, prior, model)
    for c in (0.5, 2.0, 7.3):
        scaled = state.copy()
        r = state.allocated[0].r
        scaled.allocated[0].r = c * r
        delta = state_log_joint(scaled, data, prior, model) - base
        n_m = 1
        assert delta == pytest.approx(
            n_m * math.log(c) - (c - 1.0) * r * (1.0 + state.u), abs=1e-10
        )


def test_log_joint_permutation_invariance():
    basis = BasisConfig(np.array([0.0]), 1.0, 1.0)
    data = Dataset(
        [_seq([0.5], [0], 3.0), _seq([1.0, 2.0], [0, 0], 3.0), _seq([], [], 3.0)], 1
    )
    c0 = Component(np.array([0.8]), np.full((1, 1, 1), 0.05), 2.0)
    c1 = Component(np.array([1.6]), np.full((1, 1, 1), 0.01), 1.0)
    prior = PriorBundle(dpp=DppConfig(box_lo=(0.5,), box_hi=(2.0,), rho=2.0))
    model = model_for_data(data, prior.dpp, default_rho=2)
    st = MixtureState([c0, c1], [], np.array([0, 1, 0]), 1.3, basis)
    sw = MixtureState([c1.copy(), c0.copy()], [], np.array([1, 0, 1]), 1.3, basis)
    a = state_log_joint(st, data, prior, model)
    b = state_log_joint(sw, data, prior, model)
    assert a == pytest.approx(b, abs=1e-9)


# ---------------------------------------------------------------------------
# JSON-lines interchange


def test_jsonl_round_trip_bytes(tmp_path):
    data = Dataset(
        [
            _seq([0.25, 1.5], [0, 2], 4.0, id="a", label=1),
            _seq([], [], 4.0, id="b"),  # label omitted on disk
        ],
        3,
    )
    p1 = tmp_path / "d1.jsonl"
    p2 = tmp_path / "d2.jsonl"
    write_jsonl(data, p1)
    back = read_jsonl(p1, n_types=3)
    write_jsonl(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.sequences[0].label == 1 and back.sequences[1].label is None
    assert np.array_equal(back.sequences[0].types, [0, 2])  # 1-based d undone


def test_jsonl_infers_alphabet(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"id":"x","T":2.0,"events":[{"t":1.0,"d":3}]}\n', encoding="utf-8")
    assert read_jsonl(p).n_types == 3
    assert read_jsonl(p, n_types=5).n_types == 5


def test_jsonl_malformed(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text("not json\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        read_jsonl(p)
    p.write_text('{"id":"x","events":[]}\n', encoding="utf-8")  # missing T
    with pytest.raises(ConfigError):
        read_jsonl(p)
    ok = '{"id":"a","T":10,"events":[{"t":1,"d":1}]}'  # integer times stay valid
    p.write_text(ok + "\n", encoding="utf-8")
    assert read_jsonl(p).sequences[0].horizon == 10.0
    for rec, why in (
        ('{"id":"a","T":3.0,"events":[{"t":1.0,"d":1.7}]}', "d must be an integer"),
        ('{"id":"a","T":3.0,"events":[{"t":1.0,"d":true}]}', "d must be an integer"),
        ('{"id":"a","T":3.0,"events":[{"t":"0.366","d":1}]}', "t must be a number"),
        ('{"id":"a","T":3.0,"events":[{"t":false,"d":1}]}', "t must be a number"),
        ('{"id":"a","T":"10","events":[]}', "T must be a number"),
        ('{"id":"a","T":null,"events":[]}', "T must be a number"),
        ('{"id":5,"T":3.0,"events":[]}', "id must be a string, got 5"),
        ('{"id":null,"T":3.0,"events":[]}', "id must be a string, got None"),
    ):
        p.write_text(ok + "\n" + rec + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"bad.jsonl:2: bad record \\({why}"):
            read_jsonl(p)
    p.write_text(ok + '\n{"T":3.0,"events":[]}\n', encoding="utf-8")
    assert [s.id for s in read_jsonl(p).sequences] == ["a", "line-2"]  # an absent id
    p.write_bytes(ok.encode() + b'\n{"id":"\xff","T":3.0,"events":[]}\n')
    with pytest.raises(ConfigError, match="bad.jsonl:2: malformed JSON"):
        read_jsonl(p)
    with pytest.raises(ConfigError, match="cannot read dataset .*: Is a directory"):
        read_jsonl(tmp_path)
    b = '{"id":"b","T":3.0,"events":[]}'
    p.write_text("\n".join([ok, b, ok]) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError,
                       match=r"bad.jsonl:3: duplicate sequence id 'a' \(first on line 1\)"):
        read_jsonl(p)
