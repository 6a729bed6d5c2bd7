"""Intensity kernels, likelihoods, gradients, and simulation models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import helpers
from tppcluster.backbone import (
    FeatureSet,
    HawkesModel,
    HomogeneousPoisson,
    SelfCorrecting,
    SinusoidPoisson,
    basis_integrals,
    basis_values,
    hawkes_compensator,
    hawkes_intensity,
    hawkes_loglik,
    hawkes_loglik_grad,
)
from tppcluster.core import BasisConfig, Dataset, EventSequence, HawkesParams, NumericalError

BASIS = BasisConfig(np.array([0.0, 1.0]), sigma=0.5, tau_max=2.0)


def _params(mu, a_value=0.0, basis=BASIS):
    mu = np.atleast_1d(np.asarray(mu, float))
    D = mu.size
    a = np.full((D, D, basis.n_basis), float(a_value))
    return HawkesParams(mu, a, basis)


# ---------------------------------------------------------------------------
# kernel basis


def test_basis_peak_value():
    b = BasisConfig(np.array([1.0]), sigma=0.5, tau_max=3.0)
    peak = 1.0 / (0.5 * math.sqrt(2.0 * math.pi))
    assert basis_values(b, 1.0)[0] == pytest.approx(peak)


def test_basis_support():
    vals = basis_values(BASIS, np.array([-0.5, 0.0, 1e-9, 2.0, 2.0 + 1e-9]))
    assert np.all(vals[0] == 0.0)       # negative lag
    assert np.all(vals[1] == 0.0)       # zero lag excluded (strict past only)
    assert np.all(vals[2] > 0.0)
    assert np.all(vals[3] > 0.0)        # truncation boundary included
    assert np.all(vals[4] == 0.0)       # beyond truncation


def test_basis_integrals():
    got = basis_integrals(BASIS, 5.0)  # beyond tau_max: full truncated mass
    expected = ndtr((2.0 - BASIS.centers) / 0.5) - ndtr(-BASIS.centers / 0.5)
    assert np.allclose(got, expected, atol=1e-14)
    assert np.all(basis_integrals(BASIS, 0.0) == 0.0)
    grid = basis_integrals(BASIS, np.linspace(0, 3, 50))
    assert np.all(np.diff(grid, axis=0) >= -1e-15)  # monotone in the upper limit
    # matches direct quadrature of the bump
    from scipy.integrate import quad

    num, _ = quad(lambda t: float(basis_values(BASIS, t)[0]), 0.0, 1.3)
    assert num == pytest.approx(basis_integrals(BASIS, 1.3)[0], rel=1e-8)


# ---------------------------------------------------------------------------
# intensity and likelihood


def test_intensity_manual_two_events():
    p = _params([0.4, 0.6], a_value=0.3)
    times, types = np.array([1.0, 2.5]), np.array([0, 1])
    t = 3.0
    g1 = basis_values(BASIS, t - 1.0)
    g2 = basis_values(BASIS, t - 2.5)
    lam = hawkes_intensity(p, times, types, t)
    expected0 = 0.4 + 0.3 * (g1.sum() + g2.sum())
    assert lam[0] == pytest.approx(expected0)
    assert hawkes_intensity(p, times, types, t, d=1) == pytest.approx(lam[1])
    # only the strict past counts
    assert np.allclose(hawkes_intensity(p, times, types, 1.0), [0.4, 0.6])
    # lists are accepted as well as arrays, with the same bytes
    for at in (t, 1.0):
        from_lists = hawkes_intensity(p, times.tolist(), types.tolist(), at)
        assert from_lists.tobytes() == hawkes_intensity(p, times, types, at).tobytes()


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_windowed_intensity_matches_whole_history(data):
    """The windowed intensity keeps exactly the events of a whole-history mask,
    in the same order, so the sums are equal, not merely close."""
    D = data.draw(st.integers(1, 3), label="D")
    nb = data.draw(st.integers(1, 3), label="n_basis")
    tau = data.draw(st.floats(0.01, 5.0), label="tau_max")
    centers = sorted(data.draw(st.lists(st.floats(0.0, tau), min_size=nb, max_size=nb)))
    basis = BasisConfig(np.array(centers), data.draw(st.floats(0.05, 2.0)), tau)
    t = data.draw(st.floats(0.0, 1e4), label="t")
    lags = data.draw(st.lists(st.floats(-tau, 3.0 * tau), max_size=25), label="lags")
    edges = [t, t - tau, np.nextafter(t - tau, -math.inf), np.nextafter(t - tau, math.inf)]
    exact = data.draw(st.lists(st.sampled_from(edges), min_size=1, max_size=6), label="edges")
    times = np.sort(np.array([t - lag for lag in lags] + exact, dtype=np.float64))
    types = np.array(data.draw(st.lists(st.integers(0, D - 1), min_size=times.size,
                                        max_size=times.size)), dtype=np.int64)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    params = HawkesParams(rng.uniform(0.1, 2.0, D), rng.uniform(0.0, 1.0, (D, D, nb)), basis)
    lam = hawkes_intensity(params, times, types, t)
    ref = helpers.whole_history_intensity(params, times, types, t)
    assert lam.tobytes() == ref.tobytes()


def test_poisson_closed_form():
    p = _params([0.7, 1.3])
    seq = EventSequence(np.array([0.5, 2.0, 3.5]), np.array([0, 1, 1]), 5.0)
    expected = math.log(0.7) + 2 * math.log(1.3) - 5.0 * (0.7 + 1.3)
    assert hawkes_loglik(p, seq) == pytest.approx(expected)
    assert hawkes_compensator(p, seq) == pytest.approx(5.0 * 2.0)


def test_joint_scaling_identity():
    rng = np.random.default_rng(2)
    p, seq = helpers.random_instance(rng)
    base = hawkes_loglik(p, seq)
    comp = hawkes_compensator(p, seq)
    for c in (0.5, 3.0):
        scaled = HawkesParams(c * p.mu, c * p.a, p.basis)
        got = hawkes_loglik(scaled, seq)
        assert got == pytest.approx(base + seq.n_events * math.log(c) - (c - 1) * comp)


def test_empty_sequence():
    p = _params([0.7, 1.3], a_value=0.2)
    seq = EventSequence(np.array([]), np.array([]), 4.0)
    assert hawkes_loglik(p, seq) == pytest.approx(-4.0 * 2.0)
    dmu, da = hawkes_loglik_grad(p, seq)
    assert np.allclose(dmu, -4.0)
    assert np.allclose(da, 0.0)


def test_compensator_vs_quadrature():
    assert helpers.compensator_quad_max_rel_err(n_instances=15) < 1e-6


def test_gradient_vs_finite_differences():
    assert helpers.gradient_fd_max_rel_err(n_instances=100) < 1e-4


def test_gradient_poisson_closed_form():
    p = _params([0.5, 2.0])
    seq = EventSequence(np.array([1.0, 2.0, 3.0]), np.array([0, 0, 1]), 4.0)
    dmu, da = hawkes_loglik_grad(p, seq)
    assert dmu[0] == pytest.approx(2 / 0.5 - 4.0)
    assert dmu[1] == pytest.approx(1 / 2.0 - 4.0)
    # with a = 0 the a-gradient reduces to excitation/rate minus integrated mass
    assert da.shape == (2, 2, 2)


def test_loglik_concavity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p, seq = helpers.random_instance(rng)
        q, _ = helpers.random_instance(rng)
        # same shapes: regenerate q on p's basis/dimensions
        mu2 = rng.uniform(0.2, 2.0, size=p.n_types)
        a2 = rng.uniform(0.0, 0.5, size=p.a.shape)
        mid = HawkesParams((p.mu + mu2) / 2, (p.a + a2) / 2, p.basis)
        l1 = hawkes_loglik(p, seq)
        l2 = hawkes_loglik(HawkesParams(mu2, a2, p.basis), seq)
        assert hawkes_loglik(mid, seq) >= (l1 + l2) / 2 - 1e-9


def test_zero_rate_gives_neg_inf():
    basis = BasisConfig(np.array([0.0]), 1.0, 1.0)
    p = HawkesParams(np.array([1.0]), np.zeros((1, 1, 1)), basis)
    seq = EventSequence(np.array([0.5]), np.array([0]), 2.0)
    feats = FeatureSet(Dataset([seq], 1), basis)
    cols = feats.loglik_all(np.array([0.0]), np.zeros((1, 1, 1)))
    assert cols[0] == -math.inf
    with pytest.raises(NumericalError):
        hawkes_loglik_grad(HawkesParams(np.array([0.0]), np.zeros((1, 1, 1)), basis),
                           EventSequence(np.array([0.5]), np.array([0]), 2.0))


# ---------------------------------------------------------------------------
# batched feature set


def _random_dataset(rng, n=6, D=2):
    seqs = []
    for i in range(n):
        horizon = float(rng.uniform(2.0, 5.0))
        times = np.unique(rng.uniform(1e-3, horizon, size=int(rng.integers(0, 9))))
        types = rng.integers(0, D, size=times.size)
        seqs.append(EventSequence(times, types, horizon, id=f"s{i}"))
    return Dataset(seqs, D)


def _subset_cases(D):
    """Random sequences plus two empty ones and one longest, a random point
    (mu, a), and index sets whose rows are cut to different widths: all
    sequences, all but the longest, only the empty ones, and one sequence."""
    rng = np.random.default_rng(10 + D)
    seqs = _random_dataset(rng, D=D).sequences
    empty = [EventSequence(np.array([]), np.array([], dtype=np.int64), 3.0, id=f"e{i}")
             for i in range(2)]
    times = np.unique(rng.uniform(1e-3, 6.0, size=14))
    longest = EventSequence(times, rng.integers(0, D, size=times.size), 6.0, id="long")
    data = Dataset(seqs[:3] + empty + [longest] + seqs[3:], D)
    basis = BasisConfig(np.array([0.0, 0.8]), 0.4, 1.6)
    mu = rng.uniform(0.3, 1.5, size=D)
    a = rng.uniform(0.0, 0.4, size=(D, D, 2))
    n = len(data.sequences)
    subsets = {
        "all": np.arange(n),
        "without longest": np.array([0, 1, 2, 3, 6, 7, 8]),
        "empty only": np.array([3, 4]),
        "one": np.array([8]),
    }
    return data, basis, mu, a, subsets


def test_featureset_matches_per_sequence_loglik():
    for D in (1, 2, 3):
        data, basis, mu, a, subsets = _subset_cases(D)
        feats = FeatureSet(data, basis)
        p = HawkesParams(mu, a, basis)
        direct = np.array([hawkes_loglik(p, s) for s in data.sequences])
        assert np.allclose(feats.loglik_all(mu, a), direct, atol=1e-10)
        for name, idx in subsets.items():
            got = feats.take(idx).loglik_all(mu, a)
            assert np.allclose(got, direct[idx], atol=1e-10), (D, name)
            assert got.sum() == pytest.approx(direct[idx].sum())


def test_featureset_gradient_matches_per_sequence():
    for D in (1, 2, 3):
        data, basis, mu, a, subsets = _subset_cases(D)
        feats = FeatureSet(data, basis)
        p = HawkesParams(mu, a, basis)
        for name, idx in subsets.items():
            direct = sum(hawkes_loglik_grad(p, data.sequences[i])[1] for i in idx)
            assert np.allclose(feats.grad_a(mu, a, idx), direct, atol=1e-10), (D, name)


def test_featureset_event_term_consistency():
    for D in (1, 2, 3):
        data, basis, mu, a, subsets = _subset_cases(D)
        feats = FeatureSet(data, basis)
        p = HawkesParams(mu, a, basis)
        direct = np.array([hawkes_loglik(p, s) for s in data.sequences])
        whole = feats.excitation(a)
        for name, idx in subsets.items():
            x = whole[feats.rows(idx)]
            assert x.shape == (idx.size, feats.n_events[idx].max()), (D, name)
            ev = feats.event_term(mu, x, idx)
            comp = feats.horizons[idx].sum() * mu.sum() + float(
                np.einsum("dj,ndj->", a.sum(axis=0), feats.comp[idx])
            )
            assert ev - comp == pytest.approx(feats.take(idx).loglik_all(mu, a).sum(), abs=1e-9)
            assert ev - comp == pytest.approx(direct[idx].sum(), abs=1e-9), (D, name)


def test_featureset_cached_blocks_and_sub_stores_keep_the_bits():
    """A subset's own store ``take(idx)`` is the store built from the subset,
    array for array; the whole store's excitation block, cut with
    ``rows(idx)``, is that sub-store's block, and scores and gradients from a
    given block equal those computed afresh, bit for bit."""
    for D in (1, 2, 3):
        data, basis, mu, a, subsets = _subset_cases(D)
        feats = FeatureSet(data, basis)
        whole = feats.excitation(a)
        assert whole.shape == feats.mask.shape
        assert np.array_equal(feats.loglik_all(mu, a, x=whole), feats.loglik_all(mu, a))
        for got, want in zip(feats.loglik_grad(mu, a, whole), feats.loglik_grad(mu, a)):
            assert np.array_equal(got, want), D
        for name, idx in subsets.items():
            sub = feats.take(idx)
            built = FeatureSet(data.subset(idx), basis)
            for key in ("n_events", "horizons", "types", "mask", "onehot", "excite", "comp"):
                got, want = getattr(sub, key), getattr(built, key)
                assert got.dtype == want.dtype and np.array_equal(got, want), (D, name, key)
            x = whole[feats.rows(idx)]
            assert np.array_equal(sub.excitation(a), x), (D, name)
            assert np.array_equal(sub.loglik_all(mu, a, x), sub.loglik_all(mu, a))
            assert np.array_equal(feats.grad_a(mu, a, idx, x), feats.grad_a(mu, a, idx))
            assert np.array_equal(feats.grad_a(mu, a, idx), sub.loglik_grad(mu, a)[1]), (D, name)


def _padded_excitation(feats, a):
    """The excitation over the padded layout, the reference for the real-row
    GEMM: one GEMM over all N·I_max slots, each keeping its own type's column."""
    D = feats.n_types
    a2 = a.reshape(D, -1)
    toward = feats.excite.reshape(-1, a2.shape[1]) @ np.ascontiguousarray(a2.T)
    own = np.arange(0, toward.size, D) + feats.types.ravel()
    return toward.ravel().take(own).reshape(feats.types.shape)


def _padded_loglik_all(feats, mu, a):
    """The likelihood columns over the padded layout, the reference for the
    real-row kernel: rates and logs over all N·I_max slots, padded and
    nonpositive slots masked."""
    lam = mu[feats.types] + _padded_excitation(feats, a)
    ok = lam > 0
    ev = np.log(lam, out=np.zeros_like(lam), where=feats.mask & ok).sum(axis=1)
    col = a.sum(axis=0).ravel()
    out = ev - feats.horizons * mu.sum() - feats.comp.reshape(-1, col.size) @ col
    out[(feats.mask & ~ok).any(axis=1)] = -np.inf
    return out


def test_real_row_kernels_keep_the_padded_bits():
    """The excitation GEMM and the likelihood columns run over the real event
    rows only, and give the padded formulas' bytes, padded slots reading +0.0,
    on every store and sub-store of the subset cases.  The bytes of the GEMM
    rows depend on the BLAS and the shape (D, n_basis); these small shapes
    round a row subset as the whole product does."""
    for D in (1, 2, 3):
        data, basis, mu, a, subsets = _subset_cases(D)
        whole = FeatureSet(data, basis)
        for name, store in [("whole", whole)] + [(k, whole.take(i)) for k, i in subsets.items()]:
            x = store.excitation(a)
            assert x.tobytes() == _padded_excitation(store, a).tobytes(), (D, name)
            assert x.tobytes() == np.where(store.mask, x, 0.0).tobytes(), (D, name)
            want = _padded_loglik_all(store, mu, a).tobytes()
            assert store.loglik_all(mu, a).tobytes() == want, (D, name)
            assert store.loglik_all(mu, a, x).tobytes() == want, (D, name)


def test_nonpositive_rate_marks_only_its_sequence():
    """Of several sequences, only the one with a zero-rate event scores -inf;
    the others keep their finite columns, as in the padded formula."""
    basis = BasisConfig(np.array([0.0, 0.5]), 0.5, 1.0)
    seqs = [
        EventSequence(np.array([0.5, 1.0, 1.5]), np.array([0, 0, 1]), 3.0, id="excited"),
        EventSequence(np.array([0.3, 0.9]), np.array([1, 0]), 2.0, id="unexcited"),
        EventSequence(np.array([]), np.array([], dtype=np.int64), 1.0, id="empty"),
        EventSequence(np.array([0.2]), np.array([0]), 2.5, id="type 0 only"),
    ]
    feats = FeatureSet(Dataset(seqs, 2), basis)
    a = np.full((2, 2, 2), 0.3)
    for mu1 in (0.0, -0.2):
        mu = np.array([0.8, mu1])
        cols = feats.loglik_all(mu, a)
        assert cols.tobytes() == _padded_loglik_all(feats, mu, a).tobytes()
        assert np.isneginf(cols).tolist() == [False, True, False, False]
        p = HawkesParams(mu, a, basis)
        for i in (0, 2, 3):
            assert cols[i] == pytest.approx(hawkes_loglik(p, seqs[i]), abs=1e-12)


def test_one_event_store_matches_per_sequence_loglik():
    """A store whose only event row is one: numpy sends its (1, K) product to
    gemv, whose bits may differ from a GEMM row, so it is checked against the
    event-by-event likelihood to 1e-12 rather than bit for bit."""
    basis = BasisConfig(np.array([0.0, 0.5]), 0.5, 1.0)
    one = EventSequence(np.array([0.7]), np.array([1]), 2.0, id="one")
    empty = [EventSequence(np.array([]), np.array([], dtype=np.int64), 1.5, id=f"e{i}")
             for i in range(2)]
    rng = np.random.default_rng(3)
    mu, a = rng.uniform(0.3, 1.5, 2), rng.uniform(0.0, 0.4, (2, 2, 2))
    p = HawkesParams(mu, a, basis)
    for seqs in ([one], [empty[0], one, empty[1]]):
        feats = FeatureSet(Dataset(seqs, 2), basis)
        direct = [hawkes_loglik(p, s) for s in seqs]
        assert np.allclose(feats.loglik_all(mu, a), direct, rtol=0.0, atol=1e-12)
        assert np.allclose(feats.excitation(a), _padded_excitation(feats, a), rtol=0.0, atol=1e-12)


@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_featureset_matches_whole_history_reference(data):
    """The windowed store build gives the same bytes as summing every earlier
    event, with one pair's lag at exactly tau_max and one ulp either side."""
    D = data.draw(st.integers(1, 3), label="D")
    nb = data.draw(st.integers(1, 3), label="n_basis")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    lag = data.draw(st.floats(0.05, 5.0), label="lag")
    start = data.draw(st.floats(1e-3, 50.0), label="start")
    seqs = []
    for k in range(data.draw(st.integers(1, 4), label="n_seqs")):
        horizon = start + 3.0 * lag
        times = rng.uniform(0.0, horizon, size=data.draw(st.integers(0, 12)))
        if k == 0:  # the boundary pair
            times = np.append(times, [start, start + lag])
        times = np.unique(times[times > 0])
        seqs.append(EventSequence(times, rng.integers(0, D, times.size), horizon))
    empty = EventSequence(np.array([]), np.array([], dtype=np.int64), 2.0)
    seqs.insert(data.draw(st.integers(0, len(seqs)), label="empty at"), empty)
    if data.draw(st.booleans(), label="long"):
        times = np.unique(rng.uniform(1e-3, 300.0 * lag, size=1100))
        seqs.append(EventSequence(times, rng.integers(0, D, times.size), 300.0 * lag))
    dataset = Dataset(seqs, D)
    exact = (start + lag) - start  # the boundary pair's lag as the store computes it
    fractions = np.sort(rng.uniform(0.0, 1.0, nb))
    for tau in (np.nextafter(exact, -math.inf), exact, np.nextafter(exact, math.inf)):
        basis = BasisConfig(fractions * tau, data.draw(st.floats(0.05, 2.0)), tau)
        feats = FeatureSet(dataset, basis)
        excite, comp = helpers.whole_history_features(dataset, basis)
        assert feats.excite.tobytes() == excite.tobytes()
        assert feats.comp.tobytes() == comp.tobytes()


# ---------------------------------------------------------------------------
# simulation models


def _total_rate(model, t, times=(), types=()) -> float:
    return float(np.sum(model.intensity([t], [np.asarray(times, dtype=np.float64)],
                                        [np.asarray(types, dtype=np.int64)])))


def test_sim_intensity_examples():
    assert _total_rate(HomogeneousPoisson([2.0]), t=3.7) == pytest.approx(2.0)
    assert _total_rate(HomogeneousPoisson([1.0, 1.0]), t=0.1) == pytest.approx(2.0)
    sc = SelfCorrecting(eta=1.0, gamma=0.5, n_types=2)
    assert _total_rate(sc, t=0.0) == pytest.approx(1.0)  # exp(0)
    assert _total_rate(sc, t=2.0, times=[1.0], types=[0]) == pytest.approx(
        math.exp(1.0 * 2.0 - 0.5)
    )
    sp = SinusoidPoisson([1.2], [0.9], period=4.0)
    assert _total_rate(sp, t=1.0) == pytest.approx(1.2 + 0.9 * math.sin(math.pi / 2))


def test_sim_model_validation():
    with pytest.raises(NumericalError):
        HomogeneousPoisson([-1.0])
    with pytest.raises(NumericalError):
        SinusoidPoisson([0.5], [0.9], period=4.0)  # amp exceeds base
    with pytest.raises(NumericalError):
        SinusoidPoisson([1.0], [0.5], period=0.0)
    with pytest.raises(NumericalError):
        SelfCorrecting(eta=0.0, gamma=0.5)


def test_upper_bounds_dominate():
    rng = np.random.default_rng(15)
    models = [
        HomogeneousPoisson([0.5, 1.5]),
        SinusoidPoisson([1.0, 0.8], [0.7, 0.2], period=3.0),
        SelfCorrecting(eta=0.8, gamma=0.4, n_types=2),
        HawkesModel(_params([0.5, 0.9], a_value=0.3)),
    ]
    for model in models:
        for _ in range(40):
            horizon = 6.0
            t0 = float(rng.uniform(0, horizon))
            times = np.unique(rng.uniform(0, t0, size=int(rng.integers(0, 6))))
            types = rng.integers(0, 2, size=times.size)
            until = min(t0 + model.lookahead(), horizon)
            bound = model.upper_bound(t0, times, types, until)
            for t in rng.uniform(t0, until, size=8):
                total = float(np.sum(model.intensity([t], [times], [types])))
                assert total <= bound * (1 + 1e-9)


@pytest.mark.parametrize("n_types, centers", [
    (1, [0.0]), (2, [0.0]), (3, [0.0]), (6, [0.0]), (3, [0.2, 0.9, 1.7]),
], ids=["d1", "d2", "d3", "d6", "d3-three-bumps"])
def test_batched_hawkes_intensity_rows(n_types, centers):
    """Every row of a batched intensity has the bits of the same candidate
    scored alone, whatever the rest of the batch; with one bump and two or
    more types both also have hawkes_intensity's bits.  The histories
    include an empty one, a candidate at an event's time, and whole
    histories that reach past their windows."""
    rng = np.random.default_rng(40 + n_types)
    basis = BasisConfig(np.array(centers), sigma=0.6, tau_max=2.0)
    params = HawkesParams(rng.uniform(0.2, 1.0, n_types),
                          rng.uniform(0.0, 0.4, (n_types, n_types, basis.n_basis)), basis)
    histories = [(np.array([]), np.array([], dtype=np.int64))]
    for size in (1, 5, 30, 90, 400):
        times = np.sort(rng.uniform(0.0, size / 20.0, size))
        histories.append((times, rng.integers(0, n_types, size)))
    ts = [0.5] + [float(x[-1] + rng.uniform(0.0, 0.5)) for x, _ in histories[1:]]
    ts[3] = float(histories[3][0][-2])  # at an event's time: only the strict past excites
    times, types = [x for x, _ in histories], [y for _, y in histories]
    for order in (slice(None), slice(None, None, -1)):
        model = HawkesModel(params)
        batch = model.intensity(ts[order], times[order], types[order])
        assert batch.shape == (len(ts), n_types)
        for row, t, x, y in zip(batch, ts[order], times[order], types[order]):
            alone = HawkesModel(params).intensity([t], [x], [y])[0]
            assert row.tobytes() == alone.tobytes()
            reference = hawkes_intensity(params, x, y, t)
            if n_types > 1 and basis.n_basis == 1:
                assert row.tobytes() == reference.tobytes()
            else:
                np.testing.assert_allclose(row, reference, rtol=1e-13)


def test_self_correcting_history_dependence():
    sc = SelfCorrecting(eta=1.0, gamma=0.5, n_types=1)
    lam0 = _total_rate(sc, t=1.0)
    lam1 = _total_rate(sc, t=1.0, times=[0.5], types=[0])
    assert lam1 == pytest.approx(lam0 * math.exp(-0.5))
    assert sc.lookahead() == pytest.approx(1.0)
    # events inside the window only lower the rate: bound stays dominating
    assert sc.upper_bound(0.0, [], [], until=1.0) == pytest.approx(math.exp(1.0))


def test_describe_round_trips_json():
    import json

    for model in (
        HomogeneousPoisson([1.0]),
        SinusoidPoisson([1.0], [0.5], 2.0),
        SelfCorrecting(1.0, 0.5, 2),
        HawkesModel(_params([0.5], a_value=0.1)),
    ):
        json.dumps(model.describe())
