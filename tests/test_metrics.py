"""Clustering-quality and held-out likelihood metrics."""

import math

import numpy as np
import pytest

import helpers
from tppcluster.core import (
    BasisConfig,
    Component,
    ConfigError,
    Dataset,
    EventSequence,
    MixtureState,
)
from tppcluster.metrics import EvalResult, ari, ell, m_summary, purity

BASIS1 = BasisConfig(np.array([0.0]), 1.0, 3.0)


# ---------------------------------------------------------------------------
# purity


def test_purity_examples():
    assert purity([0, 0, 1, 1], [5, 5, 9, 9]) == 1.0
    assert purity([0, 0, 1, 1], [1, 1, 1, 2]) == 0.75
    assert purity([0, 1, 0, 1], [0, 0, 1, 1]) == 0.5


def test_purity_is_relabeling_invariant():
    rng = np.random.default_rng(0)
    pred = rng.integers(0, 4, size=60)
    truth = rng.integers(0, 3, size=60)
    remap = np.array([7, 2, 9, 4])
    assert purity(remap[pred], truth) == purity(pred, truth)


def test_purity_of_single_merged_cluster():
    truth = np.array([0] * 6 + [1] * 3 + [2] * 1)
    assert purity(np.zeros(10, dtype=int), truth) == 0.6


def test_label_validation():
    with pytest.raises(ConfigError):
        purity([0, 1], [0, 1, 2])
    with pytest.raises(ConfigError):
        purity([], [])
    with pytest.raises(ConfigError):
        ari([0, 1, 0], [0, 1])
    with pytest.raises(ConfigError):
        ari(np.zeros((2, 2)), np.zeros(4))


# ---------------------------------------------------------------------------
# adjusted Rand index


def test_ari_perfect_and_permuted():
    truth = np.array([0, 0, 1, 1, 2, 2])
    assert ari(truth, truth) == pytest.approx(1.0)
    assert ari(np.array([5, 5, 0, 0, 1, 1]), truth) == pytest.approx(1.0)


def test_ari_is_symmetric():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 3, size=40)
    b = rng.integers(0, 4, size=40)
    assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-12)


def test_ari_degenerate_cases():
    assert ari([0, 0, 0], [1, 1, 1]) == 1.0
    assert ari([0, 1, 2], [5, 6, 7]) == 1.0


def test_ari_matches_pair_enumeration():
    assert helpers.ari_bruteforce_max_abs_diff(n_instances=50) < 1e-12


# ---------------------------------------------------------------------------
# held-out expected log likelihood per event


def _poisson_state(mu, r=1.0, spares=()):
    comps = [Component(np.asarray(mu, float), np.zeros((len(mu), len(mu), 1)), r)]
    spare_comps = [
        Component(np.asarray(m, float), np.zeros((len(m), len(m), 1)), rr)
        for m, rr in spares
    ]
    return MixtureState(comps, spare_comps, np.zeros(1, np.int64),
                        1.0, BasisConfig(np.array([0.0]), 1.0, 3.0))


def test_ell_closed_form_single_component():
    # one Poisson component, two types at rate 1.3, horizon 2, four events:
    # ELL = (I log(lambda) - D lambda T) / I
    lam, T, D = 1.3, 2.0, 2
    seq = EventSequence(np.array([0.2, 0.7, 1.1, 1.9]),
                        np.array([0, 1, 0, 1]), T)
    data = Dataset([seq], D)
    state = _poisson_state([lam, lam])
    expected = (4 * math.log(lam) - D * lam * T) / 4
    assert ell(state, data) == pytest.approx(expected, abs=1e-12)


def test_ell_negligible_spare_weight_has_no_effect():
    lam, T = 1.3, 2.0
    seq = EventSequence(np.array([0.2, 0.7, 1.1, 1.9]), np.array([0, 1, 0, 1]), T)
    data = Dataset([seq], 2)
    base = ell(_poisson_state([lam, lam]), data)
    with_spare = ell(
        _poisson_state([lam, lam], spares=[(np.array([0.4, 0.4]), 1e-12)]), data
    )
    assert abs(with_spare - base) < 1e-9


def test_ell_averages_over_duplicated_sequences():
    lam = 0.9
    seq = EventSequence(np.array([0.5, 1.5]), np.array([0, 0]), 3.0)
    single = ell(_poisson_state([lam]), Dataset([seq], 1))
    doubled = ell(_poisson_state([lam]), Dataset([seq, seq], 1))
    assert doubled == pytest.approx(single, abs=1e-12)


def test_ell_mixture_weighting():
    # two components with weights 3/4, 1/4: per-sequence value is
    # log(pi_1 L_1 + pi_2 L_2) / I, computed here explicitly
    seq = EventSequence(np.array([0.5]), np.array([0]), 1.0)
    data = Dataset([seq], 1)
    c1 = Component(np.array([2.0]), np.zeros((1, 1, 1)), 3.0)
    c2 = Component(np.array([0.5]), np.zeros((1, 1, 1)), 1.0)
    state = MixtureState([c1, c2], [], np.zeros(1, np.int64), 1.0, BASIS1)
    l1 = 2.0 * math.exp(-2.0)
    l2 = 0.5 * math.exp(-0.5)
    expected = math.log(0.75 * l1 + 0.25 * l2)
    assert ell(state, data) == pytest.approx(expected, abs=1e-12)


def test_ell_validation():
    state = _poisson_state([1.0])
    with pytest.raises(ConfigError):
        ell(state, Dataset([], 1))
    empty = EventSequence(np.array([]), np.array([]), 2.0)
    with pytest.raises(ConfigError):
        ell(state, Dataset([empty, empty], 1))


# ---------------------------------------------------------------------------
# component-count summary


def test_m_summary():
    mean, hist = m_summary([3, 3, 3])
    assert mean == 3.0 and hist == {3: 3}
    mean, hist = m_summary([2, 2, 3, 3])
    assert mean == 2.5 and hist == {2: 2, 3: 2}
    assert sum(hist.values()) == 4
    with pytest.raises(ConfigError):
        m_summary([])


# ---------------------------------------------------------------------------
# result record


def test_eval_result_serialisation():
    res = EvalResult(purity=0.9, ari=0.8, ell=-1.25, k_mean=2.5, k_hist={2: 2, 3: 2})
    d = res.to_dict()
    assert d["k_hist"] == {"2": 2, "3": 2}
    assert res.csv_row() == "0.9,0.8,-1.25,2.5"
    unlabeled = EvalResult(purity=None, ari=None, ell=-0.5, k_mean=2.0, k_hist={2: 4})
    assert unlabeled.csv_row() == ",,-0.5,2.0"
    assert unlabeled.to_dict()["purity"] is None
