"""Spectral repulsive prior: densities, add/remove ratios, box resolution."""

import logging
import math

import numpy as np
import pytest

import helpers
from tppcluster.core import ConfigError, Dataset, DppConfig, EventSequence
from tppcluster.dpp import (
    MAX_LATTICE_SIZE,
    build_spectral_model,
    dpp_log_density,
    dpp_log_ratio,
    model_for_data,
)


def test_normaliser_single_frequency():
    # one lattice point, spectral density tuned to exactly one half:
    # phi_tilde = 1 and the normaliser is log 2
    rho = 0.5 / (math.sqrt(math.pi) * 0.1)
    m = build_spectral_model(q=1, lattice_radius=0, rho=rho, alpha=0.1,
                             box_lo=[0.5], box_hi=[2.0])
    assert m.d_app == pytest.approx(math.log(2.0), abs=1e-12)
    assert m.phi_tilde.shape == (1,)
    assert m.phi_tilde[0] == pytest.approx(1.0)
    assert not m.clipped


def test_lattice_enumeration():
    m = build_spectral_model(q=3, lattice_radius=2, rho=1.0, alpha=0.05,
                             box_lo=[1.0] * 3, box_hi=[2.0] * 3)
    assert m.lattice.shape == (125, 3)
    assert {tuple(z) for z in m.lattice} == {
        (i, j, k) for i in range(-2, 3) for j in range(-2, 3) for k in range(-2, 3)
    }


def test_empty_configuration_density():
    m = helpers.small_dpp_model()
    assert dpp_log_density(m, np.zeros((0, m.q))) == pytest.approx(1.0 - m.d_app)
    assert dpp_log_density(m, np.array([])) == pytest.approx(1.0 - m.d_app)


def test_single_point_density_is_location_free():
    m = helpers.small_dpp_model()
    expected = 1.0 - m.d_app + math.log(float(m.phi_tilde.sum()))
    for point in ([0.6, 0.6], [1.3, 1.9]):
        got = dpp_log_density(m, np.array([point]))
        assert got == pytest.approx(expected, abs=1e-10)


def test_out_of_box_density_is_zero():
    m = helpers.small_dpp_model()  # box [0.5, 2.0]^2
    assert dpp_log_density(m, np.array([[0.4, 1.0]])) == -math.inf
    assert dpp_log_density(m, np.array([[1.0, 1.0], [1.0, 2.1]])) == -math.inf


def test_duplicate_points_density_is_zero():
    assert helpers.dpp_duplicate_is_neg_inf()


def test_closer_pairs_are_less_likely():
    m = build_spectral_model(q=1, lattice_radius=3, rho=2.0, alpha=0.1,
                             box_lo=[0.5], box_hi=[2.0])
    width = 1.5
    near = dpp_log_density(m, np.array([[1.0], [1.0 + 0.025 * width]]))
    far = dpp_log_density(m, np.array([[1.0], [1.0 + 0.25 * width]]))
    assert near < far


def test_kernel_matches_complex_expansion():
    m = helpers.small_dpp_model()
    rng = np.random.default_rng(31)
    x = rng.uniform(0, 1, size=(4, m.q))
    ang = 2.0 * math.pi * (x @ m.lattice.T)[:, None, :] - \
        2.0 * math.pi * (x @ m.lattice.T)[None, :, :]
    complex_gram = np.einsum("mnz,z->mn", np.exp(1j * ang), m.phi_tilde.astype(complex))
    assert np.max(np.abs(complex_gram.imag)) < 1e-10
    assert np.allclose(m.gram(x), complex_gram.real, atol=1e-10)


def test_extreme_length_scale_flattens_kernel(caplog):
    with caplog.at_level(logging.WARNING, logger="tppcluster.dpp"):
        m = build_spectral_model(q=1, lattice_radius=2, rho=1.0, alpha=50.0,
                                 box_lo=[0.5], box_hi=[2.0])
    assert m.clipped
    assert any("clipping" in rec.message for rec in caplog.records)
    # only the zero frequency survives: the kernel is constant at phi_tilde(0)
    pts = np.array([[0.1], [0.9]])
    k = m.gram(pts)
    flat = (1.0 - 1e-6) / 1e-6
    assert np.allclose(k, flat, rtol=1e-3)


def test_moderate_parameters_do_not_warn(caplog):
    with caplog.at_level(logging.WARNING, logger="tppcluster.dpp"):
        m = helpers.small_dpp_model()
    assert not m.clipped
    assert not caplog.records


def test_add_then_remove_is_neutral():
    m = helpers.small_dpp_model()
    pts = np.array([[0.7, 0.9], [1.5, 1.1], [1.9, 0.6]])
    assert dpp_log_ratio(m, pts, add=pts[1], remove=pts[1]) == pytest.approx(0.0, abs=1e-12)


def test_birth_into_empty_configuration():
    m = helpers.small_dpp_model()
    got = dpp_log_ratio(m, np.zeros((0, m.q)), add=np.array([1.2, 0.8]))
    assert got == pytest.approx(math.log(float(m.phi_tilde.sum())), abs=1e-10)
    assert dpp_log_ratio(m, np.array([]), add=np.array([1.2, 0.8])) == pytest.approx(got)


def test_add_out_of_box_is_rejected():
    m = helpers.small_dpp_model()
    pts = np.array([[0.7, 0.9]])
    assert dpp_log_ratio(m, pts, add=np.array([2.5, 1.0])) == -math.inf


def test_remove_requires_membership():
    m = helpers.small_dpp_model()
    pts = np.array([[0.7, 0.9], [1.5, 1.1]])
    with pytest.raises(ConfigError):
        dpp_log_ratio(m, pts, remove=np.array([1.0, 1.0]))


def test_incremental_ratio_matches_recomputation():
    assert helpers.dpp_ratio_vs_recompute_max_abs(n_sets=50) < 1e-8


def test_density_is_permutation_invariant():
    assert helpers.dpp_permutation_max_abs(n_sets=25) < 1e-10


def test_build_validation():
    with pytest.raises(ConfigError):
        build_spectral_model(q=2, lattice_radius=1, rho=1.0, alpha=0.1,
                             box_lo=[0.5], box_hi=[2.0])  # dimension mismatch
    with pytest.raises(ConfigError):
        build_spectral_model(q=1, lattice_radius=1, rho=1.0, alpha=0.1,
                             box_lo=[0.0], box_hi=[2.0])  # lo must be positive
    with pytest.raises(ConfigError):
        build_spectral_model(q=1, lattice_radius=1, rho=1.0, alpha=0.1,
                             box_lo=[2.0], box_hi=[1.0])  # hi above lo
    with pytest.raises(ConfigError):
        build_spectral_model(q=1, lattice_radius=1, rho=-1.0, alpha=0.1,
                             box_lo=[0.5], box_hi=[2.0])
    with pytest.raises(ConfigError):
        build_spectral_model(q=1, lattice_radius=1, rho=1.0, alpha=0.0,
                             box_lo=[0.5], box_hi=[2.0])


def test_oversized_lattice_is_refused_before_enumeration():
    assert 5 ** 6 <= MAX_LATTICE_SIZE  # D=6 at the default radius stays admitted
    with pytest.raises(ConfigError) as err:
        build_spectral_model(q=10, lattice_radius=2, rho=1.0, alpha=0.1,
                             box_lo=[0.5] * 10, box_hi=[2.0] * 10)
    msg = str(err.value)
    assert "q=10" in msg and "L=2" in msg and "9,765,625" in msg
    assert "prior.dpp.lattice_radius" in msg


def _ten_event_dataset():
    times = np.linspace(0.4, 4.6, 10)
    types = np.tile([0, 1], 5)
    return Dataset([EventSequence(times, types, 5.0)], n_types=2)


def test_box_resolved_from_pooled_rate():
    data = _ten_event_dataset()  # 10 events over T=5 with 2 types: rate 1.0
    assert data.mean_rate_per_type() == pytest.approx(1.0)
    m = model_for_data(data, DppConfig(), default_rho=2.0)
    assert np.allclose(m.box_lo, 0.25)
    assert np.allclose(m.box_hi, 2.0)
    assert m.rho == pytest.approx(2.0)


def test_explicit_box_and_rho_floor():
    data = _ten_event_dataset()
    cfg = DppConfig(box_lo=(0.1, 0.1), box_hi=(9.0, 9.0))
    m = model_for_data(data, cfg, default_rho=0.4)
    assert np.allclose(m.box_lo, 0.1)
    assert np.allclose(m.box_hi, 9.0)
    assert m.rho == pytest.approx(1.0)  # floor: at least one expected point
    assert model_for_data(data, DppConfig(rho=5.5), default_rho=0.4).rho == pytest.approx(5.5)


def test_dpp_config_validation():
    with pytest.raises(ConfigError):
        DppConfig(rho=0.0)
    with pytest.raises(ConfigError):
        DppConfig(alpha=-0.1)
    with pytest.raises(ConfigError):
        DppConfig(lattice_radius=-1)
    with pytest.raises(ConfigError):
        DppConfig(lo_factor=1.0)
    with pytest.raises(ConfigError):
        DppConfig(box_lo=(0.5, 0.5))  # missing the matching upper bound
    with pytest.raises(ConfigError, match="equal lengths"):
        DppConfig(box_lo=(0.5, 0.5), box_hi=(2.0,))
    with pytest.raises(ConfigError, match="0 < box_lo < box_hi"):
        DppConfig(box_lo=(0.5, 2.0), box_hi=(2.0, 1.0))
