"""Spectral repulsive prior: densities, add/remove ratios, box resolution."""

import itertools
import logging
import math

import numpy as np
import pytest

import helpers
from tppcluster import dpp
from tppcluster.core import (
    BasisConfig,
    Component,
    ConfigError,
    Dataset,
    DppConfig,
    EventSequence,
    MixtureState,
    PriorBundle,
)
from tppcluster.dpp import (
    MAX_LATTICE_SIZE,
    build_spectral_model,
    dpp_log_density,
    dpp_log_ratio,
    model_for_data,
)
from tppcluster.sampler import state_log_joint


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
    """The lattice is the int64 array of ``itertools.product``, byte for byte:
    every frequency of {-L..L}^q, in its order, C-contiguous."""
    for q, radius in [(1, 0), (1, 3), (2, 1), (3, 2), (6, 2)]:
        m = build_spectral_model(q=q, lattice_radius=radius, rho=1.0, alpha=0.05,
                                 box_lo=[1.0] * q, box_hi=[2.0] * q)
        want = np.array(list(itertools.product(range(-radius, radius + 1), repeat=q)),
                        dtype=np.int64)
        assert m.lattice.shape == ((2 * radius + 1) ** q, q) == want.shape
        assert m.lattice.dtype == want.dtype and m.lattice.flags.c_contiguous
        assert m.lattice.tobytes() == want.tobytes(), (q, radius)


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


def test_the_box_holds_its_faces_and_no_nan_or_infinity():
    m = helpers.small_dpp_model()  # box [0.5, 2.0]^2
    for face in ([0.5, 0.5], [2.0, 2.0], [0.5, 2.0], [1.0, 2.0]):
        assert m.in_box(np.array(face))
    for bad in (math.nan, math.inf, -math.inf):
        assert not m.in_box(np.array([1.0, bad])) and not m.in_box(np.array([bad, 1.0]))
    nan = np.array([1.3, math.nan])
    pts = np.array([[0.7, 0.9], nan])
    cache = dpp.DppCache()
    assert dpp_log_density(m, pts) == -math.inf
    assert dpp_log_density(m, pts, cache) == -math.inf
    assert nan.tobytes() not in cache.rows and pts[0].tobytes() in cache.rows


def test_duplicate_points_density_is_zero():
    assert helpers.dpp_duplicate_is_neg_inf()


def test_closer_pairs_are_less_likely():
    m = build_spectral_model(q=1, lattice_radius=3, rho=2.0, alpha=0.1,
                             box_lo=[0.5], box_hi=[2.0])
    width = 1.5
    near = dpp_log_density(m, np.array([[1.0], [1.0 + 0.025 * width]]))
    far = dpp_log_density(m, np.array([[1.0], [1.0 + 0.25 * width]]))
    assert near < far


@pytest.mark.parametrize("q", [3, 6])
def test_gram_has_the_integer_lattice_bits(q):
    """``gram`` multiplies by the cached float copy of the lattice; its Gram
    matrices have the bits of the product with the int64 lattice, kept here
    as the reference, on random configurations of 1 to 6 points."""
    m = helpers.small_dpp_model(q=q)
    rng = np.random.default_rng(40 + q)
    for _ in range(300 if q == 3 else 60):
        x = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 7)), q))
        ang = 2.0 * math.pi * (x @ m.lattice.T)
        assert m.gram(x).tobytes() == m.gram_of(np.cos(ang), np.sin(ang)).tobytes()


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
    # from a configuration of density zero (a point taken three times) to
    # another: -inf, not the NaN of -inf minus -inf
    dup = np.repeat(pts, 3, axis=0)
    assert dpp_log_density(m, dup) == -math.inf
    assert dpp_log_ratio(m, dup, add=np.array([1.5, 1.1])) == -math.inf


def test_remove_requires_membership():
    m = helpers.small_dpp_model()
    pts = np.array([[0.7, 0.9], [1.5, 1.1]])
    with pytest.raises(ConfigError):
        dpp_log_ratio(m, pts, remove=np.array([1.0, 1.0]))


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def test_memoised_ratio_equals_the_plain_call_bit_for_bit(monkeypatch):
    """Along a seeded walk of adds, removes and swaps, accepted and rejected,
    and of reorderings of the same points, a ratio that reads its densities
    from a ``DppCache`` has the plain call's bits; it computes exactly the
    configurations the cache does not hold (a reordered one included), and
    the cache keeps only what it holds of the ratio's before and after."""
    m = helpers.small_dpp_model()  # box [0.5, 2.0]^2
    computed, features, density = [], dpp.DppCache.features, dpp.dpp_log_density

    def counted(self, model, points):  # every configuration the cache computes
        computed.append(points.tobytes())
        return features(self, model, points)

    monkeypatch.setattr(dpp.DppCache, "features", counted)
    rng = np.random.default_rng(14)
    cache = dpp.DppCache()
    pts = np.zeros((0, m.q))
    seen = {"empty": 0, "hit": 0, "outside": 0, "duplicate": 0, "accepted": 0,
            "rejected": 0, "missing": 0, "permuted": 0}
    for _ in range(400):
        n = pts.shape[0]
        seen["empty"] += n == 0
        kind = rng.choice(["add", "remove", "swap", "missing", "permute"] if n else ["add"])
        add = remove = None
        if kind == "missing":
            with pytest.raises(ConfigError):
                dpp_log_ratio(m, pts, remove=np.array([0.55, 0.55]), cache=cache)
            seen["missing"] += 1
            continue
        if kind == "permute":  # the same points in another order
            pts = pts[rng.permutation(n)]
            seen["permuted"] += n > 1
            continue
        if kind in ("remove", "swap"):
            remove = pts[int(rng.integers(n))]
        if kind in ("add", "swap"):
            draw = rng.random()
            add = (np.array([2.5, 1.0]) if draw < 0.1
                   else pts[int(rng.integers(n))].copy() if draw < 0.25 and n
                   else rng.uniform(0.6, 1.9, size=m.q))
        after = _after(pts, add, remove)
        plain = dpp_log_ratio(m, pts, add=add, remove=remove)
        held = set(cache.densities)
        seen["hit"] += pts.tobytes() in held
        del computed[:]
        got = dpp_log_ratio(m, pts, add=add, remove=remove, cache=cache)
        assert _bits(got) == _bits(plain)
        evaluated = {after.tobytes(), pts.tobytes()} - {b""}  # an empty one is a constant
        if got == -math.inf:  # "before" is not priced, only kept when held
            evaluated -= {pts.tobytes()} - held
        assert set(cache.densities) == evaluated and len(cache.densities) <= 2
        assert sorted(computed) == sorted(evaluated - held)  # a reordering is not held
        for key, value in cache.densities.items():  # a stored density is the one its bytes give
            assert _bits(value) == _bits(density(m, np.frombuffer(key).reshape(-1, m.q)))
        if got == -math.inf:
            seen["outside" if add is not None and add[0] > 2.0 else "duplicate"] += 1
            continue
        if math.log(rng.random()) < got:
            pts = after
            seen["accepted"] += 1
        else:
            seen["rejected"] += 1
    assert all(v > 0 for v in seen.values()), seen


def _proposal(rng, pts, kinds, duplicates=True):
    """One seeded move from ``pts`` (a (k, q) box [0.5, 2.0]^q configuration):
    its kind and the points it adds and removes.  One add in ten leaves the
    box; with ``duplicates`` one in seven repeats a point of ``pts``."""
    n, q = pts.shape
    kind = rng.choice(kinds if n > 1 else ["add", "permute"])
    add = remove = None
    if kind in ("remove", "swap"):
        remove = pts[int(rng.integers(n))]
    if kind in ("add", "swap"):
        draw = rng.random()
        add = (np.full(q, 2.5) if draw < 0.1
               else pts[int(rng.integers(n))].copy() if duplicates and draw < 0.25
               else rng.uniform(0.6, 1.9, size=q))
    return kind, add, remove


def _after(pts, add, remove):
    """The configuration a move leads to: ``pts`` less ``remove``, with
    ``add`` in the removed point's slot, or appended when none is removed."""
    i = np.flatnonzero(np.all(pts == remove, axis=1))[:1]
    rest = np.delete(pts, i, axis=0)
    return rest if add is None else np.insert(rest, i[0] if i.size else len(rest), add, axis=0)


def _cached_walk(q, steps, seen):
    """A seeded walk of adds, removes, swaps and reorderings, accepted and
    rejected, priced by ratios that read a ``DppCache``.  Yields one record
    per ratio, after the walk has taken or refused the move; ``seen`` counts
    the kinds of step."""
    m = helpers.small_dpp_model(q=q)
    rng = np.random.default_rng(18)
    cache = dpp.DppCache()
    pts = rng.uniform(0.6, 1.9, size=(3, q))
    kinds = ["add", "remove", "swap", "swap", "permute"]
    for _ in range(steps):
        kind, add, remove = _proposal(rng, pts, kinds, duplicates=q == 3)
        seen[kind] += 1
        if kind == "permute":
            pts = pts[rng.permutation(len(pts))]
            continue
        step = {"model": m, "before": pts, "after": _after(pts, add, remove), "cache": cache,
                "plain": dpp_log_ratio(m, pts, add=add, remove=remove),
                "got": dpp_log_ratio(m, pts, add=add, remove=remove, cache=cache)}
        seen["-inf"] += step["got"] == -math.inf
        if math.log(rng.random()) < step["got"]:
            pts = step["after"]
            seen["accepted"] += 1
        step["now"] = pts
        yield step


def _walk_seen():
    return {"add": 0, "remove": 0, "swap": 0, "permute": 0, "accepted": 0, "-inf": 0}


@pytest.mark.parametrize("q, steps", [(3, 400), (6, 40)])
def test_cached_ratio_equals_the_plain_call(q, steps):
    """Along a seeded walk of adds, removes, swaps and reorderings, accepted
    and rejected, a ratio that reads feature rows and densities from the
    caches equals the plain call: bit for bit at q = 3, and within 1e-12 of
    the two log densities it subtracts at q = 6.  There a cached row comes
    from a one-row product ``x @ lattice.T``, which OpenBLAS (0.3.31) rounds
    differently from the plain call's k-row product: on this model the Gram
    matrices of 300 random configurations of 2 to 6 points all differed in
    their last bits, and 82 of their log densities did.  A repeated point is
    left out there, since its density is decided by those bits.
    """
    seen = _walk_seen()
    for step in _cached_walk(q, steps, seen):
        m, got, plain = step["model"], step["got"], step["plain"]
        if q == 3 or got == plain:
            assert _bits(got) == _bits(plain)
        else:
            scale = abs(dpp_log_density(m, step["after"])) + abs(dpp_log_density(m, step["before"]))
            assert abs(got - plain) <= 1e-12 * scale, (got, plain)
    assert all(v > 0 for v in seen.values()), seen


@pytest.mark.parametrize("q, steps", [(3, 400), (6, 40)])
def test_cached_stored_sample_joint_equals_the_plain_call(q, steps):
    """After every ratio of the walk above, the log joint of a state holding
    the walk's points, given the ``DppCache`` the ratios left, equals
    the plain call: bit for bit at q = 3, and within 1e-12 of the density's
    magnitude at q = 6, where a cached row's one-row product rounds
    differently (see the test above)."""
    seq = EventSequence(np.array([1.0]), np.array([0]), 5.0)
    data = Dataset([seq], n_types=q)
    basis = BasisConfig.for_data(data, n_basis=2)
    prior = PriorBundle()
    w = np.full((q, q, 2), 0.1)
    seen = _walk_seen()
    for step in _cached_walk(q, steps, seen):
        m, pts = step["model"], step["now"]
        comps = [Component(mu, w, 1.0) for mu in pts]
        state = MixtureState(comps[:1], comps[1:], np.array([0]), 1.0, basis)
        cols = np.zeros((1, len(comps)))
        plain = state_log_joint(state, data, prior, m, cols)
        got = state_log_joint(state, data, prior, m, cols, step["cache"])
        if q == 3 or got == plain:
            assert _bits(got) == _bits(plain)
        else:
            assert abs(got - plain) <= 1e-12 * abs(dpp_log_density(m, pts)), (got, plain)
    assert all(v > 0 for v in seen.values()), seen


def test_a_cached_ratio_computes_the_features_of_the_point_it_adds(monkeypatch):
    """Counted at ``feature_rows``: a walk or a birth computes the rows of
    the one point it adds, a death, a reordered configuration or an add
    that repeats a point computes none, and an add outside the box none;
    the cache holds only rows of the last call's points and added point."""
    m = helpers.small_dpp_model(q=3)
    computed, feature_rows = [], dpp.DppSpectralModel.feature_rows

    def counted(self, x):
        computed.append(len(x))
        return feature_rows(self, x)

    monkeypatch.setattr(dpp.DppSpectralModel, "feature_rows", counted)
    rng = np.random.default_rng(5)
    cache = dpp.DppCache()
    pts = rng.uniform(0.6, 1.9, size=(3, 3))
    dpp_log_density(m, pts, cache)
    assert computed == [1, 1, 1] and set(cache.rows) == {p.tobytes() for p in pts}
    seen = {"add": 0, "remove": 0, "swap": 0, "reordered": 0, "outside": 0, "repeat": 0}
    reordered = False
    for _ in range(400):
        kind, add, remove = _proposal(rng, pts, ["add", "remove", "swap", "permute"])
        if kind == "permute":
            pts = pts[rng.permutation(len(pts))]
            reordered = True
            continue
        held = {p.tobytes() for p in pts}
        seen["reordered"] += reordered and pts.tobytes() not in cache.densities
        reordered = False
        del computed[:]
        got = dpp_log_ratio(m, pts, add=add, remove=remove, cache=cache)
        outside = add is not None and add[0] > 2.0
        repeat = add is not None and add.tobytes() in held
        assert computed == ([1] if add is not None and not (outside or repeat) else [])
        assert set(cache.rows) <= held | ({add.tobytes()} if add is not None else set())
        seen["outside" if outside else "repeat" if repeat else kind] += 1
        if math.log(rng.random()) < got:
            pts = _after(pts, add, remove)
    assert all(v > 0 for v in seen.values()), seen


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
    with pytest.raises(ConfigError, match="underflows to zero at prior.dpp.rho=1, "):
        build_spectral_model(q=3, lattice_radius=1, rho=1.0, alpha=1e-150,
                             box_lo=[0.5] * 3, box_hi=[2.0] * 3)  # rho (sqrt(pi) alpha)^3 = 0
    assert build_spectral_model(q=1, lattice_radius=1, rho=1e-320, alpha=0.1,
                                box_lo=[0.5], box_hi=[2.0]).phi_tilde.any()  # subnormal, kept


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
    with pytest.raises(ConfigError, match="lattice_radius must be >= 1"):
        DppConfig(lattice_radius=0)  # one frequency: a rank-one Gram matrix
    with pytest.raises(ConfigError):
        DppConfig(lo_factor=1.0)
    with pytest.raises(ConfigError):
        DppConfig(box_lo=(0.5, 0.5))  # missing the matching upper bound
    with pytest.raises(ConfigError, match="equal lengths"):
        DppConfig(box_lo=(0.5, 0.5), box_hi=(2.0,))
    with pytest.raises(ConfigError, match="0 < box_lo < box_hi"):
        DppConfig(box_lo=(0.5, 2.0), box_hi=(2.0, 1.0))
