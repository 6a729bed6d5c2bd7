"""Repulsive prior over component base-rate vectors.

The prior is a stationary determinantal point process on a base-rate box,
approximated through a truncated Fourier expansion of a Gaussian spectral
density.  On the box rescaled to the unit cube the kernel is

    K(x, y) = sum_z phi_tilde(z) * cos(2 pi z . (x - y)),

with lattice frequencies z in {-L..L}^q,
phi(z) = rho * (sqrt(pi) * alpha)^q * exp(-pi^2 alpha^2 |z|^2) and
phi_tilde = phi / (1 - phi).  The log density of a point configuration is

    log p(X) = |R| - D_app + log det K(X)   with  |R| = 1 on the unit cube,

where D_app = sum_z log(1 + phi_tilde(z)).  Larger ``alpha`` repels over
longer distances; ``rho`` controls the expected number of points.

The Gram matrix is assembled from per-point cosine and sine features of the
lattice frequencies, whose trigonometry is most of a density's cost.  A
density ratio is the difference of two full log-densities; a ``DppCache``
lets a chain of ratios reuse the densities and feature rows it has already
computed.  The lattice has (2L+1)^q frequencies; models with more than
``MAX_LATTICE_SIZE`` are refused.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import ConfigError, Dataset, DppConfig

__all__ = [
    "DppCache",
    "DppSpectralModel",
    "build_spectral_model",
    "model_for_data",
    "dpp_log_density",
    "dpp_log_ratio",
]

log = logging.getLogger(__name__)

_PHI_CLIP = 1.0 - 1e-6

# Largest admitted (2L+1)^q.  Admits q <= 7 at the default radius L=2; at
# q=7 (78,125 frequencies) a lattice is a few MB, a point's cached feature
# rows 1.25 MB, and one density of ten points takes a few tens of ms from
# scratch, a few ms in a ratio that finds nine of its points' rows cached.
# q=8 at L=2 (390,625 frequencies) or q=10 (9.8M) is refused.
MAX_LATTICE_SIZE = 100_000


@dataclass(frozen=True)
class DppSpectralModel:
    """Frozen spectral approximation of the repulsive prior on a box."""

    lattice: np.ndarray    # (n_z, q) integer frequencies
    phi_tilde: np.ndarray  # (n_z,) positive spectral weights
    d_app: float           # normalising constant sum log(1 + phi_tilde)
    box_lo: np.ndarray     # (q,) raw-coordinate bounds
    box_hi: np.ndarray
    rho: float
    alpha: float
    clipped: bool          # True when the spectral density hit the stability cap

    @cached_property
    def q(self) -> int:
        return int(self.lattice.shape[1])

    @cached_property
    def _bounds(self) -> tuple[list[float], list[float]]:
        return self.box_lo.tolist(), self.box_hi.tolist()

    def rescale(self, points: np.ndarray) -> np.ndarray:
        return (points - self.box_lo) / (self.box_hi - self.box_lo)

    def in_box(self, point: np.ndarray) -> bool:
        """Whether every coordinate lies in the box, faces included.  It
        compares Python floats, so a NaN lies outside; at small q numpy's
        per-call cost would exceed the comparisons."""
        v, (lo, hi) = np.asarray(point, dtype=np.float64).tolist(), self._bounds
        return all(map(operator.le, lo, v)) and all(map(operator.le, v, hi))

    @cached_property
    def _lattice_t(self) -> np.ndarray:
        # (q, n_z) float copy of lattice.T, whose product with x has the
        # integer lattice's bits without casting it on every call (at q = 6
        # and six points: 0.04 ms against 0.6 ms)
        return np.ascontiguousarray(self.lattice.T, dtype=np.float64)

    def gram(self, x: np.ndarray) -> np.ndarray:
        """Gram matrix K(x_i, x_j) in unit-cube coordinates; shape (len(x), len(x)).

        cos(a - b) = cos a cos b + sin a sin b, so the matrix is
        ``(C phi_tilde) C^T + (S phi_tilde) S^T`` from the per-point features
        ``C, S = cos/sin(2 pi x . z)``: 2 len(x) n_z trigonometric calls, which
        are most of a density's cost.  The lattice is symmetric, so the
        imaginary parts of the complex expansion cancel exactly.
        """
        return self.gram_of(*self.feature_rows(x))

    def gram_of(self, c: np.ndarray, s: np.ndarray) -> np.ndarray:
        """The Gram matrix of the points whose feature rows are ``c`` and ``s``."""
        return (c * self.phi_tilde) @ c.T + (s * self.phi_tilde) @ s.T

    def feature_rows(self, x: np.ndarray) -> np.ndarray:
        """``C`` and ``S`` of ``gram`` stacked, shape (2, len(x), n_z)."""
        ang = 2.0 * math.pi * (x @ self._lattice_t)
        rows = np.empty((2,) + ang.shape)
        np.cos(ang, out=rows[0])
        np.sin(ang, out=rows[1])
        return rows

    def describe(self) -> dict:
        return {
            "rho": self.rho,
            "alpha": self.alpha,
            "n_lattice": int(self.lattice.shape[0]),
            "d_app": self.d_app,
            "box_lo": self.box_lo.tolist(),
            "box_hi": self.box_hi.tolist(),
            "clipped": self.clipped,
        }


def _check_lattice_size(q: int, lattice_radius: int) -> None:
    """Refuse more than ``MAX_LATTICE_SIZE`` frequencies.  (2L+1)^q is formed
    up to q = 64 only, past which every side above 1 is refused (3^64 > the limit)."""
    side = 2 * lattice_radius + 1
    n_z = side ** min(q, 64)
    if n_z > MAX_LATTICE_SIZE:
        size = f"{n_z:,}" if q <= 64 else f"{side}^{q}"
        raise ConfigError(
            f"repulsive-prior lattice too large: (2L+1)^q = {size} frequencies for "
            f"q={q} event types at L={lattice_radius}, above the limit of "
            f"{MAX_LATTICE_SIZE:,}; lower prior.dpp.lattice_radius"
        )


def build_spectral_model(q: int, lattice_radius: int, rho: float, alpha: float,
                         box_lo, box_hi) -> DppSpectralModel:
    """Construct the truncated spectral model on the given box.

    The existence condition for the Gaussian spectral density is
    ``rho * (sqrt(pi) * alpha)^q < 1``; when violated the density is clipped
    just below one (with a warning) which flattens repulsion toward a
    near-independent prior rather than failing.  A density that overflows a
    float, or underflows to zero at every frequency, is a ConfigError.
    """
    _check_lattice_size(q, lattice_radius)
    box_lo = np.atleast_1d(np.asarray(box_lo, dtype=np.float64))
    box_hi = np.atleast_1d(np.asarray(box_hi, dtype=np.float64))
    if box_lo.size != q or box_hi.size != q:
        raise ConfigError("box bounds must match the base-rate dimension")
    if np.any(box_lo <= 0) or np.any(box_hi <= box_lo):
        raise ConfigError("base-rate box must satisfy 0 < lo < hi per coordinate")
    if rho <= 0 or alpha <= 0:
        raise ConfigError("rho and alpha must be positive")
    # every z in {-L..L}^q in C order, the last coordinate varying fastest
    grid = np.indices((2 * lattice_radius + 1,) * q, dtype=np.int64).reshape(q, -1)
    lattice = np.ascontiguousarray(grid.T) - lattice_radius
    sq = (lattice ** 2).sum(axis=1)
    try:  # phi = c * exp(-s * |z|^2), with c and s in Python floats
        c = float(rho) * (math.sqrt(math.pi) * float(alpha)) ** q
        s = (math.pi * float(alpha)) ** 2
    except OverflowError:
        c = s = math.inf
    if not (math.isfinite(c) and math.isfinite(s * q * lattice_radius ** 2)):
        raise ConfigError(f"repulsive-prior spectral density overflows at prior.dpp.rho={rho:g}, "
                          f"prior.dpp.alpha={alpha:g} for q={q} event types; lower rho or alpha")
    phi = c * np.exp(-s * sq)
    clipped = bool(np.any(phi >= _PHI_CLIP))
    if clipped:
        log.warning(
            "spectral density reaches %.3g >= 1; clipping (rho=%.3g alpha=%.3g q=%d). "
            "Repulsion is weakened; consider lowering rho or alpha.",
            float(phi.max()), rho, alpha, q,
        )
        phi = np.minimum(phi, _PHI_CLIP)
    phi_tilde = phi / (1.0 - phi)
    if not phi_tilde.any():  # every configuration but the empty one would have density zero
        raise ConfigError(f"repulsive-prior spectral density underflows to zero at "
                          f"prior.dpp.rho={rho:g}, prior.dpp.alpha={alpha:g} for q={q} event "
                          f"types; raise rho or alpha")
    d_app = float(np.log1p(phi_tilde).sum())
    return DppSpectralModel(lattice, phi_tilde, d_app, box_lo, box_hi, rho, alpha, clipped)


def model_for_data(data: Dataset, cfg: DppConfig, default_rho: float) -> DppSpectralModel:
    """Resolve the box and intensity from the dataset and build the model.

    The default box is ``[mean_rate / lo_factor, mean_rate * hi_factor]`` in
    every coordinate, with ``mean_rate`` the pooled per-type event rate.
    """
    q = data.n_types
    _check_lattice_size(q, cfg.lattice_radius)  # before a box of q coordinates is built
    if cfg.box_lo is not None:
        if len(cfg.box_lo) != q:
            raise ConfigError(f"config.prior.dpp.box_lo has {len(cfg.box_lo)} coordinates, "
                              f"the dataset has {q} event types")
        lo = np.asarray(cfg.box_lo, dtype=np.float64)
        hi = np.asarray(cfg.box_hi, dtype=np.float64)
        source = "box_hi"
    else:
        lam = data.mean_rate_per_type()
        lo = np.full(q, lam / cfg.lo_factor)
        hi = np.full(q, lam * cfg.hi_factor)
        source = f"hi_factor {cfg.hi_factor:g} gives a box_hi that"
    # the likelihood subtracts each sequence's horizon times sum(mu)
    hi_sum = sum(hi.tolist())
    if not math.isfinite(hi_sum * data.total_time):
        raise ConfigError(f"config.prior.dpp.{source} sums to {hi_sum:g}; times the dataset's "
                          f"total observation time {data.total_time:g} it overflows a float")
    rho = cfg.rho if cfg.rho is not None else max(float(default_rho), 1.0)
    return build_spectral_model(q, cfg.lattice_radius, rho, cfg.alpha, lo, hi)


def _row_keys(points: np.ndarray) -> list[bytes]:
    """The bytes of each row of a (k, q) float64 configuration."""
    whole = points.tobytes()
    width = points.itemsize * points.shape[1]
    return [whole[i:i + width] for i in range(0, len(whole), width)]


@dataclass
class DppCache:
    """What a chain of densities and ratios under one model reuses.

    ``densities`` maps the bytes of a configuration's ``(k, q)`` array, in
    order, to its log density; a configuration found there is a lookup, the
    value those bytes gave before, bit for bit.  A reordered configuration
    has other bytes and is computed again.  ``rows`` maps the bytes of a
    point to its (2, 1, n_z) ``feature_rows``, 2 n_z 8 bytes each (250 KB at
    q = 6, 1.25 MB at q = 7); a density the cache lacks is formed from them,
    so it runs trigonometry only for points it has not seen, and a point
    outside the box gets no rows.  The values have the plain call's bits
    wherever ``feature_rows`` has ``gram``'s: seen at q <= 3, while at q = 6
    OpenBLAS rounds a one-row product differently from a several-row one.

    ``dpp_log_density`` adds what it computes.  After ``dpp_log_ratio`` the
    cache holds what it knows of that ratio's "before" and "after" and
    nothing else: at most two densities and the rows of their points.
    """

    densities: dict[bytes, float] = field(default_factory=dict)
    rows: dict[bytes, np.ndarray] = field(default_factory=dict)

    def features(self, model: DppSpectralModel, points: np.ndarray) -> np.ndarray | None:
        """The (2, k, n_z) feature rows of ``points``, None when one is outside the box."""
        keys = _row_keys(points)
        for i, key in enumerate(keys):
            if key not in self.rows:
                if not model.in_box(points[i]):
                    return None
                self.rows[key] = model.feature_rows(model.rescale(points[i:i + 1]))
        return np.concatenate([self.rows[key] for key in keys], axis=1)

    def keep(self, before: np.ndarray, after: np.ndarray, add: np.ndarray | None) -> None:
        """Drop all but the densities of ``before`` and ``after`` and the rows of
        their points: those of ``before`` and of ``add``, the one ``after`` may add."""
        self.densities = {key: self.densities[key] for key in (before.tobytes(), after.tobytes())
                          if key in self.densities}
        keys = _row_keys(before) + ([] if add is None else [add.tobytes()])
        self.rows = {key: self.rows[key] for key in keys if key in self.rows}


def _log_density(model: DppSpectralModel, gram: np.ndarray) -> float:
    """The log density of the configuration whose Gram matrix is ``gram``."""
    sign, logdet = np.linalg.slogdet(gram)
    if sign <= 0 or not np.isfinite(logdet):
        return -math.inf
    return 1.0 - model.d_app + float(logdet)


def dpp_log_density(model: DppSpectralModel, points: np.ndarray,
                    cache: DppCache | None = None) -> float:
    """Log density of a configuration of base-rate vectors (raw coordinates).

    Empty configurations are allowed (density exp(1 - D_app)); configurations
    with a point outside the box or with a singular Gram matrix have density
    zero.  Duplicated points are not certain to: the Gram matrix is built by
    GEMM, so two equal rows can differ in their last bits and leave a large
    negative but finite value.  With a ``cache`` the density is read from it
    or computed from its feature rows and stored there.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, model.q)
    if not len(points):
        return 1.0 - model.d_app
    if cache is None:
        if not all(model.in_box(p) for p in points):
            return -math.inf
        return _log_density(model, model.gram(model.rescale(points)))
    key = points.tobytes()
    if key not in cache.densities:
        features = cache.features(model, points)
        cache.densities[key] = (-math.inf if features is None
                                else _log_density(model, model.gram_of(*features)))
    return cache.densities[key]


def dpp_log_ratio(model: DppSpectralModel, points: np.ndarray,
                  add: np.ndarray | None = None,
                  remove: np.ndarray | None = None,
                  cache: DppCache | None = None) -> float:
    """Log-density change of adding and/or removing one point.

    ``remove`` is matched against ``points`` by exact coordinates.  The value
    is ``dpp_log_density(after) - dpp_log_density(before)``, where ``after``
    holds the added point in the removed point's slot when the call does
    both, and appends it after ``points`` when it only adds; it is -inf
    whenever ``after`` has density zero, also when ``before`` has (where the
    difference is NaN).  Both densities go through ``cache`` when one is
    given, which then keeps only what it holds of them.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, model.q)
    parts = [points]
    if remove is not None:
        same = points == np.asarray(remove, dtype=np.float64)
        match = np.logical_and.reduce(same, axis=1).nonzero()[0]
        if match.size == 0:
            raise ConfigError("point to remove is not part of the configuration")
        parts = [points[:match[0]], points[match[0] + 1:]]
    if add is not None:
        add = np.asarray(add, dtype=np.float64)
        parts.insert(1, add[None, :])  # a swap keeps the slot
    after = np.concatenate(parts) if len(parts) > 1 else points
    log_after = dpp_log_density(model, after, cache)
    if log_after == -math.inf:
        ratio = -math.inf
    else:
        ratio = log_after - dpp_log_density(model, points, cache)
    if cache is not None:
        cache.keep(points, after, add)
    return ratio
