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
density ratio is the difference of two full log-densities; given a memo of
the densities its last call computed, it computes only the ones it has not
seen.  A swap puts the added point in the removed point's slot, the order a
chain that replaces one point in place keeps, so a chain that proposes from
the configuration the last ratio started from or moved to prices each move
with one density.  Given a cache of the points' feature rows (2 n_z floats,
2 n_z 8 bytes, per point), a density it does compute runs the trigonometry
only for the point the move adds: none for a death or for a configuration
whose points were reordered, nor for a density of cached points computed
outside a ratio.  The Gram product and its log-determinant are still formed
in full.  The lattice has (2L+1)^q frequencies; models with more than
``MAX_LATTICE_SIZE`` are refused.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .core import ConfigError, Dataset, DppConfig

__all__ = [
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

    @property
    def q(self) -> int:
        return int(self.lattice.shape[1])

    def rescale(self, points: np.ndarray) -> np.ndarray:
        return (points - self.box_lo) / (self.box_hi - self.box_lo)

    def in_box(self, point: np.ndarray) -> bool:
        return bool(np.all(point >= self.box_lo) and np.all(point <= self.box_hi))

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
        ang = 2.0 * math.pi * (x @ self._lattice_t)
        return self.gram_of(np.cos(ang), np.sin(ang))

    def gram_of(self, c: np.ndarray, s: np.ndarray) -> np.ndarray:
        """The Gram matrix of the points whose feature rows are ``c`` and ``s``."""
        return (c * self.phi_tilde) @ c.T + (s * self.phi_tilde) @ s.T

    def feature_rows(self, x: np.ndarray) -> np.ndarray:
        """``C`` and ``S`` of ``gram`` stacked, shape (2, len(x), n_z).  They
        have ``gram``'s bits wherever BLAS rounds ``x @ lattice.T`` alike for
        these rows and for ``gram``'s: seen at q <= 3, while at q = 6 OpenBLAS
        rounds a one-row product differently from a several-row one."""
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
    lattice = np.array(list(product(range(-lattice_radius, lattice_radius + 1), repeat=q)),
                       dtype=np.int64)
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
    else:
        lam = data.mean_rate_per_type()
        lo = np.full(q, lam / cfg.lo_factor)
        hi = np.full(q, lam * cfg.hi_factor)
    rho = cfg.rho if cfg.rho is not None else max(float(default_rho), 1.0)
    return build_spectral_model(q, cfg.lattice_radius, rho, cfg.alpha, lo, hi)


def _row_keys(points: np.ndarray) -> list[bytes]:
    """The bytes of each row of a (k, q) float64 configuration."""
    whole = points.tobytes()
    width = len(whole) // len(points)
    return [whole[i:i + width] for i in range(0, len(whole), width)]


def _cached_features(model: DppSpectralModel, points: np.ndarray,
                     rows: dict[bytes, np.ndarray]) -> np.ndarray | None:
    """The (2, k, n_z) feature rows of ``points``, read from ``rows`` by each
    point's bytes; a point not there is box-checked (None when it is
    outside), computed and added.  The check compares Python floats: at
    q = 3 numpy's per-call cost would exceed the trigonometry saved."""
    keys = _row_keys(points)
    for i, key in enumerate(keys):
        if key not in rows:
            bounds = zip(points[i].tolist(), model.box_lo.tolist(), model.box_hi.tolist())
            if any(v < lo or v > hi for v, lo, hi in bounds):
                return None
            rows[key] = model.feature_rows(model.rescale(points[i:i + 1]))
    return np.concatenate([rows[key] for key in keys], axis=1)


def dpp_log_density(model: DppSpectralModel, points: np.ndarray,
                    rows: dict[bytes, np.ndarray] | None = None) -> float:
    """Log density of a configuration of base-rate vectors (raw coordinates).

    Empty configurations are allowed (density exp(1 - D_app)); configurations
    with a point outside the box or with a singular Gram matrix have density
    zero.  Duplicated points are not certain to: the Gram matrix is built by
    GEMM, so two equal rows can differ in their last bits and leave a large
    negative but finite value.

    ``rows`` maps the bytes of a point to its (2, 1, n_z) ``feature_rows``
    under ``model``, 2 n_z 8 bytes each (250 KB at q = 6, 1.25 MB at q = 7).
    A point found there is neither box-checked again nor recomputed; one
    that is not is checked, computed and added.  The value then has the
    bits of the plain call wherever ``feature_rows`` has ``gram``'s.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.size == 0:
        return 1.0 - model.d_app
    if points.ndim == 1:
        points = points[None, :]
    if rows is None:
        if np.any(points < model.box_lo) or np.any(points > model.box_hi):
            return -math.inf
        gram = model.gram(model.rescale(points))
    else:
        features = _cached_features(model, points, rows)
        if features is None:
            return -math.inf
        gram = model.gram_of(features[0], features[1])
    sign, logdet = np.linalg.slogdet(gram)
    if sign <= 0 or not np.isfinite(logdet):
        return -math.inf
    return 1.0 - model.d_app + float(logdet)


def dpp_log_ratio(model: DppSpectralModel, points: np.ndarray,
                  add: np.ndarray | None = None,
                  remove: np.ndarray | None = None,
                  memo: dict[bytes, float] | None = None,
                  rows: dict[bytes, np.ndarray] | None = None) -> float:
    """Log-density change of adding and/or removing one point.

    ``remove`` is matched against ``points`` by exact coordinates.  The value
    is ``dpp_log_density(after) - dpp_log_density(before)``, where ``after``
    holds the added point in the removed point's slot when the call does
    both, and appends it after ``points`` when it only adds; it is -inf
    whenever ``after`` has density zero, also when ``before`` has (where the
    difference is NaN).

    ``memo`` maps the bytes of a configuration's ``(M, q)`` array, in order,
    to its log density under ``model``; a configuration found there is not
    recomputed, so the value is the one those bytes gave before, bit for
    bit.  A reordered configuration has other bytes and is recomputed.  On
    return the memo holds the configurations this call evaluated, at most
    two.  Without a memo both densities are computed.

    ``rows`` is ``dpp_log_density``'s cache of feature rows, shared by both
    densities: a configuration the memo lacks costs trigonometry only for
    the point it adds, none for a removal or a reordering.  On return it
    holds at most the rows of ``points`` and ``add``.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, model.q)
    parts = [points]
    if remove is not None:
        match = (points == np.asarray(remove, dtype=np.float64)).all(axis=1).nonzero()[0]
        if match.size == 0:
            raise ConfigError("point to remove is not part of the configuration")
        parts = [points[:match[0]], points[match[0] + 1:]]
    if add is not None:
        add = np.asarray(add, dtype=np.float64)
        parts.insert(1, add[None, :])  # a swap keeps the removed point's slot
    after = np.concatenate(parts) if len(parts) > 1 else points
    known = {} if memo is None else memo
    seen: dict[bytes, float] = {}

    def density(x: np.ndarray) -> float:
        key = x.tobytes()
        seen[key] = known[key] if key in known else dpp_log_density(model, x, rows)
        return seen[key]

    log_after = density(after)
    ratio = -math.inf if log_after == -math.inf else log_after - density(points)
    known.clear()
    known.update(seen)
    if rows is not None:  # keep the rows of before and after: the points and add
        keys = _row_keys(points) if len(points) else []
        if add is not None:
            keys.append(add.tobytes())
        kept = {key: rows[key] for key in keys if key in rows}
        rows.clear()
        rows.update(kept)
    return ratio
