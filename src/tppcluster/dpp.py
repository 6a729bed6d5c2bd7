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
lattice frequencies; a density ratio is the difference of two full
log-densities.  The lattice has (2L+1)^q frequencies; models with more than
``MAX_LATTICE_SIZE`` are refused.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
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
# this size a lattice is a few MB and one density of ten points takes a few
# tens of ms.  q=8 at L=2 (390,625 frequencies) or q=10 (9.8M) is refused.
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

    def gram(self, x: np.ndarray) -> np.ndarray:
        """Gram matrix K(x_i, x_j) in unit-cube coordinates; shape (len(x), len(x)).

        cos(a - b) = cos a cos b + sin a sin b, so the matrix is
        ``(C phi_tilde) C^T + (S phi_tilde) S^T`` from the per-point features
        ``C, S = cos/sin(2 pi x . z)``: O(len(x) n_z) trigonometric calls.  The
        lattice is symmetric, so the imaginary parts of the complex expansion
        cancel exactly.
        """
        ang = 2.0 * math.pi * (x @ self.lattice.T)
        c, s = np.cos(ang), np.sin(ang)
        return (c * self.phi_tilde) @ c.T + (s * self.phi_tilde) @ s.T

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
    near-independent prior rather than failing.
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
    phi = rho * (math.sqrt(math.pi) * alpha) ** q * np.exp(-(math.pi * alpha) ** 2 * sq)
    clipped = bool(np.any(phi >= _PHI_CLIP))
    if clipped:
        log.warning(
            "spectral density reaches %.3g >= 1; clipping (rho=%.3g alpha=%.3g q=%d). "
            "Repulsion is weakened; consider lowering rho or alpha.",
            float(phi.max()), rho, alpha, q,
        )
        phi = np.minimum(phi, _PHI_CLIP)
    phi_tilde = phi / (1.0 - phi)
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


def dpp_log_density(model: DppSpectralModel, points: np.ndarray) -> float:
    """Log density of a configuration of base-rate vectors (raw coordinates).

    Empty configurations are allowed (density exp(1 - D_app)); configurations
    with a point outside the box or with a singular Gram matrix (for example
    duplicated points) have density zero.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.size == 0:
        return 1.0 - model.d_app
    if points.ndim == 1:
        points = points[None, :]
    if np.any(points < model.box_lo) or np.any(points > model.box_hi):
        return -math.inf
    x = model.rescale(points)
    sign, logdet = np.linalg.slogdet(model.gram(x))
    if sign <= 0 or not np.isfinite(logdet):
        return -math.inf
    return 1.0 - model.d_app + float(logdet)


def dpp_log_ratio(model: DppSpectralModel, points: np.ndarray,
                  add: np.ndarray | None = None,
                  remove: np.ndarray | None = None) -> float:
    """Log-density change of adding and/or removing one point.

    ``remove`` is matched against ``points`` by exact coordinates.  The value
    is ``dpp_log_density(after) - dpp_log_density(before)``, with the added
    point appended after the remaining ones.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, model.q)
    after = points
    if remove is not None:
        remove = np.asarray(remove, dtype=np.float64)
        match = np.flatnonzero(np.all(points == remove, axis=1))
        if match.size == 0:
            raise ConfigError("point to remove is not part of the configuration")
        after = np.delete(after, match[0], axis=0)
    if add is not None:
        after = np.vstack([after, np.asarray(add, dtype=np.float64)[None, :]])
    return dpp_log_density(model, after) - dpp_log_density(model, points)
