"""Intensity backbone: truncated-Gaussian triggering kernels, exact
log-likelihoods and gradients, and the simulation-only intensity models.

The conditional intensity of a component for type ``d`` is

    lambda_d(t) = mu_d + sum_{t_i < t} sum_j a[d, d_i, j] * g_j(t - t_i)

with ``g_j`` a Gaussian bump of width ``sigma`` centred at ``c_j`` and hard
truncated outside ``[0, tau_max]``.  Because the intensity is linear in
``(mu, a)`` given the basis, each sequence reduces to two fixed summaries:
the event-by-event excitation features and the integrated (compensator)
features.  Everything downstream (likelihood columns, gradients, proposals)
is assembled from those.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .core import BasisConfig, Dataset, EventSequence, HawkesParams, NumericalError

__all__ = [
    "basis_values",
    "basis_integrals",
    "hawkes_intensity",
    "hawkes_compensator",
    "hawkes_loglik",
    "hawkes_loglik_grad",
    "FeatureSet",
    "HomogeneousPoisson",
    "SinusoidPoisson",
    "SelfCorrecting",
    "HawkesModel",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _bumps(basis: BasisConfig, lag: np.ndarray) -> np.ndarray:
    """Every bump at the lags ``lag`` of shape (..., 1), untruncated; shape (..., n_basis)."""
    z = (lag - basis.centers) / basis.sigma
    return (_INV_SQRT_2PI / basis.sigma) * np.exp(-0.5 * z * z)


def basis_values(basis: BasisConfig, dt) -> np.ndarray:
    """Evaluate every bump at the lags ``dt``; shape (..., n_basis).

    Zero outside the support (0, tau_max]; the left end is open because only
    strictly earlier events excite.
    """
    dt = np.asarray(dt, dtype=np.float64)[..., None]
    keep = (dt > 0) & (dt <= basis.tau_max)
    return np.where(keep, _bumps(basis, dt), 0.0)


def basis_integrals(basis: BasisConfig, s) -> np.ndarray:
    """Exact integral of each bump over [0, min(s, tau_max)]; shape (..., n_basis)."""
    s = np.asarray(s, dtype=np.float64)[..., None]
    upper = np.minimum(np.maximum(s, 0.0), basis.tau_max)
    hi = ndtr((upper - basis.centers) / basis.sigma)
    lo = ndtr((0.0 - basis.centers) / basis.sigma)
    return hi - lo


def _window(tau_max: float, times: np.ndarray, types: np.ndarray, t: float):
    """Types and lags ``t - t_l`` of the events that excite ``t``: the strict
    past with ``t - t_l <= tau_max``, in ascending time order.

    ``times`` is sorted ascending, so only ``[t - tau_max, t)`` is read, and
    the lags fall along it: the window is one slice ``[lo, hi)``, and every
    lag in it lies in ``(0, tau_max]``.
    """
    hi = times.searchsorted(t, side="left")  # times[:hi] is the strict past
    lo = times.searchsorted(t - tau_max, side="left")
    # t - x <= tau_max is monotone in x but may round differently from x >= t - tau_max
    while lo > 0 and t - times[lo - 1] <= tau_max:
        lo -= 1
    while lo < hi and t - times[lo] > tau_max:
        lo += 1
    return types[lo:hi], t - times[lo:hi]


def hawkes_intensity(params: HawkesParams, times, types, t: float, d: int | None = None):
    """Conditional intensity at time ``t`` given the history strictly before it.

    ``times`` is sorted ascending, as in every :class:`EventSequence` and the
    simulator's history, so only the events in ``[t - tau_max, t)`` are read.
    Returns the (D,) per-type vector, or a scalar when ``d`` is given.
    """
    times = np.asarray(times, dtype=np.float64)
    types = np.asarray(types, dtype=np.int64)
    src, dts = _window(params.basis.tau_max, times, types, t)
    if src.size:
        g = _bumps(params.basis, dts[:, None])  # (n_past, n_basis); no lag needs truncating
        # a[:, src, :], taken along the source axis of a transposed view: the
        # fancy index's values and strides at less cost, so einsum adds in the
        # same order
        a_src = params.a.swapaxes(0, 1).take(src, axis=0).swapaxes(0, 1)
        # sum_j a[:, src, j] * g[., j] for each past event
        lam = params.mu + np.einsum("dpj,pj->d", a_src, g)
    else:
        lam = params.mu.copy()
    return lam if d is None else float(lam[d])


def hawkes_compensator(params: HawkesParams, seq: EventSequence) -> float:
    """Closed-form integral of the total intensity over (0, horizon]."""
    total = seq.horizon * float(params.mu.sum())
    if seq.n_events:
        G = basis_integrals(params.basis, seq.horizon - seq.times)  # (I, n_basis)
        col = params.a.sum(axis=0)  # (D, n_basis): influence of a source type on all targets
        total += float(np.einsum("ij,ij->", col[seq.types], G))
    return total


def hawkes_loglik(params: HawkesParams, seq: EventSequence) -> float:
    """Exact log likelihood of one sequence: sum of event log-intensities
    minus the compensator.  Returns -inf when some event has zero intensity.

    Scored event by event from :func:`hawkes_intensity`, so it shares no code
    with :class:`FeatureSet` and serves as its oracle.
    """
    lam = np.array([hawkes_intensity(params, seq.times, seq.types, t, d)
                    for t, d in zip(seq.times, seq.types)])
    if np.any(lam <= 0):
        return -math.inf
    return float(np.log(lam).sum()) - hawkes_compensator(params, seq)


def hawkes_loglik_grad(params: HawkesParams, seq: EventSequence):
    """Gradient of :func:`hawkes_loglik` in ``(mu, a)``; shapes (D,), (D, D, n_basis).

    Computed event by event on the window of :func:`hawkes_intensity`.
    """
    mu, a, basis = params.mu, params.a, params.basis
    dmu = np.full(params.n_types, -seq.horizon)
    da = np.zeros_like(a)
    for t, d in zip(seq.times, seq.types):
        src, dts = _window(basis.tau_max, seq.times, seq.types, t)
        g = _bumps(basis, dts[:, None])
        lam = mu[d] + float(np.sum(a[d, src] * g))
        if lam <= 0:
            raise NumericalError("zero intensity at an observed event")
        dmu[d] += 1.0 / lam
        np.add.at(da[d], src, g / lam)
    if seq.n_events:
        comp = np.zeros(a.shape[1:])  # (D, n_basis): integrated bump mass per source type
        np.add.at(comp, seq.types, basis_integrals(basis, seq.horizon - seq.times))
        da -= comp[None, :, :]
    return dmu, da


# read only by the cost model in bench/kernels.py
_PAIRWISE_LIMIT = 1024


class FeatureSet:
    """Padded, batched feature summaries of a whole dataset.

    ``excite[s, i, d, j]`` sums bump ``j`` over the earlier events of type
    ``d`` within ``tau_max`` of event ``i`` of sequence ``s``, and
    ``comp[s, d, j]`` the bump mass of its type-``d`` events up to the
    horizon.  Both are built in one vectorised pass over every event of
    every sequence, on the window rule of :func:`hawkes_intensity`.

    All heavy sampler arithmetic — likelihood columns over every sequence,
    minibatch gradients, base-rate proposal deltas — runs on these arrays.
    The per-event excitation is one BLAS GEMM: the ``(B·width, D·n_basis)``
    feature matrix times ``a`` as a ``(D, D·n_basis)`` matrix gives each
    event's excitation toward every target type, and each event keeps its
    own type's column.  A call on a subset ``idx`` cuts its rows to the
    longest sequence in it, so every per-event block is ``(B, width)``.
    """

    def __init__(self, data: Dataset, basis: BasisConfig):
        self.n_types = D = data.n_types
        nb = basis.n_basis
        seqs = data.sequences
        n = len(seqs)
        self.n_events = np.array([s.n_events for s in seqs], dtype=np.int64)
        self.horizons = np.array([s.horizon for s in seqs], dtype=np.float64)
        times = np.concatenate([s.times for s in seqs] + [np.zeros(0)])
        types = np.concatenate([s.types for s in seqs] + [np.zeros(0, np.int64)])
        # every event's sequence, position in it, and padded slot
        seq = np.repeat(np.arange(n), self.n_events)
        pos = np.arange(times.size) - (self.n_events.cumsum() - self.n_events)[seq]
        imax = int(self.n_events.max(initial=1))
        slot = seq * imax + pos
        self.types = np.zeros((n, imax), dtype=np.int64)
        self.types.reshape(-1)[slot] = types
        self.mask = np.zeros((n, imax), dtype=bool)
        self.mask.reshape(-1)[slot] = True
        self.onehot = np.zeros((n, imax, D))
        self.onehot.reshape(-1, D)[slot, types] = 1.0

        # pairs (i, l = i - lag) with t_i - t_l <= tau_max, grown lag by lag;
        # t_i - t_l never falls as the lag grows, so a dropped i has no longer pair
        by_lag, i = [], np.arange(times.size)
        while True:
            lag = len(by_lag) + 1
            i = i[pos[i] >= lag]
            i = i[times[i] - times[i - lag] <= basis.tau_max]
            if not i.size:
                break
            by_lag.append(i)
        dst = np.concatenate(by_lag + [np.zeros(0, np.int64)])
        src = dst - np.repeat(np.arange(1, len(by_lag) + 1), [b.size for b in by_lag])
        order = np.lexsort((src, dst))  # each event sums its sources in ascending order
        dst, src = dst[order], src[order]
        self.excite = np.zeros((n, imax, D, nb))
        np.add.at(self.excite.reshape(-1, nb), slot[dst] * D + types[src],
                  basis_values(basis, times[dst] - times[src]))
        self.comp = np.zeros((n, D, nb))
        np.add.at(self.comp.reshape(-1, nb), seq * D + types,
                  basis_integrals(basis, self.horizons[seq] - times))

    # -- per-event rates ------------------------------------------------------

    def _rows(self, idx):
        """Index of the event slots of sequences ``idx`` (all when None), cut to
        the longest of them; every per-event block taken with it is (B, width)."""
        if idx is None:
            return np.s_[:, :]
        return np.s_[idx, : self.n_events[idx].max(initial=0)]

    def _excitation(self, a: np.ndarray, excite: np.ndarray, types: np.ndarray) -> np.ndarray:
        """sum_{d',j} a[d_i, d', j] * excite[i, d', j] for each event slot; (B, width)."""
        D = self.n_types
        a2 = a.reshape(D, -1)
        toward = excite.reshape(-1, a2.shape[1]) @ a2.T  # (B·width, D): every target type
        return toward.ravel().take(np.arange(0, toward.size, D) + types.ravel()).reshape(types.shape)

    # -- likelihood columns -------------------------------------------------

    def loglik_all(self, mu: np.ndarray, a: np.ndarray, idx=None) -> np.ndarray:
        """Per-sequence log likelihood under (mu, a); shape (N,) or (len(idx),)."""
        rows = self._rows(idx)
        types, mask = self.types[rows], self.mask[rows]
        comp = self.comp if idx is None else self.comp[idx]
        horiz = self.horizons if idx is None else self.horizons[idx]
        lam = mu[types] + self._excitation(a, self.excite[rows], types)
        ok = lam > 0
        ev = np.log(lam, out=np.zeros_like(lam), where=mask & ok).sum(axis=1)
        col = a.sum(axis=0).ravel()  # (D·n_basis,): a source slot's weight on all targets
        out = ev - horiz * mu.sum() - comp.reshape(-1, col.size) @ col
        out[(mask & ~ok).any(axis=1)] = -np.inf
        return out

    # -- base-rate move helpers ---------------------------------------------

    def excitation(self, a: np.ndarray, idx) -> np.ndarray:
        """Event-wise excitation sum_{d',j} a[d_i, d', j] * excite of the
        sequences ``idx``, from the GEMM; shape (B, width), width the longest
        of them, the layout :meth:`event_term` expects."""
        rows = self._rows(idx)
        return self._excitation(a, self.excite[rows], self.types[rows])

    def event_term(self, mu: np.ndarray, excitation: np.ndarray, idx) -> float:
        """Sum over the chosen sequences of event log-intensities for a given
        base-rate vector, reusing a precomputed excitation block."""
        rows = self._rows(idx)
        lam = mu[self.types[rows]] + excitation
        mask = self.mask[rows]
        if np.any((lam <= 0) & mask):
            return -math.inf
        return float(np.log(lam, out=np.zeros_like(lam), where=mask).sum())

    # -- gradients ----------------------------------------------------------

    def loglik_grad(self, mu: np.ndarray, a: np.ndarray, idx):
        """Summed gradient of the log likelihood over sequences ``idx``; shapes
        (D,), (D, D, n_basis), or None when some event rate is nonpositive
        (invalid point).

        With ``W = onehot / lambda`` over the event slots, the ``mu`` part is
        the column sums of ``W`` and the ``a`` part the GEMM ``Wᵀ @ excite``.
        """
        rows = self._rows(idx)
        types, mask, excite = self.types[rows], self.mask[rows], self.excite[rows]
        lam = mu[types] + self._excitation(a, excite, types)
        if np.any((lam <= 0) & mask):
            return None
        inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=mask)
        W = (self.onehot[rows] * inv[..., None]).reshape(-1, self.n_types)
        ga = (W.T @ excite.reshape(-1, a[0].size)).reshape(a.shape)
        ga -= self.comp[idx].sum(axis=0)[None, :, :]
        return W.sum(axis=0) - self.horizons[idx].sum(), ga

    def grad_a(self, mu: np.ndarray, a: np.ndarray, idx) -> np.ndarray | None:
        """Summed gradient of the log likelihood in ``a`` over sequences ``idx``.

        Returns None when some event rate is nonpositive (invalid point).
        """
        grad = self.loglik_grad(mu, a, idx)
        return None if grad is None else grad[1]


# ---------------------------------------------------------------------------
# simulation-only intensity models
#
# Each model exposes per-type rates (a float64 array), a dominating constant
# valid on a lookahead window given the frozen history, and the window length
# itself.


class HomogeneousPoisson:
    """Constant per-type rates."""

    def __init__(self, rates):
        self.rates = np.atleast_1d(np.asarray(rates, dtype=np.float64))
        if np.any(self.rates < 0):
            raise NumericalError("Poisson rates must be nonnegative")
        self.n_types = self.rates.size

    def evaluate(self, t, times, types) -> np.ndarray:
        return self.rates

    def upper_bound(self, t, times, types, until) -> float:
        return float(self.rates.sum())

    def lookahead(self) -> float:
        return math.inf

    def describe(self) -> dict:
        return {"model": "homogeneous_poisson", "rates": self.rates.tolist()}


class SinusoidPoisson:
    """Inhomogeneous Poisson with rate base + amp * sin(2 pi t / period) per type."""

    def __init__(self, base, amp, period: float):
        self.base = np.atleast_1d(np.asarray(base, dtype=np.float64))
        self.amp = np.atleast_1d(np.asarray(amp, dtype=np.float64))
        self.period = float(period)
        if np.any(self.amp < 0) or np.any(self.base < self.amp):
            raise NumericalError("sinusoid rates need base >= amp >= 0")
        if self.period <= 0:
            raise NumericalError("sinusoid period must be positive")
        self.n_types = self.base.size

    def evaluate(self, t, times, types) -> np.ndarray:
        return self.base + self.amp * math.sin(2.0 * math.pi * t / self.period)

    def upper_bound(self, t, times, types, until) -> float:
        return float((self.base + self.amp).sum())

    def lookahead(self) -> float:
        return math.inf

    def describe(self) -> dict:
        return {
            "model": "sinusoid_poisson",
            "base": self.base.tolist(),
            "amp": self.amp.tolist(),
            "period": self.period,
        }


class SelfCorrecting:
    """Total rate exp(eta * t - gamma * N(t-)), split evenly across types."""

    def __init__(self, eta: float, gamma: float, n_types: int = 1):
        self.eta = float(eta)
        self.gamma = float(gamma)
        self.n_types = int(n_types)
        if self.eta <= 0 or self.gamma < 0:
            raise NumericalError("self-correcting model needs eta > 0, gamma >= 0")

    def _total(self, t, n_seen: int) -> float:
        return math.exp(self.eta * t - self.gamma * n_seen)

    def evaluate(self, t, times, types) -> np.ndarray:
        n_seen = int(np.searchsorted(np.asarray(times, dtype=np.float64), t, side="left"))
        tot = self._total(t, n_seen)
        return np.full(self.n_types, tot / self.n_types)

    def upper_bound(self, t, times, types, until) -> float:
        # events only lower the rate, so the window end with the current count dominates
        n_seen = len(times)
        return self._total(until, n_seen)

    def lookahead(self) -> float:
        return 1.0 / self.eta

    def describe(self) -> dict:
        return {
            "model": "self_correcting",
            "eta": self.eta,
            "gamma": self.gamma,
            "n_types": self.n_types,
        }


class HawkesModel:
    """Adapter exposing :class:`HawkesParams` through the simulation interface."""

    def __init__(self, params: HawkesParams):
        self.params = params
        self.n_types = params.n_types
        # peak bump value; every centre sits inside the support
        self._gmax = _INV_SQRT_2PI / params.basis.sigma
        self._colsum = params.a.sum(axis=(0, 2))  # (D,) total outgoing weight per source type
        self._mu_total = float(params.mu.sum())

    def evaluate(self, t, times, types) -> np.ndarray:
        return hawkes_intensity(self.params, times, types, t)

    def upper_bound(self, t, times, types, until) -> float:
        lo = times.searchsorted(t - self.params.basis.tau_max, side="right")
        # mu_total + gmax * colsum[types[lo:]].sum() with the same bits, in Python
        # floats and without ndarray.sum's Python wrapper around np.add.reduce
        return self._mu_total + self._gmax * float(np.add.reduce(self._colsum[types[lo:]]))

    def lookahead(self) -> float:
        return math.inf

    def describe(self) -> dict:
        return {"model": "hawkes", **self.params.to_dict()}
