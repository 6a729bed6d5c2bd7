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
from functools import cached_property

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


def _span(tau_max: float, times: np.ndarray, t: float) -> tuple[int, int]:
    """The slice ``[lo, hi)`` of the events that excite ``t``: the strict past
    with ``t - t_l <= tau_max``.

    ``times`` is sorted ascending, so only ``[t - tau_max, t)`` is read, and
    the lags fall along it: every lag in the slice lies in ``(0, tau_max]``.
    """
    hi = times.size  # times[:hi] is the strict past
    if hi and not times[hi - 1] < t:  # a simulated candidate is usually past them all
        hi = times.searchsorted(t, side="left")
    lo = times.searchsorted(t - tau_max, side="left")
    # t - x <= tau_max is monotone in x but may round differently from x >= t - tau_max
    while lo > 0 and t - times[lo - 1] <= tau_max:
        lo -= 1
    while lo < hi and t - times[lo] > tau_max:
        lo += 1
    return lo, hi


def _window(tau_max: float, times: np.ndarray, types: np.ndarray, t: float):
    """Types and lags ``t - t_l`` of the events that excite ``t``, in
    ascending time order; see :func:`_span`."""
    lo, hi = _span(tau_max, times, t)
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
    every sequence, on the window rule of :func:`hawkes_intensity`; ``excite``
    adds the pairs lag by lag, longest first, which sums each event's
    sources in time order without sorting the pairs.

    All heavy sampler arithmetic — likelihood columns over every sequence,
    minibatch gradients, base-rate proposal deltas — runs on these arrays.
    The per-event excitation is one BLAS GEMM over the store's E real event
    rows (``_real``): the ``(E, D·n_basis)`` feature matrix times ``a`` as a
    ``(D, D·n_basis)`` matrix gives each event's excitation toward every
    target type, and each event keeps its own type's column.  The padded
    slots of the ``(N, I_max)`` layout (most of them on a dataset of skewed
    sequence lengths) never enter it and read zero in every per-event block.
    The likelihood columns likewise form rates and logs on the real slots
    only, but sum each sequence's logs at the padded width, so that each sum
    groups its additions as the padded layout's row sum does.  ``rows(idx)``
    cuts the sequences ``idx``'s slots from a per-event block: the minibatch
    gradient ``grad_a`` and ``event_term`` read their rows in place this way.
    The other calls score the store they are called on, and ``take(idx)`` is
    the store of a subset.
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
        imax = int(self.n_events.max(initial=0))
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
            by_lag.append((i, i - lag))
        self.excite = np.zeros((n, imax, D, nb))
        flat = self.excite.reshape(-1, nb)
        for dst, src in reversed(by_lag):  # a lag gives an event one source: distinct rows
            flat[slot[dst] * D + types[src]] += basis_values(basis, times[dst] - times[src])
        self.comp = np.zeros((n, D, nb))
        np.add.at(self.comp.reshape(-1, nb), seq * D + types,
                  basis_integrals(basis, self.horizons[seq] - times))

    def take(self, idx) -> "FeatureSet":
        """The store of the sequences ``idx`` alone, its event slots cut to the
        longest of them: array for array, ``FeatureSet(data.subset(idx), basis)``."""
        rows = self.rows(idx)
        sub = FeatureSet.__new__(FeatureSet)
        sub.n_types = self.n_types
        sub.n_events, sub.horizons, sub.comp = self.n_events[idx], self.horizons[idx], self.comp[idx]
        sub.types, sub.mask = self.types[rows], self.mask[rows]
        sub.onehot, sub.excite = self.onehot[rows], self.excite[rows]
        return sub

    # -- per-event rates ------------------------------------------------------

    def rows(self, idx):
        """Index of the event slots of sequences ``idx``, cut to the longest of
        them: it cuts a per-event block of this store, such as its excitation,
        to the (B, width) block of ``take(idx)``."""
        return np.s_[idx, : self.n_events[idx].max(initial=0)]

    @cached_property
    def _real(self):
        """The store's real event slots, built on its first score: their flat
        padded index, a contiguous ``(E, D·n_basis)`` copy of their ``excite``
        rows, the flat index of each event's own-type column in an ``(E, D)``
        product, and their types."""
        slots = np.flatnonzero(self.mask.ravel())
        D = self.n_types
        excite = self.excite.reshape(-1, D * self.excite.shape[-1])[slots]
        types = self.types.ravel()[slots]
        return slots, excite, np.arange(slots.size) * D + types, types

    def excitation(self, a: np.ndarray) -> np.ndarray:
        """Event-wise excitation sum_{d',j} a[d_i, d', j] * excite; shape
        (N, I_max), the block the ``x`` of the other calls takes.  The GEMM
        runs over the E real event rows; padded slots read zero.  BLAS may
        round a row differently when the product has other rows, so for some
        shapes (D, n_basis) a row's last bits differ from those of a GEMM
        over all N·I_max slots."""
        slots, excite, own, _ = self._real
        a2 = a.reshape(self.n_types, -1)
        # a contiguous right operand: BLAS reads it faster than the transposed
        # view, with the same bits
        toward = excite @ np.ascontiguousarray(a2.T)
        x = np.zeros(self.mask.shape)
        x.reshape(-1)[slots] = toward.reshape(-1).take(own)
        return x

    # -- likelihood columns -------------------------------------------------

    def loglik_all(self, mu: np.ndarray, a: np.ndarray, x=None, log_rates=False):
        """Per-sequence log likelihood under (mu, a); shape (N,).  With
        ``log_rates``, also the ``(N, I_max)`` block of event log-rates it is
        summed from, padded slots zero and nonpositive rates ``-inf``: the
        block whose ``rows(idx)`` sum is ``event_term(mu, x[rows(idx)], idx)``.

        ``x`` is ``excitation(a)`` when the caller already has it.  Rates and
        logs are formed on the real event slots only; the logs are then laid
        into zeroed ``(N, I_max)`` rows and each row is summed at that padded
        width, because numpy's pairwise sum groups its additions by the row
        length: a sum over the real slots alone would change the last bits."""
        slots, _, _, types = self._real
        x = self.excitation(a) if x is None else x
        lam = mu.take(types) + x.reshape(-1).take(slots)
        ok = lam > 0
        lam[~ok] = 1.0  # a zero log; the sequence is marked -inf below
        logs = np.zeros(self.mask.size)
        logs[slots] = np.log(lam, out=lam)
        ev = logs.reshape(self.mask.shape).sum(axis=1)
        col = a.sum(axis=0).ravel()  # (D·n_basis,): a source slot's weight on all targets
        out = ev - self.horizons * mu.sum() - self.comp.reshape(-1, col.size) @ col
        out[slots[~ok] // self.mask.shape[1]] = logs[slots[~ok]] = -np.inf
        return (out, logs.reshape(self.mask.shape)) if log_rates else out

    # -- base-rate move helpers ---------------------------------------------

    def event_term(self, mu: np.ndarray, x: np.ndarray, idx) -> float:
        """Sum over the sequences ``idx`` of event log-intensities for a given
        base-rate vector, reusing their excitation block ``x``."""
        rows = self.rows(idx)
        lam = mu[self.types[rows]] + x
        mask = self.mask[rows]
        if np.any((lam <= 0) & mask):
            return -math.inf
        return float(np.log(lam, out=np.zeros_like(lam), where=mask).sum())

    # -- gradients ----------------------------------------------------------

    def _grad(self, mu: np.ndarray, a: np.ndarray, idx, x):
        """``(W, a-gradient)`` over the sequences ``idx``, read in place from
        their ``rows(idx)`` with their excitation block ``x``, or None when
        some event rate is nonpositive.  ``W`` has ``onehot / lambda``'s values
        (``1/lambda`` at each slot's own type), so the ``mu`` part is its
        column sums and the ``a`` part the GEMM ``Wᵀ @ excite``."""
        rows, D = self.rows(idx), self.n_types
        types, mask = self.types[rows], self.mask[rows]
        lam = mu[types] + x
        if np.any((lam <= 0) & mask):
            return None
        inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=mask)
        W = np.zeros((inv.size, D))
        W.reshape(-1)[np.arange(0, W.size, D) + types.ravel()] = inv.ravel()
        ga = (W.T @ self.excite[rows].reshape(-1, a[0].size)).reshape(a.shape)
        ga -= self.comp[idx].sum(axis=0)[None, :, :]
        return W, ga

    def loglik_grad(self, mu: np.ndarray, a: np.ndarray, x=None):
        """Summed gradient of the log likelihood over every sequence; shapes
        (D,), (D, D, n_basis), or None when some event rate is nonpositive
        (invalid point).  ``x`` is ``excitation(a)`` when the caller already
        has it."""
        grad = self._grad(mu, a, slice(None), self.excitation(a) if x is None else x)
        return None if grad is None else (grad[0].sum(axis=0) - self.horizons.sum(), grad[1])

    def grad_a(self, mu: np.ndarray, a: np.ndarray, idx, x=None) -> np.ndarray | None:
        """Summed gradient of the log likelihood in ``a`` over sequences ``idx``,
        read in place from their rows, with the bits of
        ``take(idx).loglik_grad(mu, a, x)[1]``; ``x`` is their excitation block
        when the caller already has it, else that of ``take(idx)``.  Returns
        None when some event rate is nonpositive (invalid point).
        """
        grad = self._grad(mu, a, idx, self.take(idx).excitation(a) if x is None else x)
        return None if grad is None else grad[1]


# ---------------------------------------------------------------------------
# simulation-only intensity models
#
# Each model exposes ``intensity(ts, times, types)``, the per-type rates of a
# batch of B sequences as a (B, D) float64 array: row b at the candidate time
# ``ts[b]`` given that sequence's own ascending history ``times[b]``,
# ``types[b]``.  Row b depends on nothing else, so a sequence draws the same
# events alone as in any batch.  Each model also exposes a dominating constant
# valid on a lookahead window given one frozen history, the window length,
# and its memory: the longest lag at which a past event still moves the rates.
# The thinning loop hands ``intensity`` only the strict past within the memory
# (``t - x <= memory``) and ``upper_bound`` only the events with
# ``x > t - memory``; the bound may read ``t`` only through those events, so
# the loop reuses it while they and ``until`` stay the same.


class HomogeneousPoisson:
    """Constant per-type rates."""

    def __init__(self, rates):
        self.rates = np.atleast_1d(np.asarray(rates, dtype=np.float64))
        if np.any(self.rates < 0):
            raise NumericalError("Poisson rates must be nonnegative")
        self.n_types = self.rates.size

    def intensity(self, ts, times, types) -> np.ndarray:
        return self.rates.reshape(1, -1).repeat(len(ts), axis=0)

    def upper_bound(self, t, times, types, until) -> float:
        return float(self.rates.sum())

    def lookahead(self) -> float:
        return math.inf

    def memory(self) -> float:
        return 0.0

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

    def intensity(self, ts, times, types) -> np.ndarray:
        phase = np.array([[math.sin(2.0 * math.pi * t / self.period)] for t in ts])
        return self.base + self.amp * phase

    def upper_bound(self, t, times, types, until) -> float:
        return float((self.base + self.amp).sum())

    def lookahead(self) -> float:
        return math.inf

    def memory(self) -> float:
        return 0.0

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

    def intensity(self, ts, times, types) -> np.ndarray:
        # N(t-) counts the strict past
        each = [[self._total(t, int(x.searchsorted(t, side="left"))) / self.n_types]
                for t, x in zip(ts, times)]
        return np.repeat(np.array(each), self.n_types, axis=1)

    def upper_bound(self, t, times, types, until) -> float:
        # events only lower the rate, so the window end with the current count dominates
        n_seen = len(times)
        return self._total(until, n_seen)

    def lookahead(self) -> float:
        return 1.0 / self.eta

    def memory(self) -> float:
        return math.inf  # N(t-) counts every earlier event

    def describe(self) -> dict:
        return {
            "model": "self_correcting",
            "eta": self.eta,
            "gamma": self.gamma,
            "n_types": self.n_types,
        }


class HawkesModel:
    """Adapter exposing :class:`HawkesParams` through the simulation interface.

    ``intensity`` scores a whole batch in one pass over the events that
    excite each candidate: the strict past with lags in ``(0, tau_max]``,
    which :func:`_window` reads.  The thinning loop hands it exactly those
    windows; a longer history is cut to them by its lags.  One
    ``np.bincount`` then adds every event's terms ``a[d, d_i, j] * g_j`` into
    its candidate's row in time order, starting from zero, so a row's bits
    do not depend on the batch.  For two or more types and one bump this is
    also the order of :func:`hawkes_intensity`'s einsum, so the rates keep
    its bits.
    """

    def __init__(self, params: HawkesParams):
        self.params = params
        self.n_types = params.n_types
        # peak bump value; every centre sits inside the support
        self._gmax = _INV_SQRT_2PI / params.basis.sigma
        self._colsum = params.a.sum(axis=(0, 2))  # (D,) total outgoing weight per source type
        self._mu_total = float(params.mu.sum())
        self._tau_max = params.basis.tau_max
        # one event of type d_i adds a[:, d_i, :] to the rates: its terms,
        # bump-major, and the target type each lands on
        self._terms = np.ascontiguousarray(params.a.transpose(1, 2, 0))
        self._target = np.tile(np.arange(self.n_types), params.basis.n_basis)
        # the bins of every term of a batch's rows: row offset plus target type
        self._row_bins = np.empty((0, self._target.size), dtype=np.int64)

    def intensity(self, ts, times, types) -> np.ndarray:
        basis, n_types, tau_max = self.params.basis, self.n_types, self._tau_max
        # cut each history to its window; the thinning loop hands over the
        # windows themselves, so this reads only their ends
        cut = [b for b, (t, x) in enumerate(zip(ts, times))
               if x.size and not (x[-1] < t and t - x[0] <= tau_max)]
        if cut:
            times, types = list(times), list(types)
            for b in cut:
                lo, hi = _span(tau_max, times[b], ts[b])
                times[b], types[b] = times[b][lo:hi], types[b][lo:hi]
        counts = np.fromiter(map(len, times), np.intp, len(times))
        lag = np.array(ts).repeat(counts)
        lag -= np.concatenate(times)
        terms = self._terms.take(np.concatenate(types), axis=0).reshape(-1, n_types)
        terms *= _bumps(basis, lag[:, None]).reshape(-1, 1)
        if len(ts) > len(self._row_bins):
            self._row_bins = np.arange(0, 2 * len(ts) * n_types, n_types)[:, None] + self._target
        # each term lands in its candidate's row at its target type
        lam = np.bincount(self._row_bins[:len(ts)].repeat(counts, axis=0).ravel(), terms.ravel(),
                          len(ts) * n_types)
        return self.params.mu + lam.reshape(-1, n_types)

    def upper_bound(self, t, times, types, until) -> float:
        # the events with x > t - tau_max; the thinning loop hands over only these
        edge = t - self._tau_max
        if len(times) and times[0] <= edge:
            types = types[times.searchsorted(edge, side="right"):]
        # mu_total + gmax * colsum[types].sum() with the same bits, in Python
        # floats and without ndarray.sum's Python wrapper around np.add.reduce
        return self._mu_total + self._gmax * float(np.add.reduce(self._colsum[types]))

    def lookahead(self) -> float:
        return math.inf

    def memory(self) -> float:
        return float(self._tau_max)

    def describe(self) -> dict:
        return {"model": "hawkes", **self.params.to_dict()}
