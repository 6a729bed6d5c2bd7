"""Core data model: event sequences, component parameters, sampler state.

Conventions used throughout the package:

* event types are 0-based integers internally; the JSON-lines interchange
  format uses 1-based ``d`` (converted on read/write),
* every sequence lives on its own bounded horizon ``(0, T]``,
* a mixture component splits into the per-type base rates ``mu`` (the
  quantity the repulsive prior acts on) and the nonnegative triggering
  coefficients ``w``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "ConfigError",
    "NumericalError",
    "DegenerateModelError",
    "EventSequence",
    "Dataset",
    "BasisConfig",
    "HawkesParams",
    "SgldSchedule",
    "DppConfig",
    "PriorBundle",
    "Component",
    "MixtureState",
    "validate_dataset",
    "read_jsonl",
    "write_jsonl",
]


class ConfigError(ValueError):
    """Invalid user-facing configuration or malformed input data."""


class NumericalError(RuntimeError):
    """Numerical failure (runaway intensity, singular kernel matrix, ...)."""


class DegenerateModelError(NumericalError):
    """Every component assigns probability zero to some observation."""


# ---------------------------------------------------------------------------
# observations


@dataclass(frozen=True)
class EventSequence:
    """A single event sequence observed on ``(0, horizon]``.

    times : (I,) float64, finite, strictly increasing, 0 < t <= horizon
    types : (I,) int64, 0-based event-type marks, >= 0
    horizon : positive and finite; a broken rule raises ConfigError("<id>: <rule>")
    """

    times: np.ndarray
    types: np.ndarray
    horizon: float
    id: str = ""
    label: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=np.float64))
        object.__setattr__(self, "types", np.asarray(self.types, dtype=np.int64))
        object.__setattr__(self, "horizon", float(self.horizon))
        sid = self.id or "<unnamed>"
        if not (0 < self.horizon < math.inf):
            raise ConfigError(f"{sid}: horizon must be positive and finite, got {self.horizon}")
        if self.times.shape != self.types.shape:
            raise ConfigError(f"{sid}: times/types length mismatch")
        t = self.times
        if t.size:
            if not np.isfinite(t).all():
                raise ConfigError(f"{sid}: non-finite event timestamp")
            if (t[1:] <= t[:-1]).any():
                raise ConfigError(f"{sid}: timestamps not strictly increasing")
            if t[0] <= 0 or t[-1] > self.horizon:
                raise ConfigError(f"{sid}: event times outside (0, {self.horizon}]")
            if self.types.min() < 0:
                raise ConfigError(f"{sid}: negative event type")

    @property
    def n_events(self) -> int:
        return int(self.times.size)


@dataclass
class Dataset:
    """Sequences sharing an alphabet of ``n_types >= 1`` marks (checked when built)."""

    sequences: list[EventSequence]
    n_types: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_types < 1:
            raise ConfigError(f"n_types must be >= 1, got {self.n_types}")
        for seq in self.sequences:
            if seq.n_events and seq.types.max() >= self.n_types:
                raise ConfigError(f"{seq.id or '<unnamed>'}: event type {seq.types.max() + 1} "
                                  f"exceeds declared type count {self.n_types}")

    def __len__(self) -> int:
        return len(self.sequences)

    @property
    def n_events(self) -> int:
        return sum(s.n_events for s in self.sequences)

    @property
    def total_time(self) -> float:
        return float(sum(s.horizon for s in self.sequences))

    def mean_rate_per_type(self) -> float:
        """Average events per unit time per type, pooled over the dataset."""
        tt = self.total_time
        if tt <= 0:
            raise ConfigError("dataset has no observation time")
        return self.n_events / (tt * self.n_types)

    def mean_gap(self) -> float:
        """Pooled mean inter-event time (total time / total events)."""
        n = self.n_events
        if n == 0:
            raise ConfigError("dataset has no events")
        return self.total_time / n

    def labels(self) -> np.ndarray | None:
        labs = [s.label for s in self.sequences]
        if any(l is None for l in labs):
            return None
        return np.asarray(labs, dtype=np.int64)

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx, dtype=np.int64)
        return Dataset([self.sequences[i] for i in idx], self.n_types, dict(self.metadata))


def validate_dataset(data: Dataset) -> list[str]:
    """What a fit needs beyond the contract the types enforce: a sequence and
    an event.  Returns an empty list when the dataset can be fitted."""
    if not data.sequences:
        return ["dataset contains no sequences"]
    if data.n_events == 0:
        return ["dataset contains no events"]
    return []


# ---------------------------------------------------------------------------
# component parameters


@dataclass(frozen=True)
class BasisConfig:
    """Shared triggering-kernel basis: truncated Gaussian bumps on [0, tau_max].

    centers : (n_basis,) bump locations, inside [0, tau_max]
    sigma   : common bump width
    tau_max : hard truncation lag; contributions beyond it are exactly zero
    """

    centers: np.ndarray
    sigma: float
    tau_max: float

    def __post_init__(self):
        object.__setattr__(
            self, "centers", np.atleast_1d(np.asarray(self.centers, dtype=np.float64))
        )
        if not 0 < self.sigma < math.inf:
            raise ConfigError(f"basis sigma must be positive and finite, got {self.sigma}")
        if not 0 < self.tau_max < math.inf:
            raise ConfigError(f"basis tau_max must be positive and finite, got {self.tau_max}")
        # a bump squares (lag - center) / sigma, which reaches tau_max / sigma
        if self.tau_max / self.sigma > math.sqrt(np.finfo(np.float64).max):
            raise ConfigError(f"basis sigma {self.sigma:g} is too small for tau_max "
                              f"{self.tau_max:g}: tau_max / sigma must not exceed 1.34e+154, "
                              "the square root of the largest float")
        if self.centers.size == 0:
            raise ConfigError("basis needs at least one center")
        if not np.all((self.centers >= 0) & (self.centers <= self.tau_max)):
            raise ConfigError("basis centers must lie inside [0, tau_max]")

    @property
    def n_basis(self) -> int:
        return int(self.centers.size)

    @staticmethod
    def for_data(data: Dataset, n_basis: int, tau_max: float | None = None,
                 sigma: float | None = None) -> "BasisConfig":
        """Data-driven default: tau_max = 3x the pooled mean inter-event gap,
        centers equally spaced on [0, tau_max], sigma = center spacing."""
        if n_basis < 1:
            raise ConfigError("n_basis must be >= 1")
        if tau_max is None:
            tau_max = 3.0 * data.mean_gap()
        if n_basis == 1:
            centers = np.array([0.0])
            default_sigma = tau_max
        else:
            centers = np.linspace(0.0, tau_max, n_basis)
            default_sigma = centers[1] - centers[0]
        if sigma is None and not default_sigma > 0:  # the spacing underflowed
            raise ConfigError(f"basis tau_max {tau_max:g} is too small for {n_basis} bumps: "
                              f"their spacing, the default sigma, is {default_sigma:g}; "
                              "raise tau_max or set sigma")
        return BasisConfig(centers, sigma if sigma is not None else default_sigma, tau_max)

    def to_dict(self) -> dict:
        return {"centers": self.centers.tolist(), "sigma": self.sigma, "tau_max": self.tau_max}

    @staticmethod
    def from_dict(d: dict) -> "BasisConfig":
        """The basis :meth:`to_dict` wrote; ValueError when a field is not JSON numbers."""
        return BasisConfig(_numbers(d["centers"], "centers must be numbers"),
                           float(_typed([d["sigma"]], _NUMBER, "sigma must be a number")[0]),
                           float(_typed([d["tau_max"]], _NUMBER, "tau_max must be a number")[0]))


@dataclass
class HawkesParams:
    """Self/cross-exciting intensity parameters for one component.

    mu : (D,) per-type base rates, > 0
    a  : (D, D, n_basis) triggering coefficients, >= 0;
         a[d, d', j] scales the influence of past type-d' events on type d
    """

    mu: np.ndarray
    a: np.ndarray
    basis: BasisConfig

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)
        D = self.mu.size
        if self.a.shape != (D, D, self.basis.n_basis):
            raise ConfigError(
                f"a must have shape {(D, D, self.basis.n_basis)}, got {self.a.shape}"
            )

    @property
    def n_types(self) -> int:
        return int(self.mu.size)

    def to_dict(self) -> dict:
        return {"mu": self.mu.tolist(), "a": self.a.tolist(), "basis": self.basis.to_dict()}


# ---------------------------------------------------------------------------
# priors


@dataclass(frozen=True)
class SgldSchedule:
    """Step-size schedule eps_j = eps0 * (offset + j)^(-decay) for the
    stochastic-gradient Langevin updates of triggering coefficients."""

    eps0: float = 1e-4
    decay: float = 0.51
    offset: float = 100.0
    minibatch: int = 16

    def __post_init__(self):
        if self.eps0 <= 0:
            raise ConfigError("sgld eps0 must be positive")
        if not (0.5 < self.decay <= 1.0):
            raise ConfigError(f"sgld decay must lie in (0.5, 1], got {self.decay}")
        if self.offset < 0:
            raise ConfigError("sgld offset must be nonnegative")
        if self.minibatch < 1:
            raise ConfigError("sgld minibatch must be >= 1")

    def step_size(self, j: int) -> float:
        return self.eps0 * (self.offset + j) ** (-self.decay)


@dataclass(frozen=True)
class DppConfig:
    """Spectral repulsive-prior configuration.

    The prior lives on a per-type base-rate box.  Unless explicit bounds are
    given, the box is derived from the data as
    ``[mean_rate / lo_factor, mean_rate * hi_factor]`` in every coordinate,
    where ``mean_rate`` is the pooled per-type event rate.
    """

    rho: float | None = None      # expected point count on the unit cube; None -> #initial clusters
    alpha: float = 0.1            # repulsion length scale in unit-cube coordinates
    lattice_radius: int = 2       # frequencies -L..L per dimension
    box_lo: tuple[float, ...] | None = None   # explicit per-coordinate bounds (override)
    box_hi: tuple[float, ...] | None = None
    lo_factor: float = 4.0
    hi_factor: float = 2.0

    def __post_init__(self):
        if self.rho is not None and self.rho <= 0:
            raise ConfigError("dpp rho must be positive")
        if self.alpha <= 0:
            raise ConfigError("dpp alpha must be positive")
        # at L = 0 the one frequency gives a rank-one Gram matrix: any two
        # base-rate vectors have density zero
        if self.lattice_radius < 1:
            raise ConfigError("dpp lattice_radius must be >= 1")
        if self.lo_factor <= 1 or self.hi_factor < 1:
            raise ConfigError("dpp box factors must satisfy lo_factor > 1, hi_factor >= 1")
        if (self.box_lo is None) != (self.box_hi is None):
            raise ConfigError("dpp box_lo and box_hi must be given together")
        if self.box_lo is not None:
            if len(self.box_lo) != len(self.box_hi):
                raise ConfigError("dpp box_lo and box_hi must have equal lengths, "
                                  f"got {len(self.box_lo)} and {len(self.box_hi)}")
            if not all(0 < lo < hi for lo, hi in zip(self.box_lo, self.box_hi)):
                raise ConfigError("dpp box must satisfy 0 < box_lo < box_hi per coordinate")


# the largest triggering coefficient, coefficient move per unit gradient, and
# prior term beta_w * w of one coefficient that a fit may reach: float max / 2^20
_W_PRIOR_TERM_MAX = float(np.finfo(np.float64).max) / 2**20


@dataclass(frozen=True)
class PriorBundle:
    """All prior hyper-parameters shared across modules.

    beta_w : rate of the iid exponential prior on triggering coefficients
    dpp    : repulsive prior over component base-rate vectors
    sgld   : Langevin step-size schedule for the triggering updates
    """

    beta_w: float = 10.0
    dpp: DppConfig = field(default_factory=DppConfig)
    sgld: SgldSchedule = field(default_factory=SgldSchedule)

    def __post_init__(self):
        if self.beta_w <= 0:
            raise ConfigError("beta_w must be positive")
        # A spare component's coefficients are Exp(beta_w) draws of mean
        # 1 / beta_w.  A Langevin step of size eps <= eps0 moves a coefficient
        # by 0.5 * eps times its drift, the likelihood gradient minus beta_w;
        # the reflection at zero turns one near zero into one near
        # 0.5 * eps * beta_w, whose prior term beta_w * w is up to
        # 0.5 * eps0 * beta_w^2.  Each of the three may not exceed
        # _W_PRIOR_TERM_MAX, which leaves room for 2^20 of them.
        w = 0.5 * self.sgld.eps0 * self.beta_w
        for what, val, fix in (
                ("a spare weight's mean 1 / beta_w", 1.0 / self.beta_w, "raise prior.beta_w"),
                ("a Langevin step's move per unit gradient 0.5 * eps0", 0.5 * self.sgld.eps0,
                 "lower prior.sgld.eps0"),
                ("the prior term beta_w * 0.5 * eps0 * beta_w of a Langevin step's weight",
                 self.beta_w * w, "lower prior.beta_w or prior.sgld.eps0")):
            if not val <= _W_PRIOR_TERM_MAX:
                raise ConfigError(
                    f"prior.beta_w {self.beta_w:g} with prior.sgld.eps0 {self.sgld.eps0:g} "
                    f"overflows the triggering weights: {what} is {val:.3g}, above "
                    f"{_W_PRIOR_TERM_MAX:.3g}; {fix}")

    def w_log_prior(self, w: np.ndarray) -> float:
        """Log density of the iid Exp(beta_w) prior over one coefficient tensor."""
        if np.logical_or.reduce(w < 0, axis=None):
            return -math.inf
        return w.size * math.log(self.beta_w) - self.beta_w * float(np.add.reduce(w, axis=None))

    def w_sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        return rng.exponential(1.0 / self.beta_w, size=shape)


# ---------------------------------------------------------------------------
# mixture state


@dataclass
class Component:
    """One mixture component: base rates, triggering coefficients, weight seed.

    mu : (D,) base rates; w : (D, D, n_basis) coefficients; r : gamma weight
    seed (mixture weight = r / sum of all r).  Three caches hold work done
    under the current parameters: ``excitation``, the whole feature store's
    per-event excitation under w, shape (N, I_max); ``loglik_col``, the
    per-sequence log likelihood under (mu, w); and ``log_rates``, the
    (N, I_max) event log-rates that column was summed from.  ``move`` is the
    one way to change mu or w, and drops the caches the change makes stale.
    A copy carries none of them.
    """

    mu: np.ndarray
    w: np.ndarray
    r: float
    loglik_col: np.ndarray | None = None
    excitation: np.ndarray | None = None
    log_rates: np.ndarray | None = None

    def move(self, mu: np.ndarray | None = None, w: np.ndarray | None = None) -> None:
        """Set new base rates and/or coefficients; drops every cache of (mu,
        w), and the excitation too when w is given."""
        if w is not None:
            self.w, self.excitation = w, None
        if mu is not None:
            self.mu = mu
        self.loglik_col = self.log_rates = None

    def params(self, basis: BasisConfig) -> HawkesParams:
        return HawkesParams(self.mu, self.w, basis)

    def copy(self) -> "Component":
        return Component(self.mu.copy(), self.w.copy(), self.r)


@dataclass
class MixtureState:
    """Working state of the posterior sampler.

    allocated     : components with at least one assigned sequence
    non_allocated : empty components kept for dimension moves
    c             : (N,) assignment of each sequence to an allocated component
    u             : auxiliary positive scalar tied to the weight normalisation
    basis         : shared triggering basis (fixed during sampling)
    """

    allocated: list[Component]
    non_allocated: list[Component]
    c: np.ndarray
    u: float
    basis: BasisConfig

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.int64)

    @property
    def k(self) -> int:
        return len(self.allocated)

    @property
    def l(self) -> int:
        return len(self.non_allocated)

    def counts(self) -> np.ndarray:
        return np.bincount(self.c, minlength=self.k)

    def t_total(self) -> float:
        return float(sum([comp.r for comp in self.allocated])
                     + sum([comp.r for comp in self.non_allocated]))

    def all_mu(self) -> np.ndarray:
        """Stack of every component's base-rate vector, allocated first; (M, D)."""
        comps = self.allocated + self.non_allocated
        if not comps:
            return np.zeros((0, 0))
        return np.array([comp.mu for comp in comps])

    def copy(self) -> "MixtureState":
        return MixtureState(
            [comp.copy() for comp in self.allocated],
            [comp.copy() for comp in self.non_allocated],
            self.c.copy(),
            self.u,
            self.basis,
        )

    def violations(self, n_sequences: int | None = None) -> list[str]:
        out = []
        if self.k < 1:
            out.append("state must keep at least one allocated component")
        if n_sequences is not None and self.c.size != n_sequences:
            out.append(f"c has length {self.c.size}, expected {n_sequences}")
        if self.c.size and self.k and (self.c.min() < 0 or self.c.max() >= self.k):
            out.append("assignments reference missing components")
        cnt = self.counts()
        if self.k and (cnt == 0).any():
            out.append("allocated component without assigned sequences")
        for comp in self.allocated + self.non_allocated:
            if comp.r <= 0 or not np.isfinite(comp.r):
                out.append("component weight seed r must be positive and finite")
            if not ((comp.mu > 0) & (comp.mu < math.inf)).all():
                out.append("component base rates must be positive and finite")
            if not ((comp.w >= 0) & (comp.w < math.inf)).all():
                out.append("triggering coefficients must be nonnegative and finite")
        if not (self.u > 0 and np.isfinite(self.u)):
            out.append("auxiliary u must be positive and finite")
        return out

    def to_dict(self) -> dict:
        def comps(cs):
            return [{"mu": c.mu.tolist(), "w": c.w.tolist(), "r": c.r} for c in cs]

        return {"labels": self.c.tolist(), "u": self.u, "basis": self.basis.to_dict(),
                "components": comps(self.allocated),
                "spare_components": comps(self.non_allocated)}

    @staticmethod
    def from_dict(d: dict, n_types: int, n_sequences: int) -> "MixtureState":
        """The state :meth:`to_dict` wrote.  KeyError, TypeError or ValueError
        when ``d`` is not a valid state of ``n_types`` event types over
        ``n_sequences`` sequences, OverflowError for a number beyond float64
        or int64."""
        basis = BasisConfig.from_dict(d["basis"])

        def component(c: dict) -> Component:
            comp = Component(_numbers(c["mu"], "mu must be numbers"),
                             _numbers(c["w"], "w must be numbers"),
                             float(_typed([c["r"]], _NUMBER, "r must be a number")[0]))
            if comp.mu.shape != (n_types,):
                raise ValueError(f"component mu has shape {comp.mu.shape}, "
                                 f"the dataset has {n_types} event types")
            comp.params(basis)  # checks the shape of w
            return comp

        state = MixtureState(
            [component(c) for c in d["components"]],
            [component(c) for c in d["spare_components"]],
            np.asarray(_typed(d["labels"], (int,), "labels must be integers"), dtype=np.int64),
            float(_typed([d["u"]], _NUMBER, "u must be a number")[0]), basis)
        bad = state.violations(n_sequences)
        if bad:
            raise ValueError("; ".join(bad))
        return state


# ---------------------------------------------------------------------------
# JSON-lines interchange

_JSON_KW = dict(ensure_ascii=False, separators=(",", ":"))


def write_jsonl(data: Dataset, path) -> None:
    """Write a dataset in the one-sequence-per-line JSON format.

    Each line carries ``{"id", "T", "label"?, "events": [{"t", "d"}, ...]}``
    with 1-based event types.  Reading the file back and writing it again
    reproduces the bytes exactly.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for seq in data.sequences:
            rec: dict = {"id": seq.id, "T": seq.horizon}
            if seq.label is not None:
                rec["label"] = int(seq.label)
            rec["events"] = [
                {"t": float(t), "d": int(d) + 1}
                for t, d in zip(seq.times, seq.types)
            ]
            fh.write(json.dumps(rec, **_JSON_KW) + "\n")


_NUMBER = (int, float)  # the JSON number types; a JSON true is a bool, not an int
_INT64 = np.iinfo(np.int64)


def _typed(vals: list, kinds: tuple, what: str) -> list:
    """``vals``, when every one has a type in ``kinds``; else ValueError."""
    for val in vals:
        if type(val) not in kinds:
            raise ValueError(f"{what}, got {val!r}")
    return vals


def _numbers(val, what: str) -> np.ndarray:
    """A JSON number or (nested) list of them as a float64 array; ValueError
    for any other entry, OverflowError for a number beyond float64."""
    _typed(np.asarray(val, dtype=object).ravel().tolist(), _NUMBER, what)
    return np.asarray(val, dtype=np.float64)


def read_jsonl(path, n_types: int | None = None) -> Dataset:
    """Read a JSON-lines dataset.

    ``T`` and every ``t`` must be JSON numbers, every ``d`` a JSON integer,
    and ids unique JSON strings (``line-<n>`` when absent); a record that
    breaks the :class:`EventSequence` contract is ``file:line: bad record``.
    When ``n_types`` is omitted the alphabet size is inferred as the largest
    observed mark (a sidecar metadata file, when present, is the more robust
    source and is handled by the CLI layer).  An unreadable file raises
    ConfigError too.
    """
    path = Path(path)
    sequences = []
    first_line: dict[str, int] = {}
    max_d = 0
    try:
        fh = path.open("rb")  # each line is decoded on its own, so a bad byte names its line
    except OSError as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc.strerror}") from None
    with fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line.decode("utf-8"))
            except ValueError as exc:  # not UTF-8, or not JSON
                raise ConfigError(f"{path}:{ln}: malformed JSON ({exc})") from None
            try:
                label = rec.get("label")
                if label is not None and (type(label) is not int
                                          or not _INT64.min <= label <= _INT64.max):
                    raise ValueError(f"label must be an integer (int64) or null, got {label!r}")
                events = rec.get("events", [])
                times = _typed([ev["t"] for ev in events], _NUMBER, "t must be a number")
                marks = _typed([ev["d"] for ev in events], (int,), "d must be an integer")
                seq = EventSequence(
                    np.array(times, dtype=np.float64),
                    np.array(marks, dtype=np.int64) - 1,
                    _typed([rec["T"]], _NUMBER, "T must be a number")[0],
                    id=_typed([rec.get("id", f"line-{ln}")], (str,), "id must be a string")[0],
                    label=label,
                )
            except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
                raise ConfigError(f"{path}:{ln}: bad record ({exc})") from None
            if seq.id in first_line:
                raise ConfigError(f"{path}:{ln}: duplicate sequence id {seq.id!r} "
                                  f"(first on line {first_line[seq.id]})")
            first_line[seq.id] = ln
            if seq.n_events:
                max_d = max(max_d, int(seq.types.max()) + 1)
            sequences.append(seq)
    try:
        return Dataset(sequences, n_types if n_types is not None else max(max_d, 1))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
