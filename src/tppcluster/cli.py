"""Command-line interface.

Subcommands::

    simulate   generate a labelled synthetic dataset (JSON-lines + metadata)
    fit        run the posterior sampler on a dataset
    eval       score a finished fit (purity / ARI / held-out log likelihood)
    sweep      separation-grid driver: simulate + fit + eval per (delta, trial)

Every run resolves its configuration (file + flag overrides + defaults) and
writes the result as a canonical JSON snapshot next to its outputs;
re-running from that snapshot reproduces the scientific outputs byte for
byte (wall-clock timings excepted).  Exit codes: 0 success, 1 configuration
or input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import core
from .backbone import FeatureSet
from .core import (
    BasisConfig,
    ConfigError,
    Dataset,
    MixtureState,
    NumericalError,
    PriorBundle,
    read_jsonl,
    write_jsonl,
)
from .dpp import model_for_data
from .metrics import EvalResult, ari, ell, purity
from .pretrain import PretrainConfig, pretrain_mixture
from .sampler import RunReport, SamplerConfig, run_sampler
from .simulate import (
    build_hawkes_delta_dataset,
    build_hybrid_dataset,
    check_delta,
    write_metadata,
)

__all__ = ["main", "FitConfig", "run_fit", "FitResult"]

OUTPUT_ROOT_ENV = "TPPCLUSTER_OUT"


def _resolve_out(out: str | Path) -> Path:
    """The ``--out`` directory, checked before any work but not created: the
    path, or the nearest of its ancestors that exists, must be a directory."""
    out = Path(out)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not out.is_absolute():
        out = Path(root) / out
    there = next(p for p in (out, *out.parents) if p.exists())
    if not there.is_dir():
        raise ConfigError(f"--out {out}: {there} exists and is not a directory")
    return out


def _write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _merge(base: dict, override: dict, context="config") -> dict:
    if not isinstance(override, dict):
        raise ConfigError(f"{context} must be an object, got {override!r}")
    out = dict(base)
    for key, val in override.items():
        if key not in base:
            raise ConfigError(f"unknown {context} key: {key!r}")
        if isinstance(base[key], dict):
            out[key] = _merge(base[key], val, f"{context}.{key}")
        else:
            out[key] = val
    return out


# ---------------------------------------------------------------------------
# fit configuration: the config file has the tree of FitConfig.  Each
# section's dataclass holds its keys, defaults, types and range checks.


@dataclass(frozen=True)
class DataConfig:
    path: str | None = None
    n_types: int | None = None     # None: sidecar metadata, else the largest mark

    def __post_init__(self):
        if self.n_types is not None and self.n_types < 1:
            raise ConfigError(f"n_types must be >= 1, got {self.n_types}")


@dataclass(frozen=True)
class BasisSpec:  # the arguments of BasisConfig.for_data
    n_basis: int = 3
    tau_max: float | None = None
    sigma: float | None = None

    def __post_init__(self):
        if self.n_basis < 1:
            raise ConfigError(f"n_basis must be >= 1, got {self.n_basis}")
        for key in ("tau_max", "sigma"):
            val = getattr(self, key)
            if val is not None and val <= 0:
                raise ConfigError(f"{key} must be positive when given, got {val}")


@dataclass(frozen=True)
class FitPretrainConfig(PretrainConfig):
    m_init: int | tuple[int, int] = 4   # initial cluster count, or a [lo, hi] range drawn per fit

    def __post_init__(self):
        lo, hi = self.m_init if isinstance(self.m_init, tuple) else (self.m_init, self.m_init)
        if not 1 <= lo <= hi:
            raise ConfigError("m_init must be an integer >= 1 or [lo, hi] with 1 <= lo <= hi, "
                              f"got {_to_json(self.m_init)}")
        super().__post_init__()


@dataclass(frozen=True)
class FitConfig:
    """The resolved fit configuration."""

    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    basis: BasisSpec = field(default_factory=BasisSpec)
    prior: PriorBundle = field(default_factory=PriorBundle)
    pretrain: FitPretrainConfig = field(default_factory=FitPretrainConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    eval_fraction: float = 0.2

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"config.seed must be >= 0, got {self.seed}")
        if not (0.0 <= self.eval_fraction < 1.0):
            raise ConfigError("config.eval_fraction must lie in [0, 1)")

    @property
    def raw(self) -> dict:
        """The config as a JSON-ready dict; resolving it gives this config back."""
        return {f.name: _to_json(getattr(self, f.name)) for f in fields(self)}

    @staticmethod
    def resolve(file_cfg: dict | None = None, overrides: dict | None = None) -> "FitConfig":
        merged = FitConfig().raw
        for layer in (file_cfg, overrides):
            if layer is not None:
                merged = _merge(merged, layer)
        hints = typing.get_type_hints(FitConfig)
        return FitConfig(**{f.name: _build(hints[f.name], merged[f.name], f"config.{f.name}")
                            for f in fields(FitConfig)})


# Fields of a section that run_fit sets itself (seeds derived from
# config.seed); they are not config keys.
_RUN_SET = ("seed",)


def _to_json(val):
    if not is_dataclass(val):
        return list(val) if isinstance(val, tuple) else val
    return {f.name: _to_json(getattr(val, f.name)) for f in fields(val) if f.name not in _RUN_SET}


def _build(tp, val, key: str):
    """``val`` as a value of the annotation ``tp``; a bad type or a failed
    range check raises a ConfigError naming the dotted ``key``."""
    if is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        kwargs = {f.name: _build(hints[f.name], val[f.name], f"{key}.{f.name}")
                  for f in fields(tp) if f.name not in _RUN_SET}
        try:
            return tp(**kwargs)
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    try:
        return _coerce(tp, val)
    except (ValueError, OverflowError):
        raise ConfigError(f"{key} must be {getattr(tp, '__name__', tp)}, got {val!r}") from None


def _coerce(tp, val):
    """``val`` as a value of the annotation ``tp``, else ValueError: an int takes JSON
    integers only, a float any finite number, a tuple a list of them, ``X | None`` null."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        for alt in args:
            with contextlib.suppress(ValueError):
                return _coerce(alt, val)
    elif origin is tuple:
        if isinstance(val, (list, tuple)):
            elems = args[:1] * len(val) if args[-1] is Ellipsis else args
            if len(val) == len(elems):
                return tuple(map(_coerce, elems, val))
    elif tp is float:
        if type(val) in (int, float) and math.isfinite(val):
            return float(val)
    elif type(val) is tp:
        return val
    raise ValueError(val)


def _draw_m_init(spec, rng: np.random.Generator) -> int:
    """The initial cluster count: ``spec`` itself, or a draw from its [lo, hi]
    range, which :class:`FitPretrainConfig` has checked."""
    if isinstance(spec, tuple):
        return int(rng.integers(int(spec[0]), int(spec[1]) + 1))
    return int(spec)


@dataclass
class FitResult:
    trace: object
    report: RunReport
    train_idx: np.ndarray
    eval_idx: np.ndarray
    m_init: int


def run_fit(data: Dataset, cfg: FitConfig) -> FitResult:
    """Full pipeline on an in-memory dataset: split, pretrain, sample."""
    problems = core.validate_dataset(data)
    if problems:
        raise ConfigError("invalid dataset: " + "; ".join(problems))
    seeds = np.random.SeedSequence(cfg.seed).generate_state(4)
    n = len(data.sequences)

    split_rng = np.random.default_rng(int(seeds[0]))
    perm = split_rng.permutation(n)
    n_eval = int(round(cfg.eval_fraction * n))
    eval_idx = np.sort(perm[:n_eval])
    train_idx = np.sort(perm[n_eval:])
    if train_idx.size == 0:
        raise ConfigError("training split is empty; lower eval_fraction")
    train = data.subset(train_idx)

    basis = BasisConfig.for_data(train, **asdict(cfg.basis))
    m_init = _draw_m_init(cfg.pretrain.m_init, np.random.default_rng(int(seeds[1])))
    # the prior refuses an alphabet too large for its lattice before the store is sized by it
    dpp_model = model_for_data(train, cfg.prior.dpp, default_rho=m_init)
    features = FeatureSet(train, basis)
    init = pretrain_mixture(train, m_init, replace(cfg.pretrain, seed=int(seeds[2])), cfg.prior,
                            basis, features=features, dpp_model=dpp_model)
    trace, report = run_sampler(train, init, cfg.prior, replace(cfg.sampler, seed=int(seeds[3])),
                                features=features, dpp_model=dpp_model)
    return FitResult(trace, report, train_idx, eval_idx, m_init)


# ---------------------------------------------------------------------------
# label run-length coding for the trace file


def _rle(labels: np.ndarray) -> list[list[int]]:
    out = []
    for v in labels:
        v = int(v)
        if out and out[-1][0] == v:
            out[-1][1] += 1
        else:
            out.append([v, 1])
    return out


def _write_trace(trace, path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for i in range(len(trace.iterations)):
            rec = {
                "iter": trace.iterations[i],
                "k": trace.k[i],
                "l": trace.l[i],
                "log_joint": trace.log_joint[i],
                "labels_rle": _rle(trace.labels[i]),
                "components": trace.components[i],
            }
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# commands


def _check_sim_flags(args) -> None:
    """Reject the ``--k``, ``--horizon``, ``--n-per-cluster`` and ``--seed`` no
    dataset can be drawn with, before any output is written."""
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    if not (math.isfinite(args.horizon) and args.horizon > 0):
        raise ConfigError(f"--horizon must be a finite positive number, got {args.horizon}")
    if args.n_per_cluster < 1:
        raise ConfigError(f"--n-per-cluster must be >= 1, got {args.n_per_cluster}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")


def _check_deltas(flag: str, k: int, deltas: list[float]) -> None:
    """Raise a ConfigError naming ``flag`` for the first delta the recipe rejects."""
    for delta in deltas:
        try:
            check_delta(k, delta)
        except ConfigError as exc:
            raise ConfigError(f"{flag}: {exc}") from None


def cmd_simulate(args) -> int:
    _check_sim_flags(args)
    if args.recipe == "hybrid" and args.k not in (3, 4, 5):
        raise ConfigError(f"--k must be 3, 4 or 5 for the hybrid recipe, got {args.k}")
    if args.recipe == "hawkes-delta" and args.delta is None:
        raise ConfigError("--delta is required for the hawkes-delta recipe")
    if args.recipe == "hawkes-delta":
        _check_deltas("--delta", args.k, [args.delta])
    out = _resolve_out(args.out)
    keys = ("recipe", "k", "n_per_cluster", "horizon", "delta", "seed")
    resolved = {key: getattr(args, key) for key in keys}
    if args.recipe == "hawkes-delta":
        data = build_hawkes_delta_dataset(
            args.k, args.delta, n_per_cluster=args.n_per_cluster,
            horizon=args.horizon, seed=args.seed,
        )
    else:
        data = build_hybrid_dataset(
            args.k, n_per_cluster=args.n_per_cluster,
            horizon=args.horizon, seed=args.seed,
        )
    out.mkdir(parents=True, exist_ok=True)
    write_jsonl(data, out / "dataset.jsonl")
    write_metadata(data, out / "dataset.meta.json")
    _write_json(resolved, out / "config.snapshot.json")
    print(f"wrote {len(data)} sequences / {data.n_events} events to {out / 'dataset.jsonl'}")
    return 0


def _load_dataset(path: str, n_types=None) -> Dataset:
    p = Path(path)
    sidecar = p.with_suffix(".meta.json")
    meta = _read_json(sidecar, "metadata") if sidecar.exists() else {}
    if not isinstance(meta, dict):
        raise ConfigError(f"malformed metadata {sidecar}: not a JSON object")
    side_types = meta.get("n_types")
    if side_types is not None and (type(side_types) is not int or side_types < 1):
        raise ConfigError(
            f"malformed metadata {sidecar}: n_types must be a positive integer, got {side_types!r}"
        )
    data = read_jsonl(p, n_types=side_types if n_types is None else n_types)
    data.metadata.update(meta)
    return data


def _write_run(result: FitResult, data: Dataset, data_path: str | None, out: Path) -> None:
    """Write a fit's ``trace.jsonl`` and ``report.json`` into ``out``."""
    _write_trace(result.trace, out / "trace.jsonl")
    report = result.report.to_dict()
    report["m_init"] = result.m_init
    report["basis"] = result.report.map_state.basis.to_dict()
    report["train_ids"] = [data.sequences[i].id for i in result.train_idx]
    report["eval_ids"] = [data.sequences[i].id for i in result.eval_idx]
    report["data_path"] = data_path
    _write_json(report, out / "report.json")


def _given(flags: dict) -> dict:
    """Config overrides from command-line flags, without the flags not given."""
    return {k: _given(v) if isinstance(v, dict) else v for k, v in flags.items() if v is not None}


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"malformed {what} {path}: {exc}") from None


def cmd_fit(args) -> int:
    out = _resolve_out(args.out)
    file_cfg = _read_json(Path(args.config), "config file") if args.config else None
    m_init = None
    if args.m_init is not None:
        lo, colon, hi = args.m_init.partition(":")
        try:
            m_init = [int(lo), int(hi)] if colon else int(lo)
        except ValueError:
            raise ConfigError(
                f"--m-init must be an integer or lo:hi range, got {args.m_init!r}"
            ) from None
    overrides = _given({
        "seed": args.seed, "data": {"path": args.data or None}, "pretrain": {"m_init": m_init},
        "sampler": {"iterations": args.iterations, "burn_in": args.burn_in},
        "eval_fraction": args.eval_fraction,
    })
    cfg = FitConfig.resolve(file_cfg, overrides)
    if cfg.data.path is None:
        raise ConfigError("no dataset given: pass --data or set data.path in the config")

    data = _load_dataset(cfg.data.path, cfg.data.n_types)
    result = run_fit(data, cfg)
    out.mkdir(parents=True, exist_ok=True)  # a rejected fit writes nothing
    _write_json(cfg.raw, out / "resolved_config.json")
    _write_run(result, data, cfg.data.path, out)
    print(
        f"fit: {len(result.train_idx)} train sequences, "
        f"k_mean={result.report.k_mean:.3f}, "
        f"MAP k={result.report.map_state.k}, "
        f"{result.report.wall_clock_sec:.1f}s -> {out}"
    )
    return 0


def _score(state: MixtureState, train: Dataset, ell_data: Dataset | None,
           k_mean: float, k_hist: dict) -> EvalResult:
    """Purity and ARI of ``state``'s labels against ``train``'s (None when
    unlabelled), and the ell of ``state`` on ``ell_data`` (None when not given)."""
    truth = train.labels()
    pur = ari_val = None
    if truth is not None:
        pur, ari_val = purity(state.c, truth), ari(state.c, truth)
    ell_val = None if ell_data is None else ell(state, ell_data)
    return EvalResult(pur, ari_val, ell_val, k_mean, k_hist)


def cmd_eval(args) -> int:
    out = _resolve_out(args.out)
    rep_path = Path(args.report)
    rep = _read_json(rep_path, "report")
    needed = {"train_ids", "eval_ids", "k_mean", "k_hist"}
    if not isinstance(rep, dict) or not needed <= rep.keys():
        raise ConfigError(f"malformed report {rep_path}: not a fit report.json")
    if not all(isinstance(ids, list) and all(type(sid) is str for sid in ids)
               for ids in (rep["train_ids"], rep["eval_ids"])):
        raise ConfigError(f"malformed report {rep_path}: "
                          "train_ids and eval_ids must be lists of sequence ids")
    data = _load_dataset(args.data)
    by_id = {s.id: i for i, s in enumerate(data.sequences)}
    missing = [sid for sid in rep["train_ids"] + rep["eval_ids"] if sid not in by_id]
    if missing:
        raise ConfigError(f"dataset is missing sequences from the report: {missing[:5]}")
    try:
        state = MixtureState.from_dict(rep["map"], data.n_types, len(rep["train_ids"]))
        k_mean, k_hist = rep["k_mean"], rep["k_hist"]
        if type(k_mean) not in (int, float):
            raise TypeError(f"k_mean must be a number, got {k_mean!r}")
        if not isinstance(k_hist, dict) or any(type(v) is not int for v in k_hist.values()):
            raise TypeError(f"k_hist must map component counts to integers, got {k_hist!r}")
        k_hist = {int(k): v for k, v in k_hist.items()}
    except KeyError as exc:
        raise ConfigError(f"malformed report {rep_path}: missing key {exc}") from None
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed report {rep_path}: {exc}") from None

    train = data.subset([by_id[sid] for sid in rep["train_ids"]])
    ell_data = None
    ell_on_train = False
    if rep["eval_ids"]:
        ell_data = data.subset([by_id[sid] for sid in rep["eval_ids"]])
    elif args.ell_on_train:
        ell_data = train
        ell_on_train = True

    res = _score(state, train, ell_data, k_mean, k_hist)
    out.mkdir(parents=True, exist_ok=True)
    payload = res.to_dict()
    payload["ell_on_train"] = ell_on_train
    _write_json(payload, out / "metrics.json")
    (out / "metrics.csv").write_text(
        "purity,ari,ell,k_mean\n" + res.csv_row() + "\n", encoding="utf-8"
    )
    bits = [f"k_mean={res.k_mean:.3f}"]
    if res.purity is not None:
        bits = [f"purity={res.purity:.4f}", f"ari={res.ari:.4f}"] + bits
    if res.ell is not None:
        bits.append(f"ell={res.ell:.4f}")
    print("eval: " + "  ".join(bits))
    return 0


def cmd_sweep(args) -> int:
    try:
        deltas = [float(x) for x in args.deltas.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"--deltas must list numbers, got {args.deltas!r}") from None
    _check_deltas("--deltas", args.k, deltas)  # before any cell runs
    if not deltas:
        raise ConfigError("--deltas must list at least one value")
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    _check_sim_flags(args)
    cfg = FitConfig.resolve(None, _given({
        "eval_fraction": 0.0, "pretrain": {"m_init": [max(args.k - 1, 1), args.k + 1]},
        "sampler": {"iterations": args.iterations, "burn_in": args.burn_in},
    }))
    out = _resolve_out(args.out)  # made by the first cell's run directory

    rows = ["delta,trial,purity,ari,ell,k_mean"]
    summary = {}
    for di, delta in enumerate(deltas):
        vals = []
        for trial in range(args.trials):
            sim_seed, fit_seed = (
                int(s) for s in np.random.SeedSequence([args.seed, di, trial]).generate_state(2)
            )
            data = build_hawkes_delta_dataset(
                args.k, delta, n_per_cluster=args.n_per_cluster,
                horizon=args.horizon, seed=sim_seed,
            )
            result = run_fit(data, replace(cfg, seed=fit_seed))
            train = data.subset(result.train_idx)
            report = result.report
            # eval_fraction is 0, so ell is on the training split, as eval --ell-on-train
            res = _score(report.map_state, train, train, report.k_mean, report.k_hist)
            vals.append((res.purity, res.ari))
            rows.append(f"{delta},{trial}," + res.csv_row())
            run_dir = out / f"delta_{delta}" / f"trial_{trial}"
            run_dir.mkdir(parents=True, exist_ok=True)
            _write_run(result, data, None, run_dir)
        mean_p = float(np.mean([v[0] for v in vals]))
        mean_a = float(np.mean([v[1] for v in vals]))
        summary[delta] = (mean_p, mean_a)
        print(f"delta={delta}: purity={mean_p:.4f} ari={mean_a:.4f} over {args.trials} trials")
    (out / "sweep.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    _write_json(
        {str(d): {"purity": p, "ari": a} for d, (p, a) in summary.items()},
        out / "sweep_summary.json",
    )
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tppcluster",
        description="Cluster event sequences with a repulsive mixture of intensity models.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic labelled dataset")
    sim.add_argument("--recipe", choices=["hawkes-delta", "hybrid"], required=True)
    sim.add_argument("--k", type=int, required=True, help="number of clusters")
    sim.add_argument("--delta", type=float, default=None,
                     help="base-rate separation (hawkes-delta only)")
    sim.add_argument("--n-per-cluster", type=int, default=100)
    sim.add_argument("--horizon", type=float, default=None)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="run the posterior sampler on a dataset")
    fit.add_argument("--data", default=None, help="JSON-lines dataset path")
    fit.add_argument("--config", default=None, help="JSON config file")
    fit.add_argument("--seed", type=int, default=None)
    fit.add_argument("--iterations", type=int, default=None)
    fit.add_argument("--burn-in", type=int, default=None)
    fit.add_argument("--m-init", default=None,
                     help="initial cluster count, int or lo:hi range")
    fit.add_argument("--eval-fraction", type=float, default=None)
    fit.add_argument("--out", required=True)
    fit.set_defaults(func=cmd_fit)

    ev = sub.add_parser("eval", help="score a finished fit")
    ev.add_argument("--report", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--ell-on-train", action="store_true",
                    help="compute the log-likelihood metric on the training split "
                         "when no held-out split exists")
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_eval)

    sw = sub.add_parser("sweep", help="separation sweep: simulate+fit+eval grid")
    sw.add_argument("--deltas", default="0.2,0.4,0.6,0.8")
    sw.add_argument("--trials", type=int, default=5)
    sw.add_argument("--k", type=int, default=4)
    sw.add_argument("--n-per-cluster", type=int, default=100)
    sw.add_argument("--horizon", type=float, default=10.0)
    sw.add_argument("--iterations", type=int, default=None)
    sw.add_argument("--burn-in", type=int, default=None)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--out", required=True)
    sw.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "simulate" and args.horizon is None:
        args.horizon = 10.0 if args.recipe == "hawkes-delta" else 20.0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
