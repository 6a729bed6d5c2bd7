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
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .backbone import FeatureSet
from .core import (
    BasisConfig,
    ConfigError,
    Dataset,
    DppConfig,
    MixtureState,
    NumericalError,
    PriorBundle,
    SgldSchedule,
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
    read_metadata,
    write_metadata,
)

__all__ = ["main", "FitConfig", "run_fit", "FitResult"]

OUTPUT_ROOT_ENV = "TPPCLUSTER_OUT"


def _resolve_out(out: str | Path) -> Path:
    out = Path(out)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not out.is_absolute():
        out = Path(root) / out
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _merge(base: dict, override: dict, context="config") -> dict:
    out = dict(base)
    for key, val in override.items():
        if key not in base:
            raise ConfigError(f"unknown {context} key: {key!r}")
        if isinstance(base[key], dict) and isinstance(val, dict):
            out[key] = _merge(base[key], val, f"{context}.{key}")
        else:
            out[key] = val
    return out


# ---------------------------------------------------------------------------
# fit configuration


def _default_fit_dict() -> dict:
    return {
        "seed": 0,
        "data": {"path": None, "n_types": None},
        "basis": {"n_basis": 3, "tau_max": None, "sigma": None},
        "prior": {
            "beta_w": 10.0,
            "dpp": {
                "rho": None,
                "alpha": 0.1,
                "lattice_radius": 2,
                "box_lo": None,
                "box_hi": None,
                "lo_factor": 4.0,
                "hi_factor": 2.0,
            },
            "sgld": {"eps0": 1e-4, "decay": 0.51, "offset": 100.0, "minibatch": 16},
        },
        "pretrain": {"m_init": 4, "rounds": 3, "gd_steps": 25, "learning_rate": 0.2},
        "sampler": {
            "iterations": 500,
            "burn_in": 200,
            "p_birth": 0.5,
            "bd_attempts": 1,
            "s_mu": 0.05,
            "stride": 1,
        },
        "eval_fraction": 0.2,
    }


@dataclass
class FitConfig:
    """Typed view of the resolved fit configuration."""

    raw: dict

    def __post_init__(self):
        d = self.raw
        sg = d["prior"]["sgld"]
        dp = d["prior"]["dpp"]
        self.seed = int(d["seed"])
        self.eval_fraction = float(d["eval_fraction"])
        if not (0.0 <= self.eval_fraction < 1.0):
            raise ConfigError("eval_fraction must lie in [0, 1)")
        self.prior = PriorBundle(
            beta_w=float(d["prior"]["beta_w"]),
            dpp=DppConfig(
                rho=None if dp["rho"] is None else float(dp["rho"]),
                alpha=float(dp["alpha"]),
                lattice_radius=int(dp["lattice_radius"]),
                box_lo=None if dp["box_lo"] is None else tuple(dp["box_lo"]),
                box_hi=None if dp["box_hi"] is None else tuple(dp["box_hi"]),
                lo_factor=float(dp["lo_factor"]),
                hi_factor=float(dp["hi_factor"]),
            ),
            sgld=SgldSchedule(
                eps0=float(sg["eps0"]),
                decay=float(sg["decay"]),
                offset=float(sg["offset"]),
                minibatch=int(sg["minibatch"]),
            ),
        )
        pt = d["pretrain"]
        self.pretrain_rounds = int(pt["rounds"])
        self.pretrain_steps = int(pt["gd_steps"])
        self.pretrain_lr = float(pt["learning_rate"])
        self.m_init_spec = pt["m_init"]
        sa = d["sampler"]
        if int(sa["iterations"]) <= int(sa["burn_in"]):
            raise ConfigError("sampler iterations must exceed burn_in")
        self.sampler_kw = dict(
            iterations=int(sa["iterations"]),
            burn_in=int(sa["burn_in"]),
            p_birth=float(sa["p_birth"]),
            bd_attempts=int(sa["bd_attempts"]),
            s_mu=float(sa["s_mu"]),
            stride=int(sa["stride"]),
        )
        self.basis_kw = d["basis"]

    @staticmethod
    def resolve(file_cfg: dict | None = None, overrides: dict | None = None) -> "FitConfig":
        merged = _default_fit_dict()
        if file_cfg:
            merged = _merge(merged, file_cfg)
        if overrides:
            merged = _merge(merged, overrides)
        return FitConfig(merged)


def _draw_m_init(spec, rng: np.random.Generator) -> int:
    if isinstance(spec, (list, tuple)):
        if len(spec) != 2 or spec[0] > spec[1]:
            raise ConfigError("m_init range must be [lo, hi] with lo <= hi")
        return int(rng.integers(int(spec[0]), int(spec[1]) + 1))
    return int(spec)


@dataclass
class FitResult:
    trace: object
    report: RunReport
    basis: BasisConfig
    train_idx: np.ndarray
    eval_idx: np.ndarray
    m_init: int
    config_dict: dict = field(default_factory=dict)


def run_fit(data: Dataset, cfg: FitConfig) -> FitResult:
    """Full pipeline on an in-memory dataset: split, pretrain, sample."""
    problems = _validate_for_fit(data)
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

    basis = BasisConfig.for_data(
        train,
        n_basis=int(cfg.basis_kw["n_basis"]),
        tau_max=cfg.basis_kw["tau_max"],
        sigma=cfg.basis_kw["sigma"],
    )
    features = FeatureSet(train, basis)
    m_init = _draw_m_init(cfg.m_init_spec, np.random.default_rng(int(seeds[1])))
    dpp_model = model_for_data(train, cfg.prior.dpp, default_rho=m_init)
    pre_cfg = PretrainConfig(
        rounds=cfg.pretrain_rounds,
        gd_steps=cfg.pretrain_steps,
        learning_rate=cfg.pretrain_lr,
        seed=int(seeds[2]),
    )
    init = pretrain_mixture(train, m_init, pre_cfg, cfg.prior, basis,
                            features=features, dpp_model=dpp_model)
    sampler_cfg = SamplerConfig(seed=int(seeds[3]), **cfg.sampler_kw)
    trace, report = run_sampler(train, init, cfg.prior, sampler_cfg,
                                features=features, dpp_model=dpp_model)
    return FitResult(trace, report, basis, train_idx, eval_idx, m_init, cfg.raw)


def _validate_for_fit(data: Dataset) -> list[str]:
    from .core import validate_dataset

    problems = validate_dataset(data)
    if not problems and data.n_events == 0:
        problems.append("dataset contains no events")
    return problems


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


def _unrle(pairs) -> np.ndarray:
    return np.concatenate([np.full(c, v, dtype=np.int64) for v, c in pairs]) if pairs else np.empty(0, np.int64)


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


def read_trace(path) -> list[dict]:
    out = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rec = json.loads(line)
                rec["labels"] = _unrle(rec.pop("labels_rle"))
                out.append(rec)
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args) -> int:
    out = _resolve_out(args.out)
    resolved = {
        "recipe": args.recipe,
        "k": args.k,
        "n_per_cluster": args.n_per_cluster,
        "horizon": args.horizon,
        "delta": args.delta,
        "seed": args.seed,
    }
    if args.recipe == "hawkes-delta":
        if args.delta is None:
            raise ConfigError("--delta is required for the hawkes-delta recipe")
        data = build_hawkes_delta_dataset(
            args.k, args.delta, n_per_cluster=args.n_per_cluster,
            horizon=args.horizon, seed=args.seed,
        )
    elif args.recipe == "hybrid":
        data = build_hybrid_dataset(
            args.k, n_per_cluster=args.n_per_cluster,
            horizon=args.horizon, seed=args.seed,
        )
    else:
        raise ConfigError(f"unknown recipe {args.recipe!r}")
    write_jsonl(data, out / "dataset.jsonl")
    write_metadata(data, out / "dataset.meta.json")
    _write_json(resolved, out / "config.snapshot.json")
    print(f"wrote {len(data)} sequences / {data.n_events} events to {out / 'dataset.jsonl'}")
    return 0


def _load_dataset(path: str, n_types_hint=None) -> Dataset:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"dataset not found: {p}")
    n_types = n_types_hint
    meta = {}
    sidecar = p.with_suffix(".meta.json")
    if sidecar.exists():
        meta = read_metadata(sidecar)
        n_types = n_types if n_types is not None else meta.get("n_types")
    data = read_jsonl(p, n_types=n_types)
    data.metadata.update(meta)
    return data


def cmd_fit(args) -> int:
    file_cfg = None
    if args.config:
        cfg_path = Path(args.config)
        if not cfg_path.exists():
            raise ConfigError(f"config file not found: {cfg_path}")
        try:
            file_cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config file: {exc}") from None
    overrides: dict = {}
    if args.data:
        overrides.setdefault("data", {})["path"] = args.data
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.iterations is not None:
        overrides.setdefault("sampler", {})["iterations"] = args.iterations
    if args.burn_in is not None:
        overrides.setdefault("sampler", {})["burn_in"] = args.burn_in
    if args.m_init is not None:
        lo, _, hi = args.m_init.partition(":")
        try:
            m_init = [int(lo), int(hi)] if hi else int(lo)
        except ValueError:
            raise ConfigError(
                f"--m-init must be an integer or lo:hi range, got {args.m_init!r}"
            ) from None
        overrides.setdefault("pretrain", {})["m_init"] = m_init
    if args.eval_fraction is not None:
        overrides["eval_fraction"] = args.eval_fraction
    cfg = FitConfig.resolve(file_cfg, overrides)
    if cfg.raw["data"]["path"] is None:
        raise ConfigError("no dataset given: pass --data or set data.path in the config")

    data = _load_dataset(cfg.raw["data"]["path"], cfg.raw["data"]["n_types"])
    out = _resolve_out(args.out)
    _write_json(cfg.raw, out / "resolved_config.json")
    result = run_fit(data, cfg)
    _write_trace(result.trace, out / "trace.jsonl")
    report = result.report.to_dict()
    report["m_init"] = result.m_init
    report["basis"] = result.basis.to_dict()
    report["train_ids"] = [data.sequences[i].id for i in result.train_idx]
    report["eval_ids"] = [data.sequences[i].id for i in result.eval_idx]
    report["data_path"] = cfg.raw["data"]["path"]
    _write_json(report, out / "report.json")
    print(
        f"fit: {len(result.train_idx)} train sequences, "
        f"k_mean={result.report.k_mean:.3f}, "
        f"MAP k={len(result.report.map_state.allocated) if result.report.map_state else 'n/a'}, "
        f"{result.report.wall_clock_sec:.1f}s -> {out}"
    )
    return 0


def _state_from_report(rep: dict) -> MixtureState:
    from .core import Component

    m = rep.get("map")
    if not m:
        raise ConfigError("report has no point estimate (no stored samples)")
    basis = BasisConfig.from_dict(m["basis"])
    alloc = [
        Component(np.asarray(c["mu"]), np.asarray(c["w"]), float(c["r"]))
        for c in m["components"]
    ]
    spare = [
        Component(np.asarray(c["mu"]), np.asarray(c["w"]), float(c["r"]))
        for c in m.get("spare_components", [])
    ]
    return MixtureState(alloc, spare, np.asarray(m["labels"], dtype=np.int64), m["u"], basis)


def cmd_eval(args) -> int:
    rep_path = Path(args.report)
    if not rep_path.exists():
        raise ConfigError(f"report not found: {rep_path}")
    rep = json.loads(rep_path.read_text(encoding="utf-8"))
    data = _load_dataset(args.data)
    by_id = {s.id: i for i, s in enumerate(data.sequences)}
    missing = [sid for sid in rep["train_ids"] + rep["eval_ids"] if sid not in by_id]
    if missing:
        raise ConfigError(f"dataset is missing sequences from the report: {missing[:5]}")
    state = _state_from_report(rep)

    train = data.subset([by_id[sid] for sid in rep["train_ids"]])
    truth = train.labels()
    pred = np.asarray(rep["map"]["labels"], dtype=np.int64)
    pur = ari_val = None
    if truth is not None:
        pur = purity(pred, truth)
        ari_val = ari(pred, truth)

    ell_val = None
    ell_on_train = False
    if rep["eval_ids"]:
        eval_data = data.subset([by_id[sid] for sid in rep["eval_ids"]])
        ell_val = ell(state, eval_data)
    elif args.ell_on_train:
        ell_val = ell(state, train)
        ell_on_train = True

    k_hist = {int(k): v for k, v in rep["k_hist"].items()}
    res = EvalResult(pur, ari_val, ell_val, rep["k_mean"], k_hist)
    out = _resolve_out(args.out)
    payload = res.to_dict()
    payload["ell_on_train"] = ell_on_train
    _write_json(payload, out / "metrics.json")
    (out / "metrics.csv").write_text(
        "purity,ari,ell,k_mean\n" + res.csv_row() + "\n", encoding="utf-8"
    )
    bits = [f"k_mean={rep['k_mean']:.3f}"]
    if pur is not None:
        bits = [f"purity={pur:.4f}", f"ari={ari_val:.4f}"] + bits
    if ell_val is not None:
        bits.append(f"ell={ell_val:.4f}")
    print("eval: " + "  ".join(bits))
    return 0


def cmd_sweep(args) -> int:
    deltas = [float(x) for x in args.deltas.split(",") if x.strip()]
    if not deltas:
        raise ConfigError("--deltas must list at least one value")
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    out = _resolve_out(args.out)
    overrides: dict = {"eval_fraction": 0.0,
                       "pretrain": {"m_init": [max(args.k - 1, 1), args.k + 1]}}
    if args.iterations is not None:
        overrides.setdefault("sampler", {})["iterations"] = args.iterations
    if args.burn_in is not None:
        overrides.setdefault("sampler", {})["burn_in"] = args.burn_in

    rows = ["delta,trial,purity,ari"]
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
            cfg = FitConfig.resolve(None, {**overrides, "seed": fit_seed})
            result = run_fit(data, cfg)
            truth = data.subset(result.train_idx).labels()
            pred = result.report.map_labels
            pur = purity(pred, truth)
            ar = ari(pred, truth)
            vals.append((pur, ar))
            rows.append(f"{delta},{trial},{pur!r},{ar!r}")
            run_dir = out / f"delta_{delta}" / f"trial_{trial}"
            run_dir.mkdir(parents=True, exist_ok=True)
            _write_trace(result.trace, run_dir / "trace.jsonl")
            rep = result.report.to_dict()
            rep["m_init"] = result.m_init
            _write_json(rep, run_dir / "report.json")
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
