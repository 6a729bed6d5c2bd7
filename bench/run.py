#!/usr/bin/env python3
"""Benchmark of the simulate -> fit -> eval pipeline on one workload.

    python3 bench/run.py --workload readme --seed 0 --seconds 40 --trace 0

Each repetition runs the pipeline as a user would: the workload's dataset is
generated with ``tppcluster.simulate``, written with ``core.write_jsonl``,
and the CLI's ``fit`` and ``eval`` commands run in-process on that file.
One client, one fit at a time (a closed loop); BLAS is pinned to one thread.

``--trace 0`` repeats the pipeline for about ``--seconds`` seconds and
reports the end-to-end metrics as medians over the repetitions after the
first.  The first two use the benchmark seed, so the second checks the
first's bytes; later ones use seeds derived from it.  The first repetition
warms the process up and is left out of the medians, so each dataset in
them counts once.
``--trace 1`` runs the pipeline untraced, then with a span
around every layer's public calls, then untraced again; it checks that all
three write the same bytes, reports the per-layer metrics of the traced run,
and times the kernels at fixed inputs.

A repetition fails when a command exits non-zero or raises, when a stored
log joint is non-finite, when a repetition of the benchmark seed writes
other bytes than the first, or when ``readme`` at seed 0 misses the README's eval line.
The traced repetition also fails when the workload no longer loads the layer
it was chosen for (its DPP share or padding ratio leaves the expected range).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The end-to-end times are CPU seconds of this process scaled to a reference
machine speed; the per-layer times are CPU seconds, which include the speed
probe's one per cent.  See ``tracing.py``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MIN_REPS = 2  # the determinism check compares repetitions of one seed


def _import_package() -> None:
    """Import ``tppcluster`` from this checkout's ``src/`` and nowhere else."""
    pkg = SRC / "tppcluster"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: package source not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import tppcluster

    if Path(tppcluster.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported tppcluster from {tppcluster.__file__}, not {pkg}")


@dataclass
class Rep:
    """One simulate -> fit -> eval repetition."""

    errors: list[str] = field(default_factory=list)
    windows: dict = field(default_factory=dict)   # name -> (start, end) CPU seconds
    times: dict = field(default_factory=dict)
    cpu_times: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    digest: str = ""
    events: int = 0
    dataset_bytes: int = 0


def _cli(argv: list[str], errors: list[str]) -> None:
    """Run one CLI command in-process; any non-zero exit is an error."""
    from tppcluster import cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = cli.main(argv)
    except Exception:  # a traceback is a failed command, not a crashed benchmark
        rc, tb = "exception", traceback.format_exc(limit=3)
        out.write(tb)
    if rc != 0:
        errors.append(f"`{argv[0]}` exited {rc}: {out.getvalue().strip()[-500:]}")


def run_pipeline(wl, seed: int, work: Path, tracer) -> Rep:
    from tppcluster.core import write_jsonl

    from tracing import find

    work.mkdir(parents=True, exist_ok=True)
    data_path, fit_dir, eval_dir = work / "dataset.jsonl", work / "fit", work / "eval"
    rep = Rep()
    tracer.reset()
    root = tracer.open("pipeline")
    idx = tracer.open("simulate")
    data = wl.simulate(wl.sim_seed + seed)
    tracer.close(idx)
    idx = tracer.open("core.write_jsonl")
    write_jsonl(data, data_path)
    tracer.close(idx)
    idx = tracer.open("cli.fit")
    _cli(["fit", "--data", str(data_path), "--seed", str(wl.fit_seed + seed), *wl.fit_flags,
          "--out", str(fit_dir)], rep.errors)
    tracer.close(idx)
    if not rep.errors:
        idx = tracer.open("metrics.eval")
        _cli(["eval", "--report", str(fit_dir / "report.json"), "--data", str(data_path),
              "--out", str(eval_dir)], rep.errors)
        tracer.close(idx)
    tracer.close(root)
    if rep.errors:
        return rep

    spans = tracer.spans

    def window(name: str) -> tuple[float, float]:
        s = spans[find(spans, name)]
        return s[1], s[2]

    rep.windows = {
        "total_s": window("pipeline"),
        "simulate_s": window("simulate"),
        "write_s": window("core.write_jsonl"),
        "fit_s": window("cli.fit"),
        "setup_s": (window("cli.fit")[0], window("pretrain")[0]),
        "sampler_s": window("sampler"),
        "eval_s": window("metrics.eval"),
    }
    rep.times = {k: end - start for k, (start, end) in rep.windows.items()}
    rep.events = data.n_events
    rep.dataset_bytes = data_path.stat().st_size
    _check_outputs(rep, data_path, fit_dir, eval_dir)
    return rep


def _check_outputs(rep: Rep, data_path: Path, fit_dir: Path, eval_dir: Path) -> None:
    trace_bytes = (fit_dir / "trace.jsonl").read_bytes()
    for line in trace_bytes.splitlines():
        lj = json.loads(line)["log_joint"]
        if not math.isfinite(lj):
            rep.errors.append(f"non-finite stored log joint {lj}")
            break
    rep.report = json.loads((fit_dir / "report.json").read_text(encoding="utf-8"))
    timeless = dict(rep.report)
    timeless.pop("wall_clock_sec")
    h = hashlib.sha256()
    for part in (data_path.read_bytes(), trace_bytes,
                 json.dumps(timeless, sort_keys=True).encode(),
                 (eval_dir / "metrics.json").read_bytes()):
        h.update(hashlib.sha256(part).digest())
    rep.digest = h.hexdigest()
    ev = json.loads((eval_dir / "metrics.json").read_text(encoding="utf-8"))
    rep.quality = {key: ev[key] for key in ("purity", "ari", "ell", "k_mean")}
    bad = [k for k, v in rep.quality.items() if v is None or not math.isfinite(v)]
    if bad:
        rep.errors.append(f"non-finite or missing quality metrics: {bad}")


def _check_readme(wl, seed: int, rep: Rep) -> None:
    from workloads import README_EVAL

    if wl.name != "readme" or seed != 0 or rep.errors:
        return
    for key, ref in README_EVAL.items():
        digits = 3 if key == "k_mean" else 4
        if f"{rep.quality[key]:.{digits}f}" != f"{ref:.{digits}f}":
            rep.errors.append(f"README {key}={ref} not reproduced: got {rep.quality[key]:.6f}")


def rep_seed(seed: int, r: int) -> int:
    """Seed of repetition ``r``: the first two repeat the benchmark seed (the
    determinism check), later ones draw new datasets so that the median
    covers several inputs."""
    return seed if r < 2 else seed + 1000 * (r - 1)


def _one(wl, seed: int, work: Path, tracer, reference: Rep | None) -> Rep:
    rep = run_pipeline(wl, seed, work, tracer)
    _check_readme(wl, seed, rep)
    if reference is not None and not rep.errors and rep.digest != reference.digest:
        rep.errors.append("outputs differ from the first repetition of the same seed")
    return rep


def _quality(rep: Rep) -> dict:
    return {f"quality.{k}": (v, "1") for k, v in rep.quality.items()}


def measure(wl, seed: int, seconds: float, work: Path):
    """Untraced repetitions for about ``seconds`` wall seconds.

    Each repetition's times are scaled to the reference machine speed with
    ``tracing.SpeedProbe``; the unscaled CPU times are kept as ``cpu_times``."""
    from tracing import SpeedProbe, Tracer

    tracer, probe = Tracer(), SpeedProbe()
    tracer.install_probes()
    reps: list[Rep] = []
    walls: list[float] = []
    speeds: list[float] = []
    start = time.monotonic()
    probe.start()
    try:
        while len(reps) < MIN_REPS or (
            time.monotonic() - start + statistics.median(walls) <= seconds
        ):
            t0 = time.monotonic()
            r = len(reps)
            rep = _one(wl, rep_seed(seed, r), work, tracer, reps[0] if r == 1 else None)
            if not rep.errors:
                rep.cpu_times = rep.times
                rep.times = {k: probe.scaled(*w) for k, w in rep.windows.items()}
                speeds.append(probe.speed(*rep.windows["total_s"]))
            reps.append(rep)
            walls.append(time.monotonic() - t0)
            if reps[0].errors:
                break
    finally:
        probe.stop()
        tracer.restore()
    good = [r for r in reps[1:] if not r.errors]
    metrics = {}
    if good:
        med = {k: statistics.median(r.times[k] for r in good) for k in good[0].times}
        cpu = {k: statistics.median(r.cpu_times[k] for r in good) for k in good[0].times}
        iterations = good[0].report["iterations"]
        metrics = {
            "total_s": (med["total_s"], "s"),
            "fit_s": (med["fit_s"], "s"),
            "setup_s": (med["setup_s"], "s"),
            "sweeps_per_s": (iterations / med["sampler_s"], "1/s"),
            "simulate_s": (med["simulate_s"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        notes = {"wall_s_per_rep": (statistics.median(walls), "s"),
                 "machine_speed": (statistics.median(speeds), "ratio"),
                 "cpu.total_s": (cpu["total_s"], "s"), "cpu.fit_s": (cpu["fit_s"], "s"),
                 **_quality(good[0])}
    else:
        notes = {}
    return reps, metrics, notes


def _with(tracer, install, wl, seed: int, work: Path, reference: Rep | None) -> Rep:
    install(tracer)
    try:
        return _one(wl, seed, work, tracer, reference)
    finally:
        tracer.restore()


def trace(wl, seed: int, seconds: float, work: Path):
    """Untraced, traced and untraced again, then the kernels.

    The first untraced repetition warms the process up and gives the
    reference outputs; the tracing overhead is the traced fit time minus the
    second untraced one, both scaled like the end-to-end ``fit_s``."""
    from kernels import run_kernels
    from tracing import SpeedProbe, Tracer

    start = time.monotonic()
    probe, tracer, speed = Tracer(), Tracer(), SpeedProbe()
    speed.start()
    try:
        reps = [_with(probe, Tracer.install_probes, wl, seed, work, None)]
        if not reps[0].errors:
            reps.append(_with(tracer, Tracer.install_layers, wl, seed, work, reps[0]))
            reps.append(_with(probe, Tracer.install_probes, wl, seed, work, reps[0]))
    finally:
        speed.stop()
    if len(reps) < 3:
        return reps, {}, {}
    _first, traced, plain = reps
    if traced.errors or plain.errors:
        return reps, {}, {}
    metrics = layer_metrics(wl, traced, tracer)
    if not metrics["check.layer_contrast"][0]:
        traced.errors.append(
            f"layer contrast broken: {wl.name} expects DPP share in {wl.dpp_share}, got "
            f"{metrics['dpp.sampler_share'][0]:.3f}, and padding ratio in {wl.padding_ratio}, "
            f"got {metrics['backbone.padding_ratio'][0]:.2f}")
    metrics.update(_quality(traced))
    metrics["trace.fit_s_untraced"] = (speed.scaled(*plain.windows["fit_s"]), "s")
    metrics["trace.fit_s_traced"] = (speed.scaled(*traced.windows["fit_s"]), "s")
    # reaching here means the traced outputs matched the untraced ones
    metrics["check.trace_identical"] = (1.0, "bool")
    budget = max(0.2, (seconds - (time.monotonic() - start)) / 6.0)
    for name, k in run_kernels(tracer.captured, budget).items():
        metrics[f"kernel.{name}.median_ms"] = (k["median_ms"], "ms")
        metrics[f"kernel.{name}.tail_ms"] = (k["tail_ms"], "ms")
        metrics[f"kernel.{name}.tail_pct"] = (k["tail_pct"], "%")
        metrics[f"kernel.{name}.samples"] = (k["samples"], "count")
        metrics[f"kernel.{name}.bytes_computed"] = (k["bytes"], "B")
        metrics[f"kernel.{name}.flops_computed"] = (k["flops"], "flop")
    notes = {"trace.overhead_s": (metrics["trace.fit_s_traced"][0]
                                  - metrics["trace.fit_s_untraced"][0], "s")}
    return reps, metrics, notes


def layer_metrics(wl, rep: Rep, tracer) -> dict:
    from tracing import find, subtree, totals

    spans, counts = tracer.spans, tracer.counts
    fit = totals(spans, subtree(spans, find(spans, "cli.fit")))
    samp_idx = find(spans, "sampler")
    samp = totals(spans, subtree(spans, samp_idx))
    sampler_s = spans[samp_idx][2] - spans[samp_idx][1]

    def s(name: str, table=fit) -> float:
        return table.get(name, {}).get("s", 0.0)

    def calls(name: str, table=fit) -> int:
        return table.get(name, {}).get("calls", 0)

    def rate(kind: str) -> float:
        n = counts[kind + "_attempts"]
        return counts[kind + "_accepts"] / n if n else 0.0

    feats = tracer.captured["features"]
    n, imax = feats.mask.shape
    dpp_share = (s("dpp.log_ratio", samp) + s("dpp.log_density", samp)) / sampler_s
    padding = n * imax / float(feats.n_events.sum())
    simulate_s = rep.times["simulate_s"]
    iterations = rep.report["iterations"]
    m = {
        "simulate.s": (simulate_s, "s"),
        "simulate.events": (rep.events, "count"),
        "simulate.events_per_s": (rep.events / simulate_s, "1/s"),
        "core.write_jsonl_s": (rep.times["write_s"], "s"),
        "core.read_jsonl_s": (s("core.read_jsonl"), "s"),
        "core.validate_s": (s("core.validate"), "s"),
        "core.dataset_bytes": (rep.dataset_bytes, "B"),
        "backbone.features_s": (s("backbone.features"), "s"),
        "backbone.padding_ratio": (padding, "ratio"),
        "backbone.features_bytes_computed": (
            float(sum(a.nbytes for a in (feats.excite, feats.onehot, feats.types, feats.mask))),
            "B"),
    }
    for name in ("loglik_all", "grad_a", "excitation", "event_term"):
        m[f"backbone.{name}_s"] = (s(f"backbone.{name}"), "s")
        m[f"backbone.{name}_calls"] = (calls(f"backbone.{name}"), "count")
    m.update({
        "dpp.log_ratio_s": (s("dpp.log_ratio"), "s"),
        "dpp.log_ratio_calls": (calls("dpp.log_ratio"), "count"),
        "dpp.log_density_s": (s("dpp.log_density"), "s"),
        "dpp.log_density_calls": (calls("dpp.log_density"), "count"),
        "dpp.n_lattice": (rep.report["dpp"]["n_lattice"], "count"),
        "dpp.sampler_share": (dpp_share, "ratio"),
        "pretrain.s": (s("pretrain"), "s"),
        "sampler.s": (sampler_s, "s"),
    })
    for move in ("birth_death", "refresh", "mu_walk", "r_draw", "sgld", "realloc", "u_draw"):
        m[f"sampler.{move}_s"] = (s(f"sampler.{move}"), "s")
    m["sampler.self_s"] = (fit["sampler"]["self_s"], "s")
    for kind in ("birth", "death", "mu_walk"):
        m[f"sampler.{kind}_accept"] = (rate(kind), "ratio")
        m[f"sampler.{kind}_attempts"] = (counts[kind + "_attempts"], "count")
    m["sampler.loglik_cols_per_sweep"] = (calls("backbone.loglik_all", samp) / iterations, "count")
    m["metrics.eval_s"] = (rep.times["eval_s"], "s")
    m["cli.fit_self_s"] = (fit["cli.fit"]["self_s"], "s")
    contrast = (wl.dpp_share[0] <= dpp_share <= wl.dpp_share[1]
                and wl.padding_ratio[0] <= padding <= wl.padding_ratio[1])
    m["check.layer_contrast"] = (float(contrast), "bool")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    work = ROOT / ".bench_runs" / f"{wl.name}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        run = trace if args.trace else measure
        reps, metrics, notes = run(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in reps if r.errors]
    for i, r in enumerate(reps):
        for err in r.errors:
            print(f"FAILED repetition {i}: {err}", file=sys.stderr)
    print(f"# {wl.name} seed={args.seed} trace={args.trace} repetitions={len(reps)}")
    for name, (value, unit) in {**metrics, **notes}.items():
        print(f"{name:36s} {value:16.6f} {unit}")
    result = {
        "correct": not failed and bool(metrics),
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
