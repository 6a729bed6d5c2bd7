#!/usr/bin/env python3
"""Run the benchmark on every workload and record the baseline.

    python3 bench/record.py

For each workload, runs ``run.py --trace 0`` once per seed (``SEEDS`` seeds),
and repeats that set ``SETS`` times.  For every set and every end-to-end
metric it reports the median and the quartile spread ``(q3 - q1) / median``
against the metric's bound in ``BENCHMARK.json``, and for every later set the
drift of its median from the first set's.  Then one traced run per workload
gives the per-layer metrics and the tracing overhead, and the layer contrast
the workloads were chosen for is checked across them.  Everything is printed
by name and unit and written, with the environment, to
``bench/baseline.json``.  Exits 1 when a run failed, a spread or a drift is
over its bound, or the contrast is broken.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10
SETS = 2
TRACE_SEED = 0


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "error": proc.stderr.strip()[-2000:]}
    result = json.loads(lines[-1])
    if proc.stderr.strip():
        result["error"] = proc.stderr.strip()[-2000:]
    return result


def _spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def _worse(first: float, second: float, better: str) -> float:
    """Relative change from ``first`` to ``second``, positive when worse."""
    change = (second - first) / first
    return change if better == "lower" else -change


def environment(bench: dict) -> dict:
    import numpy
    import scipy

    from tracing import SpeedProbe

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((ln.split(":", 1)[1].strip() for ln in Path("/proc/cpuinfo").read_text().splitlines()
                if ln.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": 1,
        "run_seconds": bench["run_seconds"],
        "clock": "CPU time of the single benchmark thread; end-to-end times are scaled to "
                 f"the speed at which the calibration loop takes {SpeedProbe.REFERENCE_S * 1e3} ms",
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    out = {"environment": environment(bench), "seeds": list(range(SEEDS)),
           "sets": SETS, "trace_seed": TRACE_SEED, "workloads": {}}
    attempted = failed = 0
    ok = True
    for name in names:
        wl = WORKLOADS[name]
        rec = {"why": wl.why, "sim_seed_at_0": wl.sim_seed, "fit_seed_at_0": wl.fit_seed,
               "fit_flags": list(wl.fit_flags), "sets": []}
        for s in range(SETS):
            runs = []
            for seed in range(SEEDS):
                r = _run(name, seed, seconds, 0)
                attempted += r["attempted"]
                failed += r["failed"]
                if not r["correct"]:
                    ok = False
                    print(f"{name} seed={seed}: NOT CORRECT {r.get('error', '')}")
                runs.append(r)
                print(f"{name} set={s} seed={seed} " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
            stats = {}
            for metric, spec in e2e.items():
                values = [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]
                if len(values) < 2:
                    continue
                st = _spread(values)
                st.update(bound=spec["bound"], unit=spec["unit"], better=spec["better"])
                stats[metric] = st
            rec["sets"].append(stats)
        first = rec["sets"][0]
        for metric, spec in e2e.items():
            for s, stats in enumerate(rec["sets"]):
                if metric not in stats:
                    ok = False
                    print(f"{name:11s} {metric:13s} set={s} MISSING")
                    continue
                st = stats[metric]
                line = (f"{name:11s} {metric:13s} set={s} median={st['median']:10.4f} "
                        f"{spec['unit']:4s} spread={st['spread']:.3f} bound={spec['bound']}")
                if st["spread"] > spec["bound"]:
                    ok = False
                    line += "  SPREAD OVER BOUND"
                elif st["spread"] > spec["bound"] / 3:
                    line += "  (spread over a third of the bound)"
                if s > 0 and metric in first:
                    drift = _worse(first[metric]["median"], st["median"], spec["better"])
                    st["drift"] = drift
                    line += f" drift={drift:+.3f}"
                    if drift > spec["bound"]:
                        ok = False
                        line += " DRIFT OVER BOUND"
                print(line)
        r = _run(name, TRACE_SEED, seconds, 1)
        attempted += r["attempted"]
        failed += r["failed"]
        if not r["correct"]:
            ok = False
            print(f"{name} traced: NOT CORRECT {r.get('error', '')}")
        layers = dict(r["metrics"])
        rec["per_layer"] = layers
        if "trace.fit_s_traced" in layers:
            rec["tracing_overhead_s"] = (layers["trace.fit_s_traced"]["value"]
                                         - layers["trace.fit_s_untraced"]["value"])
        for k, v in layers.items():
            print(f"{name:11s} {k:40s} {v['value']:16.6f} {v['unit']}")
        out["workloads"][name] = rec

    traced = {n: w["per_layer"] for n, w in out["workloads"].items()}
    if all("dpp.sampler_share" in t for t in traced.values()):
        share = {n: t["dpp.sampler_share"]["value"] for n, t in traced.items()}
        padding = {n: t["backbone.padding_ratio"]["value"] for n, t in traced.items()}
        contrast = {
            "dpp_share": share,
            "padding_ratio": padding,
            "dpp_share_largest_on_wide_d6": max(share, key=share.get) == "wide-d6",
            "dpp_share_smallest_on_heavy_tail": min(share, key=share.get) == "heavy-tail",
            "padding_largest_on_heavy_tail": max(padding, key=padding.get) == "heavy-tail",
        }
        out["layer_contrast"] = contrast
        print("layer contrast: " + json.dumps(contrast))
        if not all(v for k, v in contrast.items() if isinstance(v, bool)):
            ok = False
            print("layer contrast BROKEN: the workloads no longer load the layers they were "
                  "chosen for")
    out["attempted_runs"] = attempted
    out["failed_runs"] = failed
    baseline = HERE / "baseline.json"
    baseline.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(f"runs: {attempted} repetitions attempted, {failed} failed; wrote {baseline}")
    return 0 if ok and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
