"""Package-level acceptance checks.

Each test exercises one end-to-end guarantee (clustering-quality trends,
parameter recovery, cluster-count identification, and the fast numerical
property suite) and prints a single PASS/FAIL verdict line with the measured
values; the lines are echoed together after the run by the conftest terminal
hook.  All seeds are fixed and simulate/fit are bit-exact deterministic, so
the measured margins are reproducible.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import conftest
import helpers
from tppcluster.backbone import HomogeneousPoisson
from tppcluster.cli import FitConfig, run_fit
from tppcluster.metrics import ari, purity
from tppcluster.simulate import (
    build_hawkes_delta_dataset,
    build_hybrid_dataset,
    sample_mixture,
)

DELTAS = (0.2, 0.4, 0.6, 0.8)
N_TRIALS = 5


def _record(name: str, passed: bool, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


def _seeds(*entropy: int) -> tuple[int, int]:
    sim_seed, fit_seed = np.random.SeedSequence(list(entropy)).generate_state(2)
    return int(sim_seed), int(fit_seed)


# ---------------------------------------------------------------------------
# shared graded-separation sweep (criteria 1 and 2)


@pytest.fixture(scope="module")
def delta_sweep():
    """4 separations x 5 trials on the graded self-exciting benchmark.

    Per fit: 400 sequences, 800 sweeps (400 burn-in), start range [3, 5]
    clusters.  Returns per-trial purity plus, for every trial, the posterior
    means of the two smallest per-sample sorted cluster base rates.
    """
    t0 = time.perf_counter()
    rows = []
    for di, delta in enumerate(DELTAS):
        row = []
        for trial in range(N_TRIALS):
            sim_seed, fit_seed = _seeds(11, di, trial)
            data = build_hawkes_delta_dataset(
                4, delta, n_per_cluster=100, horizon=10.0, seed=sim_seed)
            cfg = FitConfig.resolve(None, {
                "seed": fit_seed,
                "eval_fraction": 0.0,
                "pretrain": {"m_init": [3, 5], "rounds": 6},
                "sampler": {"iterations": 800, "burn_in": 400},
            })
            res = run_fit(data, cfg)
            truth = data.subset(res.train_idx).labels()
            lows, seconds = [], []
            for comps, k in zip(res.trace.components, res.trace.k):
                if k >= 2:
                    means = sorted(float(np.mean(c["mu"])) for c in comps)
                    lows.append(means[0])
                    seconds.append(means[1])
            row.append({
                "purity": purity(res.report.map_labels, truth),
                "mu_low": float(np.mean(lows)),
                "mu_second": float(np.mean(seconds)),
            })
        rows.append(row)
    return {"rows": rows, "wall": time.perf_counter() - t0}


def test_purity_rises_with_cluster_separation(delta_sweep):
    means = [float(np.mean([t["purity"] for t in row])) for row in delta_sweep["rows"]]
    diffs = np.diff(means)
    inversions = [-d for d in diffs if d < 0]
    trend_ok = len(inversions) <= 1 and all(v <= 0.03 for v in inversions)
    gap = means[-1] - means[0]
    wall = delta_sweep["wall"]
    passed = trend_ok and gap >= 0.15 and wall <= 1800.0
    _record(
        "1. purity trend over separations 0.2..0.8",
        passed,
        f"mean purity {[round(m, 3) for m in means]}, inversions "
        f"{[round(v, 3) for v in inversions]} (allowed: <=1 of <=0.03), "
        f"gap {gap:.3f} (need >=0.15), wall {wall:.0f}s (budget 1800s)",
    )


def test_two_smallest_base_rates_recovered(delta_sweep):
    row = delta_sweep["rows"][DELTAS.index(0.6)]
    hits = []
    for t in row:
        hits.append(abs(t["mu_low"] - 0.5) <= 0.15 and abs(t["mu_second"] - 1.1) <= 0.15)
    stats = ", ".join(
        f"({t['mu_low']:.2f},{t['mu_second']:.2f})" for t in row)
    passed = sum(hits) >= 4
    _record(
        "2. two smallest base rates near 0.5/1.1 at separation 0.6",
        passed,
        f"per-trial posterior means {stats}, within +/-0.15 in "
        f"{sum(hits)}/{N_TRIALS} trials (need >=4)",
    )


# ---------------------------------------------------------------------------
# mixed-dynamics benchmark (criterion 3)


def test_mixed_dynamics_clustering_quality():
    t0 = time.perf_counter()
    purities, aris = [], []
    for trial in range(N_TRIALS):
        sim_seed, fit_seed = _seeds(17, trial)
        data = build_hybrid_dataset(3, n_per_cluster=100, horizon=20.0, seed=sim_seed)
        cfg = FitConfig.resolve(None, {
            "seed": fit_seed,
            "eval_fraction": 0.0,
            "pretrain": {"m_init": [2, 4], "rounds": 6},
            "sampler": {"iterations": 800, "burn_in": 400},
        })
        res = run_fit(data, cfg)
        truth = data.subset(res.train_idx).labels()
        purities.append(purity(res.report.map_labels, truth))
        aris.append(ari(res.report.map_labels, truth))
    wall = time.perf_counter() - t0
    mean_p, mean_a = float(np.mean(purities)), float(np.mean(aris))
    passed = mean_p >= 0.80 and mean_a >= 0.60 and wall <= 1200.0
    _record(
        "3. mixed-dynamics labeling (steady + periodic + bursty)",
        passed,
        f"mean purity {mean_p:.3f} (need >=0.80), mean ARI {mean_a:.3f} "
        f"(need >=0.60) over {N_TRIALS} trials, wall {wall:.0f}s (budget 1200s)",
    )


# ---------------------------------------------------------------------------
# cluster-count identification (criterion 4)


def test_cluster_count_identified_on_two_rate_poisson():
    t0 = time.perf_counter()
    sim_seed, fit_seed = _seeds(13)
    data = sample_mixture(
        [HomogeneousPoisson([0.2]), HomogeneousPoisson([5.0])],
        horizon=50.0, n_per_component=50, seed=sim_seed)
    cfg = FitConfig.resolve(None, {
        "seed": fit_seed,
        "eval_fraction": 0.0,
        "pretrain": {"m_init": [1, 3], "rounds": 6},
        "sampler": {"iterations": 500, "burn_in": 200},
    })
    res = run_fit(data, cfg)
    wall = time.perf_counter() - t0
    truth = data.subset(res.train_idx).labels()
    frac2 = float(np.mean(np.asarray(res.trace.k) == 2))
    p = purity(res.report.map_labels, truth)
    passed = frac2 >= 0.95 and p >= 0.95 and wall <= 60.0
    _record(
        "4. cluster count on 0.2-vs-5.0 two-rate data",
        passed,
        f"k=2 in {frac2:.1%} of stored samples (need >=95%), purity {p:.3f} "
        f"(need >=0.95), wall {wall:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# numerical property suite (criterion 5)


def test_numerical_property_suite():
    t0 = time.perf_counter()
    checks: list[tuple[str, bool, str]] = []

    grad = helpers.gradient_fd_max_rel_err(n_instances=100)
    checks.append(("gradient-vs-FD", grad < 1e-4, f"{grad:.2e}<1e-4"))

    comp = helpers.compensator_quad_max_rel_err()
    checks.append(("compensator-vs-quadrature", comp < 1e-6, f"{comp:.2e}<1e-6"))

    dup = helpers.dpp_duplicate_is_neg_inf()
    perm = helpers.dpp_permutation_max_abs(n_sets=25)
    ratio = helpers.dpp_ratio_vs_recompute_max_abs(n_sets=50)
    checks.append(("repulsive-prior-identities",
                   dup and perm <= 1e-10 and ratio <= 1e-8,
                   f"dup=-inf:{dup} perm={perm:.1e}<=1e-10 incr={ratio:.1e}<=1e-8"))

    ks_p = helpers.conjugate_vs_mh_min_ks_pvalue()
    checks.append(("conjugate-vs-MH-marginals", ks_p > 0.01, f"min KS p={ks_p:.3f}>0.01"))

    mh_worst, mh_counts = helpers.mh_oracle_max_abs_diff(n_per_move=100)
    n_min = min(mh_counts.values())
    checks.append(("MH-ratios-vs-log-joint-oracle",
                   mh_worst <= 1e-8 and n_min >= 100,
                   f"worst={mh_worst:.1e}<=1e-8 over {dict(mh_counts)}"))

    psi = helpers.psi_quad_max_rel_err()
    checks.append(("weight-integral-closed-form", psi < 1e-8, f"{psi:.1e}<1e-8"))

    ari_err = helpers.ari_bruteforce_max_abs_diff(n_instances=50)
    checks.append(("ari-vs-pair-counting", ari_err <= 1e-12, f"{ari_err:.1e}<=1e-12"))

    mean_count = helpers.thinning_poisson_mean_count(n_reps=1000)
    band = 3.0 * 10.0 / np.sqrt(1000.0)
    checks.append(("thinning-count-calibration",
                   abs(mean_count - 100.0) <= band,
                   f"|{mean_count:.2f}-100|<={band:.2f}"))

    sim_det = helpers.simulate_deterministic()
    fit_det = helpers.fit_deterministic()
    checks.append(("bit-exact-determinism", sim_det and fit_det,
                   f"simulate:{sim_det} fit:{fit_det}"))

    wall = time.perf_counter() - t0
    failed = [name for name, ok, _ in checks if not ok]
    detail = "; ".join(f"{name} {msg}" for name, _, msg in checks)
    passed = not failed and wall <= 300.0
    _record(
        "5. numerical property suite",
        passed,
        f"{detail}; wall {wall:.0f}s (budget 300s)"
        + (f"; FAILED: {failed}" if failed else ""),
    )
