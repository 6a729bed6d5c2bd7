"""End-to-end command-line workflows, run in process via main(argv)."""

import copy
import json
import math
import re
import warnings

import numpy as np
import pytest

import tppcluster.cli as cli
import tppcluster.sampler as sampler
from tppcluster.cli import FitConfig, _draw_m_init, _merge, _rle, main
from tppcluster.core import ConfigError, Dataset, EventSequence, NumericalError, read_jsonl, write_jsonl


def _simulate(tmp_path, name="sim", k=2, delta=1.0, n=5, horizon=5.0, seed=11):
    out = tmp_path / name
    rc = main([
        "simulate", "--recipe", "hawkes-delta", "--k", str(k), "--delta", str(delta),
        "--n-per-cluster", str(n), "--horizon", str(horizon), "--seed", str(seed),
        "--out", str(out),
    ])
    assert rc == 0
    return out


def _fit(tmp_path, data_path, name="fit", extra=()):
    out = tmp_path / name
    rc = main([
        "fit", "--data", str(data_path), "--iterations", "40", "--burn-in", "20",
        "--m-init", "2", "--seed", "2", "--out", str(out), *extra,
    ])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_dataset_bundle(tmp_path):
    out = _simulate(tmp_path, k=2, n=4, horizon=3.0)
    assert (out / "dataset.jsonl").exists()
    assert (out / "dataset.meta.json").exists()
    assert (out / "config.snapshot.json").exists()
    data = read_jsonl(out / "dataset.jsonl")
    assert len(data.sequences) == 8
    assert all(s.label in (0, 1) for s in data.sequences)
    meta = json.loads((out / "dataset.meta.json").read_text())
    assert meta["recipe"] == "hawkes_delta" and meta["n_sequences"] == 8


def test_simulate_full_grid_point(tmp_path):
    out = tmp_path / "grid"
    rc = main(["simulate", "--recipe", "hawkes-delta", "--k", "4", "--delta", "0.6",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    data = read_jsonl(out / "dataset.jsonl")
    assert len(data.sequences) == 400  # 4 clusters x default 100
    labels = [s.label for s in data.sequences]
    assert all(labels.count(m) == 100 for m in range(4))
    snapshot = json.loads((out / "config.snapshot.json").read_text())
    assert snapshot["horizon"] == 10.0  # recipe default applied


def test_simulate_is_byte_reproducible(tmp_path):
    a = _simulate(tmp_path, name="a", seed=9)
    b = _simulate(tmp_path, name="b", seed=9)
    assert (a / "dataset.jsonl").read_bytes() == (b / "dataset.jsonl").read_bytes()


def test_simulate_requires_delta_for_graded_recipe(tmp_path, capsys):
    out = tmp_path / "x"
    rc = main(["simulate", "--recipe", "hawkes-delta", "--k", "2",
               "--out", str(out)])
    assert rc == 1
    assert "delta" in capsys.readouterr().err
    assert not out.exists()
    for bad in ("nan", "inf", "-0.5"):
        rc = main(["simulate", "--recipe", "hawkes-delta", "--k", "2", "--delta", bad,
                   "--out", str(out)])
        assert rc == 1
        assert f"delta must be a finite nonnegative number, got {float(bad)}" in capsys.readouterr().err
        assert not out.exists()
    # a delta whose total base rate overflows is an input error, raised before
    # any model is built, so numpy warns of no overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", "--recipe", "hawkes-delta", "--k", "2", "--delta", "1e308",
                   "--n-per-cluster", "1", "--horizon", "1", "--out", str(out)])
    assert rc == 1
    assert "--delta: delta 1e+308 overflows the total base rate" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_checks_hybrid_k_before_output(tmp_path, capsys):
    out = tmp_path / "x"
    for k in ("2", "6"):
        rc = main(["simulate", "--recipe", "hybrid", "--k", k, "--out", str(out)])
        assert rc == 1
        assert f"--k must be 3, 4 or 5 for the hybrid recipe, got {k}" in capsys.readouterr().err
        assert not out.exists()


def test_simulate_rejects_bad_horizon_and_cluster_size(tmp_path, capsys):
    cases = [(["--horizon", h], f"--horizon must be a finite positive number, got {float(h)}")
             for h in ("nan", "inf", "-1", "0")]
    cases += [(["--n-per-cluster", n], f"--n-per-cluster must be >= 1, got {n}")
              for n in ("-3", "0")]
    cases += [(["--k", k], f"--k must be >= 1, got {k}") for k in ("0", "-2")]
    cases += [(["--seed", "-1"], "--seed must be >= 0, got -1")]
    # a count no memory holds fails before SeedSequence.spawn or the component list
    cases += [(["--n-per-cluster", "1000000000000"],
               "--k * --n-per-cluster must be at most 100000, got 3 * 1000000000000"),
              (["--k", "4611686018427387904", "--n-per-cluster", "1"],
               "--k * --n-per-cluster must be at most 100000, got 4611686018427387904 * 1")]
    for recipe in (["hawkes-delta", "--delta", "0.5"], ["hybrid"]):
        for flags, message in cases:
            out = tmp_path / "x"
            rc = main(["simulate", "--recipe", *recipe, "--k", "3", *flags, "--out", str(out)])
            assert rc == 1
            assert message in capsys.readouterr().err
            assert not out.exists()


def test_hybrid_recipe_default_horizon(tmp_path):
    out = tmp_path / "hy"
    rc = main(["simulate", "--recipe", "hybrid", "--k", "3", "--n-per-cluster", "2",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    meta = json.loads((out / "dataset.meta.json").read_text())
    assert meta["horizon"] == 20.0


# ---------------------------------------------------------------------------
# fit


def test_fit_writes_trace_and_report(tmp_path):
    sim = _simulate(tmp_path)
    out = _fit(tmp_path, sim / "dataset.jsonl")
    assert (out / "resolved_config.json").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["iterations"] == 40 and report["burn_in"] == 20
    assert report["m_init"] == 2
    assert report["data_path"].endswith("dataset.jsonl")
    assert len(report["train_ids"]) + len(report["eval_ids"]) == 10
    assert report["eval_ids"]  # default eval fraction keeps a held-out split
    assert report["map"] is not None
    assert 1.0 <= report["k_mean"] <= 4.0
    trace = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    assert len(trace) == 20
    for rec in trace:
        assert sum(count for _, count in rec["labels_rle"]) == len(report["train_ids"])
        assert rec["k"] == len({label for label, _ in rec["labels_rle"]}) == len(rec["components"])


def test_fit_rejects_bad_sampler_lengths(tmp_path, capsys):
    sim = _simulate(tmp_path)
    rc = main(["fit", "--data", str(sim / "dataset.jsonl"), "--iterations", "0",
               "--out", str(tmp_path / "f0")])
    assert rc == 1
    assert "exceed burn_in" in capsys.readouterr().err
    rc = main(["fit", "--data", str(sim / "dataset.jsonl"), "--iterations", "10",
               "--burn-in", "10", "--out", str(tmp_path / "f1")])
    assert rc == 1


def test_fit_rejects_unknown_config_keys(tmp_path):
    sim = _simulate(tmp_path)
    bad_top = tmp_path / "bad_top.json"
    bad_top.write_text(json.dumps({"sampller": {}}))
    rc = main(["fit", "--data", str(sim / "dataset.jsonl"), "--config", str(bad_top),
               "--out", str(tmp_path / "g0")])
    assert rc == 1
    bad_nested = tmp_path / "bad_nested.json"
    bad_nested.write_text(json.dumps({"sampler": {"iters": 5}}))
    rc = main(["fit", "--data", str(sim / "dataset.jsonl"), "--config", str(bad_nested),
               "--out", str(tmp_path / "g1")])
    assert rc == 1


def test_fit_rejects_removed_s_w_key(tmp_path, capsys):
    sim = _simulate(tmp_path)
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({"sampler": {"s_w": 0.4}}))
    rc = main(["fit", "--data", str(sim / "dataset.jsonl"), "--config", str(cfg),
               "--out", str(tmp_path / "old")])
    assert rc == 1
    assert "unknown config.sampler key: 's_w'" in capsys.readouterr().err


def test_fit_rejects_malformed_m_init(tmp_path, capsys):
    sim = _simulate(tmp_path)
    for bad in ("x", "2:y", "3:", ":3"):
        rc = main(["fit", "--data", str(sim / "dataset.jsonl"), "--m-init", bad,
                   "--out", str(tmp_path / "m")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--m-init" in err and repr(bad) in err


def test_fit_rejects_non_finite_times(tmp_path, capsys):
    cases = {
        "s-nan": '"T":5.0,"events":[{"t":1.0,"d":1},{"t":NaN,"d":1}]',
        "s-inf": '"T":Infinity,"events":[{"t":1.0,"d":1}]',
    }
    for sid, body in cases.items():
        path = tmp_path / f"{sid}.jsonl"
        path.write_text('{"id":"ok","T":5.0,"events":[{"t":0.5,"d":1}]}\n'
                        f'{{"id":"{sid}",{body}}}\n')
        rc = main(["fit", "--data", str(path), "--iterations", "4", "--burn-in", "2",
                   "--out", str(tmp_path / sid)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{path}:2: bad record ({sid}: " in err


@pytest.mark.parametrize("text, key", [
    ('{"sampler": {"iterations": "abc"}}', "config.sampler.iterations"),
    ('{"sampler": {"iterations": null}}', "config.sampler.iterations"),
    ('{"sampler": {"iterations": 40.7}}', "config.sampler.iterations"),
    ('{"sampler": {"burn_in": true}}', "config.sampler.burn_in"),
    ('{"prior": {"dpp": {"box_lo": 5, "box_hi": 6}}}', "config.prior.dpp.box_lo"),
    ('{"prior": {"dpp": {"lattice_radius": "2"}}}', "config.prior.dpp.lattice_radius"),
    ('{"prior": {"dpp": {"alpha": -1}}}', "config.prior.dpp"),
    ('{"prior": {"dpp": {"lattice_radius": 0}}}',
     "config.prior.dpp: dpp lattice_radius must be"),
    ('{"prior": {"dpp": {"box_lo": [0.1], "box_hi": [5.0]}}}', "config.prior.dpp.box_lo"),
    ('{"prior": {"dpp": {"box_lo": [0.1, 0.1, 0.1], "box_hi": [5.0, 5.0]}}}',
     "config.prior.dpp: dpp box_lo and box_hi must have equal"),
    ('{"prior": {"dpp": {"box_lo": [0.1, 2.0, 0.1], "box_hi": [5.0, 1.0, 5.0]}}}',
     "config.prior.dpp: dpp box must satisfy"),
    ('{"prior": {"dpp": {"box_lo": [0.0, 0.1, 0.1], "box_hi": [5.0, 5.0, 5.0]}}}',
     "config.prior.dpp: dpp box must satisfy"),
    ('{"prior": "x"}', "config.prior"),
    ("[1, 2]", "config"),
    ('{"pretrain": {"m_init": [1, "x"]}}', "config.pretrain.m_init"),
    ('{"pretrain": {"m_init": [0, 2]}}', "config.pretrain: m_init must be"),
    ('{"pretrain": {"m_init": 0}}', "config.pretrain: m_init must be"),
    ('{"pretrain": {"m_init": -2}}', "config.pretrain: m_init must be"),
    ('{"pretrain": {"m_init": [5, 3]}}', "config.pretrain: m_init must be"),
    ('{"seed": -1}', "config.seed"),
    ('{"seed": 1.5}', "config.seed"),
    ('{"eval_fraction": "0.1"}', "config.eval_fraction"),
    ('{"basis": {"n_basis": 0}}', "config.basis"),
    ('{"basis": {"tau_max": -1.0}}', "config.basis"),
    ('{"basis": {"sigma": 0}}', "config.basis"),
    # a bump squares (lag - center) / sigma, which reaches tau_max / sigma
    ('{"basis": {"sigma": 1e-160}}', "basis sigma 1e-160 is too small for tau_max"),
    # the likelihood subtracts each horizon times sum(mu), which box_hi bounds
    ('{"prior": {"dpp": {"box_lo": [1, 1, 1], "box_hi": [1e308, 1e308, 1e308]}}}',
     "config.prior.dpp.box_hi sums to inf; times the dataset's total observation time"),
    # the alphabet comes from the dataset alone (its sidecar, else its largest mark)
    ('{"data": {"n_types": 0}}', "unknown config.data key:"),
    ('{"prior": {"dpp": {"alpha": 1e308}}}', "repulsive-prior spectral density overflows "
     "at prior.dpp.rho=4, prior.dpp.alpha=1e+308 for q=3"),
    ('{"prior": {"dpp": {"rho": 1e308, "alpha": 10}}}', "repulsive-prior spectral density "
     "overflows at prior.dpp.rho=1e+308, prior.dpp.alpha=10 for q=3"),
    ('{"prior": {"dpp": {"alpha": 1e-150}}}', "repulsive-prior spectral density underflows "
     "to zero at prior.dpp.rho=4, prior.dpp.alpha=1e-150 for q=3"),
    ('{"sampler": {"s_mu": 1e308}}', "config.sampler: proposal scale s_mu must lie in (0, 1] "
     "prior-box widths, got"),
    ('{"sampler": {"s_mu": 1.5}}', "config.sampler: proposal scale s_mu"),
    # a Langevin step's gradient term and a spare's Exp(beta_w) weights overflow
    ('{"prior": {"beta_w": 1e-20, "sgld": {"eps0": 1e307}}}', "config.prior: prior.beta_w "
     "1e-20 with prior.sgld.eps0 1e+307 overflows the triggering weights: a Langevin step's "
     "move per unit gradient 0.5 * eps0 is"),
    ('{"prior": {"beta_w": 1e-308}}', "config.prior: prior.beta_w 1e-308 with prior.sgld.eps0 "
     "0.0001 overflows the triggering weights: a spare weight's mean 1 / beta_w is"),
    ('{"basis": {"n_basis": 3000000}}', "config.basis: n_basis must lie in [1, 100],"),
    # eight sequences, six of them in the training split
    ('{"pretrain": {"m_init": [2, 7]}}', "config.pretrain.m_init [2, 7] exceeds the limit of 6, "
     "the number of training sequences"),
    # the likelihood subtracts each horizon times sum(mu), which the factor box bounds too
    ('{"prior": {"dpp": {"hi_factor": 1e308}}}', "config.prior.dpp.hi_factor 1e+308 gives a "
     "box_hi that sums to 2e+307; times the dataset's total observation time"),
    ('{"basis": {"tau_max": 5e-324}}', "basis tau_max 4.94066e-324 is too small for 3 bumps"),
    ('{"pretrain": {"learning_rate": 0}}', "config.pretrain: pretrain learning_rate must be "
     "positive,"),
])
def test_fit_rejects_mistyped_config(tmp_path, capsys, text, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    data = tmp_path / "data.jsonl"  # eight sequences that each hold an event of type 3
    data.write_text("".join(f'{{"id":"s{i}","T":5.0,"events":[{{"t":1.0,"d":3}}]}}\n'
                            for i in range(8)))
    out = tmp_path / "out"
    assert main(["fit", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()  # a rejected fit writes nothing, resolved_config.json included
    err = capsys.readouterr().err.splitlines()
    key = key.format(data=data)
    assert len(err) == 1 and re.match(rf"error: {re.escape(key)}[ :]", err[0]), err
    assert len(err[0]) < 500, err  # one problem per message, not a list


def test_fit_rejects_an_initial_state_of_prior_density_zero(tmp_path, capsys):
    """At alpha 2 the clipped spectral density makes the Gram matrix of any
    two or more base-rate vectors singular, so a chain started from three
    components could never leave them (every stored log joint was -inf);
    the fit exits 1 naming rho, alpha and the component count and writes
    nothing.  At alpha 1 the same fit runs."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--recipe", "hawkes-delta", "--k", "2", "--delta", "0.6",
                 "--n-per-cluster", "5", "--seed", "1", "--out", str(sim)]) == 0
    for alpha, rc in (("2.0", 1), ("1.0", 0)):
        cfg = tmp_path / f"cfg-{alpha}.json"
        cfg.write_text(f'{{"prior": {{"dpp": {{"alpha": {alpha}}}}}}}')
        out = tmp_path / f"fit-{alpha}"
        assert main(["fit", "--data", str(sim / "dataset.jsonl"), "--config", str(cfg),
                     "--iterations", "20", "--burn-in", "10", "--m-init", "3",
                     "--out", str(out)]) == rc
        assert out.exists() == (rc == 0)
    err = capsys.readouterr().err
    assert ("error: the initial state's 3 components have repulsive-prior density zero "
            "(a singular Gram matrix) at prior.dpp.rho=3, prior.dpp.alpha=2;") in err, err


def test_fit_rejects_non_integer_labels(tmp_path, capsys):
    for label in ('"x"', "1.5", str(10**30)):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"id":"a","T":5.0,"label":0,"events":[{"t":0.5,"d":1}]}\n'
                        f'{{"id":"b","T":5.0,"label":{label},"events":[{{"t":1.0,"d":1}}]}}\n')
        assert main(["fit", "--data", str(path), "--out", str(tmp_path / "f")]) == 1
        err = capsys.readouterr().err
        assert f"{path}:2:" in err and "label must be an integer" in err


def test_fit_refuses_a_large_alphabet_before_the_store(tmp_path, capsys, monkeypatch):
    def store(*_args, **_kwargs):
        raise AssertionError("the feature store was built")

    monkeypatch.setattr(cli, "FeatureSet", store)
    path = tmp_path / "wide.jsonl"
    path.write_text('{"id":"a","T":5.0,"events":[{"t":0.5,"d":1},{"t":1.0,"d":10000}]}\n')
    # one sequence holds at most one initial cluster
    assert main(["fit", "--data", str(path), "--m-init", "1", "--out", str(tmp_path / "f")]) == 1
    err = capsys.readouterr().err
    assert "(2L+1)^q = 5^10000 frequencies" in err and "prior.dpp.lattice_radius" in err
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("text, problem", [
    ("[1]", "not a JSON object"),
    ('{"n_types": "x"}', "n_types must be a positive integer, got 'x'"),
])
def test_fit_rejects_malformed_sidecar(tmp_path, capsys, text, problem):
    sim = _simulate(tmp_path)
    sidecar = sim / "dataset.meta.json"
    sidecar.write_text(text)
    assert main(["fit", "--data", str(sim / "dataset.jsonl"), "--iterations", "4",
                 "--burn-in", "2", "--out", str(tmp_path / "f")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: malformed metadata {sidecar}: {problem}"]


def test_fit_input_error_paths(tmp_path, capsys):
    sim = _simulate(tmp_path)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["fit", "--data", str(sim / "dataset.jsonl"), "--config", str(broken),
                 "--out", str(tmp_path / "e0")]) == 1
    assert main(["fit", "--data", str(tmp_path / "nowhere.jsonl"),
                 "--out", str(tmp_path / "e1")]) == 1
    assert main(["fit", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "e2")]) == 1
    assert main(["fit", "--out", str(tmp_path / "e3")]) == 1  # no dataset anywhere
    capsys.readouterr()


@pytest.mark.parametrize("command", ["simulate", "fit", "eval", "sweep"])
def test_out_that_is_a_file_is_rejected_before_any_work(tmp_path, capsys, command):
    sim = _simulate(tmp_path) if command == "fit" else tmp_path / "sim"
    argv = {
        "simulate": ["simulate", "--recipe", "hybrid", "--k", "3", "--n-per-cluster", "2"],
        "fit": ["fit", "--data", str(sim / "dataset.jsonl"), "--iterations", "4",
                "--burn-in", "2"],
        "eval": ["eval", "--report", str(tmp_path / "fit" / "report.json"),
                 "--data", str(sim / "dataset.jsonl")],
        "sweep": ["sweep", "--deltas", "0.5", "--trials", "1", "--k", "2",
                  "--n-per-cluster", "2", "--iterations", "4", "--burn-in", "2"],
    }[command]
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    before = sorted(tmp_path.rglob("*"))
    for out in (afile, afile / "sub"):
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: --out {out}: {afile} exists and is not a directory\n")
    assert sorted(tmp_path.rglob("*")) == before
    assert afile.read_text() == "keep\n"


def test_unreadable_inputs_exit_1_naming_the_file(tmp_path, capsys):
    data = str(_simulate(tmp_path) / "dataset.jsonl")
    latin = tmp_path / "latin.jsonl"
    latin.write_bytes(b'{"id": "a", "T": 1.0, "events": []}\n'
                      b'{"id": "caf\xe9", "T": 1.0, "events": []}\n')
    latin_cfg = tmp_path / "latin.json"
    latin_cfg.write_bytes(b'{"seed": "\xe9"}')
    cases = [
        (["fit", "--data", str(tmp_path)], f"cannot read dataset {tmp_path}: Is a directory"),
        (["fit", "--data", str(tmp_path / "nowhere.jsonl")],
         f"cannot read dataset {tmp_path / 'nowhere.jsonl'}: No such file or directory"),
        (["fit", "--data", str(latin)], f"{latin}:2: malformed JSON ('utf-8' codec"),
        (["fit", "--data", data, "--config", str(tmp_path)],
         f"cannot read config file {tmp_path}: Is a directory"),
        (["fit", "--data", data, "--config", str(latin_cfg)],
         f"malformed config file {latin_cfg}: 'utf-8' codec"),
        (["eval", "--report", str(tmp_path), "--data", data],
         f"cannot read report {tmp_path}: Is a directory"),
    ]
    for argv, message in cases:
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_fit_snapshot_rerun_is_identical(tmp_path):
    sim = _simulate(tmp_path)
    first = _fit(tmp_path, sim / "dataset.jsonl", name="run1")
    second = tmp_path / "run2"
    rc = main(["fit", "--config", str(first / "resolved_config.json"),
               "--out", str(second)])
    assert rc == 0
    assert (first / "trace.jsonl").read_bytes() == (second / "trace.jsonl").read_bytes()
    rep1 = json.loads((first / "report.json").read_text())
    rep2 = json.loads((second / "report.json").read_text())
    rep1.pop("wall_clock_sec")
    rep2.pop("wall_clock_sec")
    assert rep1 == rep2


# ---------------------------------------------------------------------------
# eval


def test_eval_scores_labeled_fit(tmp_path):
    sim = _simulate(tmp_path)
    fit = _fit(tmp_path, sim / "dataset.jsonl")
    out = tmp_path / "ev"
    rc = main(["eval", "--report", str(fit / "report.json"),
               "--data", str(sim / "dataset.jsonl"), "--out", str(out)])
    assert rc == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["purity"] is not None and 0.0 <= metrics["purity"] <= 1.0
    assert metrics["ari"] is not None and -1.0 <= metrics["ari"] <= 1.0
    assert metrics["ell"] is not None  # held-out split exists
    assert metrics["ell_on_train"] is False
    csv = (out / "metrics.csv").read_text().splitlines()
    assert csv[0] == "purity,ari,ell,k_mean"
    assert len(csv) == 2 and csv[1].count(",") == 3


def test_eval_unlabeled_dataset_reports_ell_only(tmp_path):
    sim = _simulate(tmp_path, n=8)
    data = read_jsonl(sim / "dataset.jsonl")
    stripped = Dataset(
        [EventSequence(s.times, s.types, s.horizon, id=s.id, label=None)
         for s in data.sequences],
        data.n_types,
    )
    plain = tmp_path / "plain.jsonl"
    write_jsonl(stripped, plain)
    fit = _fit(tmp_path, plain, name="fit_plain")
    out = tmp_path / "ev_plain"
    rc = main(["eval", "--report", str(fit / "report.json"), "--data", str(plain),
               "--out", str(out)])
    assert rc == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["purity"] is None and metrics["ari"] is None
    assert metrics["ell"] is not None
    row = (out / "metrics.csv").read_text().splitlines()[1]
    assert row.startswith(",,")


def test_eval_train_fallback_for_ell(tmp_path):
    sim = _simulate(tmp_path)
    fit = _fit(tmp_path, sim / "dataset.jsonl", name="fit_all",
               extra=("--eval-fraction", "0.0"))
    report = json.loads((fit / "report.json").read_text())
    assert report["eval_ids"] == []
    out1 = tmp_path / "no_flag"
    assert main(["eval", "--report", str(fit / "report.json"),
                 "--data", str(sim / "dataset.jsonl"), "--out", str(out1)]) == 0
    assert json.loads((out1 / "metrics.json").read_text())["ell"] is None
    out2 = tmp_path / "with_flag"
    assert main(["eval", "--report", str(fit / "report.json"),
                 "--data", str(sim / "dataset.jsonl"), "--ell-on-train",
                 "--out", str(out2)]) == 0
    metrics = json.loads((out2 / "metrics.json").read_text())
    assert metrics["ell"] is not None and metrics["ell_on_train"] is True


def test_eval_requires_matching_dataset(tmp_path, capsys):
    sim = _simulate(tmp_path)
    fit = _fit(tmp_path, sim / "dataset.jsonl")
    other = _simulate(tmp_path, name="other", n=3, seed=99)
    rc = main(["eval", "--report", str(fit / "report.json"),
               "--data", str(other / "dataset.jsonl"), "--out", str(tmp_path / "ex")])
    assert rc == 1
    assert main(["eval", "--report", str(tmp_path / "no_report.json"),
                 "--data", str(sim / "dataset.jsonl"),
                 "--out", str(tmp_path / "ey")]) == 1
    capsys.readouterr()
    rep = json.loads((fit / "report.json").read_text())

    def no_centers(r):
        r["map"]["basis"]["centers"] = []
        for c in r["map"]["components"] + r["map"]["spare_components"]:
            c["w"] = [[[] for _ in row] for row in c["w"]]

    edits = {
        "no_basis.json": lambda r: r["map"].pop("basis"),
        "k_mean.json": lambda r: r.update(k_mean="x"),
        "k_hist.json": lambda r: r.update(k_hist=[1]),
        "short_mu.json": lambda r: r["map"]["components"][0].update(mu=[1.0]),
        "short_w.json": lambda r: r["map"]["spare_components"].append(
            {**r["map"]["components"][0], "w": [[[0.1]]]}),
        "labels.json": lambda r: r["map"]["labels"].__setitem__(0, 99),
        "u_true.json": lambda r: r["map"].update(u=True),
        "u_string.json": lambda r: r["map"].update(u="1"),
        "nan_mu.json": lambda r: r["map"]["components"][0]["mu"].__setitem__(0, math.nan),
        "nan_sigma.json": lambda r: r["map"]["basis"].update(sigma=math.nan),
        # numbers written as other JSON values: numpy would convert them
        "sigma_true.json": lambda r: r["map"]["basis"].update(sigma=True),
        "tau_max_string.json": lambda r: r["map"]["basis"].update(
            tau_max=str(r["map"]["basis"]["tau_max"])),
        "centers_string.json": lambda r: r["map"]["basis"].update(
            centers=[str(c) for c in r["map"]["basis"]["centers"]]),
        "mu_string.json": lambda r: r["map"]["components"][0].update(
            mu=[str(v) for v in r["map"]["components"][0]["mu"]]),
        "w_true.json": lambda r: r["map"]["components"][0]["w"][0][0].__setitem__(0, True),
        "no_centers.json": no_centers,
        "huge_label.json": lambda r: r["map"]["labels"].__setitem__(0, 10**30),
        "train_ids.json": lambda r: r.update(train_ids=5),
        "eval_ids.json": lambda r: r.update(eval_ids=[[1]]),
    }
    cases = [("truncated.json", '{"train_ids": ['), ("list.json", "[]")]
    for name, edit in edits.items():
        bad_rep = copy.deepcopy(rep)
        edit(bad_rep)
        cases.append((name, json.dumps(bad_rep)))
    for name, text in cases:
        bad = tmp_path / name
        bad.write_text(text)
        assert main(["eval", "--report", str(bad), "--data", str(sim / "dataset.jsonl"),
                     "--out", str(tmp_path / "ez")]) == 1
        assert f"malformed report {bad}: " in capsys.readouterr().err
    # a dataset with a repeated id would score one sequence twice and another never
    lines = (sim / "dataset.jsonl").read_text().splitlines()
    lines[5] = lines[5].replace('"seq-0005"', '"seq-0000"')
    dup = tmp_path / "dup.jsonl"
    dup.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--report", str(fit / "report.json"), "--data", str(dup),
                 "--out", str(tmp_path / "ed")]) == 1
    assert (f"error: {dup}:6: duplicate sequence id 'seq-0000' (first on line 1)"
            in capsys.readouterr().err)
    assert not (tmp_path / "ed").exists()


def test_eval_rejects_a_held_out_sequence_that_breaks_the_contract(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert main(["simulate", "--recipe", "hawkes-delta", "--k", "2", "--delta", "1",
                 "--n-per-cluster", "4", "--seed", "1", "--out", str(sim)]) == 0
    fit = tmp_path / "fit"
    assert main(["fit", "--data", str(sim / "dataset.jsonl"), "--iterations", "6",
                 "--burn-in", "3", "--m-init", "2", "--out", str(fit)]) == 0
    assert json.loads((fit / "report.json").read_text())["eval_ids"] == ["seq-0005", "seq-0006"]
    lines = (sim / "dataset.jsonl").read_text().splitlines()
    sidecar = (sim / "dataset.meta.json").read_text()

    def swap(ev, _):
        ev[0]["t"], ev[1]["t"] = ev[1]["t"], ev[0]["t"]

    probes = {  # an edit of seq-0005 (line 6), and the error it must give
        "unsorted": (swap, ":6: bad record (seq-0005: timestamps not strictly increasing)"),
        "late": (lambda ev, T: ev[-1].update(t=T + 5),
                 ":6: bad record (seq-0005: event times outside (0, 10.0])"),
        "zero_mark": (lambda ev, _: ev[0].update(d=0),
                      ":6: bad record (seq-0005: negative event type)"),
        "wide_mark": (lambda ev, _: ev[0].update(d=9),
                      ": seq-0005: event type 9 exceeds declared type count 3"),
    }
    capsys.readouterr()
    for name, (edit, problem) in probes.items():
        rec = json.loads(lines[5])
        edit(rec["events"], rec["T"])
        bad = tmp_path / f"{name}.jsonl"
        bad.write_text("\n".join(lines[:5] + [json.dumps(rec)] + lines[6:]) + "\n")
        (tmp_path / f"{name}.meta.json").write_text(sidecar)
        out = tmp_path / f"ev_{name}"
        assert main(["eval", "--report", str(fit / "report.json"), "--data", str(bad),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bad}{problem}\n"
        assert not (out / "metrics.json").exists()


def test_the_dataset_alone_declares_its_alphabet(tmp_path, capsys):
    """A sidecar may declare more types than the marks use; fit and eval
    then read the same alphabet, so eval scores the report fit wrote."""
    sim = _simulate(tmp_path, delta=0.6, n=4, horizon=6.0, seed=3)
    meta = json.loads((sim / "dataset.meta.json").read_text())
    assert meta["n_types"] == 3
    (sim / "dataset.meta.json").write_text(json.dumps({**meta, "n_types": 4}))
    fit, ev = tmp_path / "fit", tmp_path / "eval"
    assert main(["fit", "--data", str(sim / "dataset.jsonl"), "--iterations", "6",
                 "--burn-in", "2", "--m-init", "2", "--out", str(fit)]) == 0
    report = json.loads((fit / "report.json").read_text())
    assert all(len(comp["mu"]) == 4 for comp in report["map"]["components"])
    assert main(["eval", "--report", str(fit / "report.json"), "--data",
                 str(sim / "dataset.jsonl"), "--out", str(ev)]) == 0
    assert (ev / "metrics.json").exists()


def test_inputs_at_the_new_limits_fit(tmp_path, capsys):
    """beta_w 1e-300 (spare weights of mean 1e300) fits with finite log
    joints and no RuntimeWarning, and m_init may reach the six training
    sequences."""
    sim = _simulate(tmp_path, delta=0.6, n=4, horizon=6.0, seed=3)
    for name, text, m_init in (("beta_w", '{"prior": {"beta_w": 1e-300}}', "2"),
                               ("m_init", "{}", "6")):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(text)
        out = tmp_path / name
        assert main(["fit", "--data", str(sim / "dataset.jsonl"), "--config", str(cfg),
                     "--iterations", "6", "--burn-in", "2", "--m-init", m_init,
                     "--out", str(out)]) == 0
        log_joints = [json.loads(line)["log_joint"]
                      for line in (out / "trace.jsonl").read_text().splitlines()]
        assert len(log_joints) == 4 and all(math.isfinite(x) for x in log_joints)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_grid(tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--deltas", "0.3,0.9", "--trials", "1", "--k", "2",
               "--n-per-cluster", "4", "--horizon", "4.0", "--iterations", "15",
               "--burn-in", "5", "--seed", "3", "--out", str(out)])
    assert rc == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "delta,trial,purity,ari,ell,k_mean"
    assert len(rows) == 3
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert set(summary) == {"0.3", "0.9"}
    for stats in summary.values():
        assert 0.0 <= stats["purity"] <= 1.0
    for delta, row in zip(("0.3", "0.9"), rows[1:]):
        run = out / f"delta_{delta}" / "trial_0"
        assert (run / "trace.jsonl").exists()
        report = json.loads((run / "report.json").read_text())
        ell_val, k_mean = (float(x) for x in row.split(",")[4:])
        assert math.isfinite(ell_val)
        assert k_mean == report["k_mean"]
        assert report["eval_ids"] == [] and len(report["train_ids"]) == 8


def test_sweep_clips_its_m_init_range_to_the_sequences(tmp_path):
    """A cell of k = 4 and one sequence per cluster trains on four
    sequences, so its [k - 1, k + 1] start range is clipped to [3, 4]."""
    out = tmp_path / "sweep"
    assert main(["sweep", "--deltas", "0.6", "--trials", "1", "--k", "4",
                 "--n-per-cluster", "1", "--iterations", "4", "--burn-in", "1",
                 "--out", str(out)]) == 0
    report = json.loads((out / "delta_0.6" / "trial_0" / "report.json").read_text())
    assert len(report["train_ids"]) == 4 and report["m_init"] in (3, 4)


def test_sweep_argument_validation(tmp_path, capsys):
    assert main(["sweep", "--deltas", " ", "--out", str(tmp_path / "s1")]) == 1
    assert main(["sweep", "--deltas", "0.5", "--trials", "0",
                 "--out", str(tmp_path / "s2")]) == 1
    capsys.readouterr()
    assert main(["sweep", "--deltas", "0.5,abc", "--out", str(tmp_path / "s3")]) == 1
    assert "--deltas" in capsys.readouterr().err
    for deltas, bad in (("0.5,nan", "nan"), ("inf", "inf"), ("0.5,-1", "-1.0")):
        assert main(["sweep", "--deltas", deltas, "--out", str(tmp_path / "s4")]) == 1
        err = capsys.readouterr().err
        assert f"--deltas: delta must be a finite nonnegative number, got {bad}" in err
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--deltas", "0.5,1e308", "--out", str(tmp_path / "s4")]) == 1
    assert "--deltas: delta 1e+308 overflows the total base rate" in capsys.readouterr().err
    assert not (tmp_path / "s4").exists()
    for flag, bad in (("--horizon", "nan"), ("--horizon", "inf"),
                      ("--n-per-cluster", "-3"), ("--n-per-cluster", "0"),
                      ("--k", "0"), ("--k", "-2"), ("--seed", "-1"),
                      ("--n-per-cluster", "1000000000000"), ("--k", "4611686018427387904")):
        out = tmp_path / "s5"
        assert main(["sweep", "--deltas", "0.5", flag, bad, "--out", str(out)]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()  # rejected before any cell runs
    out = tmp_path / "s6"
    assert main(["sweep", "--deltas", "0.5", "--iterations", "5", "--burn-in", "10",
                 "--out", str(out)]) == 1
    assert "config.sampler: sampler iterations must exceed burn_in" in capsys.readouterr().err
    assert not out.exists()  # the fit config is resolved before any output


# ---------------------------------------------------------------------------
# process-level behaviour


def test_numerical_failures_exit_code(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli, "build_hawkes_delta_dataset", boom)
    rc = main(["simulate", "--recipe", "hawkes-delta", "--k", "2", "--delta", "0.5",
               "--out", str(tmp_path / "boom")])
    assert rc == 2


def test_fit_exits_2_on_a_stored_log_joint_that_is_not_finite(tmp_path, capsys, monkeypatch):
    """A stored log joint that is not finite ends the fit with exit 2 naming
    the sweep, and nothing is written.  (A beta_w so large that the w prior
    overflows, which once reached this check, is now refused as config.)"""
    sim = _simulate(tmp_path, delta=0.6, n=4, horizon=6.0, seed=3)
    monkeypatch.setattr(sampler, "state_log_joint", lambda *args, **kwargs: -math.inf)
    out = tmp_path / "fit"
    assert main(["fit", "--data", str(sim / "dataset.jsonl"), "--iterations", "4",
                 "--burn-in", "1", "--m-init", "2", "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "numerical failure: the log joint of the sample stored at sweep 2 is not finite" in err


def test_beta_w_that_overflows_the_w_prior_exits_1(tmp_path, capsys):
    """A Langevin step moves a triggering weight up to 0.5 * eps0 * beta_w, so
    beta_w * 0.5 * eps0 * beta_w may not exceed float max / 2^20: at the
    default eps0, beta_w 1e160 exits 1 naming both keys before any output,
    and 1.8e153, just inside the bound, fits with finite log joints."""
    sim = _simulate(tmp_path, delta=0.6, n=4, horizon=6.0, seed=3)
    for beta_w, rc in (("1e160", 1), ("1.8e153", 0)):
        cfg = tmp_path / f"cfg-{beta_w}.json"
        cfg.write_text(f'{{"prior": {{"beta_w": {beta_w}}}}}')
        out = tmp_path / f"fit-{beta_w}"
        assert main(["fit", "--data", str(sim / "dataset.jsonl"), "--config", str(cfg),
                     "--iterations", "25", "--burn-in", "5", "--m-init", "2",
                     "--out", str(out)]) == rc
        assert out.exists() == (rc == 0)
    err = capsys.readouterr().err
    assert "error: config.prior: prior.beta_w 1e+160 with prior.sgld.eps0 0.0001 overflows" in err
    assert "lower prior.beta_w or prior.sgld.eps0" in err
    log_joints = [json.loads(line)["log_joint"]
                  for line in (tmp_path / "fit-1.8e153" / "trace.jsonl").read_text().splitlines()]
    assert len(log_joints) == 20 and all(math.isfinite(x) for x in log_joints)
    with pytest.raises(ConfigError, match="prior.beta_w 1 with prior.sgld.eps0 1e\\+305"):
        FitConfig.resolve(None, {"prior": {"beta_w": 1.0, "sgld": {"eps0": 1e305}}})


def test_output_root_environment_variable(tmp_path, monkeypatch):
    root = tmp_path / "root"
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(root))
    rc = main(["simulate", "--recipe", "hawkes-delta", "--k", "2", "--delta", "1.0",
               "--n-per-cluster", "2", "--horizon", "2.0", "--out", "rel_run"])
    assert rc == 0
    assert (root / "rel_run" / "dataset.jsonl").exists()
    absolute = tmp_path / "abs_run"
    rc = main(["simulate", "--recipe", "hawkes-delta", "--k", "2", "--delta", "1.0",
               "--n-per-cluster", "2", "--horizon", "2.0", "--out", str(absolute)])
    assert rc == 0
    assert (absolute / "dataset.jsonl").exists()
    assert not (root / str(absolute).lstrip("/")).exists()


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# helpers behind the commands


def test_label_run_length_coding():
    for labels in ([], [0], [0, 0, 1, 1, 1, 0], list(np.random.default_rng(0).integers(0, 3, 40))):
        arr = np.asarray(labels, dtype=np.int64)
        pairs = _rle(arr)
        values, counts = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        assert np.array_equal(np.repeat(values, counts), arr)
        assert all(count >= 1 for _, count in pairs)


def test_draw_m_init():
    rng = np.random.default_rng(0)
    assert _draw_m_init(3, rng) == 3
    spec = FitConfig.resolve(None, {"pretrain": {"m_init": [2, 4]}}).pretrain.m_init
    assert spec == (2, 4)  # a resolved range is a tuple
    draws = {_draw_m_init(spec, rng) for _ in range(200)}
    assert draws == {2, 3, 4}
    # a malformed range is rejected when the config resolves, before any draw
    for bad in ([4, 2], [1, 2, 3]):
        with pytest.raises(ConfigError, match=r"^config\.pretrain"):
            FitConfig.resolve(None, {"pretrain": {"m_init": bad}})


def test_merge_semantics():
    base = {"a": 1, "nest": {"x": 1, "y": 2}}
    merged = _merge(base, {"nest": {"y": 7}})
    assert merged == {"a": 1, "nest": {"x": 1, "y": 7}}
    assert base["nest"]["y"] == 2  # input untouched
    with pytest.raises(ConfigError, match="nest"):
        _merge(base, {"nest": {"z": 0}})


def test_fit_config_validation():
    with pytest.raises(ConfigError):
        FitConfig.resolve(None, {"eval_fraction": 1.0})
    with pytest.raises(ConfigError):
        FitConfig.resolve(None, {"sampler": {"iterations": 5, "burn_in": 9}})
    cfg = FitConfig.resolve(None, {"pretrain": {"m_init": [2, 5]}})
    assert cfg.pretrain.m_init == (2, 5)
    assert math.isclose(cfg.prior.beta_w, 10.0)
