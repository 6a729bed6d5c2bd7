"""The package names the benchmark harness in ``bench/`` wraps and reads.

``bench/tracing.py`` wraps package functions by name and reads the info
records of the sweep moves; ``bench/kernels.py`` reads feature-store and
repulsive-prior attributes.  Deleting or renaming one of them breaks the
traced benchmark run, and these tests with it.
"""

import sys
from pathlib import Path

import tppcluster.cli as cli
import tppcluster.sampler as sampler
from tppcluster.cli import main
from tppcluster.core import write_jsonl
from tppcluster.simulate import build_hawkes_delta_dataset

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import kernels  # noqa: E402
import tracing  # noqa: E402


def test_traced_fit_and_kernels_run_on_the_package(tmp_path):
    data = build_hawkes_delta_dataset(2, 1.0, n_per_cluster=5, horizon=5.0, seed=11)
    write_jsonl(data, tmp_path / "data.jsonl")
    tracer = tracing.Tracer()
    try:
        tracer.install_layers()
        assert main(["fit", "--data", str(tmp_path / "data.jsonl"), "--iterations", "6",
                     "--burn-in", "3", "--m-init", "2", "--seed", "1",
                     "--out", str(tmp_path / "fit")]) == 0
    finally:
        tracer.restore()
    assert cli.run_sampler is sampler.run_sampler  # every wrapper is undone
    names = {span[0] for span in tracer.spans}
    assert {"pretrain", "sampler", "core.read_jsonl", "core.validate", "backbone.features",
            "sampler.mu_walk", "dpp.log_ratio", "dpp.log_density"} <= names
    assert tracer.counts["mu_walk_attempts"] > 0
    # the DPP share adds the inclusive times of the two DPP spans, so neither
    # may run inside the other
    for name, _start, _end, parent in tracer.spans:
        while name.startswith("dpp.") and parent is not None:
            assert not tracer.spans[parent][0].startswith("dpp."), name
            parent = tracer.spans[parent][3]

    # the kernel microbenchmarks on the sampler inputs the probes captured
    out = kernels.run_kernels(tracer.captured, 0.01)
    assert set(out) == {"features", "loglik_all", "grad_a", "dpp_log_ratio", "dpp_log_density"}
    assert all(k["samples"] >= 20 and k["median_ms"] > 0 for k in out.values())
