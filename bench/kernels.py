"""Kernel microbenchmarks at fixed inputs.

The inputs are the workload's training split and the pretrained state the
fit handed to the sampler, so the numbers do not depend on the chain's path:
a change that alters float order, and with it the chain, still shows its
kernel gain here.

Bytes and flops are computed from array sizes (float64, padded shapes as
the kernels allocate them; a trigonometric call counts as one flop).  They
are not measured.
"""

from __future__ import annotations

import numpy as np

from tppcluster import backbone
from tppcluster.backbone import FeatureSet
from tppcluster.dpp import dpp_log_density, dpp_log_ratio

from tracing import clock

_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
_MIN_SAMPLES = 20     # so that the median has ten samples beyond it
_MAX_SAMPLES = 2000
_MINIBATCH = 16       # the SGLD minibatch size of the default config


def _time(fn, budget_s: float) -> list[float]:
    samples: list[float] = []
    end = clock() + budget_s
    while len(samples) < _MAX_SAMPLES and (len(samples) < _MIN_SAMPLES or clock() < end):
        t0 = clock()
        fn(len(samples))
        samples.append(clock() - t0)
    return samples


def _summary(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ms = np.asarray(samples) * 1e3
    pct = next(p for p in _PERCENTILES if ms.size * (1.0 - p / 100.0) >= 10)
    return {"median_ms": float(np.median(ms)), "tail_ms": float(np.percentile(ms, pct)),
            "tail_pct": pct, "samples": int(ms.size)}


def _feature_cost(data, basis, features: FeatureSet) -> tuple[float, float]:
    nb, D = basis.n_basis, data.n_types
    out_bytes = sum(a.nbytes for a in (features.excite, features.onehot, features.types,
                                       features.mask, features.comp, features.horizons))
    flops = tmp_bytes = 0.0
    for seq in data.sequences:
        I = seq.n_events
        if I <= backbone._PAIRWISE_LIMIT:  # the path FeatureSet takes for this sequence
            # dt, z, bump values and the masked copy: I x I (x n_basis) arrays
            flops += I * I * nb * (7 + 2 * D)
            tmp_bytes += 8.0 * I * I * (1 + 3 * nb)
        else:
            lo = np.searchsorted(seq.times, seq.times - basis.tau_max, side="left")
            pairs = float((np.arange(I) - lo).sum())
            flops += pairs * nb * 7
            tmp_bytes += 8.0 * pairs * (1 + 3 * nb)
    return out_bytes + tmp_bytes, flops


def run_kernels(captured: dict, budget_s: float) -> dict:
    """Time each kernel for about ``budget_s`` CPU seconds; returns
    ``{kernel: {median_ms, tail_ms, tail_pct, samples, bytes, flops}}``."""
    data, basis, state = captured["data"], captured["basis"], captured["state"]
    features, model = captured["features"], captured["dpp_model"]
    comps = state.allocated + state.non_allocated
    n, imax = features.mask.shape
    D, nb = data.n_types, basis.n_basis
    slots = float(n * imax)
    batch = np.sort(np.random.default_rng(0).choice(n, size=min(_MINIBATCH, n), replace=False))
    b_slots = float(batch.size * imax)

    points = state.all_mu()
    m, n_z, q = points.shape[0], model.lattice.shape[0], model.q
    centre = 0.5 * (model.box_lo + model.box_hi)
    proposal = points[0] + 0.5 * (centre - points[0])  # inside the box, like a mu-walk step

    def gram(k: int) -> tuple[float, float]:
        # one k x k Gram block: the (k, k, n_z) angle tensor, its cosines, the sum
        return (5.0 * k * k * n_z + 2.0 * k * q * n_z, 4.0 * 8 * k * k * n_z)

    ratio_flops, ratio_bytes = (2 * v for v in gram(m - 1))
    dens_flops, dens_bytes = gram(m)

    cases = {
        "features": (lambda i: FeatureSet(data, basis), _feature_cost(data, basis, features)),
        "loglik_all": (
            lambda i: features.loglik_all(comps[i % len(comps)].mu, comps[i % len(comps)].w),
            (8.0 * slots * (3 * D * nb + 5) + slots, slots * (2 * D * nb + 5)),
        ),
        "grad_a": (
            lambda i: features.grad_a(comps[0].mu, comps[0].w, batch),
            (8.0 * b_slots * (6 * D * nb + 3 * D + 5), b_slots * (2 * D * nb + 3 * D * D * nb)),
        ),
        "dpp_log_ratio": (
            lambda i: dpp_log_ratio(model, points, add=proposal, remove=points[0]),
            (ratio_bytes, ratio_flops),
        ),
        "dpp_log_density": (lambda i: dpp_log_density(model, points), (dens_bytes, dens_flops)),
    }
    out = {}
    for name, (fn, (nbytes, flops)) in cases.items():
        out[name] = {**_summary(_time(fn, budget_s)), "bytes": float(nbytes), "flops": float(flops)}
    return out
