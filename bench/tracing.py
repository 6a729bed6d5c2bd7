"""Spans around the package's public calls, recorded from outside ``src/``.

A span is ``[name, start, end, parent]``.  Spans stay in memory; the
per-layer numbers are computed from them when the run ends.  Self time is a
span's duration minus the durations of its direct children.

The clock is the CPU clock of the calling thread.  The benchmark is one
single-threaded process (BLAS pinned to one thread), so this is the
process's CPU time: the wall time minus the time the machine took the CPU
away.  (The process-wide CPU clock is not used: while an interval timer such
as ``SpeedProbe``'s is armed, Linux advances it only at scheduler ticks.)

CPU time still moves with the speed the shared machine gives the process,
by up to half between minutes.  ``SpeedProbe`` measures that speed while the
pipeline runs, so that the end-to-end times can be scaled to one reference
speed.
"""

from __future__ import annotations

import functools
import signal
import statistics
import time
from collections import Counter

clock = time.thread_time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.captured: dict = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, clock(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a pass-through that records a span and
        hands the result to ``after(result, args, kwargs)``."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(out, args, kwargs)
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.captured.clear()

    # -- installing the wrappers --------------------------------------------

    def install_probes(self) -> None:
        """The two boundaries the end-to-end metrics need: where set-up ends
        (pretraining starts) and how long the sampler runs."""
        import tppcluster.cli as cli

        self.wrap(cli, "pretrain_mixture", "pretrain", after=self._capture_pretrain)
        self.wrap(cli, "run_sampler", "sampler")

    def install_layers(self) -> None:
        """Every layer boundary of the traced run."""
        import tppcluster.cli as cli
        import tppcluster.core as core
        import tppcluster.sampler as sampler
        from tppcluster.backbone import FeatureSet

        self.install_probes()
        self.wrap(cli, "read_jsonl", "core.read_jsonl")
        self.wrap(core, "validate_dataset", "core.validate")
        self.wrap(FeatureSet, "__init__", "backbone.features")
        for meth in ("loglik_all", "grad_a", "excitation", "event_term"):
            self.wrap(FeatureSet, meth, f"backbone.{meth}")
        self.wrap(sampler, "dpp_log_ratio", "dpp.log_ratio")
        self.wrap(sampler, "dpp_log_density", "dpp.log_density")
        self.wrap(sampler, "birth_death_move", "sampler.birth_death", after=self._count_birth_death)
        self.wrap(sampler, "refresh_non_allocated", "sampler.refresh")
        self.wrap(sampler, "update_allocated_mu", "sampler.mu_walk", after=self._count_mu_walk)
        self.wrap(sampler, "resample_allocated_r", "sampler.r_draw")
        self.wrap(sampler, "sgld_update_w", "sampler.sgld")
        self.wrap(sampler, "resample_allocations", "sampler.realloc")
        self.wrap(sampler, "resample_u", "sampler.u_draw")

    # -- result hooks ---------------------------------------------------------

    def _capture_pretrain(self, state, args, kwargs) -> None:
        # the inputs of the sampler, kept for the kernel microbenchmarks
        data, _m_init, _cfg, prior, basis = args[:5]
        self.captured.update(data=data, prior=prior, basis=basis, state=state.copy(),
                             features=kwargs.get("features"), dpp_model=kwargs.get("dpp_model"))

    def _count_birth_death(self, info, _args, _kwargs) -> None:
        if not info.get("noop"):
            self.counts[info["kind"] + "_attempts"] += 1
            self.counts[info["kind"] + "_accepts"] += int(info["accepted"])

    def _count_mu_walk(self, infos, _args, _kwargs) -> None:
        self.counts["mu_walk_attempts"] += len(infos)
        self.counts["mu_walk_accepts"] += sum(int(i["accepted"]) for i in infos)


# ---------------------------------------------------------------------------
# machine speed


def _calibration_loop() -> int:
    x = 0
    for i in range(3000):
        x += i * i
    return x


class SpeedProbe:
    """Samples the machine's speed while the pipeline runs.

    Every ``INTERVAL_S`` CPU seconds a ``SIGPROF`` handler runs a fixed
    pure-Python loop and records when it started and how long it took; the
    loop takes ``REFERENCE_S`` at the reference speed.  ``scaled`` turns a
    CPU interval into seconds at the reference speed: the interval minus the
    loops run inside it, times ``REFERENCE_S`` over the mean loop time near
    it.  The handler costs about one per cent and touches no program state.
    """

    INTERVAL_S = 0.05
    REFERENCE_S = 2.5e-4
    NEAR_S = 0.25  # loops this close to a short interval also give its speed

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, _signum, _frame) -> None:
        t0 = clock()
        _calibration_loop()
        self.samples.append((t0, clock() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def speed(self, start: float, end: float) -> float:
        """Machine speed over ``[start, end]`` relative to the reference."""
        near = [d for t, d in self.samples if start - self.NEAR_S <= t <= end + self.NEAR_S]
        near = near or [d for _t, d in self.samples]
        return self.REFERENCE_S / statistics.fmean(near)

    def scaled(self, start: float, end: float) -> float:
        inside = sum(d for t, d in self.samples if start <= t <= end)
        return (end - start - inside) * self.speed(start, end)


# ---------------------------------------------------------------------------
# span arithmetic


def subtree(spans: list[list], root: int) -> list[bool]:
    """Membership of every span in the tree under ``root`` (parents precede
    their children in the list)."""
    inside = [False] * len(spans)
    for i, (_name, _s, _e, parent) in enumerate(spans):
        inside[i] = i == root or (parent is not None and inside[parent])
    return inside


def totals(spans: list[list], within: list[bool] | None = None) -> dict:
    """Per name: inclusive seconds, self seconds and call count."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        if within is not None and not within[i]:
            continue
        t = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        t["s"] += end - start
        t["self_s"] += end - start - child[i]
        t["calls"] += 1
    return out


def find(spans: list[list], name: str) -> int:
    """Index of the last span called ``name``."""
    for i in range(len(spans) - 1, -1, -1):
        if spans[i][0] == name:
            return i
    raise KeyError(name)
