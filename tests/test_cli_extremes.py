"""Extreme values for every numeric config key, through the CLI.

Each case sets one numeric leaf of ``FitConfig().raw`` to an edge value and
runs a tiny fit in process.  The contract: the exit code is 0, 1 or 2; no
exception escapes (tier-1 turns a numpy RuntimeWarning into one); an exit 1
names the key; and an exit 0 writes only finite numbers.
"""

import json
import typing
from dataclasses import fields, is_dataclass

import pytest

from tppcluster.cli import FitConfig, main

FLOATS = (5e-324, 1e-308, 1e308, 0, -1)
INTS = (0, -1, 2**62)
# work counts a user may legitimately set huge; a huge one only takes long
WORK_COUNTS = {"sampler.iterations", "sampler.burn_in", "sampler.bd_attempts",
               "pretrain.rounds", "pretrain.gd_steps"}


def _numeric_leaves(tp, prefix=""):
    """``(dotted path, int or float)`` for every numeric leaf of the config
    dataclass ``tp``; a key that takes a list (``box_lo``) is not one."""
    out = []
    for f in fields(tp):
        hint = typing.get_type_hints(tp)[f.name]
        if is_dataclass(hint):
            out += _numeric_leaves(hint, f"{prefix}{f.name}.")
            continue
        alts = typing.get_args(hint) or (hint,)
        kind = next((t for t in (float, int) if t in alts), None)
        if kind is not None:
            out.append((prefix + f.name, kind))
    return out


LEAVES = [(path, kind) for path, kind in _numeric_leaves(FitConfig) if path not in WORK_COUNTS]
CASES = [(path, val) for path, kind in LEAVES for val in (FLOATS if kind is float else INTS)]


def test_every_numeric_leaf_is_probed():
    raw_leaves = set()

    def walk(d, prefix=""):
        for key, val in d.items():
            if isinstance(val, dict):
                walk(val, f"{prefix}{key}.")
            else:
                raw_leaves.add(prefix + key)

    walk(FitConfig().raw)
    probed = {path for path, _ in LEAVES}
    assert probed <= raw_leaves
    assert raw_leaves - probed - WORK_COUNTS == {"data.path", "prior.dpp.box_lo",
                                                  "prior.dpp.box_hi"}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Eight sequences, six of them in the training split."""
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--recipe", "hawkes-delta", "--k", "2", "--delta", "0.6",
                 "--n-per-cluster", "4", "--horizon", "6", "--seed", "3",
                 "--out", str(out)]) == 0
    return out / "dataset.jsonl"


def _nest(path: str, val) -> dict:
    *parents, leaf = path.split(".")
    cfg = {leaf: val}
    for p in reversed(parents):
        cfg = {p: cfg}
    return cfg


@pytest.mark.parametrize("path, val", CASES, ids=[f"{p}={v!r}" for p, v in CASES])
def test_extreme_config_value_fits_or_exits_cleanly(dataset, tmp_path, capsys, path, val):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_nest(path, val)))
    out = tmp_path / "fit"
    capsys.readouterr()
    rc = main(["fit", "--data", str(dataset), "--config", str(cfg), "--iterations", "3",
               "--burn-in", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2), (rc, err)
    if rc == 1:
        assert path in err or path.rsplit(".", 1)[-1] in err, err
    if rc == 0:
        for name in ("trace.jsonl", "report.json"):
            text = (out / name).read_text()
            assert "Infinity" not in text and "NaN" not in text, name
