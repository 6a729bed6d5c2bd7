"""Fit-config resolution: property tests over every key, and the README copy.

Resolve only; nothing here runs a fit.
"""

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tppcluster.cli import FitConfig
from tppcluster.core import ConfigError

README = Path(__file__).resolve().parents[1] / "README.md"

CHECKS = settings(max_examples=150, deadline=None, database=None)


def _num(lo=None, hi=None, exclude_lo=False, exclude_hi=False):
    """A JSON number in range: a finite float, or an integer that a float
    holds exactly."""
    floats = st.floats(min_value=lo, max_value=hi, exclude_min=exclude_lo,
                       exclude_max=exclude_hi, allow_nan=False, allow_infinity=False)
    int_lo = -(2**53) if lo is None else math.floor(lo) + 1 if exclude_lo else math.ceil(lo)
    int_hi = 2**53 if hi is None else math.ceil(hi) - 1 if exclude_hi else math.floor(hi)
    int_hi = min(int_hi, 2**53)
    if int_lo > int_hi:
        return floats
    return floats | st.integers(int_lo, int_hi)


def _opt(strategy):
    return st.none() | strategy


def _box():
    bounds = st.tuples(_num(0, exclude_lo=True), _num(0, exclude_lo=True)).filter(
        lambda b: b[0] < b[1])  # 0 < lo < hi per coordinate
    return st.just((None, None)) | st.lists(bounds, min_size=1, max_size=4).map(
        lambda pairs: tuple(map(list, zip(*pairs))))


def _w_prior():
    # 1 / beta_w, 0.5 * eps0 and beta_w * 0.5 * eps0 * beta_w may not exceed
    # float max / 2^20: draw beta_w and eps0 with a factor 2 to spare
    limit = 1.7976931348623157e308 / 2**20
    return _num(2 / limit, 1e300).flatmap(
        lambda beta_w: st.tuples(st.just(beta_w), _num(
            0, min(limit / beta_w / beta_w, limit), exclude_lo=True)))


def _lengths():
    return st.integers(0, 10**6).flatmap(
        lambda b: st.tuples(st.integers(b + 1, b + 10**6), st.just(b)))


# Every config leaf with the values it accepts.  Keys that are checked
# together are drawn together, as a tuple of values.
VALID = {
    ("seed",): st.integers(0, 2**64),
    ("data.path",): _opt(st.text(max_size=8)),
    ("basis.n_basis",): st.integers(1, 100),
    ("basis.tau_max",): _opt(_num(0, exclude_lo=True)),
    ("basis.sigma",): _opt(_num(0, exclude_lo=True)),
    ("prior.beta_w", "prior.sgld.eps0"): _w_prior(),
    ("prior.dpp.rho",): _opt(_num(0, exclude_lo=True)),
    ("prior.dpp.alpha",): _num(0, exclude_lo=True),
    ("prior.dpp.lattice_radius",): st.integers(1, 10),
    ("prior.dpp.box_lo", "prior.dpp.box_hi"): _box(),
    ("prior.dpp.lo_factor",): _num(1, exclude_lo=True),
    ("prior.dpp.hi_factor",): _num(1),
    ("prior.sgld.decay",): _num(0.5, 1.0, exclude_lo=True),
    ("prior.sgld.offset",): _num(0),
    ("prior.sgld.minibatch",): st.integers(1),
    ("pretrain.m_init",): (st.integers(1)
                           | st.lists(st.integers(1), min_size=2, max_size=2).map(sorted)),
    ("pretrain.rounds",): st.integers(0),
    ("pretrain.gd_steps",): st.integers(0),
    ("pretrain.learning_rate",): _num(0, exclude_lo=True),
    ("sampler.iterations", "sampler.burn_in"): _lengths(),
    ("sampler.p_birth",): _num(0, 1, exclude_lo=True, exclude_hi=True),
    ("sampler.bd_attempts",): st.integers(0),
    ("sampler.s_mu",): _num(0, 1, exclude_lo=True),
    ("sampler.stride",): st.integers(1),
    ("eval_fraction",): _num(0, 1, exclude_hi=True),
}


def _leaves(d: dict, prefix="") -> dict:
    out = {}
    for key, val in d.items():
        if isinstance(val, dict):
            out.update(_leaves(val, f"{prefix}{key}."))
        else:
            out[prefix + key] = val
    return out


def _nest(flat: dict) -> dict:
    out: dict = {}
    for path, val in flat.items():
        *parents, leaf = path.split(".")
        node = out
        for p in parents:
            node = node.setdefault(p, {})
        node[leaf] = val
    return out


DEFAULTS = _leaves(FitConfig.resolve().raw)
SECTIONS = sorted({p.rsplit(".", 1)[0] for p in DEFAULTS if "." in p})


@st.composite
def valid_overrides(draw) -> dict:
    groups = draw(st.lists(st.sampled_from(list(VALID)), unique=True))
    flat = {}
    for paths in groups:
        vals = draw(VALID[paths])
        flat.update(zip(paths, vals if len(paths) > 1 else (vals,)))
    return flat


def test_valid_table_covers_every_key():
    assert {p for paths in VALID for p in paths} == set(DEFAULTS)


@CHECKS
@given(valid_overrides())
def test_valid_override_resolves_and_round_trips(flat):
    cfg = FitConfig.resolve(None, _nest(flat))
    raw = cfg.raw
    leaves = _leaves(raw)
    for path, val in flat.items():
        assert leaves[path] == val
    assert json.loads(json.dumps(raw)) == raw
    again = FitConfig.resolve(raw)
    assert again == cfg and again.raw == raw


# No leaf takes a bool, an object, a list of strings or a non-finite number.
WRONG_FOR_ALL = (
    st.booleans()
    | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
    | st.lists(st.text(max_size=3), min_size=1, max_size=3)
    | st.sampled_from([math.nan, math.inf, -math.inf])
)
WRONG_FOR_INT = st.floats(allow_nan=False, allow_infinity=False) | st.text()


@CHECKS
@given(st.sampled_from(sorted(DEFAULTS)), st.data())
def test_wrong_type_names_the_dotted_key(path, data):
    wrong = WRONG_FOR_ALL
    if type(DEFAULTS[path]) is int:
        wrong = wrong | WRONG_FOR_INT
    value = data.draw(wrong)
    with pytest.raises(ConfigError, match=rf"^config\.{re.escape(path)} must be "):
        FitConfig.resolve(None, _nest({path: value}))


@CHECKS
@given(st.sampled_from(SECTIONS), st.none() | st.integers() | st.text() | st.lists(st.integers()))
def test_non_object_section_names_the_section(section, value):
    with pytest.raises(ConfigError, match=rf"^config\.{re.escape(section)} must be an object"):
        FitConfig.resolve(None, _nest({section: value}))


def test_readme_config_block_is_the_default():
    text = README.read_text(encoding="utf-8")
    start = text.index("```json\n", text.index("## Configuration")) + len("```json\n")
    block = text[start:text.index("```", start)]
    assert json.loads(block) == FitConfig.resolve().raw
