"""Shared fixtures and the acceptance-summary terminal hook."""

from __future__ import annotations

import numpy as np
import pytest

from tppcluster.backbone import HomogeneousPoisson
from tppcluster.simulate import sample_mixture

# one line per acceptance criterion, echoed after the run so the pass/fail
# verdicts are visible even with output capture on
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def tiny2():
    """Two well-separated single-type Poisson clusters (15 + 15, T=20)."""
    return sample_mixture(
        [HomogeneousPoisson([0.3]), HomogeneousPoisson([3.0])],
        horizon=20.0,
        n_per_component=15,
        seed=41,
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
