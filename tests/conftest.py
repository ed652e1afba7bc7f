"""Shared fixtures: the reference network, solved baselines, and the
acceptance-report hook that prints one PASS/FAIL line per criterion."""
from __future__ import annotations

import pytest

from icpower import (NetworkModel, Weights, br_dynamics, nash_bargaining,
                     pareto_frontier, social_optimum, utility_grid,
                     utility_point)

# Reference two-player network used throughout: direct gains 0.75 and 1.0,
# cross gains 0.5 (into receiver 1) and 0.25 (into receiver 2), unit noise,
# processing gain 4, power cap 5, 20-bit packets, unit rate scale.
REF_GAINS = ((0.75, 0.5), (0.25, 1.0))


def make_model(**overrides) -> NetworkModel:
    kwargs = dict(gains=REF_GAINS, noise_power=1.0, processing_gain=4.0,
                  power_cap=5.0, packet_bits=20, rate_scale=1.0)
    kwargs.update(overrides)
    return NetworkModel(**kwargs)


@pytest.fixture(scope="session")
def ref_model() -> NetworkModel:
    return make_model()


@pytest.fixture(scope="session")
def symmetric_model() -> NetworkModel:
    return make_model(gains=((1.0, 0.4), (0.4, 1.0)))


@pytest.fixture(scope="session")
def ne_report(ref_model):
    return br_dynamics(ref_model)


@pytest.fixture(scope="session")
def so_point(ref_model):
    return social_optimum(ref_model, Weights((0.5, 0.5)))


@pytest.fixture(scope="session")
def grid_points(ref_model):
    return utility_grid(ref_model, 400)


@pytest.fixture(scope="session")
def frontier(grid_points):
    return [grid_points.point(k) for k in pareto_frontier(grid_points).tolist()]


@pytest.fixture(scope="session")
def ne_point(ref_model, ne_report):
    return utility_point(ref_model, ne_report.solution.powers)


@pytest.fixture(scope="session")
def nbs_point(ref_model, ne_point):
    return nash_bargaining(ref_model, ne_point)


# -- acceptance reporting ----------------------------------------------

_ACCEPTANCE: list[tuple[int, str, bool, str]] = []


@pytest.fixture
def record_ac():
    def record(number: int, title: str, passed: bool, detail: str) -> None:
        _ACCEPTANCE.append((number, title, passed, detail))
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, title, passed, detail in sorted(_ACCEPTANCE):
        tag = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{tag}  AC{number:02d} {title}: {detail}")
