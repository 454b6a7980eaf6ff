"""`sojourn_sweep`: one law of one queue refitted over a grid.

The oracle is `reference_row`, a copy of the one-point-at-a-time loop the
CLI ran before the sweep shared work across points: it builds each point's
system and reads every queue's `sojourn_mean` from scratch. Every value of
the sweep must equal it bit for bit (`==`), not to a tolerance.
"""
import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from mginfpolling import (
    Deterministic,
    Discrete,
    Erlang,
    Exponential,
    HyperExponential,
    ModelError,
    QueueSpec,
    SystemSpec,
    fit_two_moments,
    sojourn_mean,
    sojourn_sweep,
)
from mginfpolling import cli, distributions
from mginfpolling.analytic import _rate_weighted
from mginfpolling.cli import main
from mginfpolling.errors import DomainError

ROOT = Path(__file__).resolve().parents[1]
DEMO = ROOT / "demos" / "base_config.json"
WORKLOADS = ROOT / "bench" / "workloads"


def reference_row(system, queue, target, value):
    """One grid point as its own analysis: fit, rebuild, evaluate."""
    spec = system.queues[queue]
    law = spec.service if target.startswith("service") else spec.visit
    if target.endswith("mean"):
        mean, scv = value, law.scv()
    else:
        mean, scv = law.mean(), value
    try:
        fitted = fit_two_moments(mean, scv)
    except (DomainError, ModelError) as exc:
        raise ModelError(f"grid value {value:g}: {exc}") from exc
    field = "service" if target.startswith("service") else "visit"
    queues = list(system.queues)
    queues[queue] = dataclasses.replace(spec, **{field: fitted})
    swept = SystemSpec(tuple(queues))
    per_queue = [sojourn_mean(swept, i) for i in range(len(queues))]
    return _rate_weighted(swept, per_queue), per_queue


def assert_bit_equal(system, queue, target, grid):
    points = sojourn_sweep(system, queue, target, grid)
    assert len(points) == len(grid)
    for value, (weighted, per_queue) in zip(grid, points):
        ref_weighted, ref_per_queue = reference_row(system, queue, target, value)
        assert weighted == ref_weighted
        assert list(per_queue) == ref_per_queue


def readme_system():
    return SystemSpec((
        QueueSpec(arrival_rate=0.8, service=Exponential(1.0),
                  visit=Exponential(1.0), switch=Deterministic(0.25)),
        QueueSpec(arrival_rate=0.5, service=Exponential(1.5),
                  visit=Exponential(1.5), switch=Deterministic(0.25)),
    ))


def config_sweep(path):
    raw = cli._load_config(str(path))
    system = cli._build_system(raw["system"])
    spec = cli._build_sweep(raw["sweep"], "sweep", len(system.queues))
    return system, spec


@pytest.mark.parametrize("path", [DEMO, WORKLOADS / "general-wide.json",
                                  WORKLOADS / "atomic-pgf.json"],
                         ids=["demo", "general-wide", "atomic-pgf"])
def test_bench_sweeps_match_the_point_loop(path):
    system, spec = config_sweep(path)
    assert_bit_equal(system, spec.queue, spec.target, spec.grid)


@pytest.mark.parametrize("target, grid", [
    ("service_mean", np.linspace(0.3, 2.5, 21)),
    ("service_scv", np.linspace(0.25, 5.0, 20)),
    ("visit_mean", np.linspace(0.1, 3.0, 25)),
    ("visit_scv", np.linspace(0.5, 1.5, 21)),
])
def test_figure_grids_match_the_point_loop(target, grid):
    assert_bit_equal(readme_system(), 1, target, list(grid))


@pytest.mark.parametrize("service", [
    Deterministic(0.4),
    Discrete(((0.2, 0.3), (0.6, 0.5), (1.1, 0.2))),
], ids=["deterministic", "discrete"])
@pytest.mark.parametrize("target, grid", [
    ("visit_mean", [0.3, 0.7, 1.2, 2.0]),
    ("visit_scv", [0.3, 0.4, 0.45, 2.0, 3.0]),
])
def test_swept_visit_against_atomic_service(service, target, grid):
    # the stacked visit terms meet the atoms in `_Atomic._expect`, with the
    # grid axis on their coefficients as well as their rates
    system = SystemSpec((
        QueueSpec(0.6, Erlang(2, 3.0), HyperExponential(0.6, 2.0, 0.7),
                  Deterministic(0.2)),
        QueueSpec(0.4, service, Exponential(1.1), Exponential(6.0)),
    ))
    assert_bit_equal(system, 1, target, grid)


def test_mixed_shape_grid_keeps_input_order():
    # the phases of the fits: (1, 1) above scv 1, (1,) at 1, (1, 2) at 0.6
    # and 0.8, (2, 3) at 0.45 and (3, 4) at 0.3 alone; the groups interleave
    grid = [2.0, 0.45, 1.0, 0.6, 3.5, 0.3, 1.0, 0.45, 2.0, 0.8]
    system = readme_system()
    assert_bit_equal(system, 0, "visit_scv", grid)
    points = sojourn_sweep(system, 0, "visit_scv", grid)
    assert points[0] == points[8] and points[2] == points[6]
    assert points[1] == points[7] and points[0] != points[1]


def test_shared_shape_grid_integrates_once_per_functional(monkeypatch):
    system = readme_system()
    for i in range(len(system.queues)):  # the unchanged queue's constants
        sojourn_mean(system, i)
    grid = list(np.linspace(0.1, 3.0, 25))
    calls = []
    integral = distributions._integral

    def counted(t):
        calls.append(t.r.shape)
        return integral(t)

    monkeypatch.setattr(distributions, "_integral", counted)
    for value in grid:
        reference_row(system, 1, "visit_mean", value)
    assert len(calls) == 100
    calls.clear()
    sojourn_sweep(system, 1, "visit_mean", grid)
    assert len(calls) == 4
    assert all(shape[0] == 25 for shape in calls)


def test_lone_law_takes_the_plain_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a lone law must not be stacked")

    monkeypatch.setattr(distributions._Stack, "__init__", refuse)
    assert_bit_equal(readme_system(), 1, "visit_scv", [0.4, 1.0, 2.0])


@pytest.mark.parametrize("target, value", [("visit_mean", -0.5),
                                           ("service_scv", 0.0)])
def test_bad_grid_value_error_is_the_point_loops(target, value):
    with pytest.raises(ModelError) as ref:
        reference_row(readme_system(), 0, target, value)
    with pytest.raises(ModelError) as ours:
        sojourn_sweep(readme_system(), 0, target, [0.5, value, 1.0])
    assert str(ours.value) == str(ref.value)
    assert str(ours.value).startswith(f"grid value {value:g}: ")


def test_earlier_point_raises_first():
    # queue 1's deterministic service never fits in its visit, so every
    # point fails its sojourn means before the bad last grid value is met
    system = SystemSpec((
        QueueSpec(0.5, Deterministic(2.0), Deterministic(1.0), Deterministic(0.1)),
        QueueSpec(0.5, Exponential(1.0), Exponential(1.0), Deterministic(0.1)),
    ))
    with pytest.raises(ModelError, match="completion probability 0"):
        sojourn_sweep(system, 1, "visit_mean", [1.0, -1.0])


def test_rejects_bad_queue_and_target():
    with pytest.raises(DomainError, match="out of range"):
        sojourn_sweep(readme_system(), 2, "visit_mean", [1.0])
    with pytest.raises(DomainError, match="unknown sweep target 'switch_mean'"):
        sojourn_sweep(readme_system(), 0, "switch_mean", [1.0])


@pytest.mark.parametrize("path, digest", [
    (DEMO, "18e524cb8fa77997b3cba420e6c77d99cf570eedac6dafd919de902a31f06792"),
    (WORKLOADS / "general-wide.json",
     "29addc1a650af8b6034c229e5930f66b0ba72a591c3567ec974903fd3a283efc"),
], ids=["demo", "general-wide"])
def test_sweep_bytes_are_pinned(tmp_path, path, digest):
    # a change that moves any bit of a sweep value changes these bytes
    out_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest
