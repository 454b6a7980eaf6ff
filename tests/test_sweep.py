"""`sojourn_sweep`: one law of one queue refitted over a grid.

The oracle is `reference_row`, a copy of the one-point-at-a-time loop the
CLI ran before the sweep shared work across points: it builds each point's
system and reads every queue's `sojourn_mean` from scratch. Every value of
the sweep must equal it bit for bit (`==`), not to a tolerance.
"""
import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import simd_dispatch
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
from mginfpolling import analytic, cli, distributions
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
    queue, target, grid = cli._build_sweep(raw["sweep"], "sweep",
                                           len(system.queues))
    return system, (queue, target, grid)


@pytest.mark.parametrize("path", [DEMO, WORKLOADS / "general-wide.json",
                                  WORKLOADS / "atomic-pgf.json"],
                         ids=["demo", "general-wide", "atomic-pgf"])
def test_bench_sweeps_match_the_point_loop(path):
    system, (queue, target, grid) = config_sweep(path)
    assert_bit_equal(system, queue, target, grid)


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
    passes = []
    run_pass = distributions._pass

    def counted(parts):
        values = run_pass(parts)
        passes.append([np.shape(v) for v in values])
        return values

    monkeypatch.setattr(distributions, "_pass", counted)
    for value in grid:
        reference_row(system, 1, "visit_mean", value)
    # a point's spec runs one pass for its (completion probability,
    # expected minimum) and its in-visit pair
    assert passes == [[()] * 4] * 25
    passes.clear()
    sojourn_sweep(system, 1, "visit_mean", grid)
    # the stack of 25 fits runs all four in one pass
    assert passes == [[(25,)] * 4]


def test_empty_grid_runs_no_pass(monkeypatch):
    # the unchanged queues' values are read at the first point, so a sweep
    # with no points evaluates nothing
    system, _ = config_sweep(WORKLOADS / "general-wide.json")
    passes = []
    run_pass = distributions._pass

    def counted(parts):
        passes.append(len(parts))
        return run_pass(parts)

    monkeypatch.setattr(distributions, "_pass", counted)
    assert sojourn_sweep(system, 1, "visit_mean", []) == []
    assert passes == []


TERM_SUMS = ("_survival_terms", "_density_terms", "_tail_terms")


@pytest.mark.parametrize("scv", [1.0, 0.6, 0.3, 0.05, 1.7, 2.5, 2.79, 0.25],
                         ids=["exponential", "mixed-0.6", "mixed-0.3",
                              "mixed-0.05", "hyper-1.7", "hyper-2.5",
                              "hyper-2.79", "mixed-dropped"])
def test_stack_sums_equal_the_stacked_law_sums(scv):
    # at scv 0.25 the fit is MixedErlang(0, 4, rate), whose zero-weight
    # Erlang(3) component is dropped; at 2.79, np.log of the weight 0.8436...
    # differs from math.log in its last bit
    laws = [fit_two_moments(mean, scv) for mean in np.geomspace(1e-3, 1e3, 41)]
    assert len(distributions._phase_groups(laws)) == 1
    if scv == 0.25:
        assert laws[0].p == 0.0 and laws[0]._arrays[1].tolist() == [4.0]
    stack = distributions._Stack(laws)
    # the phase j = 0 term of each component has the log weight, taken with
    # math.log, as its coefficient
    phases = laws[0]._arrays[1]
    weights = [law._arrays[0].tolist() for law in laws]
    starts = (np.cumsum(phases) - phases).astype(int)
    first = stack._survival_terms.logc[:, starts]
    assert first.tolist() == [[math.log(w) for w in row] for row in weights]
    for name in TERM_SUMS:
        sums = [getattr(law, name) for law in laws]
        expected = sums[0]._replace(logc=np.stack([t.logc for t in sums]),
                                    r=np.stack([t.r for t in sums]))
        for got, want in zip(getattr(stack, name), expected):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_shared_shape_sweep_builds_no_per_law_sums(monkeypatch):
    fitted = []
    fit = analytic.fit_two_moments

    def recording(mean, scv):
        fitted.append(fit(mean, scv))
        return fitted[-1]

    reads = []
    for name in TERM_SUMS:
        original = vars(distributions._ErlangMixture)[name]

        def watched(law, _name=name, _original=original):
            if any(law is f for f in fitted):
                reads.append(_name)
            return _original.__get__(law, type(law))

        monkeypatch.setattr(distributions._ErlangMixture, name,
                            property(watched))
    monkeypatch.setattr(analytic, "fit_two_moments", recording)
    grid = list(np.linspace(0.1, 3.0, 25))
    sojourn_sweep(readme_system(), 1, "visit_mean", grid)
    assert len(fitted) == 25 and reads == []


def test_cycle_moment_squares_match_the_point_loop():
    # at E[V2] = 0.92068 queue 0's partial cycle mean m is 1.42068, and
    # m ** 2 (libm pow) differs from m * m in its last bit, which moves
    # queue 0's sojourn mean and the weighted one; the values are pinned
    # as the point loop gave them before the sweep shared any work
    m = 1.0 + fit_two_moments(0.92068, 1.0).mean() + 0.5 - 1.0
    assert m**2 != m * m
    grid = [0.5, 0.92068, 1.5]
    assert_bit_equal(readme_system(), 1, "visit_mean", grid)
    weighted, per_queue = sojourn_sweep(readme_system(), 1, "visit_mean",
                                        grid)[1]
    assert weighted.hex() == "0x1.64a5662e18c32p+1", simd_dispatch()
    assert [v.hex() for v in per_queue] == ["0x1.819ecf2b53876p+1",
                                            "0x1.36498aff5455ep+1"], \
        simd_dispatch()


def test_lone_law_matches_the_point_loop():
    # each scv fits a law with phases of its own, so each point goes through
    # a one-law stack
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


def test_a_str_is_not_a_grid():
    # a str was read as its digits: "12" gave the points 1 and 2
    system = readme_system()
    with pytest.raises(DomainError, match="sweep grid must be a sequence"):
        sojourn_sweep(system, 0, "visit_mean", "12")
    want = sojourn_sweep(system, 0, "visit_mean", (1.0, 2.0))
    for grid in ((1, 2), [1.0, 2], np.array([1.0, 2.0]), (v for v in (1, 2.0))):
        assert sojourn_sweep(system, 0, "visit_mean", grid) == want


@pytest.mark.parametrize("path, digest", [
    (DEMO, "18e524cb8fa77997b3cba420e6c77d99cf570eedac6dafd919de902a31f06792"),
    (WORKLOADS / "general-wide.json",
     "29addc1a650af8b6034c229e5930f66b0ba72a591c3567ec974903fd3a283efc"),
    (WORKLOADS / "atomic-pgf.json",
     "f1b3d78293bb08e020154bc0e8010aea90153ad349de96df24c4303bc490ae4b"),
], ids=["demo", "general-wide", "atomic-pgf"])
def test_sweep_bytes_are_pinned(tmp_path, path, digest):
    # a change that moves any bit of a sweep value changes these bytes
    out_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest, \
        simd_dispatch()


# general-wide's queue 1 (0-based) has Erlang(2, 3) service and a
# hyperexponential visit; each target's grid crosses the fitted families
SWEEP_PINS = {
    "service_mean": ([0.2, 0.5, 1.0],
                     "8e79573090d9a65412cabf23b7e90242e9903de317ea48dbd6419dd08cb0565c"),
    "service_scv": ([0.3, 0.5, 1.0, 3.0],
                    "e1104aa1f6b851661500fbc4e318de4e642814d94a4f0f13a1415727f5acf537"),
    "visit_mean": ([0.5, 1.0, 2.0],
                   "f806e1365a783776fc1ce19a06d93215d5276c8900a74c0fb55d8dc1297824cf"),
    "visit_scv": ([0.25, 0.8, 1.0, 2.5],
                  "73b9ed6cc76ed8ef977f73837ea7aa9c8b1fc6d48e05ccf368d3a2335d450b71"),
}


@pytest.mark.parametrize("target", sorted(SWEEP_PINS))
def test_sojourn_sweep_values_are_pinned(target):
    grid, digest = SWEEP_PINS[target]
    system, _ = config_sweep(WORKLOADS / "general-wide.json")
    points = sojourn_sweep(system, 1, target, grid)
    data = np.array([[weighted, *per_queue] for weighted, per_queue in points])
    assert hashlib.sha256(data.tobytes()).hexdigest() == digest, \
        simd_dispatch()
