"""Relations between two runs that every output must keep, whatever the
derivation: here, time scaling of the seeded simulators.

Multiplying every time by c and dividing every rate by c leaves the counts'
laws alone and scales every time by c. At a power-of-two c every product of
a variate and a scale, and every Poisson mean rate * length, is exact in
floating point, so the seeded simulators must keep every count bit for bit
and scale every sojourn by exactly c.
"""
import dataclasses
import json
from pathlib import Path

import pytest

from mginfpolling import cli
from mginfpolling.analytic import SystemSpec
from mginfpolling.distributions import (
    Deterministic,
    Discrete,
    Erlang,
    Exponential,
    HyperExponential,
    MixedErlang,
)
from mginfpolling.optimizer import SERIAL, TourState
from mginfpolling.simulator import SimConfig, run, single_cycle_throughput
from test_simulator import single_cycle_pin_cases

ROOT = Path(__file__).resolve().parents[1]
SCALES = (2.0, 0.125)


def scaled_law(law, c):
    """`law` with every time multiplied by c."""
    if law is None:
        return None
    if isinstance(law, Deterministic):
        return Deterministic(law.value * c)
    if isinstance(law, Discrete):
        return Discrete(tuple((v * c, w) for v, w in law.atoms))
    if isinstance(law, (Exponential, Erlang, MixedErlang)):
        return dataclasses.replace(law, rate=law.rate / c)
    if isinstance(law, HyperExponential):
        return dataclasses.replace(law, rate1=law.rate1 / c, rate2=law.rate2 / c)
    raise TypeError(f"no time scaling for {law!r}")


def scaled_system(system, c):
    """`system` with every time multiplied by c and every rate divided by c."""
    return SystemSpec(tuple(
        dataclasses.replace(
            q, arrival_rate=q.arrival_rate / c, service=scaled_law(q.service, c),
            visit=scaled_law(q.visit, c), switch=scaled_law(q.switch, c),
            approach=scaled_law(q.approach, c), return_=scaled_law(q.return_, c))
        for q in system.queues))


def general_wide_serial_tour():
    """general-wide's system with its counts, as a serial tour."""
    raw = json.loads((ROOT / "bench" / "workloads" / "general-wide.json")
                     .read_text(encoding="utf-8"))
    counts = tuple(raw["optimize"]["counts"])
    return (cli._build_system(raw["system"]), tuple(range(len(counts))),
            TourState(counts, SERIAL), 7)


def single_cycle_cases():
    cases = dict(single_cycle_pin_cases())
    cases["serial_on_central"] = general_wide_serial_tour()
    return cases


def estimate_bytes(est):
    return (est.mean.hex(), est.stderr.hex(), est.per_queue_mean.tobytes())


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("name", sorted(single_cycle_cases()))
def test_single_cycle_throughput_is_time_scale_free(name, c):
    system, order, state, seed = single_cycle_cases()[name]
    plain, scaled = (single_cycle_throughput(s, order, state, replications=2_000,
                                             master_seed=seed)
                     for s in (system, scaled_system(system, c)))
    assert estimate_bytes(plain) == estimate_bytes(scaled)


@pytest.mark.parametrize("c", SCALES)
def test_run_counts_keep_their_bits_and_sojourns_scale(c):
    raw = json.loads((ROOT / "demos" / "base_config.json")
                     .read_text(encoding="utf-8"))
    system = cli._build_system(raw["system"])
    config = SimConfig(**raw["sim"], pgf_points=((0, (0.5, 0.7)),))
    plain, scaled = (run(s, config) for s in (system, scaled_system(system, c)))
    for name in ("polling_means", "polling_stderr", "visit_end_means",
                 "visit_end_stderr", "completion_fraction",
                 "completion_stderr", "per_queue_throughput", "pgf_estimates",
                 "pgf_stderr", "sojourn_phase_counts"):
        assert getattr(plain, name).tobytes() == \
            getattr(scaled, name).tobytes(), name
    assert plain.throughput_mean == scaled.throughput_mean
    assert plain.throughput_stderr == scaled.throughput_stderr
    for name in ("sojourn_means", "sojourn_stderr", "sojourn_phase_means"):
        assert (getattr(scaled, name) / c).tobytes() == \
            getattr(plain, name).tobytes(), name
