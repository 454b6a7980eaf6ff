"""Relations between two runs that every output must keep, whatever the
derivation.

Time scaling. Multiplying every time by c and dividing every rate by c
leaves the counts' laws alone and scales every time by c. At a power-of-two
c every product of a variate and a scale, and every Poisson mean
rate * length, is exact in floating point, so the seeded simulators must
keep every count bit for bit and scale every sojourn by exactly c. The
analytic outputs keep the relation to a stated bound at any c: the polling
means and the pgf are unchanged, a sojourn mean is multiplied by c, the
transform W(s) becomes W(s / c), and the index rule keeps its order and its
total.

Rotation. Rotating the queue indices rotates every analytic output.

A sweep keeps both relations: scaling time scales a mean target's grid,
and rotation moves the swept queue.

Splitting a switch-over. A zero-rate queue whose visit plus switch-over
equals the part of a switch-over it replaces changes no output of the other
queues.

The same law written twice. Two constructors of one law give the same
bytes everywhere, a seeded `run` included.

Stated bounds: 1e-14 relative on means and tour totals, 1e-12 absolute on
W and 1e-15 absolute on the pgf. A relation that fails at a valid point is
a defect to record, never a case to skip.
"""
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from mginfpolling import cli
from mginfpolling.analytic import (
    QueueSpec,
    SystemSpec,
    pgf_eval,
    polling_means,
    sojourn_metrics,
    sojourn_sweep,
)
from mginfpolling.distributions import (
    Deterministic,
    Discrete,
    Erlang,
    Exponential,
    HyperExponential,
    MixedErlang,
)
from mginfpolling.optimizer import SERIAL, TourState, optimal_order
from mginfpolling.simulator import SimConfig, run, single_cycle_throughput
from test_simulator import single_cycle_pin_cases

ROOT = Path(__file__).resolve().parents[1]
SCALES = (2.0, 0.125)
CONFIGS = {"base_config": ROOT / "demos" / "base_config.json",
           **{name: ROOT / "bench" / "workloads" / f"{name}.json"
              for name in ("demo", "general-wide", "atomic-pgf")}}
#: the only config whose visit laws are all atomic, so `pgf_eval` runs on it
PGF_CONFIG = "atomic-pgf"
PGF_POINTS = ((0.5, 0.5, 0.5), (0.8, 0.6, 0.9), (0.2, 1.0, 0.7),
              (1.0, 0.95, 0.3))
W_GRID = np.geomspace(1e-3, 2.0, 12)
#: the grid of an scv sweep target; a mean target's grid is these
#: multiples of the swept law's mean
SWEEP_GRID = (0.3, 0.8, 1.0, 2.5)
SWEEP_TARGETS = ("service_mean", "service_scv", "visit_mean", "visit_scv")
MEAN_REL = 1e-14
TOTAL_REL = 1e-14
W_ABS = 1e-12
PGF_ABS = 1e-15


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


def load(name):
    """The raw config and the system of one of `CONFIGS`."""
    raw = json.loads(CONFIGS[name].read_text(encoding="utf-8"))
    return raw, cli._build_system(raw["system"])


def tour_state(raw):
    return TourState(tuple(raw["optimize"]["counts"]), raw["optimize"]["mode"])


def worst_relative(value, reference) -> float:
    value, reference = np.asarray(value), np.asarray(reference)
    return float(np.max(np.abs(value - reference) / np.abs(reference)))


def worst_absolute(value, reference) -> float:
    return float(np.max(np.abs(np.asarray(value) - np.asarray(reference))))


def pgf_values(system, queues, points):
    return np.array([[pgf_eval(system, q, z) for z in points] for q in queues])


@pytest.mark.parametrize("c", (*SCALES, 3.0))
@pytest.mark.parametrize("name", CONFIGS)
def test_analytic_outputs_are_time_scale_free(name, c):
    raw, system = load(name)
    scaled = scaled_system(system, c)
    plain_means, scaled_means = polling_means(system), polling_means(scaled)
    for field in ("at_polling", "at_visit_end"):
        assert worst_relative(getattr(scaled_means, field),
                              getattr(plain_means, field)) <= MEAN_REL, field
    plain = sojourn_metrics(system, W_GRID)
    over = sojourn_metrics(scaled, W_GRID / c)
    assert worst_relative(np.array(over.means) / c, plain.means) <= MEAN_REL
    assert worst_absolute(over.lst_table, plain.lst_table) <= W_ABS
    best, scaled_best = (optimal_order(s, tour_state(raw))
                         for s in (system, scaled))
    assert scaled_best.order == best.order
    assert worst_relative(scaled_best.total, best.total) <= TOTAL_REL


@pytest.mark.parametrize("c", (*SCALES, 3.0))
def test_pgf_is_time_scale_free(c):
    _, system = load(PGF_CONFIG)
    queues = range(len(system))
    assert worst_absolute(
        pgf_values(scaled_system(system, c), queues, PGF_POINTS),
        pgf_values(system, queues, PGF_POINTS)) <= PGF_ABS


@pytest.mark.parametrize("name", CONFIGS)
def test_rotation_rotates_every_output(name):
    raw, system = load(name)
    n = len(system)
    plain_means = polling_means(system)
    plain = sojourn_metrics(system, W_GRID)
    counts = tour_state(raw).counts
    best = optimal_order(system, tour_state(raw))
    for k in range(1, n):
        # rotated queue i is queue old[i]
        old = [(i + k) % n for i in range(n)]
        rotated = SystemSpec(tuple(system.queues[j] for j in old))
        rotated_means = polling_means(rotated)
        for field in ("at_polling", "at_visit_end"):
            assert worst_relative(
                getattr(rotated_means, field),
                getattr(plain_means, field)[np.ix_(old, old)]) <= MEAN_REL, \
                (k, field)
        metrics = sojourn_metrics(rotated, W_GRID)
        assert worst_relative(metrics.means,
                              np.array(plain.means)[old]) <= MEAN_REL, k
        assert worst_absolute(metrics.lst_table,
                              plain.lst_table[old]) <= W_ABS, k
        state = TourState(tuple(counts[j] for j in old), raw["optimize"]["mode"])
        rotated_best = optimal_order(rotated, state)
        assert tuple(old[q] for q in rotated_best.order) == best.order, k
        assert worst_relative(rotated_best.total, best.total) <= TOTAL_REL, k
        if name == PGF_CONFIG:
            assert worst_absolute(
                pgf_values(rotated, range(n),
                           [[z[j] for j in old] for z in PGF_POINTS]),
                pgf_values(system, old, PGF_POINTS)) <= PGF_ABS, k


def swept(raw, system, target):
    """The 0-based swept queue of a config's sweep block and `target`'s grid."""
    queue = raw["sweep"]["queue"] - 1
    if target.endswith("scv"):
        return queue, np.array(SWEEP_GRID)
    law = getattr(system.queues[queue], target.split("_")[0])
    return queue, law.mean() * np.array(SWEEP_GRID)


def sweep_arrays(points):
    """The weighted means and the per-queue means of a sweep, as arrays."""
    return (np.array([weighted for weighted, _ in points]),
            np.array([per_queue for _, per_queue in points]))


@pytest.mark.parametrize("c", (*SCALES, 3.0))
@pytest.mark.parametrize("target", SWEEP_TARGETS)
@pytest.mark.parametrize("name", CONFIGS)
def test_sweep_is_time_scale_free(name, target, c):
    raw, system = load(name)
    queue, grid = swept(raw, system, target)
    scaled_grid = grid * c if target.endswith("mean") else grid
    plain = sweep_arrays(sojourn_sweep(system, queue, target, grid))
    over = sweep_arrays(sojourn_sweep(scaled_system(system, c), queue, target,
                                      scaled_grid))
    for got, want in zip(over, plain):
        assert worst_relative(got / c, want) <= MEAN_REL


@pytest.mark.parametrize("target", SWEEP_TARGETS)
@pytest.mark.parametrize("name", CONFIGS)
def test_sweep_rotates_with_its_queue(name, target):
    raw, system = load(name)
    queue, grid = swept(raw, system, target)
    n = len(system)
    weighted, per_queue = sweep_arrays(sojourn_sweep(system, queue, target,
                                                     grid))
    for k in range(1, n):
        # rotated queue i is queue old[i]
        old = [(i + k) % n for i in range(n)]
        rotated = SystemSpec(tuple(system.queues[j] for j in old))
        got_weighted, got_per_queue = sweep_arrays(sojourn_sweep(
            rotated, old.index(queue), target, grid))
        assert worst_relative(got_per_queue, per_queue[:, old]) <= MEAN_REL, k
        assert worst_relative(got_weighted, weighted) <= MEAN_REL, k


def split_switch_overs(system):
    """`system` with every `Deterministic(d)` switch-over cut in two.

    The queue keeps d / 2, and a zero-rate queue with `Exponential(1.0)`
    service and a `Deterministic(d / 4)` visit and switch-over follows it;
    it carries the split queue's travel laws, since travel laws go on every
    queue or on none. Returns the new system and the new index of each old
    queue.
    """
    queues, index = [], []
    for q in system.queues:
        index.append(len(queues))
        if not isinstance(q.switch, Deterministic):
            queues.append(q)
            continue
        d = q.switch.value
        queues.append(dataclasses.replace(q, switch=Deterministic(d / 2)))
        queues.append(QueueSpec(0.0, Exponential(1.0), Deterministic(d / 4),
                                Deterministic(d / 4), approach=q.approach,
                                return_=q.return_))
    return SystemSpec(tuple(queues)), index


@pytest.mark.parametrize("name", CONFIGS)
def test_split_switch_over_leaves_the_other_queues_alone(name):
    _, system = load(name)
    split, index = split_switch_overs(system)
    assert len(split) > len(system)
    plain_means, split_means = polling_means(system), polling_means(split)
    for field in ("at_polling", "at_visit_end"):
        assert worst_relative(
            getattr(split_means, field)[np.ix_(index, index)],
            getattr(plain_means, field)) <= MEAN_REL, field
    plain, metrics = (sojourn_metrics(s, W_GRID) for s in (system, split))
    assert worst_relative(np.array(metrics.means)[index],
                          plain.means) <= MEAN_REL
    assert worst_absolute(metrics.lst_table[index], plain.lst_table) <= W_ABS
    if name == PGF_CONFIG:
        # a zero-rate queue is always empty, so its z does not matter
        points = []
        for z in PGF_POINTS:
            wide = [0.5] * len(split)
            for j, i in enumerate(index):
                wide[i] = z[j]
            points.append(wide)
        assert worst_absolute(pgf_values(split, index, points),
                              pgf_values(system, range(len(system)),
                                         PGF_POINTS)) <= PGF_ABS


def rewrite_laws(system, rewrite):
    """`system` with `rewrite` applied to every law of every queue."""
    return SystemSpec(tuple(
        dataclasses.replace(
            q, service=rewrite(q.service), visit=rewrite(q.visit),
            switch=rewrite(q.switch), approach=rewrite(q.approach),
            return_=rewrite(q.return_))
        for q in system.queues))


SAME_LAW = {
    "exponential_as_erlang": lambda law: (
        Erlang(1, law.rate) if type(law) is Exponential else law),
    "erlang_as_mixed_erlang": lambda law: (
        MixedErlang(0.0, law.phases, law.rate)
        if type(law) is Erlang and law.phases >= 2 else law),
    "deterministic_as_discrete": lambda law: (
        Discrete(((law.value, 1.0),)) if type(law) is Deterministic else law),
}


def output_bytes(raw, system):
    """The bytes of every analytic output and of a short seeded `run`."""
    means = polling_means(system)
    metrics = sojourn_metrics(system, W_GRID)
    best = optimal_order(system, tour_state(raw))
    out = [means.at_polling.tobytes(), means.at_visit_end.tobytes(),
           np.array(metrics.means).tobytes(), metrics.lst_table.tobytes(),
           best.order, best.total.hex(), best.per_queue.tobytes()]
    if all(q.visit.atoms is not None for q in system.queues):
        out.append(pgf_values(system, range(len(system)),
                              PGF_POINTS).tobytes())
    config = dataclasses.replace(
        cli._build_sim(raw["sim"], "sim", len(system)),
        warmup_cycles=20, measured_cycles=200, replications=2)
    report = run(system, config)
    out += [report.summary[0].tobytes(), report.summary[1].tobytes()]
    return out


@pytest.mark.parametrize("rewrite", sorted(SAME_LAW))
@pytest.mark.parametrize("name", CONFIGS)
def test_the_same_law_written_twice_gives_the_same_bytes(name, rewrite):
    raw, system = load(name)
    assert output_bytes(raw, rewrite_laws(system, SAME_LAW[rewrite])) == \
        output_bytes(raw, system)
