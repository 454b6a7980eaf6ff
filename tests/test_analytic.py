"""Analytic pipeline: model validation, means, PGF, sojourn metrics.

The two-queue reference system used throughout: arrival rates 0.8 and 0.5,
exponential service and visit laws with rates (1, 1) and (3/2, 3/2), and a
deterministic quarter-unit switch-over after each visit. All closed-form
targets below (13/6, 7/6, 65/36, 8/3, 11/6, 31/12, 35/12, 141/52) were
derived by hand from that parameterization before the code existed.
"""
import collections
import dataclasses
import itertools
import math
import pickle
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import simd_dispatch
from mginfpolling import analytic, cli
from mginfpolling.analytic import (
    CycleMoments,
    QueueSpec,
    SystemSpec,
    cycle_moments,
    derived_quantities,
    pgf_eval,
    polling_means,
    sojourn_lst,
    sojourn_lst_exponential,
    sojourn_mean,
    sojourn_mean_exponential,
    sojourn_metrics,
    sojourn_sweep,
    weighted_sojourn_mean,
)
from mginfpolling.distributions import (
    Deterministic,
    Discrete,
    Erlang,
    Exponential,
    HyperExponential,
    MixedErlang,
    _ErlangMixture,
    attempt_lst,
    completion_probability,
    expected_min,
    served_in_visit,
    survival_product_integral,
)
from mginfpolling.errors import (
    DomainError,
    ModelError,
    NumericsError,
    UnsupportedModelError,
)
from mginfpolling.optimizer import TourState, expected_throughput
from mginfpolling.simulator import SimConfig, single_cycle_throughput


def reference_system() -> SystemSpec:
    return SystemSpec((
        QueueSpec(0.8, Exponential(1.0), Exponential(1.0), Deterministic(0.25)),
        QueueSpec(0.5, Exponential(1.5), Exponential(1.5), Deterministic(0.25)),
    ))


def atomic_system() -> SystemSpec:
    return SystemSpec((
        QueueSpec(0.7, Exponential(1.2), Deterministic(1.0), Deterministic(0.3)),
        QueueSpec(0.4, Erlang(2, 2.0), Deterministic(1.5), Deterministic(0.2)),
    ))


def continuous_switch_system(switch0=None, switch1=None) -> SystemSpec:
    """Atomic visits with an exponential and a hyperexponential switch-over."""
    return SystemSpec((
        QueueSpec(0.7, Exponential(1.2), Discrete(((0.6, 0.4), (1.4, 0.6))),
                  switch0 or Exponential(3.0)),
        QueueSpec(0.4, Erlang(2, 2.0), Deterministic(1.5),
                  switch1 or HyperExponential(0.3, 5.0, 2.0)),
    ))


def never_serving_system() -> SystemSpec:
    """Queue 1's short visit atom (0.5) never completes its service (1.0)."""
    return SystemSpec((
        QueueSpec(0.5, Deterministic(1.0), Discrete(((0.5, 0.5), (2.0, 0.5))),
                  Deterministic(0.2)),
        QueueSpec(0.5, Exponential(2.0), Deterministic(1.0), Deterministic(0.2)),
    ))


def mixed_system() -> SystemSpec:
    """Four queues over every law family, atomic and continuous."""
    return SystemSpec((
        QueueSpec(0.3, Exponential(1.0), Exponential(1.2), Deterministic(0.1)),
        QueueSpec(0.25, Erlang(2, 3.0), HyperExponential(0.7, 2.0, 0.5),
                  Erlang(2, 20.0)),
        QueueSpec(0.2, MixedErlang(0.4, 3, 4.0), Deterministic(0.8),
                  Exponential(10.0)),
        QueueSpec(0.35, Discrete(((0.2, 0.5), (0.9, 0.5))),
                  MixedErlang(0.3, 4, 5.0),
                  Discrete(((0.05, 0.5), (0.15, 0.5)))),
    ))


def three_queue_deterministic_system() -> SystemSpec:
    """Deterministic visits and switch-overs, one with zero length."""
    return SystemSpec((
        QueueSpec(0.6, HyperExponential(0.4, 3.0, 0.8), Deterministic(1.0),
                  Deterministic(0.0)),
        QueueSpec(0.5, Deterministic(0.7), Deterministic(1.2),
                  Deterministic(0.3)),
        QueueSpec(0.4, MixedErlang(0.3, 3, 4.0), Deterministic(0.8),
                  Deterministic(0.1)),
    ))


def atomic_pgf_system() -> SystemSpec:
    """Two-atom visit laws and atomic switch-overs on three queues."""
    return SystemSpec((
        QueueSpec(0.6, Exponential(5.0), Discrete(((0.8, 0.5), (1.6, 0.5))),
                  Deterministic(0.2)),
        QueueSpec(0.4, Erlang(2, 6.0), Discrete(((0.6, 0.6), (1.2, 0.4))),
                  Discrete(((0.1, 0.5), (0.3, 0.5)))),
        QueueSpec(0.5, Exponential(5.0), Discrete(((0.5, 0.3), (1.0, 0.7))),
                  Deterministic(0.15)),
    ))


def full_walk_pgf(system: SystemSpec, queue: int, z,
                  every_queue: bool = True) -> float:
    """`pgf_eval`'s level recursion, forming u and lambda . u on every level.

    With `every_queue`, every queue's atom counts are tracked: the reference
    for `pgf_eval`, which tracks only the queues with z_j != 1 and a
    positive arrival rate. Without it, only those queues are tracked, and a
    crossing of any other queue multiplies the masses by its visit
    transform, as `pgf_eval` does; that is the reference for `pgf_eval`'s
    carrying of u and lambda . u across such crossings. Takes valid inputs
    only.
    """
    queues = system.queues
    n = len(queues)
    rates = np.array([q.arrival_rate for q in queues])
    u0 = 1.0 - np.asarray(z, dtype=float)
    tracked = np.full(n, True) if every_queue else (u0 != 0.0) & (rates > 0.0)
    atoms = [np.array(q.visit.atoms).T for q in queues]
    left = [rate * q.service.integrated_survival(v)
            for rate, q, (v, _) in zip(rates, queues, atoms)]
    survive = np.concatenate([np.zeros(0)] + [
        q.service.survival(v) for q, (v, _), t in zip(queues, atoms, tracked)
        if t])
    starts = np.cumsum([0] + [len(v) * t for (v, _), t in zip(atoms, tracked)])
    counts = np.zeros((1, starts[-1]), dtype=np.int32)
    mass = np.ones(1)
    value = 0.0
    for level in range(analytic._PGF_MAX_CYCLES * n + 1):
        u = np.zeros((len(counts), n))
        u[:, tracked] = u0[tracked] * np.multiply.reduceat(
            survive**counts, starts[:-1][tracked], axis=1)
        retire = ((np.max(np.abs(u), axis=1) < analytic._PGF_U_FLOOR)
                  | (mass < analytic._PGF_MASS_FLOOR))
        value += mass[retire].sum()
        live = ~retire
        if not live.any():
            return float(value)
        counts, mass, u = counts[live], mass[live], u[live]
        j = (queue - 1 - level) % n
        v, w = atoms[j]
        lam_dot = np.add.reduce(u * rates, axis=1)
        other = lam_dot - rates[j] * u[:, j]
        mass = mass * queues[j].switch.lst(lam_dot)
        if not tracked[j]:
            mass = mass * queues[j].visit.lst(lam_dot)
            continue
        child_mass = mass[:, None] * w * np.exp(
            -np.outer(other, v) - np.outer(u[:, j], left[j]))
        children = np.repeat(counts, len(v), axis=0)
        children[:, starts[j]:starts[j + 1]] += np.tile(
            np.eye(len(v), dtype=counts.dtype), (len(counts), 1))
        order = np.lexsort(children.T)
        children = children[order]
        first = np.ones(len(children), dtype=bool)
        first[1:] = np.any(children[1:] != children[:-1], axis=1)
        counts = children[first]
        mass = np.bincount(np.cumsum(first) - 1,
                           weights=child_mass.ravel()[order])
    raise AssertionError("the full walk did not settle")


class TestModelValidation:
    def test_single_queue_rejected(self):
        with pytest.raises(ModelError):
            SystemSpec((reference_system().queues[0],))

    def test_negative_rate_rejected(self):
        with pytest.raises(ModelError):
            QueueSpec(-0.1, Exponential(1.0), Exponential(1.0), Deterministic(0.0))

    def test_zero_rate_allowed(self):
        q = QueueSpec(0.0, Exponential(1.0), Exponential(1.0), Deterministic(0.0))
        assert q.arrival_rate == 0.0

    def test_service_mass_at_zero_rejected(self):
        with pytest.raises(ModelError):
            QueueSpec(1.0, Deterministic(0.0), Exponential(1.0), Deterministic(0.1))
        with pytest.raises(ModelError):
            QueueSpec(1.0, Discrete(((0.0, 0.5), (1.0, 0.5))),
                      Exponential(1.0), Deterministic(0.1))

    def test_visit_mass_at_zero_rejected(self):
        with pytest.raises(ModelError):
            QueueSpec(1.0, Exponential(1.0), Deterministic(0.0), Deterministic(0.1))

    def test_zero_switch_allowed(self):
        q = QueueSpec(1.0, Exponential(1.0), Exponential(1.0), Deterministic(0.0))
        assert q.switch.mean() == 0.0

    def test_travel_laws_come_in_pairs(self):
        with pytest.raises(ModelError):
            QueueSpec(1.0, Exponential(1.0), Exponential(1.0), Deterministic(0.1),
                      approach=Deterministic(0.2))

    def test_travel_laws_uniform_across_system(self):
        with_travel = QueueSpec(
            1.0, Exponential(1.0), Exponential(1.0), Deterministic(0.1),
            approach=Deterministic(0.2), return_=Deterministic(0.2))
        without = QueueSpec(1.0, Exponential(1.0), Exponential(1.0),
                            Deterministic(0.1))
        with pytest.raises(ModelError):
            SystemSpec((with_travel, without))
        sys_ok = SystemSpec((with_travel, with_travel))
        assert sys_ok.has_central_point
        assert not reference_system().has_central_point


class TestDerivedQuantities:
    def test_memoryless_pair(self):
        d = derived_quantities(reference_system(), 0)
        assert d.completion_prob == pytest.approx(0.5, rel=1e-10)
        assert d.residual_overshoot_prob == pytest.approx(0.5, rel=1e-10)
        assert d.mean_failed_visits == pytest.approx(1.0, rel=1e-9)

    def test_leftover_arrivals_exponential_pair(self):
        # rate lam, service exp(mu), visit exp(g): lam / (g + mu) leftovers
        sys2 = SystemSpec((
            QueueSpec(0.5, Exponential(1.5), Exponential(1.5), Deterministic(0.1)),
            QueueSpec(0.1, Exponential(1.0), Exponential(1.0), Deterministic(0.1)),
        ))
        d = derived_quantities(sys2, 0)
        assert d.leftover_arrival_mean == pytest.approx(1.0 / 6.0, rel=1e-10)
        assert d.leftover_arrival_mean == pytest.approx(0.5 * d.min_mean, rel=1e-12)

    def test_truncated_exponential(self):
        # exp(1) service against a fixed visit of ln 2 completes half the time
        sys2 = SystemSpec((
            QueueSpec(1.0, Exponential(1.0), Deterministic(math.log(2.0)),
                      Deterministic(0.1)),
            QueueSpec(1.0, Exponential(1.0), Exponential(1.0), Deterministic(0.1)),
        ))
        d = derived_quantities(sys2, 0)
        assert d.completion_prob == pytest.approx(0.5, rel=1e-12)

    def test_never_completing_service_rejected(self):
        sys2 = SystemSpec((
            QueueSpec(1.0, Deterministic(2.0), Deterministic(1.0), Deterministic(0.1)),
            QueueSpec(1.0, Exponential(1.0), Exponential(1.0), Deterministic(0.1)),
        ))
        with pytest.raises(ModelError):
            derived_quantities(sys2, 0)

    def test_queue_index_checked(self):
        with pytest.raises(DomainError):
            derived_quantities(reference_system(), 2)
        with pytest.raises(DomainError):
            derived_quantities(reference_system(), -1)


class TestCycleMoments:
    def test_reference_values(self):
        cm = cycle_moments(reference_system())
        assert cm.cycle_mean == pytest.approx(13.0 / 6.0, rel=1e-14)
        assert cm.partial_means[0] == pytest.approx(7.0 / 6.0, rel=1e-14)
        assert cm.partial_second_moments[0] == pytest.approx(65.0 / 36.0, rel=1e-13)
        assert cm.partial_means[1] == pytest.approx(1.5, rel=1e-14)
        assert cm.partial_second_moments[1] == pytest.approx(13.0 / 4.0, rel=1e-13)

    def test_partials_complement_visits(self):
        sys2 = atomic_system()
        cm = cycle_moments(sys2)
        for i, q in enumerate(sys2.queues):
            assert cm.partial_means[i] + q.visit.mean() == pytest.approx(
                cm.cycle_mean, rel=1e-14)
            assert cm.partial_second_moments[i] >= cm.partial_means[i] ** 2

    def test_deterministic_cycle_has_no_spread(self):
        cm = cycle_moments(atomic_system())
        for i in range(2):
            assert cm.partial_second_moments[i] == pytest.approx(
                cm.partial_means[i] ** 2, rel=1e-14)

    def test_returns_frozen_container(self):
        assert isinstance(cycle_moments(reference_system()), CycleMoments)


class TestPollingMeans:
    def test_reference_diagonal(self):
        pm = polling_means(reference_system())
        assert pm.at_polling[0, 0] == pytest.approx(8.0 / 3.0, rel=1e-9)
        assert pm.at_polling[1, 1] == pytest.approx(11.0 / 6.0, rel=1e-9)

    def test_reference_off_diagonal(self):
        # queue 0 at the polling of queue 1: end-of-visit mass plus switch arrivals
        pm = polling_means(reference_system())
        want = (0.5 * 8.0 / 3.0 + 0.4) + 0.8 * 0.25
        assert pm.at_polling[1, 0] == pytest.approx(want, rel=1e-9)

    def test_diagonal_balance_identity(self):
        # p_j E[X_jj] must equal arrivals while away plus leftover arrivals
        for sys2 in (reference_system(), atomic_system()):
            pm = polling_means(sys2)
            visit_total = sum(q.visit.mean() for q in sys2.queues)
            switch_total = sum(q.switch.mean() for q in sys2.queues)
            for j, q in enumerate(sys2.queues):
                d = derived_quantities(sys2, j)
                lhs = d.completion_prob * pm.at_polling[j, j]
                rhs = (q.arrival_rate * (visit_total - q.visit.mean())
                       + d.leftover_arrival_mean + q.arrival_rate * switch_total)
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_law_of_motion_fixed_point(self):
        # stepping any polling-instant row through one visit and switch must
        # reproduce the next row, including its diagonal entry
        for sys2 in (reference_system(), atomic_system()):
            pm = polling_means(sys2)
            n = len(sys2.queues)
            for j in range(n):
                nxt = (j + 1) % n
                for col in range(n):
                    stepped = (pm.at_visit_end[j, col]
                               + sys2.queues[col].arrival_rate
                               * sys2.queues[j].switch.mean())
                    assert pm.at_polling[nxt, col] == pytest.approx(
                        stepped, rel=1e-9, abs=1e-12)

    def test_end_of_visit_rows(self):
        sys2 = reference_system()
        pm = polling_means(sys2)
        d0 = derived_quantities(sys2, 0)
        want = (1.0 - d0.completion_prob) * pm.at_polling[0, 0] \
            + d0.leftover_arrival_mean
        assert pm.at_visit_end[0, 0] == pytest.approx(want, rel=1e-10)
        off = pm.at_polling[0, 1] + 0.5 * sys2.queues[0].visit.mean()
        assert pm.at_visit_end[0, 1] == pytest.approx(off, rel=1e-10)

    def test_no_arrivals_no_customers(self):
        sys2 = SystemSpec((
            QueueSpec(0.0, Exponential(1.0), Exponential(1.0), Deterministic(0.25)),
            QueueSpec(0.0, Exponential(1.5), Exponential(1.5), Deterministic(0.25)),
        ))
        pm = polling_means(sys2)
        assert np.allclose(pm.at_polling, 0.0, atol=1e-14)
        assert np.allclose(pm.at_visit_end, 0.0, atol=1e-14)

    def test_entries_nonnegative(self):
        pm = polling_means(atomic_system())
        assert np.all(pm.at_polling >= 0.0)
        assert np.all(pm.at_visit_end >= 0.0)


def reference_polling_means(system: SystemSpec):
    """`polling_means` as an O(N^3) loop that sums each crossed span anew."""
    queues = system.queues
    n = len(queues)
    rates = [q.arrival_rate for q in queues]
    visit_means = [q.visit.mean() for q in queues]
    switch_means = [q.switch.mean() for q in queues]
    derived = [derived_quantities(system, j) for j in range(n)]
    switch_total = sum(switch_means)
    visit_total = sum(visit_means)
    at_polling = np.zeros((n, n))
    at_end = np.zeros((n, n))
    for j in range(n):
        p = derived[j].completion_prob
        leftover = derived[j].leftover_arrival_mean
        at_polling[j, j] = (rates[j] * (visit_total - visit_means[j])
                            + leftover + rates[j] * switch_total) / p
        at_end[j, j] = (1.0 - p) * at_polling[j, j] + leftover
    for j in range(n):
        for m in range(1, n):
            i = (j + m) % n
            elapsed = sum(switch_means[(j + r) % n] for r in range(m))
            elapsed += sum(visit_means[(j + r) % n] for r in range(1, m))
            at_polling[i, j] = at_end[j, j] + rates[j] * elapsed
            at_end[i, j] = at_polling[i, j] + rates[j] * visit_means[i]
    return at_polling, at_end


def random_polling_system(rng, n: int) -> SystemSpec:
    # an atomic service law could exceed every visit atom and never complete
    def law(kinds=4):
        kind = rng.integers(kinds)
        if kind == 0:
            return Exponential(float(rng.uniform(0.3, 3.0)))
        if kind == 1:
            return Erlang(int(rng.integers(1, 5)), float(rng.uniform(0.5, 4.0)))
        if kind == 2:
            return Deterministic(float(rng.uniform(0.05, 2.0)))
        return Discrete(((float(rng.uniform(0.05, 0.5)), 0.3),
                         (float(rng.uniform(0.6, 2.0)), 0.7)))

    return SystemSpec(tuple(
        QueueSpec(0.0 if rng.random() < 0.2 else float(rng.uniform(0.01, 2.0)),
                  law(kinds=2), law(),
                  Deterministic(0.0) if rng.random() < 0.3 else law())
        for _ in range(n)))


@pytest.mark.parametrize("seed", range(6))
def test_polling_means_keeps_the_bits_of_the_cubic_loop(seed):
    rng = np.random.default_rng(seed)
    for n in (2, 3, 5, 8, 13, 19):
        system = random_polling_system(rng, n)
        pm = polling_means(system)
        want_polling, want_end = reference_polling_means(system)
        assert pm.at_polling.tobytes() == want_polling.tobytes()
        assert pm.at_visit_end.tobytes() == want_end.tobytes()


class TestPgf:
    def test_normalization(self):
        assert pgf_eval(atomic_system(), 0, (1.0, 1.0)) == 1.0
        assert pgf_eval(atomic_system(), 1, (1.0, 1.0)) == 1.0

    def test_bounds_and_monotonicity(self):
        sys2 = atomic_system()
        grid = [0.0, 0.3, 0.7, 1.0]
        prev = None
        for z0 in grid:
            val = pgf_eval(sys2, 0, (z0, 0.5))
            assert 0.0 < val <= 1.0
            if prev is not None:
                assert val >= prev
            prev = val

    def test_gradient_matches_polling_means(self):
        sys2 = atomic_system()
        pm = polling_means(sys2)
        h = 1e-5
        for i in range(2):
            for j in range(2):
                zp = np.ones(2)
                zm = np.ones(2)
                zp[j] += h
                zm[j] -= h
                grad = (pgf_eval(sys2, i, zp) - pgf_eval(sys2, i, zm)) / (2 * h)
                assert grad == pytest.approx(pm.at_polling[i, j], rel=1e-4)

    def test_gradient_with_discrete_visit_laws(self):
        sys2 = SystemSpec((
            QueueSpec(0.6, Exponential(1.0), Discrete(((0.5, 0.5), (1.5, 0.5))),
                      Deterministic(0.2)),
            QueueSpec(0.3, Exponential(2.0), Discrete(((0.4, 0.25), (1.0, 0.75))),
                      Discrete(((0.1, 0.5), (0.3, 0.5)))),
        ))
        pm = polling_means(sys2)
        h = 1e-5
        zp = np.array([1.0 + h, 1.0])
        zm = np.array([1.0 - h, 1.0])
        grad = (pgf_eval(sys2, 0, zp) - pgf_eval(sys2, 0, zm)) / (2 * h)
        assert grad == pytest.approx(pm.at_polling[0, 0], rel=1e-4)

    def test_marginal_consistency(self):
        # setting one coordinate to 1 marginalizes that queue out, so the
        # value must not depend on its service law details
        sys2 = atomic_system()
        altered = SystemSpec((
            sys2.queues[0],
            QueueSpec(0.9, Erlang(3, 1.0), Deterministic(1.5), Deterministic(0.2)),
        ))
        a = pgf_eval(sys2, 0, (0.4, 1.0))
        b = pgf_eval(altered, 0, (0.4, 1.0))
        assert a == pytest.approx(b, abs=1e-11)

    def test_continuous_switch_normalization(self):
        sys2 = continuous_switch_system()
        for i in range(2):
            assert abs(pgf_eval(sys2, i, np.ones(2)) - 1.0) < 1e-12

    def test_continuous_switch_gradient_matches_polling_means(self):
        sys2 = continuous_switch_system()
        pm = polling_means(sys2)
        h = 1e-6
        for i in range(2):
            for j in range(2):
                z = np.ones(2)
                z[j] = 1.0 - h
                grad = (1.0 - pgf_eval(sys2, i, z)) / h
                assert abs(grad / pm.at_polling[i, j] - 1.0) < 1e-5, (i, j)

    def test_erlang_switch_approaches_deterministic(self):
        # Erlang(k, k / d) tends to the point mass at d as k grows
        exact = pgf_eval(continuous_switch_system(
            Deterministic(0.3), Deterministic(0.2)), 0, (0.5, 0.3))
        gaps = [abs(pgf_eval(continuous_switch_system(
                    Erlang(k, k / 0.3), Erlang(k, k / 0.2)), 0, (0.5, 0.3))
                    - exact)
                for k in (10, 100, 1000)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_switch_transform_beyond_its_rate_raises(self):
        # z above one makes lambda . u negative; a slow exponential
        # switch-over has no transform at -0.022
        sys2 = continuous_switch_system(Exponential(0.01))
        with pytest.raises(DomainError, match="lst needs"):
            pgf_eval(sys2, 0, (1.02, 1.02))

    def test_continuous_visit_rejected(self):
        with pytest.raises(UnsupportedModelError):
            pgf_eval(reference_system(), 0, (0.5, 0.5))

    def test_out_of_range_z_rejected(self):
        with pytest.raises(DomainError):
            pgf_eval(atomic_system(), 0, (-0.1, 0.5))
        with pytest.raises(DomainError):
            pgf_eval(atomic_system(), 0, (0.5, 1.2))
        with pytest.raises(DomainError):
            pgf_eval(atomic_system(), 0, (0.5,))

    def test_insufficient_history_raises(self):
        # queue 1 completes a service in a visit with probability 1e-9, so
        # its coordinate barely contracts over the 500-cycle history limit
        slow = SystemSpec((
            QueueSpec(1e-12, Exponential(1e-9), Deterministic(1.0),
                      Deterministic(0.3)),
            atomic_system().queues[1],
        ))
        with pytest.raises(NumericsError, match="did not settle"):
            pgf_eval(slow, 0, (0.2, 0.2))

    def test_too_many_atom_counts_raises(self, monkeypatch):
        # queue 1's two visit atoms give each level more count vectors
        monkeypatch.setattr(analytic, "_PGF_MAX_VECTORS", 2)
        with pytest.raises(NumericsError,
                           match="exceeded 2 distinct visit-atom counts"):
            pgf_eval(continuous_switch_system(), 0, (0.5, 0.5))

    @pytest.mark.parametrize("system", [
        atomic_system(),
        SystemSpec((
            QueueSpec(0.6, HyperExponential(0.4, 3.0, 0.8), Deterministic(1.0),
                      Deterministic(0.0)),
            QueueSpec(0.5, Deterministic(0.7), Deterministic(1.2),
                      Deterministic(0.3)),
            QueueSpec(0.4, MixedErlang(0.3, 3, 4.0), Deterministic(0.8),
                      Deterministic(0.1)),
        )),
    ], ids=["two_queues", "three_queues"])
    def test_deterministic_schedule_gives_poisson_counts(self, system):
        # with deterministic visits and switch-overs every customer is
        # present at a polling instant independently of every other, so
        # the counts are independent Poisson variables with the polling
        # means: G_i(z) = exp(-sum_j m_ij (1 - z_j))
        n = len(system)
        m = polling_means(system).at_polling
        for i in range(n):
            for z in itertools.product((0.0, 0.3, 0.7, 1.0), repeat=n):
                exact = math.exp(-m[i] @ (1.0 - np.array(z)))
                assert abs(pgf_eval(system, i, z) - exact) < 1e-12, (i, z)

    def test_never_serving_visit_atom_settles(self):
        sys2 = never_serving_system()
        pm = polling_means(sys2)
        # 0.5 * (E[V2] + E[min(B1, V1)] + switch-overs) / P[B1 <= V1]
        assert pm.at_polling[0, 0] == pytest.approx(2.15, abs=1e-12)
        h = 1e-6
        grad = (1.0 - pgf_eval(sys2, 0, (1.0 - h, 1.0))) / h
        assert abs(grad - pm.at_polling[0, 0]) < 1e-4


#: systems compared with the full walk
PGF_SYSTEMS = {
    "atomic": atomic_system,
    "three_deterministic": three_queue_deterministic_system,
    "never_serving": never_serving_system,
    "continuous_switch": continuous_switch_system,
    "atomic_pgf": atomic_pgf_system,
}


# the points put coordinates just below and just above 1 as well as far off
def off_one_points(n: int):
    """Points with no coordinate at 1."""
    if n == 2:
        return [(0.0, 0.4), (0.4, 1.0 - 1e-6), (1.0 + 1e-5, 0.0),
                (1.0 - 1e-6, 1.0 + 1e-5)]
    return [(0.5, 0.5, 0.5), (0.8, 0.6, 0.9), (0.0, 0.3, 1.0 + 1e-5),
            (1.0 - 1e-6, 0.2, 0.7)]


def at_one_points(n: int):
    """Points with one coordinate at 1 and, on three queues, with two."""
    if n == 2:
        return [(1.0, 0.4), (0.0, 1.0), (1.0, 1.0 - 1e-6), (1.0 + 1e-5, 1.0)]
    return [(1.0, 0.5, 0.7), (0.0, 1.0, 1.0 - 1e-6), (1.0 + 1e-5, 0.4, 1.0),
            (1.0, 0.5, 1.0), (1.0 - 1e-6, 1.0, 1.0), (1.0, 1.0, 1.0 + 1e-5)]


class TestPgfTrackedQueues:
    """`pgf_eval` carries atom counts only for the queues with z_j != 1."""

    @pytest.mark.parametrize("name", PGF_SYSTEMS)
    def test_equal_to_full_walk_off_one(self, name):
        system = PGF_SYSTEMS[name]()
        n = len(system)
        for z in off_one_points(n):
            for i in range(n):
                assert pgf_eval(system, i, z) == full_walk_pgf(system, i, z), \
                    (i, z)

    @pytest.mark.parametrize("name", PGF_SYSTEMS)
    def test_close_to_full_walk_at_one(self, name):
        system = PGF_SYSTEMS[name]()
        n = len(system)
        for z in at_one_points(n):
            for i in range(n):
                assert abs(pgf_eval(system, i, z)
                           - full_walk_pgf(system, i, z)) < 1e-14, (i, z)

    def test_levels_stay_narrow_at_marginal_points(self, monkeypatch):
        # the full walk holds 840 and 108 vectors on its widest levels here
        monkeypatch.setattr(analytic, "_PGF_MAX_VECTORS", 64)
        system = atomic_pgf_system()
        for z in ((1.0, 0.5, 1.0), (1.0 - 1e-6, 1.0, 1.0)):
            for i in range(3):
                assert 0.0 < pgf_eval(system, i, z) < 1.0

    def test_zero_rate_queue_is_free_of_its_z(self):
        # atomic-pgf with queue 0's switch-over of 0.2 split into 0.1, then
        # a zero-rate queue whose visit and switch-over take the other 0.1
        base = atomic_pgf_system()
        idle = QueueSpec(0.0, Exponential(1.0), Deterministic(0.06),
                         Deterministic(0.04))
        split = SystemSpec((
            dataclasses.replace(base.queues[0], switch=Deterministic(0.1)),
            idle, *base.queues[1:]))
        start = time.perf_counter()
        value = pgf_eval(split, 0, (0.5, 0.5, 0.5, 0.5))
        assert time.perf_counter() - start < 5.0
        assert value == pgf_eval(split, 0, (0.5, 1.0, 0.5, 0.5))
        assert value == full_walk_pgf(split, 0, (0.5, 0.5, 0.5, 0.5),
                                      every_queue=False)
        assert abs(value - pgf_eval(base, 0, (0.5, 0.5, 0.5))) < 1e-15

    @pytest.mark.parametrize("j", range(3))
    def test_marginal_is_bitwise_free_of_the_service_law(self, j):
        base = atomic_pgf_system()
        z = [0.3, 0.6, 0.8]
        z[j] = 1.0
        values = set()
        for service in (Exponential(5.0), Erlang(3, 1.0), Deterministic(0.7),
                        HyperExponential(0.4, 3.0, 0.8)):
            queues = list(base.queues)
            queues[j] = dataclasses.replace(queues[j], service=service)
            values.add(pgf_eval(SystemSpec(tuple(queues)), 0, z))
        assert len(values) == 1

    @pytest.mark.parametrize("j", range(3))
    def test_nan_z_rejected_before_the_walk(self, j):
        z = [0.5, 0.5, 0.5]
        z[j] = math.nan
        start = time.perf_counter()
        with pytest.raises(DomainError, match="must lie in"):
            pgf_eval(atomic_pgf_system(), 0, z)
        assert time.perf_counter() - start < 1.0


#: (queue, z, float.hex of `pgf_eval` on `atomic_pgf_system()`): the twelve
#: points of `validate` (z = 1, and one coordinate at 1 - 1e-6, at every
#: queue), then `at_one_points(3)` at every queue. Re-taken once when the
#: exact paths stopped summing through BLAS: each value is the one the
#: earlier code gave under OpenBLAS's Haswell kernel.
ATOMIC_PGF_PINS = [
    (0, (1.0, 1.0, 1.0), "0x1.0000000000000p+0"),
    (0, (0.999999, 1.0, 1.0), "0x1.ffffce73ab6aep-1"),
    (0, (1.0, 0.999999, 1.0), "0x1.ffffe85334294p-1"),
    (0, (1.0, 1.0, 0.999999), "0x1.fffff8d07eab4p-1"),
    (1, (1.0, 1.0, 1.0), "0x1.0000000000000p+0"),
    (1, (0.999999, 1.0, 1.0), "0x1.fffff785bd7f0p-1"),
    (1, (1.0, 0.999999, 1.0), "0x1.ffffd588d8612p-1"),
    (1, (1.0, 1.0, 0.999999), "0x1.ffffe1538b4d5p-1"),
    (2, (1.0, 1.0, 1.0), "0x1.0000000000000p+0"),
    (2, (0.999999, 1.0, 1.0), "0x1.ffffe2959fcc2p-1"),
    (2, (1.0, 0.999999, 1.0), "0x1.fffff5bf2d028p-1"),
    (2, (1.0, 1.0, 0.999999), "0x1.ffffcfe0c893ep-1"),
    (0, (1.0, 0.5, 0.7), "0x1.51dd10d389a24p-1"),
    (1, (1.0, 0.5, 0.7), "0x1.a208218376aedp-2"),
    (2, (1.0, 0.5, 0.7), "0x1.1ea3b9c31cdcap-1"),
    (0, (0.0, 1.0, 0.999999), "0x1.e077f551f2f90p-3"),
    (1, (0.0, 1.0, 0.999999), "0x1.8db89a42fbda3p-1"),
    (2, (0.0, 1.0, 0.999999), "0x1.b176884686b42p-2"),
    (0, (1.00001, 0.4, 1.0), "0x1.5037c09670308p-1"),
    (1, (1.00001, 0.4, 1.0), "0x1.e2bf84962a12fp-2"),
    (2, (1.00001, 0.4, 1.0), "0x1.aac2172129e65p-1"),
    (0, (1.0, 0.5, 1.0), "0x1.687c8d0e20513p-1"),
    (1, (1.0, 0.5, 1.0), "0x1.115279248a6d3p-1"),
    (2, (1.0, 0.5, 1.0), "0x1.b7d4c3e7590e8p-1"),
    (0, (0.999999, 1.0, 1.0), "0x1.ffffce73ab6aep-1"),
    (1, (0.999999, 1.0, 1.0), "0x1.fffff785bd7f0p-1"),
    (2, (0.999999, 1.0, 1.0), "0x1.ffffe2959fcc2p-1"),
    (0, (1.0, 1.0, 1.00001), "0x1.000023ed898f0p+0"),
    (1, (1.0, 1.0, 1.00001), "0x1.0000995e7c927p+0"),
    (2, (1.0, 1.0, 1.00001), "0x1.0000f09c957e4p+0"),
]


def even_two_atom_system(rows) -> SystemSpec:
    """Exponential service, two equally likely visit atoms and a fixed
    switch-over per queue, from rows (arrival rate, service rate, atoms,
    switch-over)."""
    return SystemSpec(tuple(
        QueueSpec(rate, Exponential(mu), Discrete(((a, 0.5), (b, 0.5))),
                  Deterministic(switch))
        for rate, mu, (a, b), switch in rows))


#: (mass floor, `even_two_atom_system` rows, z, queue) at which rows retire
#: after an untracked crossing. `pgf_eval` cuts the lambda . u of the rows
#: left out of the one formed before, and the full walk forms it on them
#: alone; a matrix-vector product would round the two differently here
CARRY_CASES = [
    (1e-7, ((4.5, 0.6, (0.4, 2.7), 0.09), (3.5, 4.1, (0.9, 3.1), 0.17),
            (4.6, 3.0, (0.6, 3.6), 0.1), (1.2, 1.0, (1.6, 2.4), 0.01)),
     (1.0, 0.6, 0.2, 1.0), 2),
    (1e-4, ((5.1, 3.4, (0.2, 3.7), 0.22), (1.2, 1.8, (1.9, 2.7), 0.15),
            (1.2, 2.0, (1.3, 2.4), 0.06), (2.7, 2.9, (1.0, 3.7), 0.08)),
     (0.0, 0.6, 1.0, 1.0), 1),
]


class TestPgfConstants:
    """`pgf_eval` builds its per-queue constants once per system."""

    def test_values_keep_their_bits(self):
        validate = []
        for i in range(3):
            validate.append((i, (1.0, 1.0, 1.0)))
            for j in range(3):
                validate.append((i, tuple(1.0 - 1e-6 if k == j else 1.0
                                          for k in range(3))))
        points = validate + [(i, z) for z in at_one_points(3)
                             for i in range(3)]
        assert points == [(i, z) for i, z, _ in ATOMIC_PGF_PINS]
        system = atomic_pgf_system()
        for i, z, pinned in ATOMIC_PGF_PINS:
            assert pgf_eval(system, i, z).hex() == pinned, \
                f"{(i, z)}; {simd_dispatch()}"
            # a second spec built from the same queues agrees bit for bit
            assert pgf_eval(atomic_pgf_system(), i, z).hex() == pinned, \
                f"{(i, z)}; {simd_dispatch()}"

    def test_twelve_calls_read_each_service_law_once(self, monkeypatch):
        # top-level calls only: an Erlang mixture's integrated_survival
        # calls its own survival
        calls = collections.Counter()
        depth = [0]

        def counting(name):
            method = getattr(_ErlangMixture, name)

            def counted(law, x):
                calls[id(law), name] += depth[0] == 0
                depth[0] += 1
                try:
                    return method(law, x)
                finally:
                    depth[0] -= 1
            return counted

        for name in ("survival", "integrated_survival"):
            monkeypatch.setattr(_ErlangMixture, name, counting(name))
        system = atomic_pgf_system()
        once = {(id(q.service), name): 1 for q in system.queues
                for name in ("survival", "integrated_survival")}
        for i, z, pinned in ATOMIC_PGF_PINS[:12]:
            assert pgf_eval(system, i, z).hex() == pinned, simd_dispatch()
        assert calls == once
        # a replaced spec keeps no constants: it builds its own, once
        twin = dataclasses.replace(system)
        for i, z, pinned in ATOMIC_PGF_PINS[:12]:
            assert pgf_eval(twin, i, z).hex() == pinned, simd_dispatch()
        assert calls == {key: 2 for key in once}

    def test_replaced_queue_gives_its_own_values(self):
        system = atomic_pgf_system()
        z = (1.0, 0.5, 0.7)
        pgf_eval(system, 0, z)
        queues = list(system.queues)
        queues[1] = dataclasses.replace(queues[1], service=Exponential(1.0))
        new = dataclasses.replace(system, queues=tuple(queues))
        assert pgf_eval(new, 0, z) == pgf_eval(SystemSpec(tuple(queues)), 0, z)
        assert pgf_eval(new, 0, z) != pgf_eval(system, 0, z)

    def test_z_is_checked_before_the_laws(self):
        system = reference_system()  # exponential visit laws
        for z in ((1.5, 0.5), (0.5, 0.5, 0.5), (math.nan, 1.0)):
            with pytest.raises(DomainError):
                pgf_eval(system, 0, z)
        with pytest.raises(DomainError, match="queue index"):
            pgf_eval(system, 2, (0.5, 0.5))

    def test_model_errors_are_raised_on_every_call(self):
        never = SystemSpec((
            QueueSpec(0.5, Deterministic(1.0), Deterministic(0.5),
                      Deterministic(0.2)),
            QueueSpec(0.5, Exponential(2.0), Deterministic(1.0),
                      Deterministic(0.2)),
        ))
        # a continuous visit law is reported before a zero completion chance
        both = SystemSpec((never.queues[0], reference_system().queues[1]))
        for system, error in ((reference_system(), UnsupportedModelError),
                              (never, ModelError),
                              (both, UnsupportedModelError)):
            for _ in range(3):
                with pytest.raises(error):
                    pgf_eval(system, 0, (0.5, 1.0))

    @pytest.mark.parametrize("floor", [1e-20, 1e-7, 1e-4, 1e-2])
    @pytest.mark.parametrize("name", PGF_SYSTEMS)
    def test_untracked_crossings_keep_the_bits(self, name, floor,
                                               monkeypatch):
        # a raised mass floor retires rows after untracked crossings, where
        # u and lambda . u are carried
        monkeypatch.setattr(analytic, "_PGF_MASS_FLOOR", floor)
        system = PGF_SYSTEMS[name]()
        n = len(system)
        for z in at_one_points(n):
            for i in range(n):
                assert pgf_eval(system, i, z) == full_walk_pgf(
                    system, i, z, every_queue=False), (i, z)

    @pytest.mark.parametrize("case", range(len(CARRY_CASES)))
    def test_rows_left_after_a_retirement_keep_the_bits(self, case,
                                                        monkeypatch):
        floor, rows, z, queue = CARRY_CASES[case]
        monkeypatch.setattr(analytic, "_PGF_MASS_FLOOR", floor)
        system = even_two_atom_system(rows)
        assert pgf_eval(system, queue, z) == full_walk_pgf(
            system, queue, z, every_queue=False)


class TestSojournMean:
    def test_reference_values(self):
        sys2 = reference_system()
        assert sojourn_mean(sys2, 0) == pytest.approx(31.0 / 12.0, rel=1e-10)
        assert sojourn_mean(sys2, 1) == pytest.approx(35.0 / 12.0, rel=1e-10)

    def test_closed_form_agreement(self):
        sys2 = reference_system()
        for i in range(2):
            assert sojourn_mean(sys2, i) == pytest.approx(
                sojourn_mean_exponential(sys2, i), rel=1e-8)

    def test_closed_form_reference(self):
        sys2 = reference_system()
        assert sojourn_mean_exponential(sys2, 0) == pytest.approx(
            31.0 / 12.0, rel=1e-13)
        assert sojourn_mean_exponential(sys2, 1) == pytest.approx(
            35.0 / 12.0, rel=1e-13)

    def test_closed_form_random_exponential_systems(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            queues = []
            for _ in range(int(rng.integers(2, 5))):
                queues.append(QueueSpec(
                    float(rng.uniform(0.1, 2.0)),
                    Exponential(float(rng.uniform(0.4, 3.0))),
                    Exponential(float(rng.uniform(0.4, 3.0))),
                    Deterministic(float(rng.uniform(0.0, 0.6)))))
            sys2 = SystemSpec(tuple(queues))
            for i in range(len(queues)):
                assert sojourn_mean(sys2, i) == pytest.approx(
                    sojourn_mean_exponential(sys2, i), rel=1e-8)

    def test_order_invariance(self):
        sys2 = SystemSpec((
            QueueSpec(0.8, Exponential(1.0), Exponential(1.0), Deterministic(0.25)),
            QueueSpec(0.5, Exponential(1.5), Erlang(2, 3.0), Deterministic(0.1)),
            QueueSpec(0.3, Erlang(2, 4.0), Exponential(2.0), Deterministic(0.15)),
        ))
        perm = SystemSpec((sys2.queues[2], sys2.queues[0], sys2.queues[1]))
        for before, after in ((0, 1), (1, 2), (2, 0)):
            assert sojourn_mean(sys2, before) == pytest.approx(
                sojourn_mean(perm, after), rel=1e-12)

    def test_arrival_phase_weights_sum_to_one(self):
        sys2 = reference_system()
        cm = cycle_moments(sys2)
        for i, q in enumerate(sys2.queues):
            w_in = q.visit.mean() / cm.cycle_mean
            w_out = cm.partial_means[i] / cm.cycle_mean
            assert w_in + w_out == pytest.approx(1.0, rel=1e-14)

    def test_fast_service_limit(self):
        # ever-faster service drives the sojourn down to the waiting cost of
        # landing outside the visit with nothing left to retry
        base = reference_system()
        cm = cycle_moments(base)
        limit = cm.partial_second_moments[0] / (2.0 * cm.cycle_mean)
        values = []
        for b in (0.5, 0.1, 0.02, 0.004):
            sys2 = SystemSpec((
                QueueSpec(0.8, Deterministic(b), Exponential(1.0), Deterministic(0.25)),
                base.queues[1],
            ))
            values.append(sojourn_mean(sys2, 0))
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(limit, abs=0.02)
        assert all(v > limit for v in values)

    def test_weighted_mean(self):
        sys2 = reference_system()
        assert weighted_sojourn_mean(sys2) == pytest.approx(141.0 / 52.0, rel=1e-10)
        silent = SystemSpec((
            QueueSpec(0.0, Exponential(1.0), Exponential(1.0), Deterministic(0.25)),
            QueueSpec(0.0, Exponential(1.5), Exponential(1.5), Deterministic(0.25)),
        ))
        with pytest.raises(ModelError):
            weighted_sojourn_mean(silent)


class TestSojournLst:
    def test_normalization_at_zero(self):
        sys2 = reference_system()
        assert sojourn_lst(sys2, 0, 0.0) == 1.0
        assert sojourn_lst_exponential(sys2, 0, 0.0) == 1.0

    def test_closed_form_agreement_on_grid(self):
        sys2 = reference_system()
        for i in range(2):
            for s in (0.1, 0.5, 1.0, 2.0):
                assert sojourn_lst(sys2, i, s) == pytest.approx(
                    sojourn_lst_exponential(sys2, i, s), rel=1e-8)

    def test_monotone_and_bounded(self):
        sys2 = SystemSpec((
            QueueSpec(0.8, Erlang(2, 2.0), Exponential(1.0), Deterministic(0.25)),
            QueueSpec(0.5, Exponential(1.5), MixedErlang(0.3, 2, 2.0),
                      Deterministic(0.1)),
        ))
        for i in range(2):
            vals = [sojourn_lst(sys2, i, s) for s in (0.0, 0.2, 0.5, 1.0, 2.0, 5.0)]
            assert all(0.0 < v <= 1.0 for v in vals)
            assert all(b < a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_slope_at_zero_is_minus_mean(self):
        sys2 = SystemSpec((
            QueueSpec(0.8, Exponential(1.0), HyperExponential(0.7, 2.0, 0.6),
                      Deterministic(0.25)),
            QueueSpec(0.5, Erlang(2, 3.0), Exponential(1.5), Deterministic(0.1)),
        ))
        h = 1e-6
        for i in range(2):
            slope = -(sojourn_lst(sys2, i, h) - 1.0) / h
            assert slope == pytest.approx(sojourn_mean(sys2, i), rel=1e-4)

    def test_negative_s_rejected(self):
        with pytest.raises(DomainError):
            sojourn_lst(reference_system(), 0, -0.5)

    def test_closed_form_needs_exponential_laws(self):
        sys2 = SystemSpec((
            QueueSpec(0.8, Erlang(2, 2.0), Exponential(1.0), Deterministic(0.25)),
            QueueSpec(0.5, Exponential(1.5), Exponential(1.5), Deterministic(0.1)),
        ))
        with pytest.raises(UnsupportedModelError):
            sojourn_mean_exponential(sys2, 0)
        with pytest.raises(UnsupportedModelError):
            sojourn_lst_exponential(sys2, 0, 1.0)

    def test_closed_form_shares_no_helper_with_the_general_path(
            self, monkeypatch):
        # the closed form checks the general transform, so it must not reach
        # the server transforms through the general path's own helpers
        def refuse(*args, **kwargs):
            raise AssertionError("general-path helper called")

        sys2 = reference_system()
        monkeypatch.setattr(analytic, "_server_lsts", refuse)
        monkeypatch.setattr(analytic, "_away_lst", refuse)
        for queue, gamma, mu, other in ((0, 1.0, 1.0, 1.5), (1, 1.5, 1.5, 1.0)):
            for s in (0.1, 0.5, 2.0):
                away = other / (other + s) * math.exp(-0.5 * s)
                closed = ((1.0 / gamma + (1.0 - away) / s) / (13.0 / 6.0)
                          * mu / (mu + gamma + s - gamma * away))
                assert sojourn_lst_exponential(sys2, queue, s) == \
                    pytest.approx(closed, rel=1e-14)


def tagged_sojourns(system: SystemSpec, queue: int, cycles: int,
                    seed: int) -> np.ndarray:
    """Monte Carlo sojourn times of customers at one queue, in arrival order.

    Independent of the analytic layer and of the simulator: each cycle of a
    drawn schedule is the queue's visit followed by the server-away time,
    customers arrive at uniform times over the first half of the schedule,
    and each one draws a fresh requirement per attempt. A requirement no
    longer than the residual (first) or whole (later) visit completes.
    """
    rng = np.random.default_rng(seed)
    queues = system.queues
    spec = queues[queue]
    visit = spec.visit.sample(rng, cycles)
    away = sum(q.switch.sample(rng, cycles) for q in queues) + sum(
        q.visit.sample(rng, cycles) for j, q in enumerate(queues) if j != queue)
    start = np.concatenate([[0.0], np.cumsum(visit + away)[:-1]])
    arrival = np.sort(rng.uniform(0.0, start[cycles // 2], cycles))
    k = np.searchsorted(start, arrival, side="right") - 1
    need = spec.service.sample(rng, cycles)
    done = need <= start[k] + visit[k] - arrival
    sojourn = np.where(done, need, np.nan)
    waiting, nxt = np.flatnonzero(~done), k[~done] + 1
    while waiting.size:
        assert nxt.max() < cycles, "schedule too short"
        need = spec.service.sample(rng, waiting.size)
        ok = need <= visit[nxt]
        sojourn[waiting[ok]] = start[nxt[ok]] + need[ok] - arrival[waiting[ok]]
        waiting, nxt = waiting[~ok], nxt[~ok] + 1
    return sojourn


class TestSojournLstMonteCarlo:
    SYSTEMS = {
        "exp/exp": reference_system(),
        "det/erlang": SystemSpec((
            QueueSpec(1.0, Deterministic(1.0), Erlang(2, 2.0), Deterministic(0.2)),
            QueueSpec(0.5, Exponential(1.5), Exponential(2.0), Exponential(4.0)),
        )),
        "erlang/atomic": SystemSpec((
            QueueSpec(1.0, Erlang(2, 3.0), Discrete(((0.5, 0.4), (1.5, 0.6))),
                      Deterministic(0.3)),
            QueueSpec(0.5, Exponential(1.5), Erlang(2, 3.0), Deterministic(0.1)),
        )),
        # ties between requirement and visit atoms count as completions
        "atomic/atomic": SystemSpec((
            QueueSpec(1.0, Discrete(((0.5, 0.5), (1.0, 0.5))),
                      Discrete(((0.5, 0.3), (1.0, 0.7))), Deterministic(0.25)),
            QueueSpec(0.5, Exponential(1.5), Deterministic(0.6),
                      Discrete(((0.1, 0.5), (0.4, 0.5)))),
        )),
        "h2/mixed-erlang": SystemSpec((
            QueueSpec(1.0, HyperExponential(0.7, 2.0, 0.5), MixedErlang(0.3, 3, 2.5),
                      Deterministic(0.2)),
            QueueSpec(0.5, Exponential(1.5), HyperExponential(0.5, 3.0, 1.0),
                      Deterministic(0.2)),
            QueueSpec(0.3, Erlang(2, 2.0), Exponential(2.0), Exponential(5.0)),
        )),
    }

    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_transform_matches_simulation(self, name):
        # batch means over 40 consecutive arrival blocks absorb the
        # correlation between customers that share visits
        system = self.SYSTEMS[name]
        sojourn = tagged_sojourns(system, 0, 200_000, seed=2024)
        for s in (0.3, 1.0, 2.0):
            batches = np.exp(-s * sojourn).reshape(40, -1).mean(axis=1)
            se = batches.std(ddof=1) / math.sqrt(len(batches))
            z = (batches.mean() - sojourn_lst(system, 0, s)) / se
            assert abs(z) < 4.5, f"{name} at s={s}: z={z:.2f}"


class TestSojournMetrics:
    def test_table_shape_and_content(self):
        sys2 = reference_system()
        grid = (0.0, 0.5, 1.0)
        metrics = sojourn_metrics(sys2, grid)
        assert metrics.means[0] == pytest.approx(31.0 / 12.0, rel=1e-10)
        assert metrics.lst_table.shape == (2, 3)
        assert np.allclose(metrics.lst_table[:, 0], 1.0)
        assert metrics.lst_table[0, 2] == pytest.approx(
            sojourn_lst(sys2, 0, 1.0), rel=1e-12)

    def test_negative_grid_rejected(self):
        with pytest.raises(DomainError):
            sojourn_metrics(reference_system(), (-1.0,))

    @pytest.mark.parametrize("make", [reference_system, atomic_system,
                                      continuous_switch_system, mixed_system])
    def test_metrics_table_equals_pointwise_transform(self, make):
        system = make()
        grid = (0.0, 1e-6, 0.3, 1.0, 4.0)
        metrics = sojourn_metrics(system, grid)
        for i in range(len(system)):
            assert metrics.means[i] == sojourn_mean(system, i)
            for k, s in enumerate(grid):
                assert metrics.lst_table[i, k] == sojourn_lst(system, i, s)

    @pytest.mark.parametrize("make", [reference_system, atomic_system,
                                      continuous_switch_system, mixed_system])
    @pytest.mark.parametrize("s", [0.0, 1e-6, 0.3, 4.0])
    def test_column_does_not_depend_on_the_rest_of_the_grid(self, make, s):
        system = make()
        alone = sojourn_metrics(system, (s,)).lst_table
        among = sojourn_metrics(system, (0.1, s, 7.0)).lst_table
        assert (alone[:, 0] == among[:, 1]).all()
        assert isinstance(sojourn_lst(system, 0, s), float)

    @pytest.mark.parametrize("config", [
        "demos/base_config.json", "bench/workloads/demo.json",
        "bench/workloads/general-wide.json", "bench/workloads/atomic-pgf.json"])
    def test_transform_is_a_falling_probability_down_to_1e_8(self, config):
        """The transform of a nonnegative time lies in (0, 1] and falls in s.

        It holds from s = 1e-8 up. Below that the transform loses digits,
        and below about s = 1e-15 it leaves [0, 1]: see ROADMAP item 14.
        """
        path = Path(__file__).resolve().parents[1] / config
        system = cli._build_system(cli._load_config(str(path))["system"])
        table = sojourn_metrics(system, np.geomspace(1e-8, 1e3, 60)).lst_table
        assert ((table > 0.0) & (table <= 1.0)).all()
        assert (np.diff(table, axis=1) <= 0.0).all()


def cached_values(spec: QueueSpec) -> tuple[float, ...]:
    return (spec._completion_probability, spec._expected_min,
            spec._served_mean, spec._overshoot_integral)


def fresh_values(spec: QueueSpec) -> tuple[float, ...]:
    return (completion_probability(spec.service, spec.visit),
            expected_min(spec.service, spec.visit),
            served_in_visit(spec.service, spec.visit, moment=1),
            survival_product_integral(spec.visit, spec.service, 0.0, 1))


class TestCachedConstants:
    """Values kept on the frozen specs equal a fresh evaluation, bit for bit."""

    def test_queue_values_equal_fresh_calls(self):
        for spec in mixed_system().queues:
            assert cached_values(spec) == fresh_values(spec)

    def test_derived_quantities_read_the_queue_values(self):
        system = mixed_system()
        for i, spec in enumerate(system.queues):
            d = derived_quantities(system, i)
            p, emin, _, _ = fresh_values(spec)
            assert (d.completion_prob, d.min_mean) == (p, emin)
            assert d.residual_overshoot_prob == emin / spec.visit.mean()

    def test_cycle_moments_kept_on_the_system(self):
        system = mixed_system()
        moments = cycle_moments(system)
        assert cycle_moments(system) is moments
        rebuilt = cycle_moments(SystemSpec(system.queues))
        assert rebuilt is not moments and rebuilt == moments

    def test_replaced_queue_matches_its_new_laws(self):
        spec = mixed_system().queues[1]
        cached_values(spec)
        for field, law in (("service", Exponential(0.5)),
                           ("visit", Deterministic(0.4))):
            new = dataclasses.replace(spec, **{field: law})
            assert cached_values(new) == fresh_values(new)
            assert cached_values(new) != cached_values(spec)

    def test_replaced_system_matches_its_new_queues(self):
        system = mixed_system()
        old = cycle_moments(system)
        queues = list(system.queues)
        queues[2] = dataclasses.replace(queues[2], visit=Deterministic(2.0))
        new = dataclasses.replace(system, queues=tuple(queues))
        assert cycle_moments(new) == cycle_moments(SystemSpec(tuple(queues)))
        assert cycle_moments(new).cycle_mean == pytest.approx(
            old.cycle_mean + 1.2, rel=1e-15)
        assert sojourn_mean(new, 0) == sojourn_mean(SystemSpec(tuple(queues)), 0)

    def test_pickle_round_trip_keeps_the_values(self):
        system = mixed_system()
        for i in range(len(system)):
            sojourn_mean(system, i)
        moments = cycle_moments(system)
        copy = pickle.loads(pickle.dumps(system))
        assert copy == system and cycle_moments(copy) == moments
        for spec, twin in zip(system.queues, copy.queues):
            assert cached_values(twin) == cached_values(spec)

    def test_caches_leave_equality_and_hash_alone(self):
        fresh, used = mixed_system(), mixed_system()
        for i in range(len(used)):
            sojourn_mean(used, i)
        assert fresh == used and hash(fresh) == hash(used)

    def test_zero_completion_error_is_unchanged(self):
        never = SystemSpec((
            QueueSpec(0.5, Deterministic(1.0), Deterministic(0.5),
                      Deterministic(0.2)),
            QueueSpec(0.5, Exponential(2.0), Deterministic(1.0),
                      Deterministic(0.2)),
        ))
        message = ("queue 0: service never completes within a visit "
                   "(completion probability 0)")
        for call in (lambda: derived_quantities(never, 0),
                     lambda: sojourn_mean(never, 0),
                     lambda: sojourn_lst(never, 0, 0.5),
                     lambda: sojourn_metrics(never, (0.5,)),
                     lambda: pgf_eval(never, 1, np.ones(2)),
                     lambda: polling_means(never)):
            # a failed build keeps nothing: the next call raises again
            for _ in range(2):
                with pytest.raises(ModelError) as info:
                    call()
                assert str(info.value) == message


# every public function of a transform argument s >= 0; Distribution.lst
# is left out, since it is also the moment generating function below 0
_S_FUNCTIONS = {
    "sojourn_lst": lambda s: sojourn_lst(reference_system(), 0, s),
    "sojourn_lst_exponential":
        lambda s: sojourn_lst_exponential(reference_system(), 0, s),
    "sojourn_metrics": lambda s: sojourn_metrics(reference_system(), (0.5, s)),
    "attempt_lst": lambda s: attempt_lst(Exponential(1.0), Exponential(1.0), s),
    "served_in_visit":
        lambda s: served_in_visit(Exponential(1.0), Exponential(1.0), s),
    "survival_product_integral":
        lambda s: survival_product_integral(Deterministic(1.0), Exponential(1.0), s),
}


@pytest.mark.parametrize("s", [math.nan, -0.5])
@pytest.mark.parametrize("name", sorted(_S_FUNCTIONS))
def test_transform_argument_below_zero_or_nan_is_rejected(name, s):
    with pytest.raises(DomainError):
        _S_FUNCTIONS[name](s)


# the public functions that also take a 1-D array of transform arguments
_ARRAY_S_FUNCTIONS = {name: _S_FUNCTIONS[name] for name in (
    "attempt_lst", "served_in_visit", "survival_product_integral")}
_ARRAY_S_FUNCTIONS["sojourn_metrics"] = (
    lambda s: sojourn_metrics(reference_system(), s))


@pytest.mark.parametrize("bad", [math.nan, -0.5])
@pytest.mark.parametrize("name", sorted(_ARRAY_S_FUNCTIONS))
def test_array_with_one_entry_below_zero_or_nan_is_rejected(name, bad):
    with pytest.raises(DomainError):
        _ARRAY_S_FUNCTIONS[name](np.array([0.0, 0.5, bad, 2.0]))


def zero_switch_system() -> SystemSpec:
    """`reference_system` with switch-overs of length 0."""
    return SystemSpec(tuple(dataclasses.replace(q, switch=Deterministic(0.0))
                            for q in reference_system().queues))


# each of these returned nan at s = inf: an atomic visit takes a gamma tail
# at x = inf, and a zero switch-over's transform is exp(-inf * 0)
_INFINITE_S_CALLS = {
    "attempt_lst": lambda s: attempt_lst(Erlang(3, 2.0), Deterministic(1.0), s),
    "served_in_visit":
        lambda s: served_in_visit(Exponential(1.0), Deterministic(1.5), s),
    "survival_product_integral":
        lambda s: survival_product_integral(Deterministic(1.0), Exponential(1.0), s),
    "sojourn_lst": lambda s: sojourn_lst(zero_switch_system(), 0, s),
    "sojourn_lst_exponential":
        lambda s: sojourn_lst_exponential(zero_switch_system(), 0, s),
    "sojourn_metrics":
        lambda s: sojourn_metrics(zero_switch_system(), (0.5, s)),
}


@pytest.mark.parametrize("name", sorted(_INFINITE_S_CALLS))
def test_infinite_transform_argument_is_rejected(name):
    with pytest.raises(DomainError, match="must be finite and >= 0"):
        _INFINITE_S_CALLS[name](math.inf)


# each functional at moments 0 and 1 (attempt_lst: success and failure), one
# row each
_GRID_FUNCTIONS = {
    "attempt_lst": lambda a, b, s: np.stack(attempt_lst(a, b, s)),
    "served_in_visit": lambda a, b, s: np.stack(
        [served_in_visit(a, b, s), served_in_visit(a, b, s, 1)]),
    "survival_product_integral": lambda a, b, s: np.stack(
        [survival_product_integral(a, b, s),
         survival_product_integral(a, b, s, 1)]),
}

_GRID_PAIRS = {
    "continuous/continuous": (MixedErlang(0.3, 3, 2.5),
                              HyperExponential(0.7, 2.0, 0.5)),
    "continuous/atomic": (Erlang(2, 2.0), Discrete(((0.5, 0.4), (1.5, 0.6)))),
    "atomic/continuous": (Discrete(((0.5, 0.5), (1.0, 0.5))), Exponential(1.5)),
    "atomic/atomic": (Discrete(((0.5, 0.5), (1.0, 0.5))),
                      Discrete(((0.5, 0.3), (1.0, 0.7)))),
}


@pytest.mark.parametrize("pair", sorted(_GRID_PAIRS))
@pytest.mark.parametrize("name", sorted(_GRID_FUNCTIONS))
def test_array_s_entry_does_not_depend_on_the_rest_of_the_grid(name, pair):
    function, (a, b) = _GRID_FUNCTIONS[name], _GRID_PAIRS[pair]
    for s in (0.0, 0.3, 2.5):
        alone = function(a, b, np.array([s]))
        among = function(a, b, np.array([0.1, s, 7.0]))
        scalar = function(a, b, s)
        assert alone.shape == (2, 1) and among.shape == (2, 3)
        assert (alone[:, 0] == among[:, 1]).all()
        assert (scalar == among[:, 1]).all()


@pytest.mark.parametrize("name", sorted(_GRID_FUNCTIONS))
def test_two_dimensional_s_is_rejected(name):
    with pytest.raises(DomainError):
        _GRID_FUNCTIONS[name](Exponential(1.0), Exponential(2.0),
                              np.full((2, 2), 0.5))


# every public argument that names a queue, fed a float: operator.index's
# rule, so none is cut to an int or reaches tuple indexing
_QUEUE_INDEX_CASES = {
    "SimConfig.pgf_points": (
        lambda: SimConfig(pgf_points=((0.9, (0.5, 0.5)),)), 0.9),
    "expected_throughput": (
        lambda: expected_throughput(reference_system(), TourState((1, 1)),
                                    (1.7, 0.2)), 1.7),
    "single_cycle_throughput": (
        lambda: single_cycle_throughput(reference_system(), (0.6, 1.4),
                                        (1, 1), replications=10), 0.6),
    "sojourn_mean": (lambda: sojourn_mean(reference_system(), 0.5), 0.5),
    "pgf_eval": (lambda: pgf_eval(reference_system(), 0.5, (0.5, 0.5)), 0.5),
    "sojourn_sweep": (
        lambda: sojourn_sweep(reference_system(), 1.0, "visit_scv", (0.5,)),
        1.0),
}


@pytest.mark.parametrize("name", sorted(_QUEUE_INDEX_CASES))
def test_queue_index_must_be_an_integer(name):
    call, value = _QUEUE_INDEX_CASES[name]
    with pytest.raises(DomainError,
                       match=f"queue index must be an integer, got {value}$"):
        call()
