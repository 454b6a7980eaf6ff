"""Optimizer checks: frozen hand-computed tour values, the index rule versus
exhaustive search, interchange structure, and the simulation cross-check.

Hand oracles use memoryless service and visit laws with equal rates, where
the completion probability is exactly 1/2 and the expected leftover arrival
count is half the arrival volume of a visit.
"""
import dataclasses
import json
import math
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from mginfpolling import analytic, cli
from mginfpolling.analytic import QueueSpec, SystemSpec
from mginfpolling.distributions import (
    Deterministic,
    Erlang,
    Exponential,
    HyperExponential,
)
from mginfpolling.errors import DomainError, UnsupportedModelError
from mginfpolling.optimizer import (
    CENTRAL_POINT,
    SERIAL,
    TourState,
    _TourParams,
    brute_force_order,
    expected_throughput,
    optimal_order,
)
from mginfpolling.simulator import single_cycle_throughput

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


def serial_system(lams, switch=0.25):
    return SystemSpec(tuple(
        QueueSpec(lam, Exponential(1.0), Exponential(1.0), Deterministic(switch))
        for lam in lams))


def central_system(rows):
    return SystemSpec(tuple(
        QueueSpec(lam, Exponential(1.0), Exponential(1.0), Deterministic(0.0),
                  approach=Deterministic(e), return_=Deterministic(r))
        for lam, e, r in rows))


def reference_brute_force(system, state, objective):
    """The scan `brute_force_order` ran when it scored one order at a time:
    a Python loop per order over the shared per-queue numbers, ranked by a
    sort on (-value, order) for "max" and (value, order) for "min"."""
    params = _TourParams(system, state)
    constant = params.constant

    def order_penalty(order):
        total = 0.0
        elapsed = 0.0
        for q in order:
            total += params.rate_prob[q] * elapsed
            elapsed += params.delay[q]
        return total

    scored = [(order, constant + order_penalty(order))
              for order in permutations(params.visited)]
    if objective == "max":
        return tuple(sorted(scored, key=lambda item: (-item[1], item[0])))
    return tuple(sorted(scored, key=lambda item: (item[1], item[0])))


def random_tour_system(rng, n):
    """n queues with mixed laws and central-point travel; queue 0 has no
    arrivals and the last queue is a copy of queue 1, so some orders tie."""
    queues = []
    for i in range(n - 1 if n > 2 else n):
        lam = 0.0 if i == 0 else float(rng.uniform(0.05, 1.5))
        rate = float(rng.uniform(0.5, 3.0))
        service = (Exponential(rate), Erlang(2, 2 * rate),
                   Deterministic(0.3 / rate))[i % 3]
        visit = (Exponential(rate), HyperExponential(0.6, 2 * rate, rate / 2),
                 Erlang(3, 3 * rate))[(i + 1) % 3]
        switch = Deterministic(float(rng.uniform(0.0, 0.5))) if i % 2 \
            else Exponential(float(rng.uniform(2.0, 9.0)))
        queues.append(QueueSpec(
            lam, service, visit, switch,
            approach=Deterministic(float(rng.uniform(0.05, 0.4))),
            return_=Exponential(float(rng.uniform(2.0, 9.0)))))
    if n > 2:
        queues.append(queues[1])
    return SystemSpec(tuple(queues))


class TestTourState:
    def test_rejects_bad_counts_and_mode(self):
        with pytest.raises(DomainError):
            TourState((1, -1))
        with pytest.raises(DomainError):
            TourState((1.5, 2))
        with pytest.raises(DomainError):
            TourState((1, 2), mode="roundtrip")

    @pytest.mark.parametrize("count", [math.nan, math.inf, -math.inf, 1.5,
                                       "2", None])
    def test_non_integral_counts_are_domain_errors(self, count):
        # nan and inf must not escape as ValueError or OverflowError
        with pytest.raises(DomainError, match="must be integers"):
            TourState((1, count))

    def test_integral_floats_become_ints(self):
        st = TourState((2.0, 0.0))
        assert st.counts == (2, 0)

    def test_visited_sets(self):
        assert TourState((0, 3, 0)).visited == (0, 1, 2)
        assert TourState((0, 3, 0), mode=CENTRAL_POINT).visited == (1,)
        assert TourState((0, 0), mode=CENTRAL_POINT).visited == ()


class TestExpectedThroughput:
    def test_zero_rates_leave_only_initial_customers(self):
        sys = SystemSpec((
            QueueSpec(0.0, Exponential(1.0), Exponential(1.0), Deterministic(0.25)),
            QueueSpec(0.0, Exponential(2.0), Exponential(2.0), Deterministic(0.25)),
        ))
        st = TourState((4, 6))
        for order in ((0, 1), (1, 0)):
            rep = expected_throughput(sys, st, order)
            assert abs(rep.total - (4 * 0.5 + 6 * 0.5)) < 1e-12

    def test_identical_queues_are_order_blind(self):
        sys = serial_system([0.7, 0.7])
        st = TourState((3, 3))
        a = expected_throughput(sys, st, (0, 1))
        b = expected_throughput(sys, st, (1, 0))
        assert abs(a.total - b.total) < 1e-12

    def test_frozen_serial_values(self):
        # p=1/2, E[leftover arrivals]=lam/2, visit+switch delay 1.25 each:
        # constant = 0.5*(2+3+1) + 0.5*(1.25+0.5+0.875) = 4.3125
        # penalty of (1,2,0) = 1.25*(0.4375 + 2*0.625) = 2.109375
        sys = serial_system([1.25, 0.5, 0.875])
        st = TourState((2, 3, 1))
        rep = expected_throughput(sys, st, (1, 2, 0))
        assert abs(rep.constant - 4.3125) < 5e-12
        assert abs(rep.total - 6.421875) < 5e-12
        rep2 = expected_throughput(sys, st, (0, 1, 2))
        assert abs(rep2.total - 5.71875) < 5e-12

    def test_frozen_central_values(self):
        sys = central_system([(1.25, 0.2, 0.3), (0.5, 0.1, 0.4), (0.875, 0.3, 0.2)])
        st = TourState((2, 0, 1), mode=CENTRAL_POINT)
        rep = expected_throughput(sys, st, (2, 0))
        # c' = 1.75 + 1.06875; penalty of visiting 0 after 2 = 0.625*1.5
        assert abs(rep.constant - 2.81875) < 5e-12
        assert abs(rep.total - 3.75625) < 5e-12
        assert rep.per_queue[1] == 0.0

    def test_per_queue_decomposition(self):
        sys = serial_system([1.25, 0.5, 0.875])
        st = TourState((2, 3, 1))
        for order in permutations(range(3)):
            rep = expected_throughput(sys, st, order)
            assert abs(rep.per_queue.sum() - rep.total) < 1e-12
            assert np.all(rep.per_queue >= 0.0)
            assert abs(rep.constant - 4.3125) < 1e-12

    def test_order_validation(self):
        sys = serial_system([0.5, 0.6, 0.7])
        st = TourState((1, 1, 1))
        for bad in ((0, 1), (0, 1, 1), (0, 1, 3)):
            with pytest.raises(DomainError):
                expected_throughput(sys, st, bad)
        cst = TourState((1, 0, 1), mode=CENTRAL_POINT)
        csys = central_system([(0.5, 0.1, 0.1), (0.6, 0.1, 0.1), (0.7, 0.1, 0.1)])
        with pytest.raises(DomainError):
            expected_throughput(csys, cst, (0, 1, 2))
        with pytest.raises(UnsupportedModelError):
            expected_throughput(sys, cst, (0, 2))
        with pytest.raises(DomainError):
            expected_throughput(sys, TourState((1, 1)), (0, 1))

    def test_matches_single_cycle_simulation(self):
        sys = serial_system([1.25, 0.5, 0.875])
        st = TourState((2, 3, 1))
        for k, order in enumerate(permutations(range(3))):
            rep = expected_throughput(sys, st, order)
            est = single_cycle_throughput(sys, order, st.counts,
                                          replications=40_000,
                                          master_seed=100 + k)
            z = (est.mean - rep.total) / est.stderr
            assert abs(z) < 4.0, (order, z)


class TestOptimalOrder:
    def test_index_rule_example(self):
        sys = serial_system([1.25, 0.5, 0.875])
        rep = optimal_order(sys, TourState((2, 3, 1)), "max")
        assert np.allclose(rep.index_values, [0.5, 0.2, 0.35])
        assert rep.order == (1, 2, 0)
        assert optimal_order(sys, TourState((2, 3, 1)), "min").order == (0, 2, 1)

    def test_identical_queues_keep_identity_order(self):
        sys = serial_system([0.9, 0.9, 0.9, 0.9])
        st = TourState((1, 2, 3, 4))
        assert optimal_order(sys, st, "max").order == (0, 1, 2, 3)
        assert optimal_order(sys, st, "min").order == (0, 1, 2, 3)

    def test_backlog_never_changes_the_order(self):
        sys = serial_system([1.1, 0.3, 0.6, 0.9])
        rng = np.random.default_rng(5)
        reference = optimal_order(sys, TourState((0, 0, 0, 0)), "max").order
        for _ in range(8):
            counts = tuple(int(c) for c in rng.integers(0, 20, size=4))
            assert optimal_order(sys, TourState(counts), "max").order == reference

    def test_objective_validation(self):
        sys = serial_system([0.5, 0.6])
        with pytest.raises(DomainError):
            optimal_order(sys, TourState((1, 1)), "most")
        with pytest.raises(DomainError):
            brute_force_order(sys, TourState((1, 1)), "least")


class TestBruteForce:
    def test_guard_refuses_large_scans(self):
        sys = serial_system([0.1 * (i + 1) for i in range(10)])
        st = TourState((1,) * 10)
        with pytest.raises(DomainError, match="optimal_order"):
            brute_force_order(sys, st, "max")

    def test_ranking_is_complete_and_sorted(self):
        sys = serial_system([1.25, 0.5, 0.875])
        st = TourState((2, 3, 1))
        res = brute_force_order(sys, st, "max")
        assert len(res.ranking) == 6
        values = [v for _, v in res.ranking]
        assert values == sorted(values, reverse=True)
        res_min = brute_force_order(sys, st, "min")
        values = [v for _, v in res_min.ranking]
        assert values == sorted(values)
        assert res.best.order == (1, 2, 0)
        assert res_min.best.order == (0, 2, 1)

    def test_two_queue_gap_is_the_interchange_difference(self):
        # |theta(0,1) - theta(1,0)| = |lam2 p2 (EV1+ED1) - lam1 p1 (EV2+ED2)|
        sys = serial_system([1.3, 0.4], switch=0.5)
        st = TourState((2, 5))
        res = brute_force_order(sys, st, "max")
        gap = res.ranking[0][1] - res.ranking[1][1]
        expected = abs(0.4 * 0.5 * 1.5 - 1.3 * 0.5 * 1.5)
        assert abs(abs(gap) - expected) < 1e-12

    def test_interchange_sign_structure(self):
        # swapping adjacent (x, y) changes the total by w_x w_y (I_x - I_y)
        sys = serial_system([1.25, 0.5, 0.875, 0.3], switch=0.4)
        st = TourState((1, 0, 2, 3))
        rep = expected_throughput(sys, st, (0, 1, 2, 3))
        w = 1.4
        for k in range(3):
            order = [0, 1, 2, 3]
            order[k], order[k + 1] = order[k + 1], order[k]
            swapped = expected_throughput(sys, st, tuple(order))
            x, y = k, k + 1
            predicted = w * w * (rep.index_values[x] - rep.index_values[y])
            assert abs((swapped.total - rep.total) - predicted) < 1e-12

    def test_randomized_agreement_with_index_rule(self):
        rng = np.random.default_rng(2026)
        for trial in range(60):
            n = int(rng.integers(3, 8))
            lams = rng.uniform(0.05, 1.5, size=n)
            switches = rng.uniform(0.0, 0.8, size=n)
            rates = rng.uniform(0.5, 2.0, size=n)
            queues = []
            for i in range(n):
                service = Erlang(2, 2 * rates[i]) if i % 3 == 0 \
                    else Exponential(rates[i])
                queues.append(QueueSpec(float(lams[i]), service,
                                        Exponential(rates[i]),
                                        Deterministic(float(switches[i]))))
            sys = SystemSpec(tuple(queues))
            counts = tuple(int(c) for c in rng.integers(0, 12, size=n))
            st = TourState(counts)
            for objective in ("max", "min"):
                rule = optimal_order(sys, st, objective)
                scan = brute_force_order(sys, st, objective)
                best_value = scan.ranking[0][1]
                optima = {order for order, value in scan.ranking
                          if abs(value - best_value) < 1e-9}
                assert rule.order in optima, (trial, objective)
                assert abs(rule.total - best_value) < 1e-9

    def test_ranking_keeps_the_bits_of_the_scalar_scan(self):
        rng = np.random.default_rng(2020)
        tied = 0
        for visited in range(1, 8):
            # a system has at least two queues, and a serial tour visits all
            for mode in (SERIAL, CENTRAL_POINT)[visited < 2:]:
                n = visited if mode == SERIAL else visited + 2
                sys = random_tour_system(rng, n)
                counts = [int(c) for c in rng.integers(1, 9, size=n)]
                if mode == CENTRAL_POINT:
                    # two empty queues: queue 2 and the zero-rate queue 0,
                    # except that the short tours keep queue 0 in
                    for q in ((1, 2) if visited < 3 else (0, 2)):
                        counts[q] = 0
                st = TourState(tuple(counts), mode=mode)
                assert len(st.visited) == visited
                for objective in ("max", "min"):
                    res = brute_force_order(sys, st, objective)
                    ref = reference_brute_force(sys, st, objective)
                    assert [o for o, _ in res.ranking] == [o for o, _ in ref]
                    assert [v.hex() for _, v in res.ranking] == \
                        [float(v).hex() for _, v in ref], (visited, mode)
                    assert res.best.order == ref[0][0]
                    values = [v for _, v in ref]
                    tied += len(set(values)) < len(values)
        assert tied >= 10
        empty = TourState((0,) * 4, mode=CENTRAL_POINT)
        sys = random_tour_system(rng, 4)
        for objective in ("max", "min"):
            assert brute_force_order(sys, empty, objective).ranking == \
                reference_brute_force(sys, empty, objective)

    def test_ranking_values_are_python_floats(self):
        rng = np.random.default_rng(7)
        for counts, mode in (((2, 0, 1, 3), SERIAL),
                             ((2, 0, 1, 3), CENTRAL_POINT),
                             ((0, 0, 0, 0), CENTRAL_POINT)):
            res = brute_force_order(random_tour_system(rng, 4),
                                    TourState(counts, mode=mode), "max")
            assert all(type(v) is float for _, v in res.ranking)

    def test_empty_central_tour(self):
        sys = central_system([(0.5, 0.1, 0.2), (0.8, 0.2, 0.1)])
        st = TourState((0, 0), mode=CENTRAL_POINT)
        res = brute_force_order(sys, st, "max")
        assert res.best.order == ()
        assert res.best.total == 0.0
        assert res.ranking == (((), 0.0),)

    def test_index_rule_and_scan_share_the_derived_quantities(
            self, monkeypatch):
        # `optimize --brute-force` asks for both on one system: each queue's
        # derived quantities are computed once, and a new system computes
        # its own
        calls = []
        derived_quantities = analytic.derived_quantities

        def counted(system, queue):
            calls.append(queue)
            return derived_quantities(system, queue)
        monkeypatch.setattr(analytic, "derived_quantities", counted)
        rng = np.random.default_rng(11)
        sys = random_tour_system(rng, 5)
        st = TourState((2, 0, 1, 3, 1), mode=CENTRAL_POINT)
        report = optimal_order(sys, st, "max")
        brute_force_order(sys, st, "max")
        expected_throughput(sys, st, report.order)
        assert sorted(calls) == [0, 1, 2, 3, 4]
        optimal_order(SystemSpec(sys.queues), st, "max")
        assert sorted(calls) == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]


def bench_tour(name):
    """The system and tour state of a bench workload's `optimize` block."""
    raw = json.loads((WORKLOADS / f"{name}.json").read_text(encoding="utf-8"))
    spec = raw["optimize"]
    return (cli._build_system(raw["system"]),
            TourState(tuple(spec["counts"]), mode=spec["mode"]))


def random_tours():
    """Two random_tour_system tours per queue count and style, some tied."""
    rng = np.random.default_rng(2023)
    for n in range(2, 8):
        for mode in (SERIAL, CENTRAL_POINT):
            for k in range(2):
                counts = rng.integers(0 if mode == CENTRAL_POINT else 1, 6,
                                      size=n)
                yield pytest.param(
                    (random_tour_system(rng, n),
                     TourState(tuple(int(c) for c in counts), mode=mode)),
                    id=f"{mode}-{n}-{k}")


class TestOneValuePerTour:
    """Every tour value is the scan's: the order-invariant constant plus the
    penalty summed in tour order, whichever entry point reports it."""

    @pytest.mark.parametrize("tour", [
        *random_tours(),
        *(pytest.param(bench_tour(name), id=name)
          for name in ("demo", "general-wide", "atomic-pgf"))])
    def test_every_report_equals_the_ranked_value(self, tour):
        system, state = tour
        for objective in ("max", "min"):
            scan = brute_force_order(system, state, objective)
            ranked = {order: value.hex() for order, value in scan.ranking}
            assert scan.best.total.hex() == scan.ranking[0][1].hex()
            rule = optimal_order(system, state, objective)
            assert rule.total.hex() == ranked[rule.order]
        # an order's value does not depend on the objective
        for order, value in ranked.items():
            assert expected_throughput(system, state, order).total.hex() == value

    def test_a_serial_tour_is_a_central_tour_with_no_approach(self):
        # both readings give the same bits: the optimizer from the leg
        # means, the simulator from one-atom switch-overs that read no stream
        rng = np.random.default_rng(31)
        for n in (2, 3, 5):
            serial = SystemSpec(tuple(
                dataclasses.replace(q, approach=None, return_=None,
                                    switch=Deterministic(rng.uniform(0.0, 0.5)))
                for q in random_tour_system(rng, n).queues))
            central = SystemSpec(tuple(
                dataclasses.replace(q, approach=Deterministic(0.0),
                                    return_=q.switch)
                for q in serial.queues))
            counts = tuple(int(c) for c in rng.integers(1, 6, size=n))
            for objective in ("max", "min"):
                a = brute_force_order(serial, TourState(counts), objective)
                b = brute_force_order(central, TourState(counts, CENTRAL_POINT),
                                      objective)
                assert [(o, v.hex()) for o, v in a.ranking] == \
                    [(o, v.hex()) for o, v in b.ranking]
            order = tuple(rng.permutation(n).tolist())
            a, b = (single_cycle_throughput(sys, order, counts,
                                            replications=500, master_seed=n)
                    for sys in (serial, central))
            assert (a.mean.hex(), a.stderr.hex()) == \
                (b.mean.hex(), b.stderr.hex())
            assert a.per_queue_mean.tobytes() == b.per_queue_mean.tobytes()


def bad_tours():
    """(system, state, order, error class, message) of tours both
    `expected_throughput` and `single_cycle_throughput` refuse."""
    serial = serial_system([0.5, 0.6, 0.7])
    central = central_system([(0.5, 0.1, 0.1), (0.6, 0.1, 0.1), (0.7, 0.1, 0.1)])
    full, gap = TourState((1, 1, 1)), TourState((1, 0, 1), CENTRAL_POINT)
    return {
        "count_length": (serial, TourState((1, 1)), (0, 1), DomainError,
                         "must be 3 nonnegative integers"),
        "duplicate_queue": (serial, full, (0, 1, 1), DomainError, None),
        "queue_out_of_range": (serial, full, (0, 1, 3), DomainError, None),
        "float_queue_index": (serial, full, (0, 1.5, 2), DomainError,
                              "queue index must be an integer"),
        "serial_non_permutation": (serial, full, (0, 2), DomainError, None),
        "central_without_travel_laws": (serial, gap, (0, 2),
                                        UnsupportedModelError, None),
        "central_skips_a_non_empty_queue": (central, gap, (0,), DomainError,
                                            None),
        "central_visits_an_empty_queue": (central, gap, (0, 1, 2),
                                          DomainError, None),
    }


@pytest.mark.parametrize("entry", ["expected_throughput",
                                   "single_cycle_throughput"])
@pytest.mark.parametrize("case", sorted(bad_tours()))
def test_one_tour_rule_refuses_the_same_tours(case, entry):
    system, state, order, error, message = bad_tours()[case]
    calls = {
        "expected_throughput": lambda: expected_throughput(system, state, order),
        "single_cycle_throughput": lambda: single_cycle_throughput(
            system, order, state, replications=10),
    }
    with pytest.raises(error, match=message) as info:
        calls[entry]()
    assert type(info.value) is error


class TestSerialTourWithTravelLaws:
    """A serial tour on a system with travel laws uses none of them."""

    @staticmethod
    def tour():
        system, central = bench_tour("general-wide")
        return system, TourState(central.counts, SERIAL)

    def test_travel_laws_draw_nothing(self):
        system, state = self.tour()
        stripped = SystemSpec(tuple(
            dataclasses.replace(q, approach=None, return_=None)
            for q in system.queues))
        order = optimal_order(system, state).order
        a, b = (single_cycle_throughput(s, order, state, replications=2_000,
                                        master_seed=3)
                for s in (system, stripped))
        assert (a.mean.hex(), a.stderr.hex()) == (b.mean.hex(), b.stderr.hex())
        assert a.per_queue_mean.tobytes() == b.per_queue_mean.tobytes()

    def test_plain_counts_read_the_mode_the_system_implies(self):
        system, central = bench_tour("general-wide")
        order = optimal_order(system, central).order
        a, b = (single_cycle_throughput(system, order, state,
                                        replications=2_000, master_seed=3)
                for state in (central, central.counts))
        assert (a.mean.hex(), a.stderr.hex()) == (b.mean.hex(), b.stderr.hex())

    def test_matches_expected_throughput(self):
        system, state = self.tour()
        rule = optimal_order(system, state).order
        for k, order in enumerate((rule, rule[::-1], state.visited)):
            total = expected_throughput(system, state, order).total
            est = single_cycle_throughput(system, order, state,
                                          replications=20_000,
                                          master_seed=5 + k)
            z = (est.mean - total) / est.stderr
            assert abs(z) <= 4.0, (order, z)
