"""Simulator checks: forced-outcome mechanics, agreement with the analytic
layer, distributional structure of visit-end leftovers, and determinism."""
import concurrent.futures
import functools
import hashlib
import json
import math
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from mginfpolling import cli
from mginfpolling.analytic import (
    QueueSpec,
    SystemSpec,
    derived_quantities,
    cycle_moments,
    pgf_eval,
    polling_means,
    sojourn_mean,
)
from mginfpolling.distributions import (
    Deterministic,
    Discrete,
    Erlang,
    Exponential,
    HyperExponential,
    MixedErlang,
    expected_min,
)
from mginfpolling.errors import DomainError
from mginfpolling.simulator import (
    _BLOCK_CYCLES,
    _CYCLE_SALT,
    _RUN_SALT,
    CARRIED_FROM_VISIT,
    OUTSIDE_VISIT,
    SERVED_SAME_VISIT,
    SimConfig,
    _retry_rounds,
    _generators,
    _stream_keys,
    _timeline_arrivals,
    leftover_after_visit,
    run,
    single_cycle_throughput,
)

THREADS = min(4, os.cpu_count() or 1)
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


def base_system():
    return SystemSpec((
        QueueSpec(0.8, Exponential(1.0), Exponential(1.0), Deterministic(0.25)),
        QueueSpec(0.5, Exponential(1.5), Exponential(1.5), Deterministic(0.25)),
    ))


@pytest.fixture(scope="module")
def base_report():
    cfg = SimConfig(warmup_cycles=500, measured_cycles=15_000, replications=10,
                    master_seed=20260821)
    return run(base_system(), cfg, threads=THREADS)


def zcheck(estimate, target, stderr, limit=4.0):
    z = (np.asarray(estimate) - np.asarray(target)) / np.asarray(stderr)
    assert np.all(np.abs(z) < limit), f"z-scores {z} exceed {limit}"


class TestValidation:
    def test_config_rejects_bad_values(self):
        with pytest.raises(DomainError):
            SimConfig(warmup_cycles=-1)
        with pytest.raises(DomainError):
            SimConfig(measured_cycles=0)
        with pytest.raises(DomainError):
            SimConfig(replications=0)
        with pytest.raises(DomainError):
            SimConfig(master_seed=2**64)

    @pytest.mark.parametrize("field, value", [
        ("warmup_cycles", 2.5), ("measured_cycles", 2.5),
        ("measured_cycles", math.nan), ("replications", 1.5),
        ("master_seed", 1.5), ("master_seed", math.inf)])
    def test_config_rejects_non_integers(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            SimConfig(**{field: value})

    def test_config_takes_numpy_integers(self):
        cfg = SimConfig(warmup_cycles=np.int64(0), measured_cycles=np.int32(3),
                        replications=np.int64(2), master_seed=np.uint64(5))
        assert run(base_system(), cfg).replications == 2

    def test_pgf_point_checks(self):
        sys = base_system()
        cfg = SimConfig(warmup_cycles=0, measured_cycles=1,
                        pgf_points=((5, (0.5, 0.5)),))
        with pytest.raises(DomainError):
            run(sys, cfg)
        cfg = SimConfig(warmup_cycles=0, measured_cycles=1,
                        pgf_points=((0, (0.5,)),))
        with pytest.raises(DomainError):
            run(sys, cfg)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_pgf_z_rejected(self, z):
        with pytest.raises(DomainError, match="must be finite"):
            SimConfig(pgf_points=((0, (0.5, z)),))

    def test_single_cycle_rejects_bad_orders(self):
        sys = base_system()
        with pytest.raises(DomainError):
            single_cycle_throughput(sys, (0, 0), (1, 1), replications=10)
        with pytest.raises(DomainError):
            single_cycle_throughput(sys, (0,), (1, 1), replications=10)
        with pytest.raises(DomainError):
            single_cycle_throughput(sys, (0, 2), (1, 1), replications=10)
        with pytest.raises(DomainError):
            single_cycle_throughput(sys, (0, 1), (1, -1), replications=10)
        with pytest.raises(DomainError):
            single_cycle_throughput(sys, (0, 1), (1, 1), replications=0)
        with pytest.raises(DomainError, match="must be 2 nonnegative integers"):
            single_cycle_throughput(sys, (0, 1), (1, 1, 1), replications=10)

    def test_leftover_rejects_bad_values(self):
        with pytest.raises(DomainError):
            leftover_after_visit(-0.5, Exponential(1.0), Exponential(1.0))
        with pytest.raises(DomainError):
            leftover_after_visit(0.5, Exponential(1.0), Exponential(1.0),
                                 replications=0)

    @pytest.mark.parametrize("counts", [(1.5, 1), (math.nan, 1),
                                        (math.inf, 1), ("1", 1), 3])
    def test_single_cycle_rejects_non_integral_counts(self, counts):
        # 1.5 must not be cut to 1, nor nan or inf reach numpy
        with pytest.raises(DomainError, match="must be integers"):
            single_cycle_throughput(base_system(), (0, 1), counts,
                                    replications=10)

    def test_single_cycle_takes_integral_floats(self):
        sys = base_system()
        a = single_cycle_throughput(sys, (1, 0), (2.0, np.int64(1)),
                                    replications=50, master_seed=3)
        b = single_cycle_throughput(sys, (1, 0), (2, 1), replications=50,
                                    master_seed=3)
        assert a.mean == b.mean and a.stderr == b.stderr

    @pytest.mark.parametrize("kwargs, match", [
        ({"replications": 2.5}, "replications must be an integer"),
        ({"master_seed": 1.5}, "master_seed must be an integer"),
        ({"master_seed": -1}, "master_seed must fit in 64 bits")])
    def test_single_visit_entry_points_reject_bad_seeding(self, kwargs, match):
        with pytest.raises(DomainError, match=match):
            single_cycle_throughput(base_system(), (0, 1), (1, 1), **kwargs)
        with pytest.raises(DomainError, match=match):
            leftover_after_visit(0.5, Exponential(1.0), Exponential(1.0),
                                 **kwargs)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_leftover_rejects_non_finite_rates(self, rate):
        with pytest.raises(DomainError, match="arrival_rate must be finite"):
            leftover_after_visit(rate, Exponential(1.0), Exponential(1.0))


class TestDegenerateSystems:
    def test_silent_system_measures_nothing(self):
        silent = SystemSpec((
            QueueSpec(0.0, Exponential(1.0), Exponential(1.0), Deterministic(0.25)),
            QueueSpec(0.0, Exponential(1.5), Exponential(1.5), Deterministic(0.25)),
        ))
        rep = run(silent, SimConfig(warmup_cycles=5, measured_cycles=100,
                                    replications=3, master_seed=1))
        assert np.all(rep.polling_means == 0.0)
        assert np.all(rep.visit_end_means == 0.0)
        assert np.all(np.isnan(rep.sojourn_means))
        assert np.all(rep.sojourn_phase_counts == 0)
        assert rep.throughput_mean == 0.0
        assert np.all(np.isnan(rep.completion_fraction))

    def test_oversized_service_never_completes(self):
        # service always exceeds the visit, so no waiting customer is served
        sys = SystemSpec((
            QueueSpec(0.5, Deterministic(2.0), Deterministic(1.0), Deterministic(0.25)),
            QueueSpec(0.0, Exponential(1.0), Exponential(1.0), Deterministic(0.25)),
        ))
        rep = run(sys, SimConfig(warmup_cycles=0, measured_cycles=200,
                                 replications=2, master_seed=3))
        assert rep.completion_fraction[0] == 0.0
        assert rep.throughput_mean == 0.0
        assert rep.sojourn_phase_counts.sum() == 0

    def test_small_service_forces_exact_phase_means(self):
        # B=0.4 < V=1: every waiting customer completes, and a within-visit
        # arrival completes iff it lands in the first 0.6 of the visit
        sys = SystemSpec((
            QueueSpec(0.7, Deterministic(0.4), Deterministic(1.0), Deterministic(0.25)),
            QueueSpec(0.0, Exponential(1.0), Deterministic(1.0), Deterministic(0.25)),
        ))
        rep = run(sys, SimConfig(warmup_cycles=50, measured_cycles=4_000,
                                 replications=4, master_seed=11))
        assert rep.completion_fraction[0] == 1.0
        assert abs(rep.sojourn_phase_means[0, SERVED_SAME_VISIT] - 0.4) < 1e-12
        # carried arrival at offset t in (0.6, 1]: sojourn = (2.5 - t) + 0.4,
        # t uniform, so the mean is 0.4 + 2.5 - 0.8 = 2.1
        count = rep.sojourn_phase_counts[0, CARRIED_FROM_VISIT]
        se = (0.4 / 12 ** 0.5) / count ** 0.5
        zcheck(rep.sojourn_phase_means[0, CARRIED_FROM_VISIT], 2.1, se)

    def test_service_tie_with_visit_counts_as_completion(self):
        # B has all mass at exactly the visit length: waiting customers are
        # served (ties succeed), within-visit arrivals never fit
        sys = SystemSpec((
            QueueSpec(0.6, Discrete(((1.0, 1.0),)), Deterministic(1.0),
                      Deterministic(0.25)),
            QueueSpec(0.0, Exponential(1.0), Deterministic(1.0), Deterministic(0.25)),
        ))
        rep = run(sys, SimConfig(warmup_cycles=20, measured_cycles=2_000,
                                 replications=3, master_seed=5))
        assert rep.completion_fraction[0] == 1.0
        assert rep.sojourn_phase_counts[0, SERVED_SAME_VISIT] == 0
        assert rep.sojourn_phase_counts[0, CARRIED_FROM_VISIT] > 0


class ScriptedService:
    """A service law that hands out the next values of a fixed array.

    It logs the size of every request, so a test sees how many draws each
    retry round asked for.
    """

    def __init__(self, values):
        self.values, self.used, self.sizes = values, 0, []

    def sample(self, rng, size):
        self.sizes.append(size)
        self.used += size
        return self.values[self.used - size:self.used].copy()


def walk_rounds(attempt, arrival, offset, tag, visit, polled_at, draws):
    """The retry rounds in plain Python, one customer at a time.

    In round k every customer still waiting attempts in cycle
    attempt + k, in input order, each taking the next draw; those at or
    past the block end wait out the block instead. Returns the outputs of
    `_retry_rounds` as lists, and the number of draws of each round.
    """
    cycles = len(visit)
    waiting, kept, sizes = list(range(len(attempt))), [], []
    done, sojourn, done_tag = [], [], []
    drawn = iter(draws)
    k = 0
    while True:
        inside = [i for i in waiting if attempt[i] + k < cycles]
        kept += [(i, k) for i in waiting if attempt[i] + k >= cycles]
        if not inside:
            break
        sizes.append(len(inside))
        waiting = []
        for i in inside:
            b, c = float(next(drawn)), int(attempt[i]) + k
            start = float(offset[i]) if k == 0 else 0.0
            if (start + b if k == 0 else b) <= visit[c]:
                done.append(c)
                sojourn.append(float(polled_at[c]) - float(arrival[i])
                               + start + b)
                done_tag.append(int(tag[i]) if k == 0
                                else max(int(tag[i]), CARRIED_FROM_VISIT))
            else:
                waiting.append(i)
        k += 1
    kept_time = [float(arrival[i]) for i, _ in kept]
    kept_tag = [int(tag[i]) if r == 0 else max(int(tag[i]), CARRIED_FROM_VISIT)
                for i, r in kept]
    return [done, sojourn, done_tag, kept_time, kept_tag], sizes


class TestRetryRounds:
    """The attempt rule on one queue's hand-made visits, with B = 0.3."""

    VISIT = np.array([1.0, 0.2, 0.3])
    POLLED_AT = np.array([4096.0, 4098.5, 4101.0])

    def settle(self, customers):
        attempt, arrival, offset, tag = (np.array(c) for c in zip(*customers))
        return _retry_rounds(attempt, arrival, offset, tag, self.VISIT,
                             self.POLLED_AT, Deterministic(0.3),
                             np.random.default_rng(0))

    def test_one_attempt_rule(self):
        # (first attempt, arrival, offset into that visit, tag)
        early = (0, 4096.1, 4096.1 - 4096.0, SERVED_SAME_VISIT)  # fits at once
        late = (0, 4096.8, 4096.8 - 4096.0, SERVED_SAME_VISIT)   # 0.8 + 0.3 > 1
        waiting = (0, 4095.0, 0.0, OUTSIDE_VISIT)                # fits in visit 0
        between = (1, 4097.0, 0.0, OUTSIDE_VISIT)                # 0.2 < 0.3, then a tie
        done, sojourn, done_tag, kept_time, kept_tag = self.settle(
            [early, late, waiting, between])
        assert done.tolist() == [0, 0, 2, 2]
        assert done_tag.tolist() == [SERVED_SAME_VISIT, OUTSIDE_VISIT,
                                     OUTSIDE_VISIT, CARRIED_FROM_VISIT]
        # in the system for exactly its requirement, at any arrival time
        assert sojourn[0] == 0.3
        assert sojourn[1:] == pytest.approx([1.3, 4.3, 4.5], rel=1e-14)
        assert kept_time.size == kept_tag.size == 0

    def test_misses_past_the_block_are_kept(self):
        last = (2, 4101.1, 4101.1 - 4101.0, SERVED_SAME_VISIT)  # 0.1 + 0.3 > 0.3
        done, sojourn, done_tag, kept_time, kept_tag = self.settle(
            [last, (3, 4101.5, 0.0, OUTSIDE_VISIT)])
        assert done.size == 0
        assert kept_time.tolist() == [4101.5, 4101.1]
        assert kept_tag.tolist() == [OUTSIDE_VISIT, CARRIED_FROM_VISIT]

    def test_outputs_follow_round_order(self):
        carried = (0, 4090.0, 0.0, OUTSIDE_VISIT)                 # fits in visit 0
        early = (0, 4096.2, 4096.2 - 4096.0, SERVED_SAME_VISIT)   # fits at once
        late = (0, 4096.9, 4096.9 - 4096.0, SERVED_SAME_VISIT)    # misses twice
        between = (1, 4097.0, 0.0, OUTSIDE_VISIT)                 # misses once
        last = (2, 4101.1, 4101.1 - 4101.0, SERVED_SAME_VISIT)    # misses, leaves
        after = [(3, 4101.5, 0.0, OUTSIDE_VISIT),                 # never attempt
                 (3, 4101.6, 0.0, OUTSIDE_VISIT)]
        done, sojourn, done_tag, kept_time, kept_tag = self.settle(
            [carried, early, late, between, last, *after])
        # round 0 serves carried and early, round 1 between, round 2 late
        assert done.tolist() == [0, 0, 2, 2]
        assert done_tag.tolist() == [OUTSIDE_VISIT, SERVED_SAME_VISIT,
                                     OUTSIDE_VISIT, CARRIED_FROM_VISIT]
        assert sojourn[1] == 0.3
        assert sojourn[[0, 2, 3]] == pytest.approx([6.3, 4.3, 4.4], rel=1e-14)
        # the never-attempted leave in round 0, ahead of the miss that
        # pushed `last` past the block in round 1
        assert kept_time.tolist() == [4101.5, 4101.6, 4101.1]
        assert kept_tag.tolist() == [OUTSIDE_VISIT, OUTSIDE_VISIT,
                                     CARRIED_FROM_VISIT]

    def test_matches_a_customer_by_customer_walk(self):
        # random blocks against a plain-Python walk of the rounds: every
        # output and every draw size equal, with ties, customers that start
        # past the block end and chains of ten or more misses
        rng = np.random.default_rng(20261019)
        longest = past_end = 0
        for case in range(200):
            cycles = int(rng.integers(1, 16))
            grid = case % 2 == 0  # quarter steps make ties exact
            if grid:
                visit = rng.choice([0.0, 0.25, 0.5, 1.0], cycles)
            else:
                visit = rng.exponential(rng.choice([0.05, 1.0]), cycles)
            polled_at = 4096.0 + np.cumsum(rng.random(cycles) + visit)
            n = int(rng.integers(0, 30))
            attempt = np.sort(rng.integers(0, cycles + 3, n))
            arrival = polled_at[np.minimum(attempt, cycles - 1)] - rng.random(n)
            during = (rng.random(n) < 0.4) & (attempt < cycles)
            offset = np.where(during, rng.choice([0.25, 0.5], n) if grid
                              else rng.random(n), 0.0)
            tag = np.where(during, SERVED_SAME_VISIT,
                           rng.choice([CARRIED_FROM_VISIT, OUTSIDE_VISIT], n))
            scale = rng.choice([0.3, 3.0])
            draws = (rng.choice([0.25, 0.5, 0.75, 1.0, 2.0], 40 * n + 1) if grid
                     else rng.exponential(scale, 40 * n + 1))

            service = ScriptedService(draws)
            got = _retry_rounds(attempt, arrival, offset, tag, visit,
                                polled_at, service, None)
            want, sizes = walk_rounds(attempt, arrival, offset, tag, visit,
                                      polled_at, draws)
            assert [out.tolist() for out in got] == want
            assert service.sizes == sizes
            longest = max(longest, len(sizes))
            past_end += int((attempt >= cycles).sum())
        assert longest >= 11 and past_end > 0


class TestTimelineArrivals:
    # dyadic lengths summing to 4, so a position times 4 is exact; the
    # zero-length intervals sit inside the timeline and at its end
    LENGTHS = np.array([0.5, 0.0, 1.25, 0.0, 0.0, 2.0, 0.25, 0.0])

    class Fixed:
        """Stands in for both streams: a fixed count and fixed positions."""

        def __init__(self, positions):
            self.positions = np.asarray(positions)

        def poisson(self, lam):
            return self.positions.size

        def random(self, size):
            assert size == self.positions.size
            return self.positions.copy()

    def test_position_at_an_interval_end_goes_to_the_next(self):
        ends = np.cumsum(self.LENGTHS)
        # times 3.9, 0.5, 0, 1.75, 1, 3.75, unsorted; 0.5 ends intervals 0
        # and 1, 1.75 ends 2, 3 and 4, 3.75 ends 5
        stream = self.Fixed(np.array([3.9, 0.5, 0.0, 1.75, 1.0, 3.75]) / 4.0)
        owner, at = _timeline_arrivals(1.0, ends, stream, stream)
        assert at.tolist() == [0.0, 0.5, 1.0, 1.75, 3.75, 3.9]
        assert owner.tolist() == [0, 2, 2, 5, 6, 6]

    def test_layout_and_counts(self):
        reps, rate = 4000, 1.5
        lengths = np.tile(self.LENGTHS, reps)
        ends = np.cumsum(lengths)
        rng = np.random.default_rng(8128)
        owner, at = _timeline_arrivals(rate, ends, rng, rng)
        assert np.all(np.diff(at) >= 0.0)
        starts = np.concatenate(([0.0], ends[:-1]))
        assert np.all((starts[owner] <= at) & (at < ends[owner]))
        assert not np.any(lengths[owner] == 0.0)
        # disjoint intervals of a Poisson process hold independent Poisson
        # counts: mean rate * length and dispersion index var / mean = 1,
        # whose stderr over n samples is sqrt(2 / (n - 1))
        counts = np.bincount(owner, minlength=ends.size).reshape(reps, -1)
        for k in np.flatnonzero(self.LENGTHS):
            mu = rate * self.LENGTHS[k]
            zcheck(counts[:, k].mean(), mu, (mu / reps) ** 0.5)
            dispersion = counts[:, k].var(ddof=1) / counts[:, k].mean()
            zcheck(dispersion, 1.0, (2.0 / (reps - 1)) ** 0.5)


class TestAcrossBlocks:
    # runs longer than several kernel blocks, with a measured length that is
    # not a multiple of the block size, so customers carry across block ends
    CYCLES = 3 * _BLOCK_CYCLES + 123

    def test_small_service_forces_exact_outcomes(self):
        # as in test_small_service_forces_exact_phase_means: every waiting
        # customer completes at its first attempt
        sys = SystemSpec((
            QueueSpec(0.7, Deterministic(0.4), Deterministic(1.0), Deterministic(0.25)),
            QueueSpec(0.0, Exponential(1.0), Deterministic(1.0), Deterministic(0.25)),
        ))
        reps = 3
        rep = run(sys, SimConfig(warmup_cycles=70, measured_cycles=self.CYCLES,
                                 replications=reps, master_seed=17))
        assert rep.completion_fraction[0] == 1.0
        assert abs(rep.sojourn_phase_means[0, SERVED_SAME_VISIT] - 0.4) < 1e-12
        assert np.all(rep.polling_means[:, 1] == 0.0)
        assert np.all(rep.visit_end_means[:, 1] == 0.0)
        # each customer seen at its queue's polling instant completes there,
        # and every completion is one unit of throughput
        counts = rep.sojourn_phase_counts[0]
        seen = rep.polling_means[0, 0] * self.CYCLES * reps
        assert abs(counts[CARRIED_FROM_VISIT] + counts[OUTSIDE_VISIT] - seen) \
            < 1e-9 * seen
        served = rep.throughput_mean * self.CYCLES * reps
        assert abs(counts.sum() - served) < 1e-9 * served
        # carried: offset uniform on (0.6, 1], sojourn 2.9 - offset; outside:
        # arrival uniform over the 1.5 before the next polling, plus 0.4
        zcheck(rep.sojourn_phase_means[0, CARRIED_FROM_VISIT], 2.1,
               (0.4 / 12 ** 0.5) / counts[CARRIED_FROM_VISIT] ** 0.5)
        zcheck(rep.sojourn_phase_means[0, OUTSIDE_VISIT], 1.15,
               (1.5 / 12 ** 0.5) / counts[OUTSIDE_VISIT] ** 0.5)
        # waiting at queue 1's polling: Poisson over the last 0.4 of the
        # visit and the 1.5 after it, independent from cycle to cycle
        zcheck(rep.polling_means[0, 0], 0.7 * 1.9,
               (0.7 * 1.9 / (self.CYCLES * reps)) ** 0.5)

    def test_oversized_service_never_completes(self):
        sys = SystemSpec((
            QueueSpec(0.05, Deterministic(2.0), Deterministic(1.0), Deterministic(0.25)),
            QueueSpec(0.0, Exponential(1.0), Exponential(1.0), Deterministic(0.25)),
        ))
        rep = run(sys, SimConfig(warmup_cycles=0, measured_cycles=self.CYCLES,
                                 replications=2, master_seed=19))
        assert rep.completion_fraction[0] == 0.0
        assert rep.throughput_mean == 0.0
        assert rep.sojourn_phase_counts.sum() == 0
        # nobody leaves, so within a cycle queue 1 only grows from instant
        # to instant: polling 1, visit end 1, polling 2, visit end 2
        x, y = rep.polling_means[:, 0], rep.visit_end_means[:, 0]
        assert 0.0 < x[0] <= y[0] <= x[1] <= y[1]
        # the count at polling instant c is every arrival before 2.5 c, so
        # its run mean has mean rate 2.5 (M - 1) / 2 and variance
        # rate 2.5 sum_{c, c'} min(c, c') / M^2, the sum being
        # (M - 1) M (2 M - 1) / 6
        m, flow = self.CYCLES, 0.05 * 2.5
        var = flow * (m - 1) * m * (2 * m - 1) / 6 / m ** 2
        zcheck(x[0], flow * (m - 1) / 2, (var / 2) ** 0.5)


class TestAgainstAnalytic:
    def test_polling_matrix(self, base_report):
        target = polling_means(base_system()).at_polling
        zcheck(base_report.polling_means, target, base_report.polling_stderr)

    def test_visit_end_matrix(self, base_report):
        target = polling_means(base_system()).at_visit_end
        zcheck(base_report.visit_end_means, target, base_report.visit_end_stderr)

    def test_sojourn_means(self, base_report):
        sys = base_system()
        target = [sojourn_mean(sys, i) for i in range(2)]
        zcheck(base_report.sojourn_means, target, base_report.sojourn_stderr)

    def test_completion_fraction(self, base_report):
        sys = base_system()
        target = [derived_quantities(sys, i).completion_prob for i in range(2)]
        zcheck(base_report.completion_fraction, target,
               base_report.completion_stderr)

    def test_throughput_matches_arrival_flow(self, base_report):
        # in steady state every arrival is eventually served, so per-cycle
        # throughput equals the arrival volume per cycle
        sys = base_system()
        cycle = cycle_moments(sys).cycle_mean
        total_rate = sum(q.arrival_rate for q in sys.queues)
        zcheck(base_report.throughput_mean, total_rate * cycle,
               base_report.throughput_stderr)

    def test_pgf_points(self):
        # generating-function evaluation needs atomic visit laws; these
        # switch-overs are atomic too, the next test's are continuous
        sys = SystemSpec((
            QueueSpec(0.7, Exponential(1.2), Deterministic(1.0), Deterministic(0.3)),
            QueueSpec(0.4, Exponential(0.9), Deterministic(1.5), Deterministic(0.2)),
        ))
        # a zero z component measures the probability of an empty queue at
        # polling: 0 ** 0 must count as 1 and 0 ** k as 0
        cfg = SimConfig(warmup_cycles=300, measured_cycles=12_000,
                        replications=10, master_seed=99,
                        pgf_points=((0, (0.5, 0.5)), (1, (0.9, 0.3)),
                                    (0, (0.0, 1.0)), (1, (0.0, 0.0))))
        rep = run(sys, cfg, threads=THREADS)
        exact = [pgf_eval(sys, q, zs) for q, zs in cfg.pgf_points]
        assert abs(exact[2] - 0.07526) < 1e-5
        zcheck(rep.pgf_estimates, exact, rep.pgf_stderr)

    def test_pgf_points_with_continuous_switch_overs(self):
        sys = SystemSpec((
            QueueSpec(0.7, Exponential(1.2), Discrete(((0.6, 0.4), (1.4, 0.6))),
                      Exponential(3.0)),
            QueueSpec(0.4, Erlang(2, 2.0), Deterministic(1.5),
                      HyperExponential(0.3, 5.0, 2.0)),
        ))
        cfg = SimConfig(warmup_cycles=300, measured_cycles=20_000,
                        replications=10, master_seed=31337,
                        pgf_points=((0, (0.5, 0.5)), (1, (0.2, 0.7)),
                                    (0, (0.0, 1.0)), (1, (0.6, 0.0))))
        rep = run(sys, cfg, threads=THREADS)
        exact = [pgf_eval(sys, q, zs) for q, zs in cfg.pgf_points]
        zcheck(rep.pgf_estimates, exact, rep.pgf_stderr)

    def test_pgf_points_with_never_serving_visit_atom(self):
        # queue 1's short visit atom never completes a service of 1.0, so
        # the generating function settles only through the atom's weight
        sys = SystemSpec((
            QueueSpec(0.5, Deterministic(1.0), Discrete(((0.5, 0.5), (2.0, 0.5))),
                      Deterministic(0.2)),
            QueueSpec(0.5, Exponential(2.0), Deterministic(1.0), Deterministic(0.2)),
        ))
        cfg = SimConfig(warmup_cycles=300, measured_cycles=12_000,
                        replications=10, master_seed=5150,
                        pgf_points=((0, (0.5, 0.5)), (1, (0.3, 0.8)),
                                    (0, (0.0, 1.0)), (1, (0.9, 0.0))))
        rep = run(sys, cfg, threads=THREADS)
        exact = [pgf_eval(sys, q, zs) for q, zs in cfg.pgf_points]
        zcheck(rep.pgf_estimates, exact, rep.pgf_stderr)

    def test_long_retry_chains(self):
        # queue 1 completes an attempt with probability P[V >= ln 10] = 0.1,
        # so customers wait about ten visits; queue 2 never has arrivals and
        # two switch-overs take no time
        sys = SystemSpec((
            QueueSpec(0.6, Deterministic(math.log(10.0)), Exponential(1.0),
                      Deterministic(0.0)),
            QueueSpec(0.0, Exponential(1.0), Exponential(2.0), Deterministic(0.2)),
            QueueSpec(0.5, Exponential(1.5), Deterministic(0.8), Deterministic(0.0)),
        ))
        rep = run(sys, SimConfig(warmup_cycles=500, measured_cycles=20_000,
                                 replications=10, master_seed=23),
                  threads=THREADS)
        busy = [0, 2]
        p = [derived_quantities(sys, i).completion_prob for i in busy]
        assert abs(p[0] - 0.1) < 1e-9
        zcheck(rep.completion_fraction[busy], p, rep.completion_stderr[busy])
        zcheck(rep.sojourn_means[busy], [sojourn_mean(sys, i) for i in busy],
               rep.sojourn_stderr[busy])
        target = polling_means(sys).at_polling
        assert np.all(rep.polling_means[:, 1] == 0.0)
        zcheck(rep.polling_means[:, busy], target[:, busy],
               rep.polling_stderr[:, busy])

    def test_phase_decomposition_recombines(self, base_report):
        sys = base_system()
        counts = base_report.sojourn_phase_counts
        means = base_report.sojourn_phase_means
        pooled = (counts * means).sum(axis=1) / counts.sum(axis=1)
        for i in range(2):
            zcheck(pooled[i], sojourn_mean(sys, i),
                   max(base_report.sojourn_stderr[i], 1e-3), limit=5.0)

    def test_same_visit_service_fraction(self, base_report):
        # fraction of arrivals served in their arrival visit is
        # (E[V] - E[min(B,V)]) / E[C]
        sys = base_system()
        cycle = cycle_moments(sys).cycle_mean
        counts = base_report.sojourn_phase_counts
        for i, ev in enumerate((1.0, 2 / 3)):
            q = sys.queues[i]
            frac = counts[i, SERVED_SAME_VISIT] / counts[i].sum()
            target = (ev - expected_min(q.service, q.visit)) / cycle
            assert abs(frac - target) < 0.02


class TestLeftoverDistribution:
    def test_deterministic_visit_gives_poisson_counts(self):
        rate, service, visit = 0.8, Exponential(1.0), Deterministic(1.0)
        counts = leftover_after_visit(rate, service, visit,
                                      replications=400_000, master_seed=21)
        target = rate * expected_min(service, visit)
        mean, var = counts.mean(), counts.var(ddof=1)
        se_mean = counts.std(ddof=1) / len(counts) ** 0.5
        m4 = np.mean((counts - mean) ** 4)
        se_var = ((m4 - var ** 2) / len(counts)) ** 0.5
        zcheck(mean, target, se_mean, limit=3.5)
        zcheck(var, target, se_var, limit=3.5)

    def test_random_visit_gives_overdispersed_counts(self):
        # mixing over the visit inflates the variance to E[L] + Var(L(V))
        rate, service, visit = 0.8, Exponential(1.0), Exponential(1.0)
        counts = leftover_after_visit(rate, service, visit,
                                      replications=400_000, master_seed=22)
        mean_l = rate * expected_min(service, visit)
        # L(v) = rate (1 - e^{-v}), so E[L(V)^2] = rate^2 E[(1 - e^{-V})^2]
        # = rate^2 / 3 for V ~ exp(1)
        second = rate ** 2 / 3.0
        target_var = mean_l + (second - mean_l ** 2)
        var = counts.var(ddof=1)
        m4 = np.mean((counts - counts.mean()) ** 4)
        se_var = ((m4 - var ** 2) / len(counts)) ** 0.5
        zcheck(counts.mean(), mean_l,
               counts.std(ddof=1) / len(counts) ** 0.5, limit=3.5)
        zcheck(var, target_var, se_var, limit=3.5)
        assert var > mean_l + 5 * se_var  # clearly not plain Poisson

    def test_zero_rate_leaves_nothing(self):
        counts = leftover_after_visit(0.0, Exponential(1.0), Exponential(1.0),
                                      replications=100, master_seed=1)
        assert counts.shape == (100,) and np.all(counts == 0)


class TestSingleCycleThroughput:
    def test_serial_order_matches_flow_accounting(self):
        sys = base_system()
        n = (2, 1)
        est = single_cycle_throughput(sys, (0, 1), n, replications=200_000,
                                      master_seed=9)
        d = [derived_quantities(sys, i) for i in range(2)]
        ev, ed = (1.0, 2 / 3), (0.25, 0.25)
        lam = (0.8, 0.5)
        th0 = n[0] * d[0].completion_prob + lam[0] * ev[0] - d[0].leftover_arrival_mean
        th1 = ((n[1] + lam[1] * (ev[0] + ed[0])) * d[1].completion_prob
               + lam[1] * ev[1] - d[1].leftover_arrival_mean)
        zcheck(est.mean, th0 + th1, est.stderr, limit=3.5)
        zcheck(est.per_queue_mean[0], th0, est.stderr, limit=3.5)
        zcheck(est.per_queue_mean[1], th1, est.stderr, limit=3.5)
        assert abs(est.per_queue_mean.sum() - est.mean) < 1e-9

    def test_reversed_order_shifts_offsets(self):
        sys = base_system()
        n = (2, 1)
        est = single_cycle_throughput(sys, (1, 0), n, replications=200_000,
                                      master_seed=10)
        d = [derived_quantities(sys, i) for i in range(2)]
        ev, ed = (1.0, 2 / 3), (0.25, 0.25)
        lam = (0.8, 0.5)
        th1 = n[1] * d[1].completion_prob + lam[1] * ev[1] - d[1].leftover_arrival_mean
        th0 = ((n[0] + lam[0] * (ev[1] + ed[1])) * d[0].completion_prob
               + lam[0] * ev[0] - d[0].leftover_arrival_mean)
        zcheck(est.mean, th0 + th1, est.stderr, limit=3.5)

    def test_central_point_subset_tour(self):
        sys = SystemSpec((
            QueueSpec(0.8, Exponential(1.0), Exponential(1.0), Deterministic(0.0),
                      approach=Deterministic(0.2), return_=Deterministic(0.3)),
            QueueSpec(0.5, Exponential(1.5), Exponential(1.5), Deterministic(0.0),
                      approach=Deterministic(0.1), return_=Deterministic(0.4)),
        ))
        n = (1, 3)
        est = single_cycle_throughput(sys, (1, 0), n, replications=200_000,
                                      master_seed=12)
        d = [derived_quantities(sys, i) for i in range(2)]
        lam, ev = (0.8, 0.5), (1.0, 2 / 3)
        # tour: approach 1, visit 1, return 1, approach 0, visit 0, return 0
        off1 = 0.1
        off0 = 0.1 + ev[1] + 0.4 + 0.2
        th1 = ((n[1] + lam[1] * off1) * d[1].completion_prob
               + lam[1] * ev[1] - d[1].leftover_arrival_mean)
        th0 = ((n[0] + lam[0] * off0) * d[0].completion_prob
               + lam[0] * ev[0] - d[0].leftover_arrival_mean)
        zcheck(est.mean, th0 + th1, est.stderr, limit=3.5)

        solo = single_cycle_throughput(sys, (0,), (1, 0), replications=100_000,
                                       master_seed=13)
        th_solo = ((n[0] + lam[0] * 0.2) * d[0].completion_prob
                   + lam[0] * ev[0] - d[0].leftover_arrival_mean)
        zcheck(solo.mean, th_solo, solo.stderr, limit=3.5)

    def test_empty_central_tour_serves_nobody(self):
        sys = SystemSpec((
            QueueSpec(0.8, Exponential(1.0), Exponential(1.0), Deterministic(0.0),
                      approach=Deterministic(0.2), return_=Deterministic(0.3)),
            QueueSpec(0.5, Exponential(1.5), Exponential(1.5), Deterministic(0.0),
                      approach=Deterministic(0.1), return_=Deterministic(0.4)),
        ))
        est = single_cycle_throughput(sys, (), (0, 0), replications=100,
                                      master_seed=1)
        assert est.mean == 0.0
        with pytest.raises(DomainError):
            single_cycle_throughput(sys, (), (4, 2), replications=100,
                                    master_seed=1)


# float.hex of (mean, stderr, per-queue means) of `single_cycle_throughput`,
# 3000 replications; recorded before the tour's tally lost its guards and
# its separate served total, and never re-taken (numpy 2.4 on x86-64)
SINGLE_CYCLE_PINS = {
    "serial": ("0x1.747ae147ae148p+2", "0x1.48a14fabb780dp-5",
               ("0x1.62e6bdc805762p+1", "0x0.0p+0", "0x1.860f04c756b2ep+1")),
    "central": ("0x1.a16872b020c4ap+1", "0x1.786d04d3b64c0p-5",
                ("0x1.5194237fa89e6p+0", "0x0.0p+0", "0x1.f13cc1e098eadp+0")),
}


def single_cycle_pin_cases():
    # a serial tour over a zero-rate queue that starts empty
    serial = SystemSpec((
        QueueSpec(0.7, Exponential(1.2), Erlang(2, 2.0), Deterministic(0.1)),
        QueueSpec(0.0, Exponential(0.9), Exponential(1.5), Exponential(4.0)),
        QueueSpec(1.3, Deterministic(0.4), Discrete(((0.5, 0.3), (1.5, 0.7))),
                  Deterministic(0.2)),
    ))
    # a central-point tour over two of three queues, with services that
    # draw a uniform before each gamma
    central = SystemSpec((
        QueueSpec(0.9, MixedErlang(0.3, 3, 2.5), Exponential(1.0),
                  Deterministic(0.0), approach=Deterministic(0.2),
                  return_=Exponential(5.0)),
        QueueSpec(0.4, Exponential(2.0), Erlang(3, 4.0), Deterministic(0.0),
                  approach=Exponential(3.0), return_=Deterministic(0.3)),
        QueueSpec(1.1, HyperExponential(0.4, 0.8, 3.0), MixedErlang(0.6, 2, 1.5),
                  Deterministic(0.0), approach=Deterministic(0.1),
                  return_=Deterministic(0.25)),
    ))
    return {"serial": (serial, (2, 0, 1), (3, 0, 2), 41),
            "central": (central, (2, 0), (1, 0, 2), 42)}


@pytest.mark.parametrize("name", sorted(SINGLE_CYCLE_PINS))
def test_single_cycle_throughput_pins(name):
    system, order, counts, seed = single_cycle_pin_cases()[name]
    est = single_cycle_throughput(system, order, counts, replications=3_000,
                                  master_seed=seed)
    got = (est.mean.hex(), est.stderr.hex(),
           tuple(float(x).hex() for x in est.per_queue_mean))
    assert got == SINGLE_CYCLE_PINS[name]


# sha256 of the counts of `leftover_after_visit` at rate 1.5, 3000
# replications and seed 43, per (service, visit) pair; one-atom laws on
# either side, then two laws that draw more than one uniform per sample
# (numpy 2.4 on x86-64)
LEFTOVER_PINS = {
    "atomic": (
        Deterministic(0.3), Deterministic(0.8),
        "eda050f0d5641ad54a8e571c5fbd12432d8341d4279243c2237d5cced7c31b24"),
    "atomic-visit": (
        Exponential(1.0), Deterministic(0.8),
        "f29e3b9753f0ba82deb1a611df9da3d507ea1051d04c815131b392fb2dff6957"),
    "atomic-service": (
        Deterministic(0.3), Exponential(1.0),
        "15dc7f9cff0de7102319fef33b48ed6908c9da26607af85559efe6c089d74375"),
    "mixed-discrete": (
        MixedErlang(0.2, 2, 3.0), Discrete(((0.5, 0.5), (1.0, 0.5))),
        "f0a413420ed67b561c3f430a0d8b962436dffafe461ba7d825128edaeb7416de"),
}


@pytest.mark.parametrize("name", sorted(LEFTOVER_PINS))
def test_leftover_after_visit_pins(name):
    service, visit, digest = LEFTOVER_PINS[name]
    counts = leftover_after_visit(1.5, service, visit, replications=3_000,
                                  master_seed=43)
    assert hashlib.sha256(counts.tobytes()).hexdigest() == digest


class TestDeterminism:
    def test_thread_count_does_not_change_results(self):
        cfg = SimConfig(warmup_cycles=30, measured_cycles=800, replications=5,
                        master_seed=77, pgf_points=((0, (0.6, 0.7)),))
        sys = base_system()
        a = run(sys, cfg, threads=1)
        b = run(sys, cfg, threads=3)
        for key in a.per_replication:
            assert np.array_equal(a.per_replication[key],
                                  b.per_replication[key], equal_nan=True)

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_start_method_does_not_change_results(self, monkeypatch,
                                                       method):
        # a spawned or forkserver worker imports the package afresh, so it
        # must register `_Key` itself; `run` imports the pool class per call
        raw = json.loads((WORKLOADS / "general-wide.json").read_text())
        system = cli._build_system(raw["system"])
        cfg = SimConfig(warmup_cycles=100, measured_cycles=250, replications=4,
                        master_seed=1)
        a = run(system, cfg, threads=1)
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor",
            functools.partial(concurrent.futures.ProcessPoolExecutor,
                              mp_context=multiprocessing.get_context(method)))
        b = run(system, cfg, threads=2)
        for x, y in zip(a.summary, b.summary, strict=True):
            assert x.tobytes() == y.tobytes()
        assert a.per_replication.keys() == b.per_replication.keys()
        for key, values in a.per_replication.items():
            assert values.tobytes() == b.per_replication[key].tobytes(), key

    def test_reruns_are_bit_identical(self):
        cfg = SimConfig(warmup_cycles=30, measured_cycles=500, replications=3,
                        master_seed=5)
        sys = base_system()
        a = run(sys, cfg)
        b = run(sys, cfg)
        assert np.array_equal(a.polling_means, b.polling_means)
        assert np.array_equal(a.sojourn_means, b.sojourn_means)

    def test_seed_changes_results(self):
        sys = base_system()
        a = run(sys, SimConfig(warmup_cycles=10, measured_cycles=300,
                               replications=2, master_seed=1))
        b = run(sys, SimConfig(warmup_cycles=10, measured_cycles=300,
                               replications=2, master_seed=2))
        assert not np.array_equal(a.polling_means, b.polling_means)

    @pytest.mark.parametrize("salt", [_RUN_SALT, _CYCLE_SALT])
    @pytest.mark.parametrize("master_seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_stream_keys_match_tuple_seeding(self, master_seed, salt):
        # one call with many rows and one with a single row give, row by
        # row, the key and the draws of Philox seeded with the tuple
        many = [(rep, queue, purpose) for rep in range(10) for queue in range(8)
                for purpose in range(5)] + [(2**32 - 1, 2**31, 2**32 - 1)]
        for rows in (many, [(3, 7, 4)]):
            keys = _stream_keys(master_seed, salt, rows)
            assert keys.shape == (len(rows), 2) and keys.dtype == np.uint64
            for row, got in zip(rows, _generators(keys)):
                want = np.random.Philox(np.random.SeedSequence(
                    (master_seed, salt, *row)))
                assert np.array_equal(got.bit_generator.state["state"]["key"],
                                      want.state["state"]["key"])
                assert np.array_equal(got.random(3),
                                      np.random.Generator(want).random(3))

    def test_single_cycle_and_leftover_reproduce(self):
        sys = base_system()
        a = single_cycle_throughput(sys, (0, 1), (1, 1), replications=5_000,
                                    master_seed=4)
        b = single_cycle_throughput(sys, (0, 1), (1, 1), replications=5_000,
                                    master_seed=4)
        assert a.mean == b.mean and a.stderr == b.stderr
        x = leftover_after_visit(0.5, Exponential(1.0), Exponential(1.0),
                                 replications=2_000, master_seed=8)
        y = leftover_after_visit(0.5, Exponential(1.0), Exponential(1.0),
                                 replications=2_000, master_seed=8)
        assert np.array_equal(x, y)


class TestWarmup:
    def test_longer_warmup_does_not_shift_means(self):
        sys = base_system()
        a = run(sys, SimConfig(warmup_cycles=400, measured_cycles=4_000,
                               replications=6, master_seed=31), threads=THREADS)
        b = run(sys, SimConfig(warmup_cycles=1_600, measured_cycles=4_000,
                               replications=6, master_seed=32), threads=THREADS)
        gap = np.abs(a.polling_means - b.polling_means)
        tol = 4.0 * np.sqrt(a.polling_stderr ** 2 + b.polling_stderr ** 2)
        assert np.all(gap < tol)
