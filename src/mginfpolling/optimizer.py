"""Single-tour throughput evaluation and visit-order optimization.

Starting from a known backlog, the expected number of services completed in
one tour splits into an order-invariant constant plus a sum of pairwise
delay penalties: every queue visited later accumulates extra arrivals over
the travel and visit times of the queues before it, and a fraction of those
extra arrivals completes. An adjacent-swap argument shows the penalty sum
is minimized by sorting queues on a one-number index, so the best order
never depends on the backlog itself. Both tour styles are covered: the
central-point style leaves from and returns to a hub and visits only
non-empty queues, and a serial tour, which visits every queue, is one with
no approach whose return is the switch-over.

`optimal_order` needs no scan; `brute_force_order` ranks every permutation
in one array pass, for `optimize --brute-force` and the index rule's tests.
Both give each order the constant plus its penalties summed in tour order.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .analytic import SystemSpec, _integer
from .errors import DomainError, UnsupportedModelError

__all__ = [
    "SERIAL",
    "CENTRAL_POINT",
    "TourState",
    "ThroughputReport",
    "BruteForceResult",
    "expected_throughput",
    "optimal_order",
    "brute_force_order",
]

SERIAL = "serial"
CENTRAL_POINT = "central_point"

_BRUTE_FORCE_LIMIT = 9


@dataclass(frozen=True)
class TourState:
    """Backlog vector and tour style for a single-tour evaluation.

    counts holds the number of customers initially present at each queue.
    In central_point mode the tour visits exactly the non-empty queues.
    """

    counts: tuple[int, ...]
    mode: str = SERIAL

    def __post_init__(self):
        # integral values of any numeric type pass; nan, inf, fractions and
        # non-numbers do not
        try:
            values = tuple(self.counts)
            counts = tuple(int(c) for c in values)
        except (TypeError, ValueError, OverflowError):
            counts = None
        if counts is None or counts != values:
            raise DomainError("initial counts must be integers")
        if any(c < 0 for c in counts):
            raise DomainError("initial counts must be nonnegative")
        object.__setattr__(self, "counts", counts)
        if self.mode not in (SERIAL, CENTRAL_POINT):
            raise DomainError(f"mode must be {SERIAL!r} or {CENTRAL_POINT!r}")

    @property
    def visited(self) -> tuple[int, ...]:
        """Queues a tour must cover: all in serial mode, non-empty otherwise."""
        if self.mode == SERIAL:
            return tuple(range(len(self.counts)))
        return tuple(i for i, c in enumerate(self.counts) if c > 0)


@dataclass(frozen=True)
class ThroughputReport:
    """Expected services in one tour, decomposed for audit.

    total = constant + sum over visited queues of
    arrival_rate * completion_prob * (time elapsed before the visit that is
    not already inside the constant). index_values holds each queue's
    ordering index; sorting visited queues ascending by it maximizes total.
    """

    order: tuple[int, ...]
    total: float
    per_queue: np.ndarray
    index_values: np.ndarray
    constant: float


@dataclass(frozen=True)
class BruteForceResult:
    """Exhaustive scan outcome: best report plus the full ranked permutation list.

    ranking pairs every order of the visited queues with its expected
    services, best first, equal values in ascending order. Every value is a
    Python float, the empty tour's 0.0 included.
    """

    best: ThroughputReport
    ranking: tuple[tuple[tuple[int, ...], float], ...]


def _check_state(system: SystemSpec, state: TourState) -> None:
    """One count per queue, and central-point mode only with travel laws."""
    n = len(system.queues)
    if len(state.counts) != n:
        raise DomainError(f"initial counts must be {n} nonnegative integers")
    if state.mode == CENTRAL_POINT and not system.has_central_point:
        raise UnsupportedModelError(
            "central_point mode needs approach and return laws on every queue")


def _check_order(state: TourState, order) -> tuple[int, ...]:
    """Integer queue indices that permute `state.visited`, as a tuple."""
    order = tuple(_integer("queue index", q) for q in order)
    if sorted(order) != list(state.visited):
        need = "all queues" if state.mode == SERIAL else "the non-empty queues"
        raise DomainError(f"order {order} must be a permutation of {need} "
                          f"{state.visited}")
    return order


class _TourParams:
    """Per-queue numbers shared by every order of one (system, state) pair."""

    __slots__ = ("rate_prob", "delay", "base", "constant", "index", "visited")

    def __init__(self, system: SystemSpec, state: TourState):
        _check_state(system, state)
        queues = system.queues
        self.visited = state.visited

        lam = np.array([q.arrival_rate for q in queues])
        # kept on the system, so the index rule and the scan of one system
        # share them
        derived = system._derived_quantities
        p = np.array([d.completion_prob for d in derived])
        leftover = np.array([d.leftover_arrival_mean for d in derived])
        ev = np.array([q.visit.mean() for q in queues])
        served_within = lam * ev - leftover

        # a serial tour: no approach, and the switch-over as its return
        serial = state.mode == SERIAL
        ee = np.array([0.0 if serial else q.approach.mean() for q in queues])
        er = np.array([(q.switch if serial else q.return_).mean() for q in queues])
        self.rate_prob = lam * p
        self.delay = ee + ev + er
        self.base = (np.asarray(state.counts) + lam * ee) * p + served_within
        self.constant = float(sum(self.base[q] for q in self.visited))
        # visit laws have no mass at zero, so every delay is positive
        self.index = self.rate_prob / self.delay

    def report(self, order) -> ThroughputReport:
        per_queue = np.zeros_like(self.base)
        penalty = elapsed = 0.0
        for q in order:
            step = self.rate_prob[q] * elapsed
            per_queue[q] = self.base[q] + step
            penalty += step
            elapsed += self.delay[q]
        return ThroughputReport(order=order, total=float(self.constant + penalty),
                                per_queue=per_queue,
                                index_values=self.index.copy(),
                                constant=self.constant)


def expected_throughput(system: SystemSpec, state: TourState,
                        order) -> ThroughputReport:
    """Expected number of services completed in one tour following `order`.

    The order must be a permutation of the visited set implied by the state
    (every queue in serial mode, the non-empty queues in central_point
    mode). A customer present when its queue is polled completes with that
    queue's completion probability; arrivals during the visit complete
    unless they run past the visit end; arrivals before the visit behave
    like initial customers.
    """
    return _TourParams(system, state).report(_check_order(state, order))


def optimal_order(system: SystemSpec, state: TourState,
                  objective: str = "max") -> ThroughputReport:
    """Best visiting order by the index rule, without scanning permutations.

    objective "max" sorts visited queues by ascending index
    (arrival_rate * completion_prob / expected time the visit occupies);
    "min" reverses the sort. Ties keep ascending queue order, so the result
    is deterministic. The chosen order does not depend on the backlog,
    which only shifts the order-invariant constant.
    """
    if objective not in ("max", "min"):
        raise DomainError("objective must be 'max' or 'min'")
    params = _TourParams(system, state)
    sign = 1.0 if objective == "max" else -1.0
    order = tuple(sorted(params.visited,
                         key=lambda q: (sign * params.index[q], q)))
    return params.report(order)


def brute_force_order(system: SystemSpec, state: TourState,
                      objective: str = "max") -> BruteForceResult:
    """Exhaustive permutation scan, for `optimize --brute-force` and tests.

    Every order is scored in one array pass: one row per order, in the
    lexicographic order `permutations` yields them in, and one column step
    per tour position, adding rate_prob * elapsed and then the position's
    delay, as `_TourParams.report`'s loop does for one order, so each value
    has the bits of that order's report. One stable sort ranks the values,
    so orders with equal values stay in lexicographic order, as a sort on
    (-value, order) for "max" or (value, order) for "min" leaves them.
    Refuses more than 9 visited queues (the scan is factorial); use
    `optimal_order`, which needs no scan, beyond that.
    """
    if objective not in ("max", "min"):
        raise DomainError("objective must be 'max' or 'min'")
    params = _TourParams(system, state)
    visited = params.visited
    if len(visited) > _BRUTE_FORCE_LIMIT:
        raise DomainError(
            f"brute force over {len(visited)} queues needs "
            f"{len(visited)}! evaluations; use optimal_order instead")
    orders = list(permutations(visited))
    index = np.array(orders, dtype=np.intp)
    penalty = np.zeros(len(orders))
    elapsed = np.zeros(len(orders))
    for col in index.T:
        penalty += params.rate_prob[col] * elapsed
        elapsed += params.delay[col]
    values = params.constant + penalty
    best = np.argsort(-values if objective == "max" else values, kind="stable")
    ranking = tuple(zip(map(orders.__getitem__, best.tolist()),
                        values[best].tolist()))
    return BruteForceResult(best=params.report(ranking[0][0]), ranking=ranking)
