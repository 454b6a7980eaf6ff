"""Steady-state analysis of a cyclic polling system of infinite-server queues.

The model: a single server moves cyclically over N >= 2 queues. At queue i it
stays for a random visit time, then travels for a random switch time to the
next queue. Customers arrive at queue i in a Poisson stream and each carries a
service requirement drawn fresh on every visit: a customer present when the
server arrives completes during that visit exactly when its drawn requirement
fits inside the visit time, and a customer arriving while the server is
present completes exactly when its requirement fits inside the remaining
visit. Uncompleted customers simply wait for the next visit. Service is
infinite-server, so customers never queue for each other.

This module evaluates the stationary performance measures of that model in
closed form, with the two-law functionals of the distributions module as
finite sums: per-queue completion probabilities and related constants,
cycle-length moments, mean queue lengths at polling and visit-end instants,
the joint queue-length generating function at polling instants (for atomic
visit laws and any switch-over laws), and the sojourn-time mean and
Laplace-Stieltjes transform.

Each value that depends on one immutable object only is computed once, on
first use, and kept on that object: a `QueueSpec` keeps the four s-free
functionals of its (service, visit) pair (completion probability, expected
minimum, in-visit service mean and residual overshoot integral) as two
pairs, and a `SystemSpec` keeps its `CycleMoments` and the per-queue
constants of `pgf_eval`, so repeated pgf points on one system build them
once. Both specs are frozen dataclasses, so the laws a cached value came
from never change under it, and `dataclasses.replace` builds a new spec
that starts with no cached values. Functionals of a transform argument s
are not cached; they take the whole s-grid at once instead.

Every sojourn output is one read of its queue. `_values` is the one
checked read: it checks the queue index, reads the "min" pair (completion
probability, expected minimum) with any other uses of the queue's pair
(`QueueSpec._pair_values`) and rejects a zero completion probability.
`_sojourn` turns one read into the queue's mean, by the formula over
numbers `_sojourn_mean`, and its transform over a 1-D s-grid:
`sojourn_mean` is its empty-grid case, `sojourn_lst` its one-point case
and `sojourn_metrics` one row per queue. A sweep builds no spec per point:
`_sojourn_mean` takes each point's cycle moments and values, the swept
queue's from one pass per group of fitted laws with the same phases.

Each use of a queue's pair is one integral pass of the distributions
module (`_pair_uses`): the "min" pair that `derived_quantities` and the
tour optimizer read, the in-visit pair of the sojourn mean, the four
transform functionals over an s-grid and the four s-free values of a sweep
group. The uses of one read share one pass and its term products.

The server-away time A_i, the cycle less queue i's visit, has one home
for its moments and one for its transform: `_cycle_moments_from` reads the
queues' visit and switch-over laws, and `_away_lsts` runs each of those
laws' transforms once over an s-grid and forms every queue's A_i from them.

Conventions: queue indices are 0-based everywhere in the library. Optional
central-point travel laws can ride along on a queue spec for tour planning,
but they never alter the cyclic-model quantities computed here.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import (
    Distribution,
    _check_s,
    _dot,
    _pair_uses,
    _stacks,
    fit_two_moments,
    has_atom_at_zero,
)
from .errors import (
    DomainError,
    ModelError,
    NumericsError,
    UnsupportedModelError,
)

__all__ = [
    "QueueSpec",
    "SystemSpec",
    "DerivedQueueQuantities",
    "CycleMoments",
    "PollingMeans",
    "SojournMetrics",
    "derived_quantities",
    "cycle_moments",
    "polling_means",
    "pgf_eval",
    "sojourn_mean",
    "sojourn_lst",
    "sojourn_mean_exponential",
    "sojourn_lst_exponential",
    "sojourn_metrics",
    "sojourn_sweep",
    "weighted_sojourn_mean",
]


@dataclass(frozen=True)
class QueueSpec:
    """One queue of the polling system.

    Attributes
    ----------
    arrival_rate : float
        Poisson arrival rate; zero is allowed (a queue nobody visits in
        spirit, still polled by the server).
    service, visit, switch : Distribution
        Service requirement, visit time, and the switch-over time the server
        spends after leaving this queue. Service and visit must not put mass
        at zero; a zero switch-over is fine.
    approach, return_ : Distribution or None
        Optional central-point travel times: outbound from the central point
        to this queue and back. Either both present or both absent. They feed
        tour planning only and leave cyclic-model quantities untouched.

    The s-free functionals of the (service, visit) pair are computed on
    first use and kept on the spec, in two pairs that callers read
    through `_pair_values`: the completion probability and expected
    minimum, which are all that `derived_quantities` and the tour
    optimizer pay for, and the in-visit terms of the sojourn mean. The
    spec is frozen, so they cannot go stale; `dataclasses.replace`
    returns a new spec with none of them computed yet.
    """

    arrival_rate: float
    service: Distribution
    visit: Distribution
    switch: Distribution
    approach: Distribution | None = None
    return_: Distribution | None = None

    def __post_init__(self):
        rate = float(self.arrival_rate)
        if not (rate >= 0.0) or not math.isfinite(rate):
            raise ModelError(f"arrival_rate must be finite and >= 0, got {rate!r}")
        object.__setattr__(self, "arrival_rate", rate)
        for name in ("service", "visit"):
            law = getattr(self, name)
            if has_atom_at_zero(law):
                raise ModelError(f"{name} law must not put mass at zero")
        if (self.approach is None) != (self.return_ is None):
            raise ModelError(
                "central-point travel times must be given as a pair "
                "(approach and return_) or not at all")

    def _pair_values(self, *uses, s=None) -> list:
        """The values of each use of the pair (see `_pair_uses`).

        The spec keeps the values of the s-free uses, "min" and
        "in_visit", as `_min_pair` and `_in_visit_pair`. The uses it does
        not keep yet run in one pass, where their parts share term
        products, and the s-free ones among them are kept.
        """
        kept = vars(self)
        run = [use for use in uses if f"_{use}_pair" not in kept]
        if not run:
            return [kept[f"_{use}_pair"] for use in uses]
        found = dict(zip(run, _pair_uses(self.service, self.visit, run, s)))
        for use in run:
            if use != "transforms":
                kept[f"_{use}_pair"] = found[use]
        return [found[use] if use in found else kept[f"_{use}_pair"]
                for use in uses]


class _PgfConstants(NamedTuple):
    """The per-queue constants `pgf_eval` reads, one list entry per queue.

    `atoms` holds the visit atom values and weights; per atom, `left` holds
    the expected number of the queue's own arrivals during the visit still
    present when it ends, and `survive` the chance that a present customer's
    service does not fit in it.
    """

    rates: np.ndarray
    atoms: list
    left: list
    survive: list


@dataclass(frozen=True)
class SystemSpec:
    """An ordered set of queues; the order is the server's cyclic route.

    The spec computes its `CycleMoments`, for `pgf_eval` its
    `_PgfConstants` (arrival rates and per-queue visit atoms, `left` and
    `survive`), and every queue's `derived_quantities` (read by
    `polling_means` and the CLI), on first use and
    keeps them; it is frozen, so they cannot go stale, and
    `dataclasses.replace` returns a new spec that computes its own. A build
    whose checks fail keeps nothing and raises again on the next use.
    """

    queues: tuple[QueueSpec, ...]

    def __post_init__(self):
        queues = tuple(self.queues)
        object.__setattr__(self, "queues", queues)
        if len(queues) < 2:
            raise ModelError(f"a polling system needs >= 2 queues, got {len(queues)}")
        with_travel = sum(q.approach is not None for q in queues)
        if with_travel not in (0, len(queues)):
            raise ModelError(
                "central-point travel times must be present on every queue "
                "or on none")

    def __len__(self):
        return len(self.queues)

    @property
    def has_central_point(self) -> bool:
        """True when every queue carries central-point travel laws."""
        return self.queues[0].approach is not None

    @functools.cached_property
    def _cycle_moments(self) -> CycleMoments:
        return _cycle_moments_from([q.visit for q in self.queues],
                                   [q.switch for q in self.queues])

    @functools.cached_property
    def _derived_quantities(self) -> tuple[DerivedQueueQuantities, ...]:
        """`derived_quantities` of every queue, in queue order."""
        return tuple(derived_quantities(self, i)
                     for i in range(len(self.queues)))

    @functools.cached_property
    def _pgf_constants(self) -> _PgfConstants:
        """What `pgf_eval` reads of the system besides z.

        Raises `UnsupportedModelError` for the first queue whose visit law
        is not atomic, then `ModelError` for the first queue whose
        completion probability is zero.
        """
        queues = self.queues
        for idx, q in enumerate(queues):
            if q.visit.atoms is None:
                raise UnsupportedModelError(
                    f"queue {idx}: generating-function evaluation needs an "
                    "atomic visit law")
        for j in range(len(queues)):
            _values(self, j)
        rates = np.array([q.arrival_rate for q in queues])
        atoms = [np.array(q.visit.atoms).T for q in queues]
        return _PgfConstants(
            rates=rates,
            atoms=atoms,
            left=[rate * q.service.integrated_survival(v)
                  for rate, q, (v, _) in zip(rates, queues, atoms)],
            survive=[q.service.survival(v)
                     for q, (v, _) in zip(queues, atoms)])


@dataclass(frozen=True)
class DerivedQueueQuantities:
    """Per-queue constants derived from the service and visit laws.

    Attributes
    ----------
    completion_prob : float
        Chance that a customer present at the start of a visit completes
        during it (a tie between requirement and visit counts as completed).
    min_mean : float
        Expected minimum of one service requirement and one visit time.
    leftover_arrival_mean : float
        Expected number of customers that arrive during one visit and are
        still present when it ends; equals arrival_rate times min_mean.
    residual_overshoot_prob : float
        Chance that a requirement exceeds the residual visit seen by a
        customer arriving at a uniformly random moment of a visit.
    mean_failed_visits : float
        Expected number of unsuccessful visits a present customer sits
        through before completing, (1 - completion_prob) / completion_prob.
    """

    completion_prob: float
    min_mean: float
    leftover_arrival_mean: float
    residual_overshoot_prob: float
    mean_failed_visits: float


@dataclass(frozen=True)
class CycleMoments:
    """First and second moments of the cycle and its per-queue remainders.

    cycle_mean is E[C] with C the full tour (all visits plus all
    switch-overs). partial_means[i] is the mean of the cycle with queue i's
    visit removed; partial_second_moments[i] is that quantity's second
    moment, computed from independence of all visit and switch times.
    """

    cycle_mean: float
    partial_means: tuple[float, ...]
    partial_second_moments: tuple[float, ...]


def _cycle_moments_from(visits, switches) -> CycleMoments:
    """`CycleMoments` of the cycle of the visit and switch-over laws.

    Both lists are in queue order, and every sum runs in it. `SystemSpec`
    and each point of `sojourn_sweep` form their moments here.
    """
    visit_means = [law.mean() for law in visits]
    visit_vars = [law.variance() for law in visits]
    cycle_mean = sum(visit_means) + sum(law.mean() for law in switches)
    visit_var = sum(visit_vars)
    switch_var = sum(law.variance() for law in switches)
    partial_means = tuple(cycle_mean - mean_v for mean_v in visit_means)
    return CycleMoments(cycle_mean, partial_means, tuple(
        visit_var - var_v + switch_var + mean_i**2
        for var_v, mean_i in zip(visit_vars, partial_means)))


@dataclass(frozen=True)
class PollingMeans:
    """Mean queue lengths at polling and visit-end instants.

    at_polling[i, j] is the expected number of customers in queue j at the
    moment the server arrives at queue i; at_visit_end[i, j] the same at the
    moment the server leaves queue i.
    """

    at_polling: np.ndarray
    at_visit_end: np.ndarray


@dataclass(frozen=True)
class SojournMetrics:
    """Per-queue sojourn means plus a transform table over an s-grid.

    lst_table[i, k] is the sojourn-time Laplace-Stieltjes transform of
    queue i evaluated at s_grid[k].
    """

    means: tuple[float, ...]
    s_grid: tuple[float, ...]
    lst_table: np.ndarray


def _integer(name: str, value) -> int:
    """`value` as an int, or DomainError unless it is an integer.

    operator.index's rule: ints and numpy ints pass, a float never does.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _floats(name: str, values) -> tuple[float, ...]:
    """`values` as a tuple of floats; a str or None is not a number."""
    if not isinstance(values, str):
        values = tuple(values)
        if not any(v is None or isinstance(v, str) for v in values):
            return tuple(float(v) for v in values)
    raise DomainError(f"{name} must be a sequence of numbers, got {values!r}")


def _queue_checked(system: SystemSpec, queue: int) -> QueueSpec:
    queue = _integer("queue index", queue)
    if not 0 <= queue < len(system.queues):
        raise DomainError(
            f"queue index {queue} out of range for {len(system.queues)} queues")
    return system.queues[queue]


def _values(system: SystemSpec, queue: int, *uses, s=None) -> list:
    """The queue's "min" pair, then the values of each of `uses`.

    The one checked read of a queue: its index is checked, the uses its
    spec does not keep run in one pass (`QueueSpec._pair_values`), and a
    zero completion probability is rejected after it.
    """
    values = _queue_checked(system, queue)._pair_values("min", *uses, s=s)
    _completing(queue, values[0][0])
    return values


def _completing(queue: int, p: float) -> float:
    """Queue `queue`'s completion probability p, rejected when it is zero."""
    if p <= 0.0:
        raise ModelError(
            f"queue {queue}: service never completes within a visit "
            "(completion probability 0)")
    return p


def derived_quantities(system: SystemSpec, queue: int) -> DerivedQueueQuantities:
    """Completion probability and companion constants for one queue.

    Raises
    ------
    ModelError
        If the completion probability is zero (service never fits inside a
        visit), since then nothing present is ever served and stationary
        waiting quantities diverge.
    """
    [(p, mmin)] = _values(system, queue)
    spec = system.queues[queue]
    return DerivedQueueQuantities(
        completion_prob=p,
        min_mean=mmin,
        leftover_arrival_mean=spec.arrival_rate * mmin,
        residual_overshoot_prob=mmin / spec.visit.mean(),
        mean_failed_visits=(1.0 - p) / p,
    )


def cycle_moments(system: SystemSpec) -> CycleMoments:
    """Moments of the cycle length and of the cycle less each queue's visit.

    Computed once per system and kept on it.
    """
    return system._cycle_moments


def polling_means(system: SystemSpec) -> PollingMeans:
    """Mean queue lengths at every polling and visit-end instant.

    The diagonal entries balance arrivals over one cycle against the served
    fraction: over a full cycle a queue accumulates its arrival rate times
    the time the server is elsewhere, plus the arrivals during its own visit
    that the visit does not catch, and the visit removes each present
    customer independently with the completion probability. Off-diagonal
    entries follow the server along the cycle, adding arrivals over the
    crossed visit and switch periods.
    """
    queues = system.queues
    n = len(queues)
    rates = [q.arrival_rate for q in queues]
    visit_means = [q.visit.mean() for q in queues]
    switch_means = [q.switch.mean() for q in queues]
    derived = system._derived_quantities
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
        # from the end of queue j's visit the server crosses switch-overs
        # j .. i-1 and visits j+1 .. i-1 before polling queue i; each sum
        # takes one term per step, in crossing order, and the two are added
        # only at the end
        switched = visited = 0.0
        for m in range(1, n):
            i = (j + m) % n
            switched += switch_means[(i - 1) % n]
            at_polling[i, j] = at_end[j, j] + rates[j] * (switched + visited)
            at_end[i, j] = at_polling[i, j] + rates[j] * visit_means[i]
            visited += visit_means[i]
    return PollingMeans(at_polling=at_polling, at_visit_end=at_end)


#: history depth, in cycles, after which `pgf_eval` gives up
_PGF_MAX_CYCLES = 500
#: most distinct atom-count vectors `pgf_eval` holds on one level
_PGF_MAX_VECTORS = 1_000_000
#: a vector retires once every coordinate of its u is below this ...
_PGF_U_FLOOR = 1e-15
#: ... or once its mass is
_PGF_MASS_FLOOR = 1e-20


def pgf_eval(system: SystemSpec, queue: int, z) -> float:
    """Joint queue-length generating function at a polling instant.

    Evaluates E[prod_j z_j^(count in queue j)] at the moment the server
    arrives at the given queue, for systems whose visit laws are all atomic
    (deterministic or finite discrete); switch-over laws may be of any
    family. With u = 1 - z, the recursion walks from the polling instant
    back into the past, one server interval (a visit and the switch-over
    after it) per level. A crossed switch-over contributes only its
    transform at the arrival-weighted coordinates lambda . u; a crossed
    visit is a finite sum over its atoms, each contributing its weight, the
    factor for the arrivals the visit leaves behind and the other queues'
    arrivals during it, and a contraction of the crossed queue's coordinate
    by the atom's survival chance.

    A level holds the distinct counts of crossed visit atoms reached so far
    (they fix u) and each count vector's mass: the summed product of the
    factors along every history that reaches it. Only the queues with
    z_j != 1 and a positive arrival rate carry counts; a zero-rate queue
    is always empty, so the value does not depend on its z_j, and its u_j
    is held at 0. For any other queue u_j stays 0, so its atoms never
    change u, and a crossing of it changes no count: it multiplies every
    mass by its switch-over's and its visit's transforms at the lambda . u
    carried from the last crossing that changed the counts, and only the
    mass floor is tested after it. u, lambda . u and the u floor
    are formed only after a tracked crossing; when rows retire, lambda . u
    is sliced, since each of its rows is summed on its own and keeps its
    bits among any other rows. Points where all but one coordinate
    equal 1, such as marginals and gradients at z = 1, therefore keep each
    level narrow and most levels cheap. A vector retires, adding its mass
    to the value, once every coordinate of u is below 1e-15 (its
    remaining factor is then one) or once its mass is below 1e-20. The
    remaining factor of a vector lies in [0, 1] for z in [0, 1], so the
    value is off by at most the total mass retired under that floor. The
    floor is what settles a visit atom in which service never completes:
    it leaves u as it is, but the weight of a history that keeps drawing
    it shrinks geometrically.

    What does not depend on z is built on the first call and kept on the
    system: the arrival rates and, per queue, the visit atoms with their
    `left` and `survive` factors. That build makes the model checks, after
    the checks on z; a failed check keeps nothing, so every later call
    raises again.

    Parameters
    ----------
    z : array-like of length N
        Evaluation point; components in [0, 1], with a small overshoot above
        one tolerated so finite differences at one are possible.

    Raises
    ------
    UnsupportedModelError
        If any visit law is not atomic.
    ModelError
        If some queue's completion probability is zero.
    DomainError
        If z is out of range or not finite, or if z above one takes some
        lambda . u to where a switch-over's transform does not exist.
    NumericsError
        If some vector is still live after 500 cycles of history, which
        happens when service almost never completes, or if a level holds
        more than a million distinct count vectors.
    """
    queues = system.queues
    n = len(queues)
    _queue_checked(system, queue)
    z = np.asarray(z, dtype=float)
    if z.shape != (n,):
        raise DomainError(f"z must have shape ({n},), got {z.shape}")
    if not np.all((z >= 0.0) & (z <= 1.02)):
        raise DomainError("z components must lie in [0, 1] "
                          "(small overshoot above 1 is allowed)")
    rates, atoms, left, survive = system._pgf_constants

    u0 = 1.0 - z
    # only the queues with u_j != 0 and arrivals carry count columns: for any
    # other queue lambda_j u_j stays 0 at every level, so its atom counts
    # never change the future
    tracked = (u0 != 0.0) & (rates > 0.0)
    survive = np.concatenate([np.zeros(0)] + [  # empty at z = 1
        a for a, t in zip(survive, tracked) if t])
    # a count vector holds tracked queue j's atoms in columns
    # starts[j]:starts[j + 1]; the other queues' ranges are empty
    starts = np.cumsum([0] + [len(v) * t for (v, _), t in zip(atoms, tracked)])
    horizon = _PGF_MAX_CYCLES * n

    counts = np.zeros((1, starts[-1]), dtype=np.int32)
    mass = np.ones(1)
    value = 0.0
    u = None  # u of the counts; None once a tracked crossing changes them
    for level in range(horizon + 1):
        retire = mass < _PGF_MASS_FLOOR
        fresh = u is None
        if fresh:
            u = np.zeros((len(counts), n))
            u[:, tracked] = u0[tracked] * np.multiply.reduceat(
                survive**counts, starts[:-1][tracked], axis=1)
            lam_dot = _dot(u, rates)
            retire |= np.max(np.abs(u), axis=1) < _PGF_U_FLOOR
        if fresh or retire.any():
            value += mass[retire].sum()
            live = ~retire
            if not live.any():
                return float(value)
            counts, mass = counts[live], mass[live]
            u, lam_dot = u[live], lam_dot[live]
        if level == horizon:
            raise NumericsError(
                "generating-function value did not settle within "
                f"{_PGF_MAX_CYCLES} cycles of history")

        # going back, the server crosses queue j's switch-over, then its visit
        j = (queue - 1 - level) % n
        mass = mass * queues[j].switch.lst(lam_dot)
        if not tracked[j]:
            # its atoms only weigh the other queues' arrivals during it
            mass = mass * queues[j].visit.lst(lam_dot)
            continue
        v, w = atoms[j]
        other = lam_dot - rates[j] * u[:, j]
        child_mass = mass[:, None] * w * np.exp(
            -np.outer(other, v) - np.outer(u[:, j], left[j]))
        # child r * len(v) + k of row r crosses atom k once more
        children = np.repeat(counts, len(v), axis=0)
        rows = np.arange(len(children))
        children[rows, starts[j] + rows % len(v)] += 1
        # merge equal vectors: sort the rows, then sum each run of equal ones
        order = np.lexsort(children.T)
        children = children[order]
        first = np.ones(len(children), dtype=bool)
        first[1:] = np.any(children[1:] != children[:-1], axis=1)
        counts = children[first]
        mass = np.bincount(np.cumsum(first) - 1,
                           weights=child_mass.ravel()[order])
        u = None
        if len(counts) > _PGF_MAX_VECTORS:
            raise NumericsError(
                "generating-function evaluation exceeded "
                f"{_PGF_MAX_VECTORS} distinct visit-atom counts on one level")


def sojourn_mean(system: SystemSpec, queue: int) -> float:
    """Stationary mean sojourn time of a customer at one queue.

    The arrival moment of a tagged customer falls inside its queue's visit
    with probability visit_mean / cycle_mean and outside it otherwise. An
    in-visit arrival either completes within the residual visit (and stays
    exactly its service requirement) or rides out the residual visit and
    joins the waiting pool; an out-of-visit arrival waits out the residual
    server-elsewhere period first. From a polling instant onward, a waiting
    customer completes in each visit independently with the completion
    probability, so the number of wasted cycles is geometric, and each
    attempt adds the expected minimum of requirement and visit plus, on
    failure, the server-elsewhere remainder of the cycle.
    """
    return _sojourn(system, queue, np.zeros(0))[0]


def _sojourn_mean(moments: CycleMoments, queue: int, ev: float, p: float,
                  emin: float, served: float, overshoot: float) -> float:
    """`sojourn_mean` of the queue at index `queue` of `moments`.

    ev is E[V], p = P[B <= V] > 0, emin = E[min(B, V)], served =
    E[B; B <= residual visit] and overshoot the integral of x S_V S_B.
    """
    ec = moments.cycle_mean
    ecmi = moments.partial_means[queue]
    ec2mi = moments.partial_second_moments[queue]

    residual_excess = overshoot / ev
    from_polling = (ecmi + emin) / p
    in_visit = served + residual_excess + emin / ev * from_polling
    out_of_visit = (ec2mi / (2.0 * ecmi)
                    + (1.0 - p) / p * ecmi + emin / p)
    return (ev / ec) * in_visit + (ecmi / ec) * out_of_visit


def sojourn_lst(system: SystemSpec, queue: int, s: float) -> float:
    """Laplace-Stieltjes transform of the sojourn time at one queue.

    Follows the arrival-phase decomposition of `sojourn_mean`. From a
    polling instant, a waiting customer's attempt in each visit either
    succeeds after its requirement B (when B <= V) or fails after the whole
    visit V, which the server-away time A follows. An attempt's length
    depends on its outcome, so the wait from a polling instant has the
    transform succ / (1 - fail A(s)), with succ = E[exp(-s B); B <= V] and
    fail = E[exp(-s V); V < B]. Exact for every service and visit law.
    It is 1 at s = 0, after the checks of `sojourn_mean`.
    """
    _check_s(s, "sojourn_lst", grid=False)
    return float(_sojourn(system, queue, np.array([s], dtype=float))[1][0])


def _away_lsts(system: SystemSpec, s: np.ndarray) -> list:
    """Each queue's server-away transform A_i over the grid, in queue order.

    A_i is the transform of the cycle less queue i's visit. Every visit and
    switch-over `lst` runs once over the whole grid, and A_i multiplies,
    left to right from 1, the other queues' visit transforms in queue order
    and then every switch-over transform. A law's transform at one point is
    the one-row case of its grid call, so each entry is that of the point
    alone.
    """
    visits = [q.visit.lst(s) for q in system.queues]
    switches = [q.switch.lst(s) for q in system.queues]
    return [math.prod(visits[:i] + visits[i + 1:] + switches)
            for i in range(len(visits))]


def _sojourn(system: SystemSpec, queue: int, grid: np.ndarray,
             aways: list | None = None) -> tuple[float, np.ndarray]:
    """`sojourn_mean` of the queue and its `sojourn_lst` over a 1-D grid.

    Both come from one `_values` read: the s-free pairs, with the four
    transform functionals over the grid's points s > 0 when it has any.
    `aways` is `_away_lsts` over those points, formed here if not given.
    Entries at s = 0 are 1.
    """
    positive = grid > 0.0
    s = grid[positive]
    pairs = _values(system, queue, "in_visit",
                    *(("transforms",) if s.size else ()), s=s)
    moments = cycle_moments(system)
    ev, ec = system.queues[queue].visit.mean(), moments.cycle_mean
    ecmi = moments.partial_means[queue]
    mean = _sojourn_mean(moments, queue, ev, *pairs[0], *pairs[1])
    lst = np.ones(len(grid))
    if not s.size:
        return mean, lst
    away = (_away_lsts(system, s) if aways is None else aways)[queue]

    succ, fail, served, overshoot = pairs[2]
    from_polling = succ / (1.0 - fail * away)
    residual_excess = overshoot / ev
    residual_away = (1.0 - away) / (s * ecmi)
    term_served = (ev / ec) * served
    term_overflow = (ev / ec) * residual_excess * away * from_polling
    term_outside = (ecmi / ec) * residual_away * from_polling
    lst[positive] = term_served + term_overflow + term_outside
    return mean, lst


def _exponential_rates(system: SystemSpec, queue: int) -> tuple[float, float]:
    from .distributions import Exponential

    spec = _queue_checked(system, queue)
    if not isinstance(spec.service, Exponential) or not isinstance(spec.visit, Exponential):
        raise UnsupportedModelError(
            f"queue {queue}: closed form needs exponential service and visit laws")
    return spec.visit.rate, spec.service.rate


def sojourn_mean_exponential(system: SystemSpec, queue: int) -> float:
    """Closed-form sojourn mean for a queue with exponential service and visit.

    Uses none of the two-law functionals; cross-checks the general path.
    """
    gamma, mu = _exponential_rates(system, queue)
    moments = cycle_moments(system)
    ec = moments.cycle_mean
    ecmi = moments.partial_means[queue]
    ec2mi = moments.partial_second_moments[queue]
    return (gamma * ecmi + 1.0) ** 2 / (gamma * mu * ec) + ec2mi / (2.0 * ec)


def sojourn_lst_exponential(system: SystemSpec, queue: int, s: float) -> float:
    """Closed-form sojourn transform for exponential service and visit laws.

    The decomposition of `sojourn_lst` specialized by hand: with service
    rate mu, visit rate gamma and server-away transform A, it reads
    [E[V]/E[C] + (1 - A)/(s E[C])] mu / (mu + gamma + s - gamma A). It
    cross-checks the finite-sum functionals, not the decomposition itself,
    and forms A from the laws' transforms without the general path's
    helpers.
    """
    _check_s(s, "sojourn_lst_exponential", grid=False)
    gamma, mu = _exponential_rates(system, queue)
    if s == 0.0:
        return 1.0
    ec = cycle_moments(system).cycle_mean
    queues = system.queues
    away = float(math.prod(
        [q.visit.lst(s) for j, q in enumerate(queues) if j != queue]
        + [q.switch.lst(s) for q in queues]))
    return ((1.0 / gamma + (1.0 - away) / s) / ec
            * mu / (mu + gamma + s - gamma * away))


def sojourn_metrics(system: SystemSpec, s_grid=()) -> SojournMetrics:
    """Sojourn means for every queue plus a transform table over `s_grid`.

    Queue i's mean and row are one `_sojourn` read: one pass of its
    transform functionals over all the grid points s > 0 with the s-free
    pairs its spec does not keep yet, whose parts share term products.
    Every visit and switch-over transform runs once over the grid and is
    shared by all the rows. Entries at s = 0 are 1. `sojourn_lst` at one
    point is the one-point case of this read, so each entry equals it,
    whatever the rest of the grid. A str is not a grid.
    """
    s_values = _floats("transform grid", s_grid)
    _check_s(s_values, "sojourn_metrics")
    grid = np.array(s_values)
    s = grid[grid > 0.0]
    aways = _away_lsts(system, s) if s.size else None
    means, rows = zip(*(_sojourn(system, i, grid, aways)
                        for i in range(len(system.queues))))
    return SojournMetrics(means, s_values, np.array(rows))


#: the law and moment a `sojourn_sweep` grid value sets
_SWEEP_TARGETS = ("service_mean", "service_scv", "visit_mean", "visit_scv")


def sojourn_sweep(system: SystemSpec, queue: int, target: str, grid):
    """Sojourn means as one law of one queue is refitted over a grid.

    `target` is "service_mean", "service_scv", "visit_mean" or "visit_scv":
    the queue's law and the moment each grid value sets. At each value the
    law is refitted with `fit_two_moments`, keeping its other moment, and
    the queue gets the fitted law. Returns, per grid value in grid order,
    the pair (weighted, per_queue) of the arrival-rate weighted sojourn mean
    and the tuple of every queue's `sojourn_mean` on that system.

    Fitted laws with the same phases share one evaluation of the queue's
    four s-free pair functionals (a few, for a group past the term cap,
    see `_sweep_points`): a `_Stack` builds their term sums from
    the laws' weights and rates in one array pass and goes through each
    functional once. No spec is built per point: `_sojourn_mean` takes
    each point's cycle moments and values. Each value equals that of the
    point's own evaluation.

    Raises
    ------
    ModelError
        If a grid value admits no fitted law, naming the value, or if a
        point's system has no sojourn mean; for the first such point.
    """
    spec = _queue_checked(system, queue)
    if target not in _SWEEP_TARGETS:
        raise DomainError(f"unknown sweep target {target!r} (expected one of: "
                          f"{', '.join(_SWEEP_TARGETS)})")
    field, moment = target.split("_")
    law = getattr(spec, field)
    laws = []
    for value in _floats("sweep grid", grid):
        if moment == "mean":
            mean, scv = value, law.scv()
        else:
            mean, scv = law.mean(), value
        try:
            laws.append(fit_two_moments(mean, scv))
        except (DomainError, ModelError) as exc:
            # the points before a bad value raise their own errors first
            _sweep_points(system, queue, field, laws)
            raise ModelError(f"grid value {value:g}: {exc}") from exc
    return _sweep_points(system, queue, field, laws)


def _sweep_points(system: SystemSpec, queue: int, field: str, laws) -> list:
    """`sojourn_sweep` for the fitted laws of one field of one queue.

    Each group of laws with the same phases goes through one pass of the
    "min" and "in_visit" uses of `_pair_uses` as one `_Stack`, or as a few
    when `_stacks` cuts a long group to keep each batch within the term
    cap; a law with phases of its own is a stack of one. A point's cycle
    moments come from `_cycle_moments_from` on its laws.
    """
    spec = system.queues[queue]
    partner = spec.visit if field == "service" else spec.service
    rows = [None] * len(laws)
    for group, stack in _stacks(laws, partner):
        both = {"service": spec.service, "visit": spec.visit, field: stack}
        columns = [c.tolist() for use in _pair_uses(
            both["service"], both["visit"], ("min", "in_visit")) for c in use]
        for k, row in zip(group, zip(*columns)):
            rows[k] = row
    visits = [q.visit for q in system.queues]
    switches = [q.switch for q in system.queues]
    points = []
    for law, (p, *row) in zip(laws, rows):
        if field == "visit":
            visits[queue] = law
        moments = _cycle_moments_from(visits, switches)
        # the other queues' kept values are read per point: no grid, no pass
        per_queue = tuple(
            _sojourn_mean(moments, i, visits[i].mean(),
                          *((_completing(queue, p), *row) if i == queue
                            else sum(_values(system, i, "in_visit"), ())))
            for i in range(len(visits)))
        points.append((_rate_weighted(system, per_queue), per_queue))
    return points


def weighted_sojourn_mean(system: SystemSpec) -> float:
    """Sojourn mean of a uniformly random arriving customer.

    Averages the per-queue means with arrival-rate weights.
    """
    return _rate_weighted(system, [
        sojourn_mean(system, i) if q.arrival_rate > 0.0 else 0.0
        for i, q in enumerate(system.queues)])


def _rate_weighted(system: SystemSpec, means) -> float:
    """The arrival-rate weighted average of per-queue sojourn means."""
    rates = [q.arrival_rate for q in system.queues]
    total = sum(rates)
    if total <= 0.0:
        raise ModelError("weighted sojourn mean needs a positive total arrival rate")
    acc = 0.0
    for rate, mean in zip(rates, means):
        if rate > 0.0:
            acc += rate * mean
    return acc / total
