"""Simulation oracle for the cyclic polling model.

The simulator replays the model mechanics literally, with one attempt
rule: at each attempt a customer draws a fresh service requirement and
completes exactly when it fits inside the visit time left. A customer
waiting at a polling instant attempts with the whole visit; a customer
arriving while the server is at its queue attempts at once, with the rest
of that visit; whoever misses waits for the queue's next visit. No quantity
measured here is assumed from theory: the estimates cross-check the
analytic layer, and `single_cycle_throughput` plays one `TourState`, under
the optimizer's rules for a tour, to check `expected_throughput`.

The kernel is schedule-first. The server's visit and switch-over times do
not depend on the queue contents, and given them every customer evolves
independently of every other customer. A replication therefore works on
blocks of cycles: it draws the block's whole schedule as (cycles x N)
arrays and lays each queue's arrivals on that timeline as one Poisson
process over the whole block (a Poisson count, then that many uniform
positions, each owned by the server interval it falls in). It resolves
every customer's departure in vectorized retry rounds: a customer completes
at its first attempt whose fresh requirement B fits in the visit time left,
and otherwise moves on to its queue's next visit. The customers enter the
rounds with nondecreasing first attempts (carried customers, then arrivals
in time order), and every customer still waiting in round k has missed k
times, so it attempts at its first attempt + k. The rounds therefore carry
one index array of the waiting customers, in order, and no attempt array:
a round gathers their first attempts, finds those past the block end as a
suffix by one binary search, compares the fresh requirements with the
visits k cycles on, takes the completions by position and compresses the
index array once. Completion cycles, sojourns and tags are computed once,
after the last round, in round order.
Queue lengths at polling and visit-end instants are cumulative sums over
arrival and departure instants. The measured cycles of a block are the
suffix after the warmup, so the queue-length and pgf sums run over a slice
of the block's cycles. Customers still waiting at a block's end carry into
the next block, so memory does not grow with run length.

Ties follow the model: an arrival at a visit's exact end waits for the next
visit, and a requirement equal to the remaining visit time completes.

Randomness comes from counter-based Philox streams keyed by (master seed,
salt, replication, queue, purpose), so every replication is an
independent, reproducible stream bundle regardless of how replications
are scheduled across processes. Each call derives the keys of all the
streams it reads in one table: `_stream_keys` runs numpy's SeedSequence
hash (its pool-of-four mixing of the key's 32-bit words, then its output
hash) on every row at once as uint32 arithmetic, and `_Key`, a seed
sequence in numpy's `ISeedSequence` sense, hands each key to its Philox.
The hash takes the same steps with the same constants for every row,
whatever its words, so all rows go at once, and each key is, bit for bit,
the one SeedSequence derives from the row's tuple: every draw is that
tuple stream's draw. `run` builds the table once for every replication and
hands each replication, also in a worker process, the keys of its own
streams. Per block, a queue's count stream gives one Poisson count, its
position stream that many uniforms, and its service stream one
requirement per customer in each retry round; `single_cycle_throughput`
and `leftover_after_visit` instead draw one count per interval. Every call
builds every stream it names; a one-atom law (`Deterministic`, a one-atom
`Discrete`) draws nothing from its own. Reports aggregate replication
means in replication order, making results bit-identical for a fixed
master seed and any thread count.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .analytic import SystemSpec, _integer
from .distributions import Distribution
from .errors import DomainError
from .optimizer import (CENTRAL_POINT, SERIAL, TourState, _check_order,
                        _check_state)

__all__ = [
    "SERVED_SAME_VISIT",
    "CARRIED_FROM_VISIT",
    "OUTSIDE_VISIT",
    "SimConfig",
    "SimulationReport",
    "SingleCycleEstimate",
    "run",
    "single_cycle_throughput",
    "leftover_after_visit",
]

# sojourn arrival-phase tags
SERVED_SAME_VISIT = 0   # arrived during its queue's visit and finished in it
CARRIED_FROM_VISIT = 1  # arrived during its queue's visit, finished later
OUTSIDE_VISIT = 2       # arrived while the server was elsewhere

# stream purposes within one (replication, queue) bundle
_VISIT, _SWITCH, _COUNT, _SERVICE, _POSITION = range(5)
# salts separating the independent stream families of the two entry points
_RUN_SALT = 0x706F6C6C
_CYCLE_SALT = 0x74686574
# cycles per kernel block; bounds a replication's memory for any run length
_BLOCK_CYCLES = 4096


def _check_seeding(replications, master_seed) -> None:
    """The checks every entry point makes on its replication count and seed."""
    _integer("replications", replications)
    _integer("master_seed", master_seed)
    if replications < 1:
        raise DomainError("replications must be >= 1")
    if not 0 <= master_seed < 2**64:
        raise DomainError("master_seed must fit in 64 bits")


@dataclass(frozen=True)
class SimConfig:
    """Run lengths and seeding for `run`.

    pgf_points lists (queue, z-vector) pairs; for each, the run estimates the
    joint queue-length generating function at that queue's polling instants.
    """

    warmup_cycles: int = 1_000
    measured_cycles: int = 100_000
    replications: int = 10
    master_seed: int = 0
    pgf_points: tuple[tuple[int, tuple[float, ...]], ...] = ()

    def __post_init__(self):
        _integer("warmup_cycles", self.warmup_cycles)
        _integer("measured_cycles", self.measured_cycles)
        if self.warmup_cycles < 0:
            raise DomainError("warmup_cycles must be >= 0")
        if self.measured_cycles < 1:
            raise DomainError("measured_cycles must be >= 1")
        _check_seeding(self.replications, self.master_seed)
        points = tuple((_integer("pgf point queue index", q),
                        tuple(float(z) for z in zs))
                       for q, zs in self.pgf_points)
        if not all(math.isfinite(z) for _, zs in points for z in zs):
            raise DomainError("pgf_points z values must be finite")
        object.__setattr__(self, "pgf_points", points)


@dataclass(frozen=True)
class SimulationReport:
    """Replication-averaged estimates with across-replication standard errors.

    Matrix estimates are indexed like their analytic counterparts:
    polling_means[i, j] is the queue-j count at queue i's polling instant.
    sojourn_phase_means splits per-queue sojourns by arrival phase
    (SERVED_SAME_VISIT, CARRIED_FROM_VISIT, OUTSIDE_VISIT columns).
    per_replication maps metric names to per-replication value arrays, in a
    fixed insertion order, for tabular export. summary is the (means,
    stderrs) pair of one summary pass over those arrays, entry k for the
    k-th metric; every estimate and standard error above is its share of
    that pass, except the pooled sojourn_phase_means and counts.
    """

    replications: int
    measured_cycles: int
    warmup_cycles: int
    master_seed: int
    polling_means: np.ndarray
    polling_stderr: np.ndarray
    visit_end_means: np.ndarray
    visit_end_stderr: np.ndarray
    sojourn_means: np.ndarray
    sojourn_stderr: np.ndarray
    sojourn_phase_means: np.ndarray
    sojourn_phase_counts: np.ndarray
    completion_fraction: np.ndarray
    completion_stderr: np.ndarray
    throughput_mean: float
    throughput_stderr: float
    per_queue_throughput: np.ndarray
    pgf_estimates: np.ndarray | None
    pgf_stderr: np.ndarray | None
    per_replication: dict[str, np.ndarray] = field(repr=False)
    summary: tuple[np.ndarray, np.ndarray] = field(repr=False)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """init, init * mult, init * mult**2, ... modulo 2**32: n uint32s."""
    out = [init]
    while len(out) < n:
        out.append(out[-1] * mult % 2**32)
    return np.array(out, dtype=np.uint32)


# the pool's 4 words, 12 cross mixes and 4 mixes for each of at most two
# further words (a master seed below 2**64 takes at most 2 words) take 24
# hashmix steps, step k reading constants k and k + 1
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 25)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 5)


def _hashmix(value: np.ndarray, k: int, n: int) -> np.ndarray:
    """numpy's `hashmix` as steps k to k + n - 1, one per column of value."""
    value = (value ^ _HASH_A[k:k + n]) * _HASH_A[k + 1:k + n + 1]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's `mix` of pool words x with hashed words y."""
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    return out ^ (out >> 16)


def _stream_keys(master_seed: int, salt: int, rows) -> np.ndarray:
    """The Philox key of each (rep, queue, purpose) row, as (rows, 2) uint64s.

    Row i holds np.random.SeedSequence((master_seed, salt, *rows[i]))
    .generate_state(2, np.uint64), the key a Philox seeded with that tuple
    takes, bit for bit. The seed sequence splits each int into
    little-endian 32-bit words, hashes the first four into its pool of
    four, mixes every pool word into every other one and each further word
    into all four, and hashes the pool into the key, each step with the
    next of a fixed run of constants; here every step acts on all rows at
    once, in uint32 arithmetic, which wraps as numpy's C code does. A
    Python int makes a negative seed raise, as the tuple does, where a
    numpy int would wrap.
    """
    words, high = [], operator.index(master_seed)
    while high >= 2**32:
        high, low = divmod(high, 2**32)
        words.append(low)
    words += (high, salt)
    rows = np.asarray(rows, dtype=np.uint32).reshape(-1, 3)
    entropy = np.empty((len(rows), len(words) + 3), dtype=np.uint32)
    entropy[:, :len(words)] = words
    entropy[:, len(words):] = rows

    pool = _hashmix(entropy[:, :4], 0, 4)
    k = 4
    # a source word is not changed while it is mixed into the other three
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src:src + 1], k, 3))
        k += 3
    for word in range(4, entropy.shape[1]):
        pool = _mix(pool, _hashmix(entropy[:, word:word + 1], k, 4))
        k += 4
    state = (pool ^ _HASH_B[:4]) * _HASH_B[1:]
    state ^= state >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Key:
    """A seed sequence whose state is one row of `_stream_keys`.

    Philox asks a seed sequence, an instance of numpy's `ISeedSequence`,
    for generate_state(2, np.uint64) and takes that as its key, so a
    Philox built on this one starts exactly where one built on the row's
    tuple starts, without a SeedSequence. `_generators` registers the
    class.
    """

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _generators(keys) -> list[np.random.Generator]:
    """One Generator per Philox key of `keys`, in order."""
    # registered here, where streams are built in any process, and not at
    # import, which would load numpy.random with the package (about 17 ms);
    # registering again returns at once
    np.random.bit_generator.ISeedSequence.register(_Key)
    return [np.random.Generator(np.random.Philox(_Key(key))) for key in keys]


def _streams(master_seed: int, salt: int, rows: list) -> dict:
    """A Generator for each (rep, queue, purpose) row of `rows`."""
    return dict(zip(rows, _generators(_stream_keys(master_seed, salt, rows))))


def _arrivals(rate: float, lengths: np.ndarray, count_rng: np.random.Generator,
              position_rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Poisson arrivals over independent intervals of the given lengths.

    Draws one Poisson count per interval; returns each arrival's interval
    index and its offset from that interval's start, uniform on
    [0, length) given the count. `single_cycle_throughput` and
    `leftover_after_visit` use it, one interval per replication; `run`
    draws over a block's timeline with `_timeline_arrivals` instead.
    """
    counts = count_rng.poisson(rate * lengths)
    owner = np.repeat(np.arange(lengths.size), counts)
    return owner, position_rng.random(owner.size) * lengths[owner]


def _timeline_arrivals(rate: float, ends: np.ndarray,
                       count_rng: np.random.Generator,
                       position_rng: np.random.Generator
                       ) -> tuple[np.ndarray, np.ndarray]:
    """One Poisson process over consecutive intervals ending at `ends`.

    Draws a single count over [0, ends[-1]) and sorted uniform arrival
    times on it. Returns each arrival's interval index and its time; an
    arrival exactly at an interval's end belongs to the next interval, so
    zero-length intervals own none. Times stay below ends[-1], since a
    uniform below 1 times a float rounds below it.
    """
    horizon = ends[-1]
    at = np.sort(position_rng.random(count_rng.poisson(rate * horizon)) * horizon)
    return np.searchsorted(ends, at, side="right"), at


def _retry_rounds(attempt, arrival, offset, tag, visit, polled_at, service,
                  rng):
    """Resolve one queue's customers over one block of cycles.

    attempt holds each customer's first attempt cycle within the block,
    arrival its arrival time, offset how far into that attempt's visit it
    starts (nonzero only for an arrival during the visit) and tag its
    arrival phase; visit and polled_at are the queue's visit lengths and
    polling instants per cycle. Each round draws a fresh requirement b from
    `service` for every customer still inside the block, in order, and a
    customer completes when offset + b <= visit[attempt]. A miss moves it to
    the queue's next visit with offset 0, and a SERVED_SAME_VISIT tag
    becomes CARRIED_FROM_VISIT. Returns the completing cycle, sojourn time
    and tag of every customer served in the block, then the arrival time
    and tag of every customer still waiting at its end.

    attempt must be nondecreasing, as it is for carried customers (all 0)
    followed by arrivals in time order. The rounds carry only `who`, the
    input indices of the customers still waiting, in input order: a
    customer still waiting in round k missed k times, so it attempts in
    cycle attempt[who] + k, and attempt[who] is nondecreasing. The
    customers past the block end are then always a suffix, found by one
    `searchsorted`; a round gathers the completions by their positions and
    compresses only `who`. Both outputs list the customers in round order
    (within a round, in input order), the order in which the rounds read
    `rng`; it fixes the order of every sum over the outputs and of the next
    block's carried customers, so keeping it keeps every seeded result.
    """
    cycles = visit.size
    who = np.arange(attempt.size)
    whos, bs, kept = [], [], []
    # round `cycles` finds every customer past the block end, if none before
    for k in range(cycles + 1):
        first = attempt[who] if k else attempt
        cut = first.searchsorted(cycles - k)
        kept.append(who[cut:])
        if not cut:
            break
        who = who[:cut]
        b = service.sample(rng, cut)
        # only a first attempt, in round 0, can start inside its visit
        ok = (b if k else offset[:cut] + b) <= visit[k:][first[:cut]]
        hit = ok.nonzero()[0]
        whos.append(who.take(hit))
        bs.append(b.take(hit))
        who = who[~ok]

    # the customers of later rounds missed once: they attempt from offset 0,
    # and the tags are ordered, so a miss turns SERVED_SAME_VISIT into
    # CARRIED_FROM_VISIT
    sizes = [w.size for w in whos]
    first_done = sizes[0] if sizes else 0
    first_kept = kept[0].size
    done_who = np.concatenate([who[:0], *whos])
    b = np.concatenate([offset[:0], *bs])
    done = attempt[done_who] + np.repeat(np.arange(len(sizes)), sizes)
    start = np.zeros(b.size)
    start[:first_done] = offset[done_who[:first_done]]
    # polled_at - arrival and offset cancel exactly for an arrival during the
    # visit, which is then in the system for exactly b
    sojourn = polled_at[done] - arrival[done_who] + start + b
    kept = np.concatenate(kept)
    done_tag, kept_tag = tag[done_who], tag[kept]
    for tags, first in ((done_tag, first_done), (kept_tag, first_kept)):
        np.maximum(tags[first:], CARRIED_FROM_VISIT, out=tags[first:])
    return done, sojourn, done_tag, arrival[kept], kept_tag


def _simulate_replication(system: SystemSpec, config: SimConfig,
                          keys: dict) -> dict:
    """One independent replication; returns its raw sums over the measured cycles.

    x_sum[i, j] and y_sum[i, j] add up queue j's count at queue i's polling
    and visit-end instants, phase_sum[j, tag] and phase_count[j, tag] the
    sojourns and completions of queue j per arrival phase, and pgf_sum[k]
    the terms of pgf point k. Each is kept once, undivided: `run` derives
    every per-replication metric from them. `keys` maps the (queue,
    purpose) pair of each of the replication's streams to its Philox key.
    """
    queues = system.queues
    n = len(queues)
    gen = dict(zip(keys, _generators(keys.values())))

    x_sum = np.zeros((n, n))
    y_sum = np.zeros((n, n))
    phase_sum = np.zeros((n, 3))
    phase_count = np.zeros((n, 3))
    pgf_sum = np.zeros(len(config.pgf_points))
    # customers waiting at a block start, per queue: arrival time relative
    # to that start and arrival-phase tag; their next attempt is the block's
    # first visit to the queue
    carry_time = [np.empty(0)] * n
    carry_tag = [np.empty(0, dtype=np.intp)] * n

    total = config.warmup_cycles + config.measured_cycles
    for first in range(0, total, _BLOCK_CYCLES):
        cycles = min(_BLOCK_CYCLES, total - first)
        # the block's measured cycles are its suffix from cycle lo on
        lo = min(max(config.warmup_cycles - first, 0), cycles)
        visits = np.column_stack([q.visit.sample(gen[j, _VISIT], cycles)
                                  for j, q in enumerate(queues)])
        switches = np.column_stack([q.switch.sample(gen[j, _SWITCH], cycles)
                                    for j, q in enumerate(queues)])
        # the server's intervals in time order: interval 2(c n + i) is the
        # visit to queue i in cycle c and the next one its switch-over;
        # boundary k is the start of interval k
        ends = np.cumsum(np.stack((visits, switches), axis=2).ravel())
        starts = np.concatenate(([0.0], ends[:-1]))
        # one row per measured cycle: the sum down the rows adds each
        # point's terms one cycle after another
        pgf_terms = np.ones((cycles - lo, len(config.pgf_points)))

        for j, queue in enumerate(queues):
            owner, at = _timeline_arrivals(queue.arrival_rate, ends,
                                           gen[j, _COUNT], gen[j, _POSITION])
            cycle, slot = np.divmod(owner, 2 * n)
            own = slot == 2 * j
            carried = carry_time[j].size

            # an arrival during the queue's own visit attempts at once, with
            # the rest of that visit; any other first attempts at the queue's
            # next visit, in this cycle when the arrival precedes it
            attempt = cycle + (slot > 2 * j)
            arrival = at
            offset = np.where(own, at - starts[owner], 0.0)
            tag = np.where(own, SERVED_SAME_VISIT, OUTSIDE_VISIT)
            if carried:
                # carried customers come first and attempt at the block's
                # first visit to the queue, with the whole of it
                attempt = np.concatenate((np.zeros(carried, dtype=np.intp),
                                          attempt))
                arrival = np.concatenate((carry_time[j], at))
                offset = np.concatenate((np.zeros(carried), offset))
                tag = np.concatenate((carry_tag[j], tag))

            done, sojourn, done_tag, kept_time, kept_tag = _retry_rounds(
                attempt, arrival, offset, tag, visits[:, j],
                starts[2 * j::2 * n], queue.service, gen[j, _SERVICE])
            # completions before cycle lo go to bins 3-5, which are dropped;
            # each bin sums its sojourns in round order
            bins = done_tag + 3 * (done < lo)
            phase_sum[j] += np.bincount(bins, weights=sojourn, minlength=6)[:3]
            phase_count[j] += np.bincount(bins, minlength=6)[:3]

            # a customer is present at the boundaries after its arrival
            # interval up to and including its completing visit's start; one
            # served in its arrival visit arrives and leaves at that visit's
            # end, so it is never present. step[k] is the change in the count
            # at boundary k; no arrival or departure changes it at boundary 0,
            # which starts from the carried customers
            step = np.bincount(owner + 1, minlength=ends.size + 1)[:-1]
            step[0] = carried
            step.reshape(cycles, n, 2)[:, j, 1] -= np.bincount(done,
                                                               minlength=cycles)
            present = np.cumsum(step).reshape(cycles, n, 2)[lo:]
            seen = present.sum(axis=0)
            x_sum[:, j] += seen[:, 0]
            y_sum[:, j] += seen[:, 1]
            for k, (pq, zs) in enumerate(config.pgf_points):
                pgf_terms[:, k] *= np.power(zs[j], present[:, pq, 0])

            carry_time[j] = kept_time - ends[-1]
            carry_tag[j] = kept_tag

        pgf_sum += pgf_terms.sum(axis=0)

    return {"x_sum": x_sum, "y_sum": y_sum, "phase_sum": phase_sum,
            "phase_count": phase_count, "pgf_sum": pgf_sum}


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.full(np.shape(num), np.nan)
    mask = np.asarray(den) > 0
    out[mask] = np.asarray(num)[mask] / np.asarray(den)[mask]
    return out


def _mean_and_stderr(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Replication mean and standard error along axis 0, nan-tolerant.

    The replications move to a contiguous last axis, so numpy sums them in
    one pairwise order: a stack and a single metric agree bit for bit.
    """
    arr = np.ascontiguousarray(np.moveaxis(np.asarray(stack, dtype=float), 0, -1))
    valid = ~np.isnan(arr)
    counts = valid.sum(axis=-1)
    filled = np.where(valid, arr, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(counts > 0, filled.sum(axis=-1) / np.maximum(counts, 1),
                        np.nan)
        centered = np.where(valid, arr - mean[..., None], 0.0)
        ssq = (centered ** 2).sum(axis=-1)
        spread = np.sqrt(ssq / np.maximum(counts - 1, 1))
        stderr = np.where(counts > 1, spread / np.sqrt(np.maximum(counts, 1)),
                          np.nan)
    return mean, stderr


def run(system: SystemSpec, config: SimConfig, threads: int = 1) -> SimulationReport:
    """Simulate the system and estimate every measured quantity.

    Parameters
    ----------
    threads : int
        Number of worker processes for replications. Estimates are
        bit-identical for any value, since each replication owns
        seed-derived streams and aggregation runs in replication order.
    """
    n = len(system.queues)
    for q, zs in config.pgf_points:
        if not 0 <= q < n:
            raise DomainError(f"pgf point queue index {q} out of range")
        if len(zs) != n:
            raise DomainError("pgf point z-vector length must match queue count")

    reps = config.replications
    # one key table for every replication, five streams per queue
    pairs = [(j, purpose) for j in range(n) for purpose in range(5)]
    table = _stream_keys(config.master_seed, _RUN_SALT,
                         [(r, *pair) for r in range(reps) for pair in pairs])
    keys = [dict(zip(pairs, rep_keys))
            for rep_keys in table.reshape(reps, len(pairs), 2)]
    if threads > 1 and reps > 1:
        # imported here, so that a single-worker caller never loads
        # multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, reps)) as pool:
            futures = [pool.submit(_simulate_replication, system, config, k)
                       for k in keys]
            results = [f.result() for f in futures]
    else:
        results = [_simulate_replication(system, config, k) for k in keys]

    def stack(key):
        return np.stack([res[key] for res in results])

    # every per-replication metric, from the kernel's raw sums: each block
    # holds its metric names and a (replications, ...) array of their values
    m = float(config.measured_cycles)
    x_sum = stack("x_sum")
    phase_sum = stack("phase_sum")
    phase_count = stack("phase_count")
    served = phase_count.sum(axis=2)
    per_rep_theta_queue = served / m
    ids = range(1, n + 1)
    pairs = [f"{i},{j}" for i in ids for j in ids]
    # in tag order: SERVED_SAME_VISIT, CARRIED_FROM_VISIT, OUTSIDE_VISIT
    phases = ("served_same_visit", "carried_from_visit", "outside_visit")
    blocks = {
        "polling": ([f"polling_mean[{ij}]" for ij in pairs], x_sum / m),
        "visit_end": ([f"visit_end_mean[{ij}]" for ij in pairs],
                      stack("y_sum") / m),
        "sojourn": ([f"sojourn_mean[{i}]" for i in ids],
                    _ratio(phase_sum.sum(axis=2), served)),
        "phase": ([f"sojourn_mean_{name}[{i}]" for i in ids for name in phases],
                  _ratio(phase_sum, phase_count)),
        "completion": ([f"completion_fraction[{i}]" for i in ids],
                       _ratio(phase_count[..., 1:].sum(axis=2),
                              x_sum.diagonal(axis1=1, axis2=2))),
        # the sum of the per-queue rates: served.sum(axis=1) / m rounds
        # differently and would move the seeded outputs
        "total": (["throughput_per_cycle"], per_rep_theta_queue.sum(axis=1)),
        "per_queue": ([f"throughput_per_cycle[{i}]" for i in ids],
                      per_rep_theta_queue),
        "pgf": ([f"pgf[q{pq + 1};z={','.join(format(z, 'g') for z in zs)}]"
                 for pq, zs in config.pgf_points], stack("pgf_sum") / m),
    }
    table = np.concatenate([values.reshape(reps, -1)
                            for _, values in blocks.values()], axis=1)
    per_replication = dict(zip(
        [name for names, _ in blocks.values() for name in names], table.T))
    # one summary pass over every metric, then each block's share of it
    summary = _mean_and_stderr(table)
    cuts = np.cumsum([len(names) for names, _ in blocks.values()])[:-1]
    mean, se = (dict(zip(blocks, np.split(a, cuts))) for a in summary)
    phase_counts = phase_count.sum(axis=0)
    has_pgf = bool(config.pgf_points)

    return SimulationReport(
        replications=reps,
        measured_cycles=config.measured_cycles,
        warmup_cycles=config.warmup_cycles,
        master_seed=config.master_seed,
        polling_means=mean["polling"].reshape(n, n),
        polling_stderr=se["polling"].reshape(n, n),
        visit_end_means=mean["visit_end"].reshape(n, n),
        visit_end_stderr=se["visit_end"].reshape(n, n),
        sojourn_means=mean["sojourn"],
        sojourn_stderr=se["sojourn"],
        sojourn_phase_means=_ratio(phase_sum.sum(axis=0), phase_counts),
        sojourn_phase_counts=phase_counts,
        completion_fraction=mean["completion"],
        completion_stderr=se["completion"],
        throughput_mean=float(mean["total"][0]),
        throughput_stderr=float(se["total"][0]),
        per_queue_throughput=mean["per_queue"],
        pgf_estimates=mean["pgf"] if has_pgf else None,
        pgf_stderr=se["pgf"] if has_pgf else None,
        per_replication=per_replication,
        summary=summary,
    )


@dataclass(frozen=True)
class SingleCycleEstimate:
    """Monte Carlo estimate of customers served in one cycle from a fixed state."""

    mean: float
    stderr: float
    per_queue_mean: np.ndarray
    replications: int


def single_cycle_throughput(system: SystemSpec, order, state,
                            replications: int = 10_000,
                            master_seed: int = 0) -> SingleCycleEstimate:
    """Estimate the expected number of services in one tour from `state`.

    `state` is a `TourState`, or a count sequence read in the mode the
    system implies: central-point with travel laws, serial without. The
    order obeys `expected_throughput`'s rule. A central-point visit is
    wrapped in its approach and return travel times; a serial tour has no
    approach and returns by the switch-over. Customers present at the start
    and all customers arriving during the tour behave exactly as in `run`;
    completions of both kinds count.

    No step needs a guard for a zero arrival rate or an empty draw: a
    Poisson mean of 0 and a sample of size 0 read nothing from their
    Generator, so every later draw on its stream is the same as if the
    step had been skipped.
    """
    if not isinstance(state, TourState):
        state = TourState(state, CENTRAL_POINT if system.has_central_point
                          else SERIAL)
    _check_state(system, state)
    order = _check_order(state, order)
    _check_seeding(replications, master_seed)
    central = state.mode == CENTRAL_POINT

    reps = replications
    rep_ids = np.arange(reps)
    per_queue = np.zeros((len(state.counts), reps))
    elapsed = np.zeros(reps)

    # bundle 0 of a queue holds its visit, count, service and position
    # streams and, in a serial tour, the switch-over's; bundles 1 and 2 the
    # approach and return streams of a central-point tour
    legs = ((1, _SWITCH), (2, _SWITCH)) if central else ((0, _SWITCH),)
    gen = _streams(master_seed, _CYCLE_SALT,
                   [(bundle, q, purpose) for q in order
                    for bundle, purpose in ((0, _VISIT), (0, _COUNT), (0, _SERVICE),
                                            (0, _POSITION), *legs)])

    for q in order:
        spec = system.queues[q]
        if central:
            elapsed = elapsed + spec.approach.sample(gen[1, q, _SWITCH], reps)
            after, after_rng = spec.return_, gen[2, q, _SWITCH]
        else:
            after, after_rng = spec.switch, gen[0, q, _SWITCH]
        v = spec.visit.sample(gen[0, q, _VISIT], reps)
        rate = spec.arrival_rate
        count_rng, service_rng = gen[0, q, _COUNT], gen[0, q, _SERVICE]

        # the customers present at the polling instant attempt with the
        # whole visit, then the visit's arrivals with the rest of it
        owner = np.repeat(rep_ids,
                          state.counts[q] + count_rng.poisson(rate * elapsed))
        b = spec.service.sample(service_rng, owner.size)
        per_queue[q] += np.bincount(owner[b <= v[owner]], minlength=reps)
        owner, t_a = _arrivals(rate, v, count_rng, gen[0, q, _POSITION])
        b = spec.service.sample(service_rng, owner.size)
        per_queue[q] += np.bincount(owner[t_a + b <= v[owner]], minlength=reps)

        elapsed = elapsed + v + after.sample(after_rng, reps)

    mean, stderr = _mean_and_stderr(per_queue.sum(axis=0))
    return SingleCycleEstimate(mean=float(mean), stderr=float(stderr),
                               per_queue_mean=_mean_and_stderr(per_queue.T)[0],
                               replications=reps)


def leftover_after_visit(arrival_rate: float, service: Distribution,
                         visit: Distribution, replications: int = 10_000,
                         master_seed: int = 0) -> np.ndarray:
    """Counts left behind by single visits to an initially empty queue.

    Each replication plays one visit: the visit time is drawn, customers
    arrive in a Poisson stream over it, each starts service on arrival and
    leaves if the service fits before the visit ends. The returned array
    holds the number still present at the visit end, one entry per
    replication (the raw material for distributional checks).
    """
    if not math.isfinite(arrival_rate) or arrival_rate < 0.0:
        raise DomainError(f"arrival_rate must be finite and >= 0, "
                          f"got {arrival_rate!r}")
    _check_seeding(replications, master_seed)
    gen = _streams(master_seed, _CYCLE_SALT,
                   [(3, 0, purpose)
                    for purpose in (_VISIT, _COUNT, _SERVICE, _POSITION)])
    v = visit.sample(gen[3, 0, _VISIT], replications)
    owner, t_a = _arrivals(arrival_rate, v, gen[3, 0, _COUNT], gen[3, 0, _POSITION])
    b = service.sample(gen[3, 0, _SERVICE], owner.size)
    stay = owner[t_a + b > v[owner]]
    return np.bincount(stay, minlength=replications)
