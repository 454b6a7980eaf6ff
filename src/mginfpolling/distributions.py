"""Nonnegative time distributions with closed-form transforms.

Six families cover every law the analytic pipeline needs: exponential,
deterministic, Erlang, mixed Erlang, two-phase hyperexponential, and finite
discrete. Each exposes closed-form moments, the survival function, the
Laplace-Stieltjes transform on real s >= 0, the integrated survival function
(the workhorse behind residual laws), and reproducible sampling from a numpy
Generator.

Each family adds only its parameters and their checks to one of two private
bases that own all of its formulas and its sampler: `_ErlangMixture` for
the four continuous families, finite mixtures of Erlang components, and
`_Atomic` for the deterministic and discrete laws, finite sets of atoms (the
phase-type view of Neuts, Matrix-Geometric Solutions in Stochastic Models,
1981). On either base, survival functions, densities and tail integrals are
finite sums of terms c x^p exp(-r x) 1{x < u}, and a draw picks a component
or an atom by its weight.

Two-law functionals live here as free functions: the completion probability
P[B <= V], the expected minimum of two independent laws, survival-product
integrals, the outcome-split transforms of one visit attempt, and the
served-in-visit term of the sojourn time. Each is a finite sum of
incomplete-gamma integrals of products of such terms, in log space.

Every such functional is a part of a pass (`_pass`): an expectation of a
term sum under a law, or the integral of a product of two survival sums,
each times x^moment exp(-s x). A pass builds each distinct term product
once, integrates the terms of all of its parts in one sweep (`_integral`),
and sums each part's own slice of them, so every value has the bits of
its part evaluated alone. The public functionals are passes of one or two
parts, and `_pair_uses` runs the uses of a queue's (service, visit) pair
that the analysis reads, each use one pass or several uses in one.

One rule holds for every evaluation here: a one-point call is the one-row
case of the grid pass. A law's `lst`, `survival` and `integrated_survival`
run a scalar argument through their array code. The functionals of a
transform argument s (`survival_product_integral`, `attempt_lst` and
`served_in_visit`) take a scalar or a 1-D grid of s, which rides on the
rates as a leading axis. A `_Stack` of Erlang mixtures with the same phases
stands in for one law of a pair and puts one row per law on the
coefficients and the rates. Weighted sums over atoms and components go
through `_dot`, which multiplies elementwise and lets numpy sum each row,
with no BLAS product, and a pass sums its integrated terms the same way: a
row, or a slice of one, is summed as a lone row is, so a grid entry has the
bits of its one-point call, and no value depends on the BLAS kernel.

Every incomplete gamma function met here has an integer shape a, so it is a
Poisson tail: P(a, x) = P[Poisson(x) >= a]. `_gamma_pq` sums the side of
the Poisson law away from its mode, outward from the term next to a, and
takes that term from the saddle-point form of C. Loader, "Fast and Accurate
Computation of Binomial Probabilities" (2000). The package needs numpy and
the standard library only.

The two-moment fitting recipes used by parameter sweeps are also here:
`fit_mixed_erlang` for squared coefficients of variation at or below one and
`fit_hyperexponential` above one, with `fit_two_moments` dispatching between
them.
"""
from __future__ import annotations

import abc
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericsError

__all__ = [
    "Distribution",
    "Exponential",
    "Deterministic",
    "Erlang",
    "MixedErlang",
    "HyperExponential",
    "Discrete",
    "has_atom_at_zero",
    "survival_product_integral",
    "expected_min",
    "completion_probability",
    "attempt_lst",
    "served_in_visit",
    "fit_mixed_erlang",
    "fit_hyperexponential",
    "fit_two_moments",
]


class Distribution(abc.ABC):
    """A nonnegative random time with closed-form transforms.

    Subclasses provide exact moments (as the pair `_moments`), the (strict)
    survival function P[Y > x], the Laplace-Stieltjes transform on real
    s >= 0, the integrated survival function, and sampling. Atomic laws
    additionally expose their atoms; continuous laws expose a density and
    their Erlang components. `sample(rng, size)` returns a float for
    size=None and otherwise a float64 ndarray of shape `size`.
    """

    #: ((value, probability), ...) for atomic laws, None for continuous ones.
    atoms: tuple[tuple[float, float], ...] | None = None
    #: ((weight, phases, rate), ...) for continuous laws, None for atomic ones.
    components: tuple[tuple[float, int, float], ...] | None = None
    #: (E[Y], E[Y^2]); each base computes it once per law.
    _moments: tuple[float, float]

    def mean(self) -> float:
        """E[Y]."""
        return self._moments[0]

    def second_moment(self) -> float:
        """E[Y^2]."""
        return self._moments[1]

    def variance(self) -> float:
        return self.second_moment() - self.mean() ** 2

    def scv(self) -> float:
        """Squared coefficient of variation Var[Y] / E[Y]^2."""
        m = self.mean()
        if m <= 0.0:
            raise DomainError("scv undefined for a zero-mean law")
        return self.variance() / m**2

    @abc.abstractmethod
    def survival(self, x):
        """P[Y > x], elementwise on arrays."""

    def cdf(self, x):
        """P[Y <= x], elementwise on arrays."""
        return 1.0 - self.survival(x)

    def pdf(self, x):
        """Density at x; only continuous families implement this."""
        raise DomainError(f"{type(self).__name__} has no density")

    @abc.abstractmethod
    def lst(self, s):
        """E[exp(-s Y)] for real s >= 0, elementwise on arrays."""

    @abc.abstractmethod
    def integrated_survival(self, x):
        """Integral of the survival function from 0 to x, elementwise."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size=None):
        """Draw variates from `rng`.

        Returns a float for size=None; for an int or tuple `size`, a float64
        ndarray of that shape.
        """


def _check_rate(rate: float, name: str = "rate") -> float:
    rate = float(rate)
    if not (rate > 0.0) or not math.isfinite(rate):
        raise DomainError(f"{name} must be positive and finite, got {rate!r}")
    return rate


class _ErlangMixture(Distribution):
    """A finite mixture of Erlang laws, given by the subclass's `components`.

    Moments, survival, density, transform, integrated survival and sampling
    all follow from the components of positive weight.
    """

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The positive-weight components as read-only arrays (w, k, r)."""
        arrays = np.array([c for c in self.components if c[0] > 0.0],
                          dtype=float).T.copy()
        arrays.flags.writeable = False
        return tuple(arrays)

    def _rows(self):
        """The components of `_arrays` as Python (w, k, r) triples."""
        return zip(*(a.tolist() for a in self._arrays))

    @functools.cached_property
    def _moments(self) -> tuple[float, float]:
        return (sum(w * k / r for w, k, r in self._rows()),
                sum(w * k * (k + 1) / r**2 for w, k, r in self._rows()))

    def survival(self, x):
        return _evaluate_points(self._survival_terms, np.maximum(x, 0.0))

    def pdf(self, x):
        return _evaluate_points(self._density_terms, np.maximum(x, 0.0))

    def lst(self, s):
        """E[exp(-s Y)], also for s < 0 down to minus the smallest rate.

        Below zero this is the moment generating function at -s, which is
        finite only while s exceeds minus the rate of every component of
        positive weight.
        """
        s = np.asarray(s, dtype=float)
        rate = float(self._arrays[2].min())
        if (s <= -rate).any():
            raise DomainError(f"lst needs s > {-rate!r}, minus the smallest "
                              "component rate")
        # a scalar s is the one-point grid, so it meets numpy's power as
        # every entry of an array s does
        grid = s.reshape(-1)
        return sum(w * (r / (r + grid)) ** k
                   for w, k, r in self._rows()).reshape(s.shape)[()]

    def integrated_survival(self, x):
        # E[min(Y, x)] = E[Y; Y < x] + x P[Y >= x], and for Erlang(k, r)
        # E[Y; Y < x] = k / r P(k + 1, r x)
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        infinite = x == np.inf
        x = np.where(infinite, 0.0, x)
        w, k, r = self._arrays
        below = _dot(_gamma_p(k.astype(int) + 1, r * x[..., None]), w * k / r)
        return np.where(infinite, self.mean(), below + x * self.survival(x))[()]

    # The law as sums of terms c x^p exp(-r x) 1{x < u}, each built once.

    @functools.cached_property
    def _erlang_parts(self) -> tuple[tuple, tuple]:
        """What all three term sums read, built once (see `_erlang_terms`).

        Raises `NumericsError` when one law's row of the per-phase arrays,
        its phase total, would hold more than `_MAX_TERMS` terms.
        """
        w, k, r = self._arrays
        _check_terms("per-phase arrays", int(k.sum()))
        logw = np.fromiter(map(math.log, w.ravel().tolist()), float,
                           w.size).reshape(w.shape)
        component = (logw, np.log(r), r, k)
        phases = k.astype(int).tolist()
        comp = [c for c, n in enumerate(phases) for _ in range(n)]
        j = np.array([float(i) for n in phases for i in range(n)])
        return ((*component, np.array([math.lgamma(x) for x in k.tolist()])),
                (*(a.take(comp, axis=-1) for a in component), j,
                 np.array([math.lgamma(x + 1) for x in j.tolist()])))

    @functools.cached_property
    def _survival_terms(self) -> _Terms:
        """P[Y > x]: the tail sum (r x)^j / j! e^{-r x}, j < k, of each component."""
        return _erlang_terms("survival", self._erlang_parts)

    @functools.cached_property
    def _density_terms(self) -> _Terms:
        """The density: r^k x^(k-1) e^{-r x} / (k-1)! per component."""
        return _erlang_terms("density", self._erlang_parts)

    @functools.cached_property
    def _tail_terms(self) -> _Terms:
        """E[(Y - x)^+], the integral of the survival function beyond x."""
        return _erlang_terms("tail", self._erlang_parts)

    @functools.cached_property
    def _draw_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What `sample` reads: the `_pick` edges, phases and 1 / rate."""
        w, k, r = self._arrays
        scale = 1 / r
        scale.flags.writeable = False
        return _pick_edges(w), k, scale

    def sample(self, rng, size=None):
        edges, k, scale = self._draw_arrays
        pick = _pick(edges, rng, size)
        return rng.standard_gamma(k[pick], size) * scale[pick]


class _Atomic(Distribution):
    """A finite set of atoms, given by the subclass's `atoms`.

    Moments, survival, transform, integrated survival and sampling all
    follow from the atoms.
    """

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The atoms as read-only arrays (values, weights), values ascending."""
        arrays = np.array(self.atoms, dtype=float).T.copy()
        arrays.flags.writeable = False
        return tuple(arrays)

    @functools.cached_property
    def _moments(self) -> tuple[float, float]:
        values, weights = self._arrays
        return _dot(values, weights), _dot(values**2, weights)

    def survival(self, x):
        values, weights = self._arrays
        x = np.asarray(x, dtype=float)
        # the weight of the atoms above x, so a tiny tail is not lost to 1 - F
        return np.minimum(_dot(x[..., None] < values, weights), 1.0)

    def lst(self, s):
        values, weights = self._arrays
        s = np.asarray(s, dtype=float)
        return _dot(np.exp(-s[..., None] * values), weights)

    def integrated_survival(self, x):
        values, weights = self._arrays
        x = np.asarray(x, dtype=float)
        return _dot(np.minimum(x[..., None], values), weights)

    @functools.cached_property
    def _survival_terms(self) -> _Terms:
        """P[Y > x]: the weight of each atom above x."""
        values, weights = self._arrays
        return _terms(np.log(weights), 1.0, 0.0, 0.0, values)

    @functools.cached_property
    def _tail_terms(self) -> _Terms:
        """E[(Y - x)^+]: w (v - x) for each atom v above x."""
        values, weights = self._arrays
        with np.errstate(divide="ignore"):
            log_wv = np.log(weights * values)
        return _terms(np.concatenate([log_wv, np.log(weights)]),
                      np.repeat([1.0, -1.0], len(values)),
                      np.repeat([0.0, 1.0], len(values)), 0.0,
                      np.tile(values, 2))

    def _expect(self, g: _Terms, moment: int = 0, s=0.0, left: bool = False):
        """E[Y^moment exp(-s Y) g(Y)] over the atoms, g(y-) when `left`.

        A float for a scalar s, one value per entry of a 1-D array s, and
        one value per law for a `g` of a `_Stack`. Raises `NumericsError`
        when one grid row, every term at every atom, would hold more than
        `_MAX_TERMS` terms.
        """
        values, weights = self._arrays
        per_row = g.sign.size * values.size
        _check_terms("term sum over the atoms", per_row)

        def expect(s):
            t = _weighted(g, moment, s)
            # each grid row of coefficients and rates meets every atom
            return _dot(_evaluate(_Terms(t.logc[..., None, :], t.sign, t.p,
                                         t.r[..., None, :], t.u), values, left),
                        weights)
        return _by_grid(expect, s, per_row)

    @functools.cached_property
    def _draw_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """What `sample` reads: the `_pick` edges and the atom values."""
        values, weights = self._arrays
        return _pick_edges(weights), values

    def sample(self, rng, size=None):
        edges, values = self._draw_arrays
        draws = values[_pick(edges, rng, size)]
        return float(draws) if size is None else np.full(size, draws)


@dataclass(frozen=True)
class Exponential(_ErlangMixture):
    """Exponential law with the given rate."""

    rate: float

    def __post_init__(self):
        _check_rate(self.rate)

    @property
    def components(self):
        return ((1.0, 1, self.rate),)


@dataclass(frozen=True)
class Deterministic(_Atomic):
    """Point mass at a fixed nonnegative time."""

    value: float

    def __post_init__(self):
        value = float(self.value)
        if not (value >= 0.0) or not math.isfinite(value):
            raise DomainError(f"value must be finite and >= 0, got {value!r}")
        object.__setattr__(self, "atoms", ((value, 1.0),))


@dataclass(frozen=True)
class Erlang(_ErlangMixture):
    """Sum of `phases` independent exponential stages with a common rate."""

    phases: int
    rate: float

    def __post_init__(self):
        if not isinstance(self.phases, (int, np.integer)) or self.phases < 1:
            raise DomainError(f"phases must be an integer >= 1, got {self.phases!r}")
        object.__setattr__(self, "phases", int(self.phases))
        _check_rate(self.rate)

    @property
    def components(self):
        return ((1.0, self.phases, self.rate),)


@dataclass(frozen=True)
class MixedErlang(_ErlangMixture):
    """Mixture of Erlang(phases - 1) and Erlang(phases) with a common rate.

    With probability `p` the law is the shorter Erlang with ``phases - 1``
    stages, otherwise the longer one with ``phases`` stages. This is the
    canonical two-moment family for squared coefficients of variation in
    (1/phases, 1/(phases - 1)].
    """

    p: float
    phases: int
    rate: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise DomainError(f"mixture weight must be in [0, 1], got {self.p!r}")
        if not isinstance(self.phases, (int, np.integer)) or self.phases < 2:
            raise DomainError(f"phases must be an integer >= 2, got {self.phases!r}")
        object.__setattr__(self, "phases", int(self.phases))
        _check_rate(self.rate)

    @property
    def components(self):
        return ((self.p, self.phases - 1, self.rate),
                (1.0 - self.p, self.phases, self.rate))


@dataclass(frozen=True)
class HyperExponential(_ErlangMixture):
    """Two-phase hyperexponential: rate1 with probability p, else rate2."""

    p: float
    rate1: float
    rate2: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise DomainError(f"mixture weight must be in [0, 1], got {self.p!r}")
        _check_rate(self.rate1, "rate1")
        _check_rate(self.rate2, "rate2")

    @property
    def components(self):
        return ((self.p, 1, self.rate1), (1.0 - self.p, 1, self.rate2))


@dataclass(frozen=True)
class Discrete(_Atomic):
    """Finite discrete law given as ((value, probability), ...)."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise DomainError("a discrete law needs at least one atom")
        pairs = [(float(v), float(w)) for v, w in self.atoms]
        for v, w in pairs:
            if not math.isfinite(v) or v < 0.0:
                raise DomainError(f"atom value must be finite and >= 0, got {v!r}")
            if not (w > 0.0):
                raise DomainError(f"atom probability must be positive, got {w!r}")
        total = sum(w for _, w in pairs)
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"atom probabilities sum to {total!r}, expected 1")
        pairs.sort()
        values = [v for v, _ in pairs]
        if len(set(values)) != len(values):
            raise DomainError("atom values must be distinct")
        # renormalize so downstream sums treat the weights as exact
        object.__setattr__(
            self, "atoms", tuple((v, w / total) for v, w in pairs))


class _Stack:
    """Erlang mixtures with the same phases, as one law with a grid axis.

    Its term sums come from the laws' weights and rates, stacked as
    (laws x components) arrays, through the `_erlang_terms` that builds the
    sums of a lone law; no law builds its own. Their powers, signs and
    cutoffs depend on the phases only, so they are those of every law;
    `logc` and `r` gain a leading axis with one row per law. The s-free
    two-law functionals, at a scalar s, take a stack in place of either law
    and return one array with one value per law, also for a stack of one.
    A lone law is the one-row case of its stack: each value equals that of
    the law alone. A stack's rows are not cut into slices: `_stacks` builds
    stacks whose batches stay within `_MAX_TERMS`.
    """

    def __init__(self, laws):
        self._laws = tuple(laws)

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(w, k, r): weights and rates with one row per law, shared phases."""
        w, k, r = zip(*(law._arrays for law in self._laws))
        return np.stack(w), k[0], np.stack(r)

    _erlang_parts = _ErlangMixture._erlang_parts
    _survival_terms = _ErlangMixture._survival_terms
    _density_terms = _ErlangMixture._density_terms
    _tail_terms = _ErlangMixture._tail_terms

    def mean(self) -> np.ndarray:
        return np.array([law.mean() for law in self._laws])


def _phase_groups(laws) -> list[list[int]]:
    """Indices of Erlang mixtures grouped by the phases of their components.

    Only components of positive weight count. Laws of one group have term
    sums of one shape, so a `_Stack` can hold them. Groups, and the indices
    in each, come in the order of the laws.
    """
    groups: dict[bytes, list[int]] = {}
    for k, law in enumerate(laws):
        groups.setdefault(law._arrays[1].tobytes(), []).append(k)
    return list(groups.values())


def _stacks(laws, partner: Distribution) -> list[tuple[list[int], _Stack]]:
    """The laws as `_Stack`s to pair with `partner`, with their indices.

    Each `_phase_groups` group is cut into runs of as many laws as keep a
    stack's pair sums with `partner`, at `_term_bound` terms a pair of
    sums, within `_MAX_TERMS`, and of one law at least. Runs come in the
    order of the groups, and the indices in each in the order of the laws.
    """
    runs = []
    for group in _phase_groups(laws):
        size = max(1, _MAX_TERMS // (_term_bound(laws[group[0]])
                                     * _term_bound(partner)))
        runs += [group[lo:lo + size] for lo in range(0, len(group), size)]
    return [(run, _Stack(laws[k] for k in run)) for run in runs]


def _term_bound(law: Distribution) -> int:
    """The most terms any term sum of the law holds, without building one.

    An Erlang mixture's survival and tail sums hold one term per phase, its
    density one per component; an atomic law's tail sum holds two per atom.
    """
    if isinstance(law, _Atomic):
        return 2 * law._arrays[0].size
    return int(law._arrays[1].sum())


def _pick_edges(weights: np.ndarray) -> np.ndarray:
    """The cumulative weights `_pick` draws against: all but the last."""
    edges = np.cumsum(weights[:-1])
    edges.flags.writeable = False
    return edges


def _pick(edges: np.ndarray, rng: np.random.Generator, size=None):
    """Indices drawn with the weights behind `edges`, one uniform per index.

    A uniform u picks the first index whose cumulative weight exceeds u; the
    last index takes every u beyond the one before it, also when rounding
    leaves the total weight below 1. A single weight (no edges) needs no
    draw: it returns the index 0, whatever `size`, and leaves `rng`
    untouched, which may also be None. So a one-atom law draws nothing
    from the stream the simulator builds for it.
    """
    if edges.size == 0:
        return 0
    return np.searchsorted(edges, rng.random(size), side="right")


def has_atom_at_zero(law: Distribution) -> bool:
    """True when the law puts positive probability on the value 0."""
    return law.atoms is not None and any(v == 0.0 and w > 0.0 for v, w in law.atoms)


#: most terms one row of a term sum may hold: one law's per-phase arrays,
#: one pair product, one grid point's terms at every atom. A product integral
#: peaks at about 135 bytes a term (554 MB for the 2**22 pairs of two
#: 2048-phase Erlangs, 131 to 136 bytes a term from 500 to 2048 phases), so
#: a row at the cap takes about half a gigabyte. A larger row is refused
#: before it is built; a batch of rows is cut into slices under the cap.
_MAX_TERMS = 2**22


def _check_terms(what: str, count: int) -> None:
    """Raise `NumericsError` when `count` terms exceed `_MAX_TERMS`."""
    if count > _MAX_TERMS:
        raise NumericsError(f"{what} would hold {count} terms, above the "
                            f"cap of {_MAX_TERMS}")


def _slices(s, per_row: int) -> list:
    """A 1-D s cut into slices of at most `_MAX_TERMS` terms, in order.

    `per_row` terms ride on each entry of s, so a slice takes as many
    entries as keep it within the cap, one at least. A scalar s, or a grid
    that fits, is one slice: a float s itself, else s as a float array.
    """
    # a float s, the common case, is one slice without a numpy conversion
    if isinstance(s, float):
        return [s]
    s = np.asarray(s, dtype=float)
    size = max(1, _MAX_TERMS // per_row)
    if s.size <= size:
        return [s]
    return [s[lo:lo + size] for lo in range(0, s.size, size)]


def _by_grid(fn, s, per_row: int):
    """fn(s), with a 1-D s cut into `_slices` and their values joined.

    Each entry of fn's value depends on its own s only, so the joined
    slices equal the value of one call, bit for bit.
    """
    pieces = _slices(s, per_row)
    if len(pieces) == 1:
        return fn(pieces[0])
    return np.concatenate([fn(piece) for piece in pieces])


class _Terms(NamedTuple):
    """The function sum of sign * exp(logc) * x^p * exp(-r x) * 1{x < u}.

    Parallel float arrays, one entry per term; u is inf for no cutoff.
    Coefficients are kept as logarithms so that Erlang components with
    hundreds of phases neither overflow nor underflow.
    """

    logc: np.ndarray
    sign: np.ndarray
    p: np.ndarray
    r: np.ndarray
    u: np.ndarray


def _terms(logc, sign, p, r, u) -> _Terms:
    """Terms from a log-coefficient array and fields broadcast against it.

    The rates take the shape of `logc`, which may carry a leading grid axis;
    signs, powers and cutoffs take that of its last axis, one per term. A
    law keeps its term sums for every caller, so they are read-only.
    """
    zero = np.zeros(np.shape(logc))
    row = np.zeros(zero.shape[-1:])
    terms = _Terms(zero + logc, row + sign, row + p, zero + r, row + u)
    for field in terms:
        field.flags.writeable = False
    return terms


def _erlang_terms(kind: str, parts) -> _Terms:
    """One term sum of an Erlang mixture: "survival", "density" or "tail".

    `parts` is the mixture's `_erlang_parts`: per component (log w, log r,
    r, k, log (k-1)!), each log w taken alone with `math.log`, and per
    phase j < k of each component, its component's log w, log r, r and k,
    then j and log j!. A leading axis on the weights and rates, one row per
    law, gives the sums of a `_Stack`: their coefficients and rates carry
    it. Every step acts on one element at a time, so a row equals the sum
    of its law built alone.
    """
    (logw, log_r, r, k, log_fact), phase = parts
    if kind == "density":
        # r^k x^(k-1) e^{-r x} / (k-1)! per component
        return _terms(logw + k * log_r - log_fact, 1.0, k - 1, r, np.inf)
    # one term per phase j < k of each component
    logw, log_r, r, k, j, log_fact = phase
    if kind == "survival":
        # the tail sum (r x)^j / j! e^{-r x}, j < k, of each component
        logc = logw + j * log_r - log_fact
    else:
        # E[(Y - x)^+]: (k - j) / r * (r x)^j / j! e^{-r x} per phase j < k
        logc = logw + np.log(k - j) + (j - 1) * log_r - log_fact
    return _terms(logc, 1.0, j, r, np.inf)


def _weighted(t: _Terms, moment: int, s) -> _Terms:
    """The term sum multiplied by x^moment exp(-s x), one row per s.

    A 1-D array s adds a leading grid axis to the rates, and to the rates
    only: row k of `r` holds the rates of the sum multiplied by
    exp(-s[k] x). A scalar s adds no axis. The other fields are `t`'s own.
    """
    s = np.asarray(s, dtype=float)[..., None]
    return _Terms(t.logc, t.sign, t.p + moment, t.r + s, t.u)


def _product(a: _Terms, b: _Terms) -> _Terms:
    """The pointwise product of two term sums, one term per pair.

    The pair (i, j) sits at i * len(b) + j. Signs, powers and cutoffs stay
    on the term axis, one outer operation each; coefficients and rates keep
    a leading grid axis, so the product is built once for the whole grid.
    `_pass` checks one row, its pairs, against `_MAX_TERMS` before any
    product is built.
    """
    # the pair axis is given its length: -1 is ambiguous on an empty grid
    pairs = a.sign.size * b.sign.size
    logc = a.logc[..., :, None] + b.logc[..., None, :]
    r = a.r[..., :, None] + b.r[..., None, :]
    return _Terms(logc.reshape(*logc.shape[:-2], pairs),
                  np.multiply.outer(a.sign, b.sign).ravel(),
                  np.add.outer(a.p, b.p).ravel(),
                  r.reshape(*r.shape[:-2], pairs),
                  np.minimum.outer(a.u, b.u).ravel())


def _dot(rows: np.ndarray, v: np.ndarray):
    """Sum of rows * v along the last axis: per row, a float for 1-D rows.

    numpy sums each row of a C-ordered array on its own, in the order it
    sums a lone row, so a value does not depend on the rest of the grid.
    The product is made C-ordered for that: a Fortran-ordered one is summed
    in another order.
    """
    out = np.add.reduce(np.multiply(rows, v, order="C"), axis=-1)
    return float(out) if rows.ndim == 1 else out


#: log(n!) - log(sqrt(2 pi n) (n / e)^n) for n = 0..15; 0 stands in at n = 0
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)


def _poisson_pmf(j: int, x: float) -> float:
    """e^{-x} x^j / j! for an integer j >= 0 and x >= 0.

    For j >= 1 this is Loader's exp(-stirlerr(j) - bd0(j, x)) / sqrt(2 pi j),
    with stirlerr(j) the error of Stirling's formula for log j! and
    bd0(j, x) = j log(j / x) + x - j taken from log1p near j = x, so that no
    large logarithms cancel.
    """
    if j == 0:
        return math.exp(-x)
    if x == 0.0:
        return 0.0
    if j <= 15:
        stirlerr = _STIRLERR[j]
    else:
        nn = j * j
        stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn))
                                         / nn) / nn) / nn) / j
    if x < 0.5 * j:
        bd0 = j * math.log(j / x) + x - j
    else:
        t = (x - j) / j
        bd0 = j * (t - math.log1p(t))
    return math.exp(-stirlerr - bd0) / math.sqrt(2.0 * math.pi * j)


def _gamma_pq(a: int, x: float) -> tuple[float, float]:
    """(P(a, x), 1 - P(a, x)) for an integer a >= 1 and a finite x >= 0.

    P is the regularized lower incomplete gamma function, here the Poisson
    tail P[Poisson(x) >= a]. The side of the Poisson law that leaves out its
    mode (the terms j >= a when x < a, else the terms j < a) holds at most
    about half of the mass, so it is the one summed, without cancellation:
    from the term next to a outward, where the terms only shrink, until a
    term no longer changes the sum. The other side is one minus it.
    """
    total = term = 1.0
    if x < a:
        j = a + 1
        term = x / j
        while total + term != total:
            total += term
            j += 1
            term *= x / j
        side = _poisson_pmf(a, x) * total
        return side, 1.0 - side
    for j in range(a - 1, 0, -1):
        term *= j / x
        if total + term == total:
            break
        total += term
    side = _poisson_pmf(a - 1, x) * total
    return 1.0 - side, side


_gamma_pq_arrays = np.frompyfunc(_gamma_pq, 2, 2)


def _gamma_p(a, x) -> np.ndarray:
    """P(a, x) elementwise, for an integer array a and an array x."""
    return _gamma_pq_arrays(a, x)[0].astype(float)


def _integral(ts: list[_Terms]) -> list:
    """Integral over x >= 0 of each term sum of `ts`, all in one sweep.

    With a = p + 1, the integral of x^p e^{-r x} over [0, u] is
    Gamma(a) / r^a * P(a, r u) for r > 0, with P the regularized lower
    incomplete gamma function, and u^a / a for r = 0 (u is then finite).
    The first form is taken for every term, with P on the cut columns only,
    those of finite u. A continuous law or s > 0 makes every rate positive;
    a zero rate (two atomic laws at s = 0) then takes the second form in one
    `np.where`. A term whose factor P(a, r u) underflows is below 1e-300 of
    its full integral and drops out.

    The sums are joined along the term axis, so log Gamma(a), the
    logarithms, the exponentials and one `_gamma_p` call run once over all
    of their terms; each sum's integral is then its own slice of the
    joined terms, summed alone. Every step acts on one term at a time, and
    a slice of a row sums as the lone row does, so each integral has the
    bits of its sum integrated alone. The sums share their leading shape.

    Rates with a leading grid axis (from `_weighted` at a 1-D array s), or
    coefficients and rates with one (from a `_Stack`), give one integral
    per grid row. The shapes, signs, cutoffs and log Gamma(a) carry no grid
    axis, so they are formed once for the whole grid; only the factors
    that depend on the coefficient or the rate are evaluated per row.
    """
    t = ts[0] if len(ts) == 1 else _Terms(
        *[np.concatenate(field, axis=-1) for field in zip(*ts)])
    a = t.p + 1.0
    finite = np.isfinite(t.u)
    positive = np.count_nonzero(t.r > 0.0)
    log_gamma = np.array([math.lgamma(v) for v in a.tolist()])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_i = log_gamma - a * np.log(t.r)
        if positive and np.count_nonzero(finite):
            log_i[..., finite] += np.log(_gamma_p(
                a[finite].astype(int), t.r[..., finite] * t.u[finite]))
        if positive < t.r.size:
            log_i = np.where(t.r > 0.0, log_i, a * np.log(t.u) - np.log(a))
        terms = np.multiply(np.exp(t.logc + log_i), t.sign, order="C")
    if len(ts) == 1:
        sums = [np.add.reduce(terms, axis=-1)]
    else:
        ends = list(itertools.accumulate(x.sign.size for x in ts))
        sums = [np.add.reduce(terms[..., lo:hi], axis=-1)
                for lo, hi in zip([0, *ends], ends)]
    return [float(x) for x in sums] if terms.ndim == 1 else sums


def _evaluate(t: _Terms, x, left: bool = False):
    """The term sum at each point of x, or its left limit when `left`."""
    x = np.asarray(x, dtype=float)[..., None]
    inside = x <= t.u if left else x < t.u
    with np.errstate(divide="ignore", invalid="ignore"):
        log_xp = np.where(t.p > 0.0, t.p * np.log(x), 0.0)
        values = t.sign * np.exp(t.logc + log_xp - t.r * x)
    return np.where(inside, values, 0.0).sum(axis=-1)[()]


def _evaluate_points(t: _Terms, x):
    """`_evaluate(t, x)` over x in slices of at most `_MAX_TERMS` entries.

    A point meets every term, so the flattened points are cut by
    `_slices`' rule. Each point's value is its own row sum, so it has the
    bits of its one-point call, whatever the slices.
    """
    x = np.asarray(x, dtype=float)
    pieces = _slices(x.ravel(), t.sign.size)
    if len(pieces) == 1:
        return _evaluate(t, x)
    return np.concatenate([_evaluate(t, piece)
                           for piece in pieces]).reshape(x.shape)


class _Part(NamedTuple):
    """One functional of a `_pass`: the integral of x^moment e^{-s x} f g.

    An expectation E[Y^moment exp(-s Y) g(Y)] under `law` has f the density
    of `law` and takes g(Y-) when `left`; a survival product has `law`
    None and `f` and `g` the two survival sums. s is a scalar or a 1-D
    grid, and either sum may be a `_Stack`'s.
    """

    law: object
    f: _Terms | None
    g: _Terms
    moment: int
    s: object
    left: bool = False


def _survival_product(a, b, moment: int = 0, s=0.0) -> _Part:
    """Integral of x^moment exp(-s x) S_a(x) S_b(x) over x >= 0."""
    return _Part(None, a._survival_terms, b._survival_terms, moment, s)


def _part_terms(part: _Part, s, f: _Terms, product: _Terms) -> _Terms:
    """The term sum whose integral is the part's value at s.

    `f` is the part's first sum and `product` the product of its two sums,
    unweighted, which the parts of a pass on the same two sums share. A
    survival product weights the product, so its rates are (r_f + r_g) + s.
    An expectation weights g, so its rates are r_f + (r_g + s), formed
    anew unless s is 0. Each is the sum its functional integrated alone, in
    that order: the powers are integers, so p_f + (p_g + moment) is
    (p_f + p_g) + moment, and a rate plus a zero s is the rate.
    """
    if isinstance(s, float) and s == 0.0:
        return product if not part.moment else _Terms(
            product.logc, product.sign, product.p + part.moment, product.r,
            product.u)
    if part.law is None:
        return _weighted(product, part.moment, s)
    r = f.r[..., :, None] + (part.g.r + np.asarray(s)[..., None])[..., None, :]
    return _Terms(product.logc, product.sign, product.p + part.moment,
                  r.reshape(*r.shape[:-2], product.sign.size), product.u)


def _pass(parts) -> list:
    """The value of each part, in order, with as few integrals as the cap allows.

    An expectation under an atomic law is a sum over its atoms
    (`_Atomic._expect`). Every other part is the integral of a term
    product, and the parts on the same two sums share one product. Parts of
    one leading shape (a grid, a stack or neither) share one `_integral`
    while their terms, rows times pairs, stay within `_MAX_TERMS`, and a
    part over the cap on its own is cut along its s-grid by `_slices`, each
    slice integrated alone. One row over the cap raises `NumericsError`,
    for the first such part, before any product is built. A product is
    built just before the first integral that reads it and dropped after
    the last.

    A value is a float for a scalar s, one value per entry of a 1-D s, and
    one value per law for a `_Stack`'s sum. Each has the bits of its part
    evaluated alone.
    """
    values = [None] * len(parts)  # per part, its value on each slice
    groups = []  # [terms, [(part, slice, s, f, sums), ...], index] per integral
    open_groups = {}  # the group that takes more parts, per leading shape
    last = {}  # per pair of sums, the last group that reads their product
    for k, part in enumerate(parts):
        law, g, s = part.law, part.g, part.s
        if isinstance(law, _Atomic):
            values[k] = [law._expect(g, part.moment, s, part.left)]
            continue
        f = part.f if law is None else law._density_terms
        per_row = f.sign.size * g.sign.size
        _check_terms("term product", per_row)
        # at most one of the two sums is a `_Stack`'s
        lead = f.logc.shape[:-1] or g.logc.shape[:-1]
        per_s = per_row * math.prod(lead)
        sums = id(f), id(g)
        pieces = _slices(s, per_s)
        values[k] = [None] * len(pieces)
        for i, s in enumerate(pieces):
            grid = () if isinstance(s, float) else s.shape
            terms = per_s * math.prod(grid)
            group = open_groups.get((lead, grid))
            if group is None or group[0] + terms > _MAX_TERMS:
                group = open_groups[lead, grid] = [0, [], len(groups)]
                groups.append(group)
            group[0] += terms
            group[1].append((k, i, s, f, sums))
            last[sums] = group[2]
    products = {}
    for _, members, n in groups:
        ts = []
        for k, _, s, f, sums in members:
            product = products.get(sums)
            if product is None:
                product = products[sums] = _product(f, parts[k].g)
            ts.append(_part_terms(parts[k], s, f, product))
        if n < len(groups) - 1:  # keep what a later integral reads
            products = {sums: t for sums, t in products.items()
                        if last[sums] > n}
        for (k, i, *_), value in zip(members, _integral(ts)):
            values[k][i] = value
    return [v[0] if len(v) == 1 else np.concatenate(v) for v in values]


def _check_s(s, name: str):
    """Reject an s that is not a scalar or 1-D array of finite values >= 0."""
    s = np.asarray(s, dtype=float)
    if s.ndim > 1:
        raise DomainError(f"{name} takes a scalar or 1-D array s, "
                          f"got shape {s.shape}")
    if not 0.0 <= s.min(initial=0.0) <= s.max(initial=0.0) < np.inf:
        raise DomainError(f"{name}: s must be finite and >= 0")


def survival_product_integral(a: Distribution, b: Distribution, s=0.0,
                              moment: int = 0):
    """Integral of x^moment exp(-s x) S_a(x) S_b(x) over x >= 0.

    The common currency behind E[min(a, b)], its transform, and the residual
    overshoot terms. A float for a scalar s; for a 1-D array s, one value per
    entry, each equal to the scalar call at that entry.
    """
    _check_s(s, "survival_product_integral")
    return _pass([_survival_product(a, b, moment, s)])[0]


def expected_min(a: Distribution, b: Distribution) -> float:
    """E[min(A, B)] for independent A and B."""
    return survival_product_integral(a, b)


def completion_probability(service: Distribution, visit: Distribution) -> float:
    """P[B <= V] for independent service B and visit V; ties count as success.

    Computed as E[P[V >= B]], a sum of positive terms, which carries the
    shared-atom overlap term exactly when both laws are atomic.
    """
    return _at_most_one(_pass([_completion(service, visit)])[0])


def attempt_lst(service: Distribution, visit: Distribution, s):
    """Transforms of one visit attempt, split by its outcome.

    Returns (E[exp(-s B); B <= V], E[exp(-s V); V < B]): a completed
    attempt lasts the requirement B, a failed one the whole visit V. At
    s = 0 these are the completion probability and its complement. Two
    floats for a scalar s; for a 1-D array s, two arrays over its entries.
    """
    _check_s(s, "attempt_lst")
    success, failure = _pass([_completion(service, visit, s),
                              _failure(service, visit, s)])
    return success, failure


def served_in_visit(service: Distribution, visit: Distribution,
                    s=0.0, moment: int = 0):
    """E[B^moment exp(-s B) (V - B)^+] / E[V] for independent B and V.

    E[(V - b)^+] / E[V] is the chance that the residual visit seen by an
    arrival at a uniform moment of a visit is at least b, so this is
    E[B^moment exp(-s B); B <= residual visit], the part of the sojourn
    time of a customer served in the visit it arrives in. A float for a
    scalar s; for a 1-D array s, one value per entry.
    """
    _check_s(s, "served_in_visit")
    return _pass([_served(service, visit, s, moment)])[0] / visit.mean()


# The parts of the public functionals, and the passes of a queue's uses.

def _completion(service, visit, s=0.0) -> _Part:
    """E[exp(-s B); B <= V], as E[exp(-s B) P[V >= B]]."""
    return _Part(service, None, visit._survival_terms, 0, s, left=True)


def _failure(service, visit, s) -> _Part:
    """E[exp(-s V); V < B], as E[exp(-s V) P[B > V]]."""
    return _Part(visit, None, service._survival_terms, 0, s)


def _served(service, visit, s=0.0, moment: int = 0) -> _Part:
    """E[B^moment exp(-s B) (V - B)^+], `served_in_visit` times E[V]."""
    return _Part(service, None, visit._tail_terms, moment, s)


def _at_most_one(p):
    """A probability clipped to 1; one value per law for a `_Stack`'s."""
    return np.minimum(p, 1.0) if isinstance(p, np.ndarray) else min(1.0, p)


def _use_parts(use: str, service, visit, s) -> list[_Part]:
    """The parts of one use of a (service, visit) pair; see `_pair_uses`."""
    if use == "min":
        return [_completion(service, visit), _survival_product(service, visit)]
    if use == "in_visit":
        return [_served(service, visit, moment=1),
                _survival_product(visit, service, 1)]
    return [_completion(service, visit, s), _failure(service, visit, s),
            _served(service, visit, s), _survival_product(visit, service, 0, s)]


def _pair_uses(service, visit, uses, s=None) -> list[tuple]:
    """The values of each use of a (service, visit) pair, all in one `_pass`.

    A use is "min", (P[B <= V], E[min(B, V)]), which `derived_quantities`
    and the tour optimizer read; "in_visit", (E[B; B <= residual visit],
    integral of x S_V(x) S_B(x)), the in-visit terms of the sojourn mean;
    or "transforms", over the 1-D s, (E[exp(-s B); B <= V],
    E[exp(-s V); V < B], `served_in_visit` at s, integral of
    exp(-s x) S_V(x) S_B(x)), the sojourn transform's. Every value has the
    bits of its public functional called alone. A `_Stack` in place of
    either law gives one value per law, for the s-free uses.
    """
    values = _pass([part for use in uses
                    for part in _use_parts(use, service, visit, s)])
    out, k = [], 0
    for use in uses:
        if use == "min":
            out.append((_at_most_one(values[k]), values[k + 1]))
        elif use == "in_visit":
            out.append((values[k] / visit.mean(), values[k + 1]))
        else:
            out.append((*values[k:k + 2], values[k + 2] / visit.mean(),
                        values[k + 3]))
        k += len(out[-1])
    return out


def fit_mixed_erlang(mean: float, scv: float) -> Distribution:
    """Fit a mixed-Erlang law matching the given mean and scv in (0, 1].

    Picks the stage count n with 1/n <= scv <= 1/(n-1) and the mixture weight
    and rate that reproduce both moments. At scv exactly 1 the family
    degenerates to the exponential law, which is returned directly.
    """
    mean = float(mean)
    scv = float(scv)
    if not (mean > 0.0):
        raise DomainError(f"mean must be positive, got {mean!r}")
    if not (0.0 < scv <= 1.0):
        raise DomainError(f"mixed-Erlang fit needs scv in (0, 1], got {scv!r}")
    if scv == 1.0:
        return Exponential(1.0 / mean)
    n = max(2, math.ceil(1.0 / scv - 1e-12))
    while 1.0 / n > scv:
        n += 1
    radicand = max(n * (1.0 + scv) - n * n * scv, 0.0)
    p = (n * scv - math.sqrt(radicand)) / (1.0 + scv)
    p = min(max(p, 0.0), 1.0)
    return MixedErlang(p, n, (n - p) / mean)


def fit_hyperexponential(mean: float, scv: float) -> HyperExponential:
    """Fit a balanced-means hyperexponential matching a mean and scv > 1."""
    mean = float(mean)
    scv = float(scv)
    if not (mean > 0.0):
        raise DomainError(f"mean must be positive, got {mean!r}")
    if not (scv > 1.0):
        raise DomainError(f"hyperexponential fit needs scv > 1, got {scv!r}")
    p = 0.5 * (1.0 + math.sqrt((scv - 1.0) / (scv + 1.0)))
    return HyperExponential(p, 2.0 * p / mean, 2.0 * (1.0 - p) / mean)


def fit_two_moments(mean: float, scv: float) -> Distribution:
    """Dispatch to the fitting family for the given scv.

    scv at or below one goes to the mixed-Erlang family, which returns the
    exponential law at exactly one (the two branches meet there), and scv
    above one to the hyperexponential family.
    """
    if scv <= 1.0:
        return fit_mixed_erlang(mean, scv)
    return fit_hyperexponential(mean, scv)
