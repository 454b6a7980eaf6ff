"""Distribution families: moments, transforms, sampling, fits.

Closed-form values asserted here were computed by hand or in independent
high-precision scratch sessions before the implementation existed, so the
suite cannot inherit a bug from the code under test.
"""
import contextlib
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import call_with_memory_limit, simd_dispatch
import mginfpolling
from mginfpolling import analytic, cli, distributions
from mginfpolling.analytic import (
    QueueSpec,
    SystemSpec,
    derived_quantities,
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
    attempt_lst,
    completion_probability,
    expected_min,
    fit_hyperexponential,
    fit_mixed_erlang,
    fit_two_moments,
    has_atom_at_zero,
    served_in_visit,
    survival_product_integral,
    _dot,
    _gamma_pq,
)
from mginfpolling.errors import DomainError, NumericsError

ALL_LAWS = [
    Exponential(1.3),
    Deterministic(0.7),
    Erlang(3, 2.1),
    MixedErlang(0.3, 4, 2.0),
    HyperExponential(0.6, 2.0, 0.5),
    Discrete(((0.2, 0.25), (1.0, 0.5), (2.5, 0.25))),
]
# the laws whose sampler reads no generator
ONE_ATOM_LAWS = [Deterministic(0.7), Discrete(((2.5, 1.0),))]


def tail_point(d, eps):
    """The smallest x with d.survival(x) <= eps, bisected from above."""
    lo, hi = 0.0, 1.0
    while float(d.survival(hi)) > eps:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(d.survival(mid)) > eps:
            lo = mid
        else:
            hi = mid
    return hi


class TestMoments:
    def test_exponential(self):
        d = Exponential(2.0)
        assert d.mean() == 0.5
        assert d.second_moment() == 0.5
        assert d.variance() == pytest.approx(0.25)
        assert d.scv() == pytest.approx(1.0)

    def test_deterministic(self):
        d = Deterministic(3.0)
        assert d.mean() == 3.0
        assert d.second_moment() == 9.0
        assert d.variance() == pytest.approx(0.0, abs=1e-12)

    def test_erlang(self):
        d = Erlang(4, 2.0)
        assert d.mean() == 2.0
        assert d.second_moment() == pytest.approx(5.0)
        assert d.scv() == pytest.approx(0.25)

    def test_mixed_erlang(self):
        # p=0.5 mix of Erlang(1,2) and Erlang(2,2): mean 0.75, E[Y^2] = 1
        d = MixedErlang(0.5, 2, 2.0)
        assert d.mean() == pytest.approx(0.75)
        assert d.second_moment() == pytest.approx(1.0)

    def test_hyperexponential(self):
        d = HyperExponential(0.25, 2.0, 0.5)
        assert d.mean() == pytest.approx(0.25 / 2.0 + 0.75 / 0.5)
        assert d.second_moment() == pytest.approx(2 * 0.25 / 4.0 + 2 * 0.75 / 0.25)
        assert d.scv() > 1.0

    def test_discrete(self):
        d = Discrete(((1.0, 0.5), (3.0, 0.5)))
        assert d.mean() == pytest.approx(2.0)
        assert d.second_moment() == pytest.approx(5.0)


class TestSurvivalAndTransforms:
    @pytest.mark.parametrize("d", ALL_LAWS, ids=lambda d: type(d).__name__)
    def test_survival_cdf_complement(self, d):
        xs = np.linspace(0.0, tail_point(d, 1e-10) + 1.0, 57)
        sv = np.asarray(d.survival(xs), dtype=float)
        assert np.all(sv >= -1e-15) and np.all(sv <= 1.0 + 1e-15)
        assert np.all(np.diff(sv) <= 1e-15)
        assert np.allclose(np.asarray(d.cdf(xs)) + sv, 1.0, atol=1e-12)

    @pytest.mark.parametrize("d", ALL_LAWS, ids=lambda d: type(d).__name__)
    def test_lst_basics(self, d):
        assert d.lst(0.0) == pytest.approx(1.0, abs=1e-14)
        vals = [d.lst(s) for s in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert all(b < a + 1e-15 for a, b in zip(vals, vals[1:]))
        # -d/ds lst at 0 equals the mean
        h = 1e-6
        deriv = (d.lst(h) - d.lst(0.0)) / h
        assert -deriv == pytest.approx(d.mean(), rel=1e-4)
        # elementwise on arrays, scalar in and scalar out
        grid = np.array([[0.0, 0.5, 1.0], [2.0, 5.0, 0.01]])
        on_grid = d.lst(grid)
        assert np.shape(on_grid) == grid.shape
        assert np.ndim(d.lst(0.5)) == 0
        for s, val in zip(grid.ravel(), np.ravel(on_grid)):
            assert val == d.lst(float(s))

    @pytest.mark.parametrize("name", ["lst", "survival", "integrated_survival"])
    @pytest.mark.parametrize("d", ALL_LAWS, ids=lambda d: type(d).__name__)
    def test_grid_entries_have_the_bits_of_one_point_calls(self, d, name):
        # a one-point call is the one-row case of the grid pass
        grid = np.random.default_rng(16).uniform(0.0, 6.0, (9, 41))
        grid[0, :3] = 0.0, 0.7, 2.5  # at atoms and s = 0
        on_grid = getattr(d, name)(grid)
        assert np.shape(on_grid) == grid.shape
        for x, value in zip(grid.ravel().tolist(), on_grid.ravel().tolist()):
            assert value == getattr(d, name)(x), (x, value)

    @pytest.mark.parametrize("d", ALL_LAWS, ids=lambda d: type(d).__name__)
    def test_integrated_survival_matches_numeric(self, d):
        hi = tail_point(d, 1e-12)
        xs = np.linspace(0.0, hi, 4001)
        isv = np.asarray(d.integrated_survival(xs), dtype=float)
        # midpoint sums are exact for piecewise-constant survival
        mids = np.asarray(d.survival((xs[:-1] + xs[1:]) / 2), dtype=float)
        num = np.concatenate([[0.0], np.cumsum(mids * np.diff(xs))])
        assert np.max(np.abs(isv - num)) < 5e-5
        assert d.integrated_survival(hi * 4) == pytest.approx(d.mean(), rel=1e-9)
        assert d.integrated_survival(np.inf) == pytest.approx(d.mean(), rel=1e-12)

    def test_lst_below_minus_rate_is_a_domain_error(self):
        # E[exp(-s Y)] is infinite once -s reaches the rate
        d = Erlang(3, 2.0)
        for s in (-2.0, -3.0):
            with pytest.raises(DomainError):
                d.lst(s)
        with pytest.raises(DomainError):
            d.lst(np.array([0.5, -1.0, -2.5]))
        # the smallest rate among components of positive weight decides
        with pytest.raises(DomainError):
            HyperExponential(0.4, 3.0, 0.5).lst(-0.5)
        assert HyperExponential(1.0, 3.0, 0.5).lst(-0.5) == pytest.approx(1.2, rel=1e-15)

    def test_lst_is_the_moment_generating_function_below_zero(self):
        # E[exp(t Y)] = (r / (r - t))^k for Erlang(k, r) and t < r
        d = Erlang(3, 2.0)
        assert d.lst(-1.0) == pytest.approx(8.0, rel=1e-15)
        got = d.lst(np.array([-1.0, -0.5, 1.0]))
        assert got == pytest.approx([8.0, (4.0 / 3.0) ** 3, (2.0 / 3.0) ** 3],
                                    rel=1e-15)
        mixed = MixedErlang(0.3, 4, 2.0)
        assert mixed.lst(-1.5) == pytest.approx(0.3 * 4.0**3 + 0.7 * 4.0**4, rel=1e-14)

    def test_deterministic_strict_survival(self):
        d = Deterministic(2.0)
        assert d.survival(1.999) == 1.0
        assert d.survival(2.0) == 0.0
        assert d.cdf(2.0) == 1.0

    def test_discrete_step_boundaries(self):
        d = Discrete(((1.0, 0.25), (2.0, 0.75)))
        assert d.survival(0.0) == pytest.approx(1.0)
        assert d.survival(1.0) == pytest.approx(0.75)
        assert d.survival(2.0) == pytest.approx(0.0, abs=1e-15)
        assert d.integrated_survival(1.5) == pytest.approx(1.0 + 0.5 * 0.75)

    def test_discrete_tiny_tail_is_exact(self):
        # 1 - cumsum(weights) would round the tail above the first atom to 0
        d = Discrete(((1.0, 1.0), (2.0, 1e-17)))
        assert d.survival(1.5) == 1e-17
        # these weights sum to 1 + 2^-52, and a probability stays at most 1
        d = Discrete(((1.0, 0.7), (2.0, 0.2), (3.0, 0.1)))
        assert d.survival(0.5) == 1.0

    def test_erlang_survival_closed_form(self):
        # Erlang(2, mu): S(x) = e^{-mu x}(1 + mu x)
        d = Erlang(2, 1.5)
        for x in (0.1, 0.9, 2.7):
            want = math.exp(-1.5 * x) * (1 + 1.5 * x)
            assert float(d.survival(x)) == pytest.approx(want, rel=1e-12)

    def test_integrated_survival_of_exponential(self):
        # the stationary residual of an exponential law is the law itself:
        # the integrated survival over the mean is the cdf
        d = Exponential(1.7)
        xs = np.linspace(0.0, 5.0, 11)
        assert np.allclose(d.integrated_survival(xs) / d.mean(), d.cdf(xs),
                           atol=1e-12)


class TestDot:
    """`_dot` gives every row the bits of the 1-D call on that row alone."""

    @staticmethod
    def check(rows, v):
        got = _dot(rows, v)
        assert np.shape(got) == rows.shape[:-1]
        for row, value in zip(rows.reshape(-1, rows.shape[-1]),
                              np.ravel(got).tolist()):
            lone = _dot(row.copy(), v)
            assert value == lone == float(np.add.reduce(row * v))
            # and it is the dot product, to the rounding of a sum
            terms = row * v
            assert abs(lone - math.fsum(terms)) <= \
                len(terms) * 2.3e-16 * math.fsum(np.abs(terms))

    def test_random_shapes(self):
        rng = np.random.default_rng(1616)
        for _ in range(300):
            m, n = rng.integers(1, 40), rng.integers(1, 200)
            rows = rng.standard_normal((m, n)) * np.exp(
                rng.uniform(-20.0, 20.0, (m, n)))
            v = rng.standard_normal(n)
            self.check(rows, v)
            # non-contiguous rows: every other column of a wider array
            wide = rng.standard_normal((m, 2 * n))
            self.check(wide[:, ::2], v)
            # and every other row
            self.check(rows[::2], v)
            # a Fortran-ordered array, whose plain sum runs down the columns
            self.check(np.asfortranarray(rows), v)

    def test_one_row_and_a_lone_row(self):
        rng = np.random.default_rng(16)
        rows, v = rng.standard_normal((1, 57)), rng.standard_normal(57)
        self.check(rows, v)
        lone = _dot(rows[0], v)
        assert type(lone) is float
        assert lone == float(np.add.reduce(rows[0] * v))

    def test_grid_axes_beyond_one(self):
        rng = np.random.default_rng(61)
        grid = rng.standard_normal((3, 5, 29))
        v = rng.standard_normal(29)
        self.check(grid, v)
        self.check(grid.transpose(1, 0, 2), v)
        self.check(np.asfortranarray(grid), v)


def point_masses(v):
    return [Deterministic(v), Discrete(((v, 1.0),))]


class TestPointMassClosedForms:
    """Both atomic families at one atom give the point-mass formulas exactly."""

    @pytest.mark.parametrize("v", [0.0, 0.7, 3.0])
    def test_moments(self, v):
        for d in point_masses(v):
            assert d.mean() == v and type(d.mean()) is float
            assert d.second_moment() == v**2

    @pytest.mark.parametrize("v", [0.0, 0.7, 3.0])
    def test_survival_and_integrated_survival(self, v):
        xs = [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf),
              0.0, -1.0, 2.5, math.inf]
        for d in point_masses(v):
            for x in xs:
                survival, integrated = d.survival(x), d.integrated_survival(x)
                assert np.ndim(survival) == 0 and np.ndim(integrated) == 0
                assert survival == (1.0 if x < v else 0.0), (d, x)
                assert integrated == min(x, v), (d, x)
            assert np.array_equal(d.survival(np.array(xs)),
                                  [1.0 if x < v else 0.0 for x in xs])
            assert np.array_equal(d.integrated_survival(np.array(xs)),
                                  [min(x, v) for x in xs])
            assert np.array_equal(d.cdf(np.array([[v, 0.0]])),
                                  [[1.0, 0.0 if v > 0.0 else 1.0]])

    @pytest.mark.parametrize("v", [0.0, 0.7, 3.0])
    def test_transform(self, v):
        ss = [0.0, 1e-9, 0.5, 2.0, 40.0]
        for d in point_masses(v):
            for s in ss:
                value = d.lst(s)
                assert np.ndim(value) == 0
                assert value == np.exp(-s * v), (d, s)
            assert np.array_equal(d.lst(np.array(ss)),
                                  [np.exp(-s * v) for s in ss])


class TestPdf:
    def test_pdf_integrates_to_one(self):
        for d in (Exponential(1.3), Erlang(3, 2.1), MixedErlang(0.3, 4, 2.0),
                  HyperExponential(0.6, 2.0, 0.5)):
            xs = np.linspace(0.0, tail_point(d, 1e-13), 20001)
            mass = np.trapezoid(np.asarray(d.pdf(xs)), xs)
            assert mass == pytest.approx(1.0, abs=1e-5)

    def test_atomic_laws_have_no_density(self):
        with pytest.raises(DomainError):
            Deterministic(1.0).pdf(0.5)
        with pytest.raises(DomainError):
            Discrete(((1.0, 1.0),)).pdf(0.5)


class TestValidation:
    def test_bad_rates(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                Exponential(bad)
        with pytest.raises(DomainError):
            Erlang(0, 1.0)
        with pytest.raises(DomainError):
            Erlang(2.5, 1.0)

    def test_bad_mixtures(self):
        with pytest.raises(DomainError):
            MixedErlang(1.5, 3, 1.0)
        with pytest.raises(DomainError):
            MixedErlang(0.5, 1, 1.0)
        with pytest.raises(DomainError):
            HyperExponential(-0.1, 1.0, 2.0)

    def test_bad_discrete(self):
        with pytest.raises(DomainError):
            Discrete(())
        with pytest.raises(DomainError):
            Discrete(((1.0, 0.5), (2.0, 0.6)))
        with pytest.raises(DomainError):
            Discrete(((1.0, 0.5), (1.0, 0.5)))
        with pytest.raises(DomainError):
            Discrete(((-1.0, 1.0),))
        with pytest.raises(DomainError, match="atom probability must be positive"):
            Discrete(((1.0, 0.0), (2.0, 1.0)))
        with pytest.raises(DomainError, match="value must be finite and >= 0"):
            Deterministic(-1.0)

    def test_zero_mean_law_has_no_scv(self):
        with pytest.raises(DomainError, match="scv undefined"):
            Deterministic(0.0).scv()

    def test_discrete_renormalizes_tiny_drift(self):
        w = 1.0 / 3.0
        d = Discrete(((1.0, w), (2.0, w), (3.0, w)))
        assert sum(p for _, p in d.atoms) == pytest.approx(1.0, abs=1e-15)

    def test_atom_at_zero_helper(self):
        assert has_atom_at_zero(Deterministic(0.0))
        assert has_atom_at_zero(Discrete(((0.0, 0.5), (1.0, 0.5))))
        assert not has_atom_at_zero(Deterministic(1.0))
        assert not has_atom_at_zero(Exponential(1.0))


class TestSampling:
    @pytest.mark.parametrize("d", ALL_LAWS, ids=lambda d: type(d).__name__)
    def test_seeded_moments(self, d):
        rng = np.random.default_rng(1234)
        x = np.asarray(d.sample(rng, 200_000), dtype=float)
        se = np.std(x) / math.sqrt(len(x)) + 1e-12
        assert abs(np.mean(x) - d.mean()) < 5 * se
        assert np.var(x) == pytest.approx(d.variance(), rel=0.05, abs=1e-9)

    @pytest.mark.parametrize("d", ALL_LAWS, ids=lambda d: type(d).__name__)
    def test_reproducible(self, d):
        a = np.asarray(d.sample(np.random.default_rng(9), 64), dtype=float)
        b = np.asarray(d.sample(np.random.default_rng(9), 64), dtype=float)
        assert np.array_equal(a, b)

    def test_scalar_draws(self):
        # a float for no size, else a float64 array of that shape, which the
        # simulator uses as it comes
        for d in ALL_LAWS + [fit_two_moments(1.5, 0.3)]:
            v = d.sample(np.random.default_rng(3))
            assert isinstance(v, float) and v >= 0.0
            for size in (5, 0, (3, 4), (2, 0)):
                v = d.sample(np.random.default_rng(3), size)
                assert isinstance(v, np.ndarray) and v.dtype == np.float64
                assert v.shape == np.empty(size).shape


def family_formula(d, rng, size):
    """Each family's own sampler, as written before sampling moved to the bases."""
    if isinstance(d, Exponential):
        return rng.exponential(1.0 / d.rate, size=size)
    if isinstance(d, Deterministic):
        return d.value if size is None else np.full(size, d.value)
    if isinstance(d, Erlang):
        return rng.gamma(d.phases, 1.0 / d.rate, size=size)
    if isinstance(d, MixedErlang):
        shorter = rng.random(size) < d.p
        if size is None:
            return rng.gamma(d.phases - int(shorter), 1.0 / d.rate)
        return rng.gamma(d.phases - shorter.astype(int), 1.0 / d.rate)
    if isinstance(d, HyperExponential):
        rate = np.where(rng.random(size) < d.p, d.rate1, d.rate2)
        return rng.standard_exponential(size) / rate if size is not None \
            else rng.standard_exponential() / float(rate)
    values, weights = np.array(d.atoms).T
    idx = np.searchsorted(np.cumsum(weights), rng.random(size), side="right")
    idx = np.minimum(idx, len(values) - 1)
    return values[idx] if size is not None else float(values[idx])


def both_streams(d, other, size, seed=17):
    """Draws of `d.sample` and `other` from equal generators, and their states."""
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    a = d.sample(rng_a, size)
    b = other(rng_b, size)
    return (np.asarray(a), np.asarray(b),
            rng_a.bit_generator.state, rng_b.bit_generator.state)


class TestSamplingStreams:
    """Draws equal the per-family samplers they replaced, stream for stream."""

    @pytest.mark.parametrize("d", [
        Exponential(1.3), Erlang(3, 2.1), Erlang(40, 7.0),
        MixedErlang(0.3, 4, 2.0), MixedErlang(0.9, 2, 0.4), Deterministic(0.7),
        Discrete(((0.2, 0.25), (1.0, 0.5), (2.5, 0.25))),
        Discrete(((0.0, 0.1), (3.0, 0.9)))], ids=repr)
    @pytest.mark.parametrize("size", [None, 1000, (7, 3)])
    def test_bit_identical_to_the_family_formula(self, d, size):
        a, b, state_a, state_b = both_streams(
            d, lambda rng, size: family_formula(d, rng, size), size)
        assert a.shape == b.shape and np.array_equal(a, b)
        assert state_a == state_b

    @pytest.mark.parametrize("size", [None, 1000])
    def test_hyperexponential_within_one_ulp(self, size):
        d = HyperExponential(0.6, 2.0, 0.5)
        a, b, state_a, state_b = both_streams(
            d, lambda rng, size: family_formula(d, rng, size), size)
        np.testing.assert_array_max_ulp(a, b, maxulp=1)
        assert state_a == state_b

    @pytest.mark.parametrize("size", [None, 1000])
    def test_degenerate_mixed_erlang_draws_the_erlang_stream(self, size):
        for d, same in ((MixedErlang(0.0, 5, 1.5), Erlang(5, 1.5)),
                        (MixedErlang(1.0, 5, 1.5), Erlang(4, 1.5))):
            a, b, state_a, state_b = both_streams(d, same.sample, size)
            assert np.array_equal(a, b) and state_a == state_b

    @pytest.mark.parametrize("d", ONE_ATOM_LAWS, ids=repr)
    def test_one_atom_leaves_the_generator_untouched(self, d):
        # so it draws nothing from the stream the simulator builds for it,
        # and it samples as well from None
        rng = np.random.default_rng(17)
        before = rng.bit_generator.state
        atom = d.atoms[0][0]
        assert d.sample(rng) == atom and d.sample(None) == atom
        assert np.array_equal(d.sample(rng, 4), np.full(4, atom))
        assert np.array_equal(d.sample(None, (2, 3)), np.full((2, 3), atom))
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("d", ALL_LAWS + [Discrete(((2.5, 1.0),)),
                                              MixedErlang(0.0, 3, 2.0)],
                             ids=repr)
    def test_every_other_law_advances_its_generator(self, d):
        # a Philox state holds small arrays, so its repr compares it whole
        rng = np.random.Generator(np.random.Philox(17))
        before = repr(rng.bit_generator.state)
        d.sample(rng, 6)
        advanced = repr(rng.bit_generator.state) != before
        assert advanced == (d not in ONE_ATOM_LAWS)


@pytest.mark.parametrize("family", [Exponential, Deterministic, Erlang,
                                    MixedErlang, HyperExponential, Discrete])
def test_families_hold_only_parameters(family):
    # every formula and the sampler live on the two bases
    formulas = {"sample", "mean", "second_moment", "survival", "lst",
                "integrated_survival", "pdf"}
    assert not formulas & set(vars(family))


class TestTwoLawFunctionals:
    def test_expected_min_erlang_exponential(self):
        # E[min] = int e^{-x}(1+2x)e^{-2x} dx = 1/3 + 2/9 = 5/9
        got = expected_min(Erlang(2, 2.0), Exponential(1.0))
        assert got == pytest.approx(5.0 / 9.0, rel=1e-11)

    def test_expected_min_against_sampling(self):
        a, b = MixedErlang(0.3, 4, 2.0), HyperExponential(0.6, 2.0, 0.5)
        rng = np.random.default_rng(5)
        x = np.minimum(a.sample(rng, 400_000), b.sample(rng, 400_000))
        se = np.std(x) / math.sqrt(len(x))
        assert abs(expected_min(a, b) - np.mean(x)) < 5 * se

    def test_transform_of_the_minimum_point_mass_vs_exponential(self):
        # min(det(1), exp(1)): E[e^{-s min}] at s=1 is (1-e^{-2})/2 + e^{-2},
        # and it equals 1 - s times the survival-product integral at s
        got = 1.0 - survival_product_integral(Deterministic(1.0),
                                              Exponential(1.0), 1.0)
        assert got == pytest.approx(0.5676676416183064, rel=1e-12)

    def test_exponential_pair_fast_path_consistent(self):
        # Erlang with one phase is the same law, built by another family
        a, b = Exponential(1.5), Exponential(0.7)
        ag, bg = Erlang(1, 1.5), Erlang(1, 0.7)
        for s in (0.0, 0.8):
            for m in (0, 1, 2):
                fast = survival_product_integral(a, b, s, m)
                slow = survival_product_integral(ag, bg, s, m)
                assert fast == pytest.approx(slow, rel=1e-10)

    def test_moment_weighted_integral(self):
        # int x e^{-x} e^{-2x} dx = 1/9
        got = survival_product_integral(Exponential(1.0), Exponential(2.0), 0.0, 1)
        assert got == pytest.approx(1.0 / 9.0, rel=1e-12)


@pytest.mark.parametrize("visit", ALL_LAWS, ids=repr)
@pytest.mark.parametrize("service", ALL_LAWS, ids=repr)
def test_empty_grid_gives_empty_arrays(service, visit):
    # an empty 1-D s gives one value per entry, none, for every pair
    values = (*attempt_lst(service, visit, []),
              served_in_visit(service, visit, []),
              survival_product_integral(service, visit, []))
    for value in values:
        assert isinstance(value, np.ndarray)
        assert value.shape == (0,) and value.dtype == float


DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "base_config.json"


def demo_sweep_at_scv_1e9():
    """A sweep point whose fitted service law has 10^9 phases."""
    system = cli._build_system(cli._load_config(str(DEMO_CONFIG))["system"])
    return sojourn_sweep(system, 0, "service_scv", [1e-9])


def expected_min_of_6000_phases():
    """36M pair terms in one product."""
    return expected_min(Erlang(6000, 6000.0), Erlang(6000, 6000 / 1.1))


def expected_min_at_the_cap(phases):
    """E[min] of two Erlang laws, `phases` times 2048 pair terms."""
    return expected_min(Erlang(phases, float(phases)), Erlang(2048, 2048 / 1.1))


def discrete_against_400000_phases():
    """10^4 atoms, each meeting 4 x 10^5 survival terms."""
    atoms = Discrete(tuple((float(v), 1e-4) for v in range(1, 10_001)))
    return completion_probability(atoms, Erlang(400_000, 400_000.0))


def phase_rich_demo(service_phases: int, visit_phases: int) -> SystemSpec:
    """The demo config with Erlang service and visit laws of mean 1 at queue 1."""
    system = cli._build_system(cli._load_config(str(DEMO_CONFIG))["system"])
    queue = dataclasses.replace(
        system.queues[0], service=Erlang(service_phases, float(service_phases)),
        visit=Erlang(visit_phases, float(visit_phases)))
    return SystemSpec((queue, *system.queues[1:]))


LONG_SWEEP_GRID = np.geomspace(0.5, 2.0, 1000)
LONG_S_GRID = np.geomspace(1e-3, 1e3, 1000)


def long_service_mean_sweep():
    """1000 fitted Erlang(20) services against an Erlang(210) visit.

    One phase group: 4.2M pair terms as a single stack.
    """
    return sojourn_sweep(phase_rich_demo(20, 210), 0, "service_mean",
                         LONG_SWEEP_GRID)


def long_transform_grid():
    """1000 transform points of two 65-phase laws: 4.2M pair terms."""
    return sojourn_metrics(phase_rich_demo(65, 65), LONG_S_GRID).lst_table


def run_cli(*argv):
    """`cli.main(argv)` with its output captured: (exit code, stderr)."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    return code, stderr.getvalue()


def billion_phase_config(tmp_path) -> str:
    """The demo config with a 10^9-phase Erlang service law at queue 1."""
    raw = json.loads(DEMO_CONFIG.read_text(encoding="utf-8"))
    raw["system"]["queues"][0]["service"] = {
        "type": "erlang", "phases": 1_000_000_000, "rate": 1e9}
    path = tmp_path / "phases.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


class TestTermCap:
    """A term sum past `_MAX_TERMS` raises `NumericsError` before it is built.

    Each over-cap call runs in a child under a memory limit: without the
    cap it fills the memory of the machine. Drawing from a law needs no
    term sums, so `simulate` still takes such laws.
    """

    def assert_refused(self, fn, *args) -> str:
        value, error, seconds = call_with_memory_limit(fn, *args)
        assert isinstance(error, NumericsError), (value, error)
        assert f"above the cap of {distributions._MAX_TERMS}" in str(error)
        assert seconds < 1.0
        return str(error)

    def test_cap_is_inclusive(self):
        distributions._check_terms("terms", distributions._MAX_TERMS)
        with pytest.raises(NumericsError, match="would hold 4194305 terms"):
            distributions._check_terms("terms", distributions._MAX_TERMS + 1)

    def test_sweep_to_a_billion_phases(self):
        assert "per-phase arrays would hold 1000000000 terms" in \
            self.assert_refused(demo_sweep_at_scv_1e9)

    def test_product_of_two_6000_phase_erlangs(self):
        assert "term product would hold 36000000 terms" in \
            self.assert_refused(expected_min_of_6000_phases)

    def test_largest_accepted_product(self):
        # 2048 x 2048 pairs is the cap itself: the call runs in the child,
        # at about 135 bytes a pair term, within its memory limit
        value, error, _ = call_with_memory_limit(expected_min_at_the_cap, 2048)
        assert error is None, error
        assert value == pytest.approx(0.9999894913928746, rel=1e-12)
        assert "term product would hold 4196352 terms" in \
            self.assert_refused(expected_min_at_the_cap, 2049)

    def test_long_sweep_is_cut_into_stacks(self):
        value, error, _ = call_with_memory_limit(long_service_mean_sweep)
        assert error is None, error
        system = phase_rich_demo(20, 210)
        # the fit has 19 + 20 phases, so 512 laws make a stack: 511 and 512
        # sit on either side of the cut
        for k in [*range(0, 1000, 17), 511, 512, 999]:
            point = LONG_SWEEP_GRID[k]
            assert value[k] == sojourn_sweep(system, 0, "service_mean", [point])[0]

    def test_long_transform_grid_is_sliced(self):
        value, error, _ = call_with_memory_limit(long_transform_grid)
        assert error is None, error
        system = phase_rich_demo(65, 65)
        for k in range(0, LONG_S_GRID.size, 7):
            column = sojourn_metrics(system, LONG_S_GRID[k:k + 1]).lst_table
            assert value[:, k].tobytes() == column[:, 0].tobytes()

    @pytest.mark.parametrize("visit", ALL_LAWS, ids=repr)
    @pytest.mark.parametrize("service", ALL_LAWS, ids=repr)
    def test_sliced_grid_keeps_every_bit(self, monkeypatch, service, visit):
        # a cap of 60 terms cuts a 23-point grid into slices of 1 to 30
        # points for most pairs; every pair's row fits under it
        grid = np.geomspace(1e-3, 1e3, 23)

        def values():
            return (*attempt_lst(service, visit, grid),
                    served_in_visit(service, visit, grid, 1),
                    survival_product_integral(service, visit, grid, 1))
        whole = values()
        monkeypatch.setattr(distributions, "_MAX_TERMS", 60)
        for got, want in zip(values(), whole):
            assert got.tobytes() == want.tobytes()

    def test_atoms_times_terms_over_the_cap(self):
        assert "term sum over the atoms would hold 4000000000 terms" in \
            self.assert_refused(discrete_against_400000_phases)

    def test_cli_analyze_of_a_billion_phases_is_an_error(self, tmp_path):
        value, error, seconds = call_with_memory_limit(
            run_cli, "analyze", "--config", billion_phase_config(tmp_path))
        assert error is None, error
        code, stderr = value
        assert code == 2
        assert stderr.startswith("error: per-phase arrays would hold "
                                 "1000000000 terms"), stderr
        assert seconds < 1.0

    def test_cli_simulate_takes_a_billion_phases(self, tmp_path):
        value, error, _ = call_with_memory_limit(
            run_cli, "simulate", "--config", billion_phase_config(tmp_path),
            "--cycles", "50")
        assert error is None, error
        assert value == (0, "")


class TestCompletionProbability:
    def test_exponential_pair(self):
        # P[B <= V] for B ~ exp(mu), V ~ exp(gamma) is mu / (mu + gamma)
        got = completion_probability(Exponential(3.0), Exponential(1.0))
        assert got == pytest.approx(0.75, rel=1e-10)

    def test_tie_counts_as_completed(self):
        assert completion_probability(Deterministic(1.0), Deterministic(1.0)) == 1.0
        got = completion_probability(
            Discrete(((1.0, 0.5), (3.0, 0.5))), Discrete(((1.0, 0.5), (2.0, 0.5))))
        # B=1 always fits; B=3 never does
        assert got == pytest.approx(0.5)

    def test_certain_completion(self):
        assert completion_probability(
            Deterministic(1.0), Deterministic(2.0)) == 1.0

    def test_against_sampling(self):
        b, v = Erlang(2, 3.0), MixedErlang(0.4, 3, 2.0)
        rng = np.random.default_rng(11)
        hits = np.mean(b.sample(rng, 400_000) <= v.sample(rng, 400_000))
        assert completion_probability(b, v) == pytest.approx(hits, abs=4e-3)


class TestFits:
    def test_mixed_erlang_frozen_values(self):
        d = fit_mixed_erlang(1.0, 0.5)
        assert isinstance(d, MixedErlang)
        assert d.p == pytest.approx(0.0, abs=1e-12)
        assert d.phases == 2
        assert d.rate == pytest.approx(2.0)

    def test_hyperexponential_frozen_values(self):
        d = fit_hyperexponential(1.0, 3.0)
        assert d.p == pytest.approx(0.8535533905932737, rel=1e-14)
        assert d.rate1 == pytest.approx(1.7071067811865475, rel=1e-14)
        assert d.rate2 == pytest.approx(0.29289321881345254, rel=1e-14)

    def test_stage_count_at_reciprocal_integers(self):
        # 1/scv landing on an integer up to float noise must not bump n
        d = fit_mixed_erlang(1.0, 1.0 / 3.0)
        assert d.phases == 3
        assert d.scv() == pytest.approx(1.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_stage_count_just_below_a_reciprocal_integer(self, n):
        # one ulp below 1/n, ceil(1/scv - 1e-12) gives n, and the loop moves
        # on to n + 1 stages, where 1/(n + 1) <= scv
        scv = math.nextafter(1.0 / n, 0.0)
        d = fit_mixed_erlang(1.0, scv)
        assert d.phases == n + 1
        assert d.mean() == pytest.approx(1.0, rel=1e-15)
        assert d.scv() == pytest.approx(scv, rel=1e-15)

    def test_boundary_routes_to_exponential(self):
        d = fit_two_moments(2.0, 1.0)
        assert isinstance(d, Exponential)
        assert d.rate == pytest.approx(0.5)
        assert isinstance(fit_mixed_erlang(2.0, 1.0), Exponential)

    def test_moment_closure(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            m = float(rng.uniform(0.05, 8.0))
            c = float(rng.uniform(0.01, 6.0))
            d = fit_two_moments(m, c)
            assert d.mean() == pytest.approx(m, rel=1e-12)
            assert d.scv() == pytest.approx(c, rel=1e-9)

    def test_family_continuity_at_boundary(self):
        # both branches converge to exp(1/mean) as scv -> 1
        lo = fit_two_moments(1.0, 1.0 - 1e-9)
        hi = fit_two_moments(1.0, 1.0 + 1e-9)
        for s in (0.5, 1.0, 3.0):
            assert lo.lst(s) == pytest.approx(hi.lst(s), abs=1e-6)

    @pytest.mark.parametrize("mean", [0.0, -1.0])
    def test_bad_mean_at_scv_one_names_the_mean(self, mean):
        with pytest.raises(DomainError, match="mean must be positive"):
            fit_two_moments(mean, 1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            fit_mixed_erlang(1.0, 1.2)
        with pytest.raises(DomainError):
            fit_hyperexponential(1.0, 0.8)
        with pytest.raises(DomainError):
            fit_two_moments(-1.0, 0.5)
        with pytest.raises(DomainError, match="mean must be positive"):
            fit_hyperexponential(0.0, 2.0)


# every family, plus a 500-phase fit whose coefficients overflow outside log space
FUNCTIONAL_LAWS = ALL_LAWS + [fit_mixed_erlang(1.0, 0.002)]


class TestFunctionalsAgainstClosedForms:
    @pytest.mark.parametrize("b", FUNCTIONAL_LAWS, ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("gamma", [0.4, 3.0])
    def test_exponential_partner(self, b, gamma):
        # V ~ exp(gamma): P[B <= V] = E[e^{-gamma B}] and
        # E[min(B, V)] = E[(1 - e^{-gamma B}) / gamma]
        v = Exponential(gamma)
        assert completion_probability(b, v) == pytest.approx(b.lst(gamma), rel=1e-12)
        assert expected_min(b, v) == pytest.approx(
            (1.0 - b.lst(gamma)) / gamma, rel=1e-12)
        assert expected_min(v, b) == pytest.approx(
            (1.0 - b.lst(gamma)) / gamma, rel=1e-12)

    @pytest.mark.parametrize("b", FUNCTIONAL_LAWS, ids=lambda d: type(d).__name__)
    def test_atomic_visit(self, b):
        atoms = ((0.3, 0.2), (1.0, 0.5), (2.5, 0.3))
        want = sum(w * float(b.cdf(v)) for v, w in atoms)
        assert completion_probability(b, Discrete(atoms)) == pytest.approx(
            want, rel=1e-12)
        assert completion_probability(b, Deterministic(1.0)) == pytest.approx(
            float(b.cdf(1.0)), rel=1e-12)

    def test_many_phase_erlang_against_exponential(self):
        # P[Erlang(40, 4) <= exp(2)] = (4 / (4 + 2))^40, about 9e-8
        got = completion_probability(Erlang(40, 4.0), Exponential(2.0))
        assert got == pytest.approx((2.0 / 3.0) ** 40, rel=1e-12)

    def test_tiny_completion_probability_is_not_zero(self):
        system = SystemSpec((
            QueueSpec(1.0, Deterministic(30.0), Exponential(1.0), Deterministic(0.1)),
            QueueSpec(1.0, Exponential(1.0), Exponential(1.0), Deterministic(0.1)),
        ))
        got = derived_quantities(system, 0).completion_prob
        assert got == pytest.approx(math.exp(-30.0), rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, 0.3, 2.0])
    def test_attempt_transforms_exponential_pair(self, s):
        # B ~ exp(mu), V ~ exp(gamma): a race of two exponential clocks
        mu, gamma = 1.5, 0.7
        succ, fail = attempt_lst(Exponential(mu), Exponential(gamma), s)
        assert succ == pytest.approx(mu / (mu + gamma + s), rel=1e-12)
        assert fail == pytest.approx(gamma / (mu + gamma + s), rel=1e-12)

    def test_attempt_transforms_ties(self):
        # a requirement equal to the visit completes, so nothing fails
        succ, fail = attempt_lst(Deterministic(1.0), Deterministic(1.0), 0.5)
        assert succ == pytest.approx(math.exp(-0.5), rel=1e-15)
        assert fail == 0.0
        b = Discrete(((1.0, 0.5), (3.0, 0.5)))
        v = Discrete(((1.0, 0.25), (2.0, 0.75)))
        succ, fail = attempt_lst(b, v, 0.5)
        assert succ == pytest.approx(0.5 * math.exp(-0.5), rel=1e-15)
        assert fail == pytest.approx(
            0.5 * 0.25 * math.exp(-0.5) + 0.5 * 0.75 * math.exp(-1.0), rel=1e-15)

    @pytest.mark.parametrize("b", FUNCTIONAL_LAWS, ids=lambda d: type(d).__name__)
    def test_attempt_outcomes_complement(self, b):
        for v in (Exponential(0.8), Erlang(3, 2.0), Discrete(((0.5, 0.5), (2.0, 0.5)))):
            succ, fail = attempt_lst(b, v, 0.0)
            assert succ == pytest.approx(completion_probability(b, v), rel=1e-12)
            assert succ + fail == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, 0.6])
    def test_served_in_visit_fixed_visit(self, s):
        # B ~ exp(mu), V = v: E[e^{-sB}(v - B)^+] / v with a = mu + s is
        # mu (v / a - (1 - e^{-a v}) / a^2) / v
        mu, v = 1.3, 0.8
        a = mu + s
        want = mu * (v / a - (1.0 - math.exp(-a * v)) / a**2) / v
        assert served_in_visit(Exponential(mu), Deterministic(v), s) == pytest.approx(
            want, rel=1e-12)

    def test_served_in_visit_exponential_pair(self):
        # E[(V - b)^+] / E[V] = e^{-gamma b} for V ~ exp(gamma), so the mean
        # term is E[B e^{-gamma B}] = mu / (mu + gamma)^2
        mu, gamma = 1.5, 0.7
        got = served_in_visit(Exponential(mu), Exponential(gamma), moment=1)
        assert got == pytest.approx(mu / (mu + gamma) ** 2, rel=1e-12)


def mp_reference():
    """mpmath at 40 significant digits, the independent reference below."""
    import mpmath

    return mpmath.workdps(40), mpmath


def relative_error(got, want) -> float:
    """|got - want| / |want| with want an mpmath number, exact at want = 0."""
    if want == 0:
        return 0.0 if got == 0.0 else math.inf
    return float(abs((got - want) / want))


class TestIncompleteGammaAgainstMpmath:
    """The integer-shape P(a, x) and 1 - P(a, x) against mpmath.gammainc."""

    @staticmethod
    def points():
        rng = np.random.default_rng(6)
        a = rng.integers(1, 1001, 200)
        spread = rng.uniform(0.0, 3.0 * a)
        near = np.maximum(a + rng.uniform(-4.0, 4.0, 200) * np.sqrt(a), 0.0)
        small = rng.integers(1, 6, 100)
        return (np.concatenate([a, a, small]).tolist(),
                np.concatenate([spread, near, rng.uniform(0.0, 15.0, 100)]).tolist())

    def test_both_sides_to_1e_12(self):
        digits, mpmath = mp_reference()
        worst_p = worst_q = 0.0
        with digits:
            for a, x in zip(*self.points()):
                p, q = _gamma_pq(a, x)
                want_p = mpmath.gammainc(a, 0, x, regularized=True)
                want_q = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
                if want_p > 1e-300:
                    worst_p = max(worst_p, relative_error(p, want_p))
                if want_q > 1e-300:
                    worst_q = max(worst_q, relative_error(q, want_q))
        assert worst_p <= 1e-12
        assert worst_q <= 1e-12

    @pytest.mark.parametrize("a", [1, 2, 7, 40, 1000])
    def test_zero_argument(self, a):
        assert _gamma_pq(a, 0.0) == (0.0, 1.0)


class TestContinuousLawsAgainstMpmath:
    """survival, pdf and integrated_survival against mpmath at 1e-12."""

    LAWS = [d for d in FUNCTIONAL_LAWS if d.atoms is None]

    @staticmethod
    def references(d, x, mpmath):
        """S(x), f(x) and the integral of S over [0, x], term by term.

        The integral uses P[Erlang(k, r) > t] integrated over [0, x], which
        is sum_{j=1..k} P(j, r x) / r.
        """
        x = mpmath.mpf(x)
        survival = density = integrated = mpmath.mpf(0)
        for w, k, r in d.components:
            w, r = mpmath.mpf(w), mpmath.mpf(r)
            survival += w * mpmath.gammainc(k, r * x, mpmath.inf, regularized=True)
            density += w * r**k * x ** (k - 1) * mpmath.exp(-r * x) \
                / mpmath.factorial(k - 1)
            integrated += w * sum(mpmath.gammainc(j, 0, r * x, regularized=True)
                                  for j in range(1, k + 1)) / r
        return survival, density, integrated

    @staticmethod
    def checkpoints(d):
        """0, the mode, and a point in each tail."""
        mean, sd = d.mean(), math.sqrt(d.variance())
        grid = np.linspace(0.0, mean + 5.0 * sd, 20001)
        mode = float(grid[np.argmax(d.pdf(grid))])
        return [0.0, mode, max(mean - 5.0 * sd, mean / 50.0), mean + 10.0 * sd]

    @pytest.mark.parametrize("d", LAWS, ids=lambda d: type(d).__name__)
    def test_functions_at_checkpoints(self, d):
        digits, mpmath = mp_reference()
        with digits:
            for x in self.checkpoints(d):
                got = (d.survival(x), d.pdf(x), d.integrated_survival(x))
                for value, want in zip(got, self.references(d, x, mpmath)):
                    assert np.ndim(value) == 0
                    assert relative_error(float(value), want) <= 1e-12, (x, value, want)

    @pytest.mark.parametrize("d", LAWS, ids=lambda d: type(d).__name__)
    def test_lst_at_several_s(self, d):
        # sum of w (r / (r + s))^k; the rounding of r / (r + s) grows k-fold
        # in the power, so the 500-phase law gets k times the machine epsilon
        digits, mpmath = mp_reference()
        bound = max(1e-14, 2.0**-52 * max(k for _, k, _ in d.components))
        s_values = [1e-9, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0]
        with digits:
            for s, value in zip(s_values, d.lst(np.array(s_values)).tolist()):
                want = sum(mpmath.mpf(w) * (mpmath.mpf(r) / (r + mpmath.mpf(s))) ** k
                           for w, k, r in d.components)
                assert relative_error(value, want) <= bound, (s, value, want)


@pytest.mark.parametrize("d", [law for law in ALL_LAWS if law.atoms],
                         ids=lambda d: type(d).__name__)
def test_atomic_lst_against_fsum(d):
    # an independent sum: math.fsum of w exp(-s v) is correctly rounded from
    # the terms, which math.exp gives to within an ulp
    s_values = [0.0, 1e-9, 0.05, 0.5, 1.0, 2.0, 5.0, 20.0]
    for s, value in zip(s_values, d.lst(np.array(s_values)).tolist()):
        want = math.fsum(w * math.exp(-s * v) for v, w in d.atoms)
        assert value == pytest.approx(want, rel=1e-14, abs=0.0), s


def test_import_leaves_out_scipy_integrate():
    # the package runs on numpy and the standard library alone
    src = str(Path(mginfpolling.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, mginfpolling, mginfpolling.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# one law of each family, a 50-phase fit, and both atomic families
BIT_LAWS = [
    Exponential(1.3),
    Erlang(3, 2.0),
    MixedErlang(0.3, 4, 5.0),
    HyperExponential(0.7, 2.0, 0.5),
    fit_mixed_erlang(1.0, 0.02),
    Deterministic(0.8),
    Discrete(((0.5, 0.3), (1.0, 0.7))),
]
BIT_GRID = np.array([0.0, 0.1, 2.0])


def pair_values(b, v):
    """Every pair functional of service `b` and visit `v`, as they come."""
    yield completion_probability(b, v)
    yield expected_min(b, v)
    for moment in (0, 1):
        yield served_in_visit(b, v, moment=moment)
    for moment in (0, 1, 2):
        yield survival_product_integral(b, v, moment=moment)
    yield from attempt_lst(b, v, BIT_GRID)
    yield served_in_visit(b, v, BIT_GRID)
    yield survival_product_integral(b, v, BIT_GRID)


def test_pair_functionals_keep_their_bits(monkeypatch):
    # a change to the term-sum kernel that moves any bit of any value, or
    # its order, changes this digest; the digest was recorded before the
    # kernel's one-pass rewrite
    cases = []
    integral = distributions._integral

    def recorded(t):
        rates = "positive" if (t.r > 0.0).all() else "zero"
        cases.append((rates, bool(np.isfinite(t.u).any())))
        return integral(t)

    monkeypatch.setattr(distributions, "_integral", recorded)
    values = []
    for b in BIT_LAWS:
        for v in BIT_LAWS:
            values += [np.ravel(x).tolist() for x in pair_values(b, v)]
    # same-phase fits as a stack, in place of the service and of the visit
    stack = distributions._Stack(
        [fit_mixed_erlang(mean, 0.3) for mean in (0.5, 1.0, 2.0)])
    for law in BIT_LAWS:
        for both in ((stack, law), (law, stack)):
            values += [f(*both).tolist()
                       for f in analytic._PAIR_FUNCTIONALS.values()]
    # the three cases of the integral: positive rates with and without cut
    # columns, and zero rates (two atomic laws at s = 0)
    assert {("positive", False), ("positive", True), ("zero", True)} <= set(cases)
    flat = [float.hex(x) for row in values for x in row]
    assert len(flat) == 49 * 19 + 14 * 4 * 3
    digest = hashlib.sha256(" ".join(flat).encode()).hexdigest()
    assert digest == \
        "31f048893ede08761541961d12286a823f08bbd82643636c489cf4198b2e5dbc", \
        simd_dispatch()


def mp_law(d, mpmath):
    """A law in mpmath: S(x), P[Y >= x], E[(Y - x)^+] and the density.

    The density is None for an atomic law. Each function of x is cached,
    since the quadratures of one pair meet the same nodes again.
    """
    if d.atoms is not None:
        atoms = [(mpmath.mpf(v), mpmath.mpf(w)) for v, w in d.atoms]
        return (lambda x: mpmath.fsum(w for v, w in atoms if v > x),
                lambda x: mpmath.fsum(w for v, w in atoms if v >= x),
                lambda x: mpmath.fsum(w * (v - x) for v, w in atoms if v > x),
                None)
    comps = [(mpmath.mpf(w), k, mpmath.mpf(r)) for w, k, r in d.components]

    def q(k, x):
        return mpmath.gammainc(k, x, mpmath.inf, regularized=True)

    @functools.cache
    def survival(x):
        return mpmath.fsum(w * q(k, r * x) for w, k, r in comps)

    @functools.cache
    def tail(x):
        # E[Y; Y > x] - x P[Y > x] per component
        return mpmath.fsum(w * (k / r * q(k + 1, r * x) - x * q(k, r * x))
                           for w, k, r in comps)

    @functools.cache
    def density(x):
        return mpmath.fsum(w * r**k * x ** (k - 1) * mpmath.exp(-r * x)
                           / mpmath.factorial(k - 1) for w, k, r in comps)

    return survival, survival, tail, density


class TestPairFunctionalsAgainstQuadrature:
    """Each pair functional against mpmath.quad of its defining integral.

    The quadrature breaks at every atom and at half, one and two times the
    mean of each continuous law. Each bound is about ten times the worst
    relative error measured over these pairs, s in {0, 0.5, 2} and moments
    0 and 1, rounded up.
    """

    PAIRS = [
        (fit_mixed_erlang(1.0, 0.02), Exponential(1.3)),
        (Erlang(40, 4.0), Exponential(2.0)),  # P[B <= V] about 9e-8
        (HyperExponential(0.7, 2.0, 0.5), Discrete(((0.5, 0.3), (1.0, 0.7)))),
        (Deterministic(0.8), MixedErlang(0.3, 4, 5.0)),
        (Discrete(((0.5, 0.3), (1.0, 0.7))), Deterministic(0.8)),
        (Erlang(3, 2.0), fit_mixed_erlang(1.0, 0.02)),
    ]
    # worst measured, in this order: 1.2e-14, 6.0e-15, 7.5e-15, 2.0e-14,
    # 1.2e-14 and 2.4e-14
    BOUNDS = {"completion_probability": 2e-13, "expected_min": 1e-13,
              "survival_product_integral": 1e-13, "served_in_visit": 2e-13,
              "attempt_success": 2e-13, "attempt_failure": 3e-13}

    @staticmethod
    def references(b, v, laws, s, moment, mpmath):
        """The defining integrals, as sums over the atoms of an atomic law."""
        (sb, _, _, fb), (sv, gv, tv, fv) = laws
        points = {0.0}
        for d in (b, v):
            points.update([a for a, _ in d.atoms] if d.atoms else
                          [0.5 * d.mean(), d.mean(), 2.0 * d.mean()])
        points = [mpmath.mpf(x) for x in sorted(points)] + [mpmath.inf]

        def expect(d, density, g):
            if density is None:
                return mpmath.fsum(w * g(mpmath.mpf(a)) for a, w in d.atoms)
            return mpmath.quad(lambda x: density(x) * g(x), points)

        def weight(x):
            return x**moment * mpmath.exp(-s * x)

        out = {"survival_product_integral": mpmath.quad(
                   lambda x: weight(x) * sb(x) * sv(x), points),
               "served_in_visit": expect(b, fb, lambda x: weight(x) * tv(x))
               / mpmath.mpf(v.mean())}
        if moment == 0:
            out["attempt_success"] = expect(b, fb, lambda x: weight(x) * gv(x))
            out["attempt_failure"] = expect(v, fv, lambda x: weight(x) * sb(x))
        return out

    @pytest.mark.parametrize("b, v", PAIRS, ids=lambda d: type(d).__name__)
    def test_within_stated_bounds(self, b, v):
        _, mpmath = mp_reference()
        worst = dict.fromkeys(self.BOUNDS, 0.0)
        with mpmath.workdps(20):
            laws = (mp_law(b, mpmath), mp_law(v, mpmath))
            for s, moment in itertools.product((0.0, 0.5, 2.0), (0, 1)):
                want = self.references(b, v, laws, mpmath.mpf(s), moment,
                                       mpmath)
                got = {"survival_product_integral":
                       survival_product_integral(b, v, s, moment),
                       "served_in_visit": served_in_visit(b, v, s, moment)}
                if moment == 0:
                    got["attempt_success"], got["attempt_failure"] = \
                        attempt_lst(b, v, s)
                if s == 0.0 and moment == 0:
                    got["completion_probability"] = completion_probability(b, v)
                    want["completion_probability"] = want["attempt_success"]
                    got["expected_min"] = expected_min(b, v)
                    want["expected_min"] = want["survival_product_integral"]
                for name, value in got.items():
                    error = relative_error(value, want[name])
                    worst[name] = max(worst[name], error)
        assert all(worst[name] <= bound for name, bound in self.BOUNDS.items()), worst
