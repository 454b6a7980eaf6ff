"""The public surface: the names the package and each module export.

The lists are literal, so adding or dropping a public name is a visible
change to this file rather than a side effect of an edit elsewhere.
"""
import importlib
import inspect

import pytest

import mginfpolling

PACKAGE_NAMES = [
    "BruteForceResult", "CENTRAL_POINT", "ConfigError", "CycleMoments",
    "DerivedQueueQuantities", "Deterministic", "Discrete", "Distribution",
    "DomainError", "Erlang", "Exponential", "HyperExponential", "MixedErlang",
    "ModelError", "NumericsError", "PollingMeans", "QueueSpec", "SERIAL",
    "SimConfig", "SimulationReport", "SingleCycleEstimate", "SojournMetrics",
    "SystemSpec", "ThroughputReport", "TourState", "UnsupportedModelError",
    "attempt_lst", "brute_force_order", "completion_probability",
    "cycle_moments", "derived_quantities", "expected_min",
    "expected_throughput", "fit_hyperexponential", "fit_mixed_erlang",
    "fit_two_moments", "leftover_after_visit", "optimal_order", "pgf_eval",
    "polling_means", "run", "served_in_visit", "single_cycle_throughput",
    "sojourn_lst", "sojourn_lst_exponential", "sojourn_mean",
    "sojourn_mean_exponential", "sojourn_metrics", "sojourn_sweep",
    "survival_product_integral", "weighted_sojourn_mean",
]

MODULE_ALL = {
    "distributions": [
        "Distribution", "Exponential", "Deterministic", "Erlang",
        "MixedErlang", "HyperExponential", "Discrete", "has_atom_at_zero",
        "survival_product_integral", "expected_min", "completion_probability",
        "attempt_lst", "served_in_visit", "fit_mixed_erlang",
        "fit_hyperexponential", "fit_two_moments",
    ],
    "analytic": [
        "QueueSpec", "SystemSpec", "DerivedQueueQuantities", "CycleMoments",
        "PollingMeans", "SojournMetrics", "derived_quantities",
        "cycle_moments", "polling_means", "pgf_eval",
        "sojourn_mean", "sojourn_lst", "sojourn_mean_exponential",
        "sojourn_lst_exponential", "sojourn_metrics", "sojourn_sweep",
        "weighted_sojourn_mean",
    ],
    "simulator": [
        "SERVED_SAME_VISIT", "CARRIED_FROM_VISIT", "OUTSIDE_VISIT",
        "SimConfig", "SimulationReport", "SingleCycleEstimate", "run",
        "single_cycle_throughput", "leftover_after_visit",
    ],
    "optimizer": [
        "SERIAL", "CENTRAL_POINT", "TourState", "ThroughputReport",
        "BruteForceResult", "expected_throughput", "optimal_order",
        "brute_force_order",
    ],
    "cli": ["main"],
}

#: the errors module has no __all__; its public names are its classes
ERROR_NAMES = ["ConfigError", "DomainError", "ModelError", "NumericsError",
               "UnsupportedModelError"]


def test_package_names():
    public = sorted(name for name, value in vars(mginfpolling).items()
                    if not name.startswith("_") and not inspect.ismodule(value))
    assert public == PACKAGE_NAMES


@pytest.mark.parametrize("module", sorted(MODULE_ALL))
def test_module_all(module):
    assert importlib.import_module(f"mginfpolling.{module}").__all__ \
        == MODULE_ALL[module]


def test_error_names():
    errors = importlib.import_module("mginfpolling.errors")
    assert not hasattr(errors, "__all__")
    assert sorted(name for name in vars(errors) if not name.startswith("_")) \
        == ERROR_NAMES
