"""Polling systems of infinite-server queues with random visit times.

A single server cycles through N queues, staying at each for a random
visit time and then traveling onward. Every queue is served as an
infinite-server station while the server is present: all waiting
customers start service simultaneously, each completes within the visit
exactly when a freshly drawn service requirement fits into it, and the
rest wait for the next round. The package computes exact steady-state
queue-length means and generating functions, sojourn-time means and
transforms, and per-tour throughput, optimizes the visit order through an
index rule, and ships a discrete-event simulator that cross-checks every
formula.
"""
from .errors import (
    ConfigError,
    DomainError,
    ModelError,
    NumericsError,
    UnsupportedModelError,
)
from .distributions import (
    Deterministic,
    Discrete,
    Distribution,
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
    served_in_visit,
    survival_product_integral,
)
from .analytic import (
    CycleMoments,
    DerivedQueueQuantities,
    PollingMeans,
    QueueSpec,
    SojournMetrics,
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
from .simulator import (
    SimConfig,
    SimulationReport,
    SingleCycleEstimate,
    leftover_after_visit,
    run,
    single_cycle_throughput,
)
from .optimizer import (
    CENTRAL_POINT,
    SERIAL,
    BruteForceResult,
    ThroughputReport,
    TourState,
    brute_force_order,
    expected_throughput,
    optimal_order,
)

__version__ = "0.1.0"
