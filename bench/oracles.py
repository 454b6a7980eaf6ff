"""Reference values computed without the code the benchmark times.

Every continuous law in a config is rebuilt here as a finite mixture of
Erlang components, and every atomic law as its atoms. The two-law
quantities that the analytic layer gets from adaptive quadrature then have
exact finite sums: the completion probability P[B <= V] and E[min(B, V)].
These reuse no code from the package.

The simulation checks compare replication means with exact values. With R
replications the standardized error of one entry follows Student's t with
R - 1 degrees of freedom, and a check over m entries uses the Bonferroni
level ALPHA / m per entry, so a correct program fails a check family with
probability at most ALPHA whatever the seed.
"""
from __future__ import annotations

import math
from statistics import NormalDist

# Family-wise false-alarm level of one calibrated check.
ALPHA = 1e-5


def law(record: dict):
    """('atoms', [(value, weight)]) or ('erlang', [(weight, phases, rate)])."""
    kind = record["type"]
    if kind == "deterministic":
        return "atoms", [(float(record["value"]), 1.0)]
    if kind == "discrete":
        return "atoms", [(float(v), float(w)) for v, w in record["atoms"]]
    if kind == "exponential":
        parts = [(1.0, 1, record["rate"])]
    elif kind == "erlang":
        parts = [(1.0, record["phases"], record["rate"])]
    elif kind == "mixed_erlang":
        p, k = record["p"], record["phases"]
        parts = [(p, k - 1, record["rate"]), (1.0 - p, k, record["rate"])]
    elif kind == "hyperexponential":
        p = record["p"]
        parts = [(p, 1, record["rate1"]), (1.0 - p, 1, record["rate2"])]
    else:
        raise ValueError(f"unknown law type {kind!r}")
    return "erlang", [(float(w), int(k), float(r)) for w, k, r in parts if w > 0]


def mean(lw) -> float:
    kind, parts = lw
    if kind == "atoms":
        return sum(v * w for v, w in parts)
    return sum(w * k / r for w, k, r in parts)


def _erlang_sf(k: int, rate: float, x: float) -> float:
    """P[Erlang(k, rate) > x]."""
    y = rate * x
    term = math.exp(-y)
    total = term
    for i in range(1, k):
        term *= y / i
        total += term
    return total


def _sf(lw, x: float) -> float:
    kind, parts = lw
    if kind == "atoms":
        return sum(w for v, w in parts if v > x)
    return sum(w * _erlang_sf(k, r, x) for w, k, r in parts)


def _integrated_sf(lw, x: float) -> float:
    """Integral of P[Y > t] over t in [0, x], i.e. E[min(Y, x)]."""
    kind, parts = lw
    if kind == "atoms":
        return sum(w * min(v, x) for v, w in parts)
    return sum(w / r * sum(1.0 - _erlang_sf(i, r, x) for i in range(1, k + 1))
               for w, k, r in parts)


def completion_probability(service, visit) -> float:
    """P[B <= V] for independent service B and visit V (ties complete)."""
    if visit[0] == "atoms":
        return sum(w * (1.0 - _sf(service, v)) for v, w in visit[1])
    if service[0] == "atoms":
        return sum(w * _sf(visit, b) for b, w in service[1])
    # P[B > V] = sum over components of
    #   sum_{j < kb} C(j + kv - 1, j) mu^j gamma^kv / (mu + gamma)^(j + kv)
    overshoot = 0.0
    for wb, kb, mu in service[1]:
        for wv, kv, gamma in visit[1]:
            overshoot += wb * wv * sum(
                math.comb(j + kv - 1, j) * mu**j * gamma**kv
                / (mu + gamma) ** (j + kv) for j in range(kb))
    return 1.0 - overshoot


def expected_min(a, b) -> float:
    """E[min(A, B)] for independent A and B."""
    if a[0] == "atoms":
        return sum(w * _integrated_sf(b, v) for v, w in a[1])
    if b[0] == "atoms":
        return expected_min(b, a)
    total = 0.0
    for wa, ka, mu in a[1]:
        for wb, kb, gamma in b[1]:
            total += wa * wb * sum(
                math.comb(i + j, i) * mu**i * gamma**j / (mu + gamma) ** (i + j + 1)
                for i in range(ka) for j in range(kb))
    return total


def t_tail(t: float, df: int) -> float:
    """P[|T| > t] for Student's t with integer df (Abramowitz-Stegun 26.7)."""
    theta = math.atan(t / math.sqrt(df))
    c2 = math.cos(theta) ** 2
    if df % 2:
        series, term = 0.0, math.cos(theta)
        if df > 1:
            series = term
            for k in range(3, df - 1, 2):
                term *= c2 * (k - 1) / k
                series += term
        inside = 2.0 / math.pi * (theta + math.sin(theta) * series)
    else:
        series = term = 1.0
        for k in range(2, df - 1, 2):
            term *= c2 * (k - 1) / k
            series += term
        inside = math.sin(theta) * series
    return max(1.0 - inside, 0.0)


def t_threshold(df: int, entries: int, alpha: float = ALPHA) -> float:
    """|t| bound one entry of an `entries`-entry family may reach."""
    target = alpha / entries
    lo, hi = 0.0, 1.0
    while t_tail(hi, df) > target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_tail(mid, df) > target:
            lo = mid
        else:
            hi = mid
    return hi


def z_threshold(entries: int, alpha: float = ALPHA) -> float:
    """Normal counterpart of `t_threshold`, for large-sample estimates."""
    return NormalDist().inv_cdf(1.0 - alpha / (2.0 * entries))
