"""Oracle checks on the outputs of each benchmarked op.

Each check takes the op's output (exit code, captured stdout, the `--out`
CSV or payload) and returns a list of problems; an empty list passes. The
references are independent of the code path that produced the output:
closed forms from `oracles`, the simulator against the exact means, the
brute-force ranking against the index rule, and single-tour Monte Carlo
against the exact tour throughput. Values computed from the current code
are never stored and compared against.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re

import oracles

# The sojourn transform is known to be wrong for s > 0 (ROADMAP item 1), and
# no independent reference for it exists yet, so it is reported, not checked.
UNCHECKED_LST = ("sojourn_lst at s > 0 is unchecked: the transform is known to "
                 "be wrong away from s = 0 (ROADMAP item 1) and has no "
                 "independent reference yet")


def close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * abs(b), abs_)


def rows(payload: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(payload.decode("utf-8"))))


def metric_table(payload: bytes) -> dict[str, float]:
    return {r["metric"]: float(r["value"]) for r in rows(payload)}


def pooled(payload: bytes) -> dict[str, tuple[float, float]]:
    """Simulate CSV: metric -> (replication mean, standard error)."""
    return {r["metric"]: (float(r["estimate"]), float(r["stderr"]))
            for r in rows(payload) if r["replication"] == "all"}


class Context:
    """What the checks know about one workload run."""

    def __init__(self, raw: dict, system, seed: int, exact: dict):
        self.raw = raw
        self.system = system
        self.seed = seed
        self.exact = exact
        self.queues = raw["system"]["queues"]
        self.n = len(self.queues)
        self.rates = [float(q["arrival_rate"]) for q in self.queues]
        sim = raw.get("sim", {})
        self.replications = sim.get("replications", 10)
        self.pgf_points = [(q - 1, tuple(zs)) for q, zs in sim.get("pgf_points", [])]
        self.laws = [{k: oracles.law(q[k]) for k in ("service", "visit", "switch")}
                     for q in self.queues]
        self.cycle_mean = sum(oracles.mean(l["visit"]) + oracles.mean(l["switch"])
                              for l in self.laws)
        grid = raw["sweep"]["grid"]
        if isinstance(grid, dict):
            step = (grid["stop"] - grid["start"]) / (grid["points"] - 1)
            grid = [grid["start"] + k * step for k in range(grid["points"])]
        self.grid = grid
        # set after the timed ops ran: the analyze CSV and simulate CSV
        self.analytic: dict[str, float] | None = None
        self.simulated: dict[str, tuple[float, float]] | None = None

    @property
    def sim_entries(self) -> int:
        """Entries compared by one simulation-versus-exact family."""
        return 2 * self.n * self.n + 2 * self.n + 1


def check_analyze(ctx: Context, rc: int, text: str, payload: bytes) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    values = metric_table(payload)
    problems = []
    match = re.search(r"mean cycle (\S+)", text)
    if not match or not close(float(match.group(1)), ctx.cycle_mean, 1e-9):
        problems.append(f"mean cycle {match and match.group(1)} != {ctx.cycle_mean!r}")
    for i, laws in enumerate(ctx.laws, start=1):
        p = oracles.completion_probability(laws["service"], laws["visit"])
        if not close(values[f"completion_prob[{i}]"], p, 1e-8):
            problems.append(f"completion_prob[{i}] {values[f'completion_prob[{i}]']!r} "
                            f"!= closed form {p!r}")
        left = ctx.rates[i - 1] * oracles.expected_min(laws["service"], laws["visit"])
        if not close(values[f"leftover_mean[{i}]"], left, 1e-8, 1e-15):
            problems.append(f"leftover_mean[{i}] {values[f'leftover_mean[{i}]']!r} "
                            f"!= closed form {left!r}")
    for name, value in ctx.exact.items():
        if not close(values[name], value, 1e-9):
            problems.append(f"{name} {values[name]!r} != exact {value!r}")
    return problems


def check_sweep(ctx: Context, rc: int, text: str, payload: bytes) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    spec = ctx.raw["sweep"]
    table = rows(payload)
    if len(table) != len(ctx.grid):
        return [f"{len(table)} rows for {len(ctx.grid)} grid values"]
    problems = []
    total_rate = sum(ctx.rates)
    queue = spec["queue"] - 1
    law = ctx.queues[queue]["service" if spec["target"].startswith("service") else "visit"]
    # at the grid value the swept exponential law already has, the two-moment
    # fit returns that same law, so the row must reproduce the analyze means
    own_value = 1.0 if spec["target"].endswith("scv") else 1.0 / law.get("rate", math.nan)
    for row, value in zip(table, ctx.grid):
        es = [float(row[f"ES[{i + 1}]"]) for i in range(ctx.n)]
        if not close(float(row["grid_value"]), value, 1e-12):
            problems.append(f"grid value {row['grid_value']} != {value!r}")
        weighted = sum(r * e for r, e in zip(ctx.rates, es)) / total_rate
        if not close(float(row["ES_weighted"]), weighted, 1e-12):
            problems.append(f"ES_weighted {row['ES_weighted']} != rate-weighted "
                            f"{weighted!r} at {value!r}")
        if law["type"] == "exponential" and close(value, own_value, 1e-12) \
                and ctx.analytic is not None:
            for i, e in enumerate(es, start=1):
                if not close(e, ctx.analytic[f"sojourn_mean[{i}]"], 1e-8):
                    problems.append(f"ES[{i}] {e!r} at the unswept law != analyze "
                                    f"{ctx.analytic[f'sojourn_mean[{i}]']!r}")
    return problems


def check_optimize(ctx: Context, rc: int, text: str, payload: bytes) -> list[str]:
    from mginfpolling import single_cycle_throughput

    if rc != 0:
        return [f"exit code {rc}"]
    spec = ctx.raw["optimize"]
    counts = spec["counts"]
    visited = list(range(1, ctx.n + 1)) if spec.get("mode", "serial") == "serial" \
        else [i + 1 for i, c in enumerate(counts) if c > 0]
    ranking = {r["order"]: float(r["expected_services"]) for r in rows(payload)}
    values = list(ranking.values())
    problems = []
    if len(ranking) != math.factorial(len(visited)) or any(
            sorted(int(q) for q in order.split(" -> ")) != visited for order in ranking):
        problems.append(f"ranking has {len(ranking)} orders, expected every "
                        f"permutation of {visited}")
    sign = -1.0 if spec.get("objective", "max") == "max" else 1.0
    if any(sign * (b - a) < -1e-12 * abs(a) for a, b in zip(values, values[1:])):
        problems.append("ranking is not sorted best first")
    order = re.search(r"optimal order: ([\d >-]+)", text).group(1).strip()
    total = float(re.search(r"expected services in the tour: (\S+)", text).group(1))
    if order not in ranking or not close(ranking[order], values[0], 1e-12, 1e-12):
        problems.append(f"index-rule order {order} is not the brute-force best "
                        f"({ranking.get(order)!r} vs {values[0]!r})")
    elif not close(total, ranking[order], 1e-9):
        problems.append(f"printed total {total!r} != ranked value {ranking[order]!r}")
    mc = single_cycle_throughput(ctx.system, [int(q) - 1 for q in order.split(" -> ")],
                                 counts, replications=20_000, master_seed=ctx.seed)
    z = abs(mc.mean - total) / mc.stderr
    if not z <= oracles.z_threshold(1):
        problems.append(f"single-tour Monte Carlo {mc.mean!r} +- {mc.stderr!r} "
                        f"disagrees with {total!r} (z {z:.2f})")
    return problems


def sim_problems(ctx: Context, simulated) -> list[str]:
    """Simulated means against the analytic ones, calibrated for chance."""
    exact = {}
    for i in range(1, ctx.n + 1):
        for j in range(1, ctx.n + 1):
            for kind in ("polling_mean", "visit_end_mean"):
                exact[f"{kind}[{i},{j}]"] = ctx.analytic[f"{kind}[{i},{j}]"]
        if ctx.rates[i - 1] > 0.0:
            exact[f"sojourn_mean[{i}]"] = ctx.analytic[f"sojourn_mean[{i}]"]
        exact[f"completion_fraction[{i}]"] = ctx.analytic[f"completion_prob[{i}]"]
    exact["throughput_per_cycle"] = sum(ctx.rates) * ctx.cycle_mean
    bound = oracles.t_threshold(ctx.replications - 1, ctx.sim_entries)
    problems = []
    for name, value in exact.items():
        estimate, stderr = simulated[name]
        t = abs(estimate - value) / stderr if stderr > 0 else \
            (0.0 if estimate == value else math.inf)
        if not t <= bound:
            problems.append(f"{name} simulated {estimate!r} +- {stderr!r} vs exact "
                            f"{value!r}: |t| {t:.2f} > {bound:.2f}")
    return problems


def check_simulate(ctx: Context, rc: int, text: str, payload: bytes) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    if ctx.analytic is None:
        return ["no analyze output to compare with"]
    return sim_problems(ctx, pooled(payload))


def validate_rows(ctx: Context, payload: bytes) -> tuple[list[str], list[str]]:
    """The benchmark's verdict on validate's rows, and validate's FAIL rows."""
    bound = oracles.t_threshold(ctx.replications - 1, ctx.sim_entries)
    problems, fails = [], []
    for row in rows(payload):
        name, measured = row["check"], float(row["measured"])
        if row["status"] == "FAIL":
            fails.append(f"{name} {measured:.4g} > {float(row['tolerance']):.3g}")
        if name.startswith("memoryless_closed_form"):
            continue  # compares two s > 0 transforms; see UNCHECKED_LST
        limit = bound if name.startswith("sim_") else float(row["tolerance"])
        if not measured <= limit:
            problems.append(f"{name} {measured!r} > {limit:.4g}")
    return problems, fails


def check_validate(ctx: Context, rc: int, text: str, payload: bytes) -> list[str]:
    if rc not in (0, 1):
        return [f"exit code {rc}"]
    problems, fails = validate_rows(ctx, payload)
    if rc != (1 if fails else 0):
        problems.append(f"exit code {rc} with {len(fails)} FAIL rows")
    atomic = all(q[k]["type"] in ("deterministic", "discrete")
                 for q in ctx.queues for k in ("visit", "switch"))
    names = {r["check"] for r in rows(payload)}
    expected = {f"{c}[{i}]" for i in range(1, ctx.n + 1)
                for c in ("sojourn_lst_at_zero", "sojourn_lst_slope_vs_mean")
                + (("pgf_normalization", "pgf_gradient_vs_means") if atomic else ())}
    if ctx.replications >= 2:
        expected |= {"sim_polling_means_z", "sim_visit_end_means_z", "sim_throughput_z"}
    if not expected <= names:
        problems.append(f"missing rows {sorted(expected - names)}")
    return problems


def check_pgf(ctx: Context, rc: int, text: str, payload: bytes) -> list[str]:
    from mginfpolling import pgf_eval

    values = json.loads(payload)
    bound = oracles.t_threshold(ctx.replications - 1, len(ctx.pgf_points))
    problems = []
    for (q, zs), value in zip(ctx.pgf_points, values):
        one = pgf_eval(ctx.system, q, (1.0,) * ctx.n)
        if not abs(one - 1.0) <= 1e-12:
            problems.append(f"pgf at z = 1 for queue {q + 1} is {one!r}")
        if not 0.0 <= value <= 1.0:
            problems.append(f"pgf value {value!r} outside [0, 1]")
        if ctx.simulated is None:
            problems.append("no simulate output to compare with")
            continue
        estimate, stderr = ctx.simulated[
            f"pgf[q{q + 1};z={','.join(format(z, 'g') for z in zs)}]"]
        t = abs(estimate - value) / stderr
        if not t <= bound:
            problems.append(f"pgf at queue {q + 1}, z {zs}: {value!r} vs simulated "
                            f"{estimate!r} +- {stderr!r}, |t| {t:.2f} > {bound:.2f}")
    return problems


CHECKS = {
    "analyze": check_analyze,
    "sweep": check_sweep,
    "optimize": check_optimize,
    "simulate": check_simulate,
    "validate": check_validate,
    "pgf": check_pgf,
}
