"""Command-line front end for the polling-system toolkit.

Five subcommands cover the workflow: `analyze` prints the exact
steady-state quantities for a configured system, `simulate` runs the
discrete-event oracle and exports per-replication estimates, `sweep`
re-fits one service or visit law over a parameter grid and tabulates the
resulting sojourn means, `optimize` reports the throughput-optimal visit
order, and `validate` cross-checks the analytic pipeline against closed
forms and simulation on the given config.

Each command prints a value and adds its `--out` row in the same pass
over its results, so a new output is added in one place, and the CSV
rows follow the printed order.

Configs are UTF-8 JSON. Distribution records are tagged objects such as
{"type": "exponential", "rate": 1.0}; unknown keys anywhere in the file
are rejected with the offending path spelled out. Queue numbering in
configs and all output is 1-based. Exit codes: 0 success, 1 validation
failure, 2 config, model or output error (an `--out` file that cannot be
written).
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import re
import sys
from collections.abc import Sequence

import numpy as np

from .analytic import (
    _SWEEP_TARGETS,
    QueueSpec,
    SystemSpec,
    cycle_moments,
    pgf_eval,
    polling_means,
    sojourn_lst_exponential,
    sojourn_mean_exponential,
    sojourn_metrics,
    sojourn_sweep,
)
from .distributions import (
    Deterministic,
    Discrete,
    Distribution,
    Erlang,
    Exponential,
    HyperExponential,
    MixedErlang,
)
from .errors import (
    ConfigError,
    DomainError,
    ModelError,
    NumericsError,
    UnsupportedModelError,
)
from .optimizer import (
    CENTRAL_POINT,
    SERIAL,
    TourState,
    _BRUTE_FORCE_LIMIT,
    brute_force_order,
    optimal_order,
)
from .simulator import SimConfig, run

__all__ = ["main"]

DEFAULT_S_GRID = (0.1, 0.5, 1.0, 2.0)

#: per distribution tag: the class and its keyword names, in check order
_DIST_FIELDS = {
    "exponential": (Exponential, ("rate",)),
    "deterministic": (Deterministic, ("value",)),
    "erlang": (Erlang, ("phases", "rate")),
    "mixed_erlang": (MixedErlang, ("p", "phases", "rate")),
    "hyperexponential": (HyperExponential, ("p", "rate1", "rate2")),
    "discrete": (Discrete, ("atoms",)),
}


def _check_keys(obj: dict, path: str, allowed, required=()) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(
                f"{path}: unknown key {key!r} (expected one of: "
                f"{', '.join(sorted(allowed))})")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}: missing required key {key!r}")


def _as_number(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {obj!r}")
    return float(obj)


def _as_int(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{path}: expected an integer, got {obj!r}")
    return obj


def _as_atoms(obj, path: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(obj, list):
        raise ConfigError(f"{path}: expected a list of [value, probability] "
                          "pairs")
    pairs = []
    for k, pair in enumerate(obj):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{path}[{k}]: expected a [value, probability] "
                              "pair")
        pairs.append((_as_number(pair[0], f"{path}[{k}][0]"),
                      _as_number(pair[1], f"{path}[{k}][1]")))
    return tuple(pairs)


_FIELD_PARSERS = {"phases": _as_int, "atoms": _as_atoms}


@contextlib.contextmanager
def _config_errors(path: str, *kinds):
    """Re-raise a library error of one of `kinds` as a ConfigError at `path`."""
    try:
        yield
    except kinds as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _build_distribution(obj, path: str) -> Distribution:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a distribution object, got {obj!r}")
    if "type" not in obj:
        raise ConfigError(f"{path}: missing required key 'type'")
    tag = obj["type"]
    if not isinstance(tag, str) or tag not in _DIST_FIELDS:
        raise ConfigError(
            f"{path}.type: unknown distribution type {tag!r} (expected one "
            f"of: {', '.join(sorted(_DIST_FIELDS))})")
    cls, names = _DIST_FIELDS[tag]
    _check_keys(obj, path, ("type",) + names, names)
    fields = {name: _FIELD_PARSERS.get(name, _as_number)(obj[name],
                                                         f"{path}.{name}")
              for name in names}
    with _config_errors(path, DomainError, ModelError):
        return cls(**fields)


def _build_system(obj, path: str = "system") -> SystemSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    _check_keys(obj, path, ("queues",), ("queues",))
    queues_obj = obj["queues"]
    if not isinstance(queues_obj, list):
        raise ConfigError(f"{path}.queues: expected a list of queue objects")
    queues = []
    for k, q in enumerate(queues_obj):
        qpath = f"{path}.queues[{k + 1}]"
        if not isinstance(q, dict):
            raise ConfigError(f"{qpath}: expected a queue object")
        _check_keys(q, qpath,
                    ("arrival_rate", "service", "visit", "switch",
                     "approach", "return"),
                    ("arrival_rate", "service", "visit", "switch"))
        kwargs = {}
        if "approach" in q:
            kwargs["approach"] = _build_distribution(q["approach"],
                                                     f"{qpath}.approach")
        if "return" in q:
            kwargs["return_"] = _build_distribution(q["return"],
                                                    f"{qpath}.return")
        with _config_errors(qpath, ModelError):
            queues.append(QueueSpec(
                _as_number(q["arrival_rate"], f"{qpath}.arrival_rate"),
                _build_distribution(q["service"], f"{qpath}.service"),
                _build_distribution(q["visit"], f"{qpath}.visit"),
                _build_distribution(q["switch"], f"{qpath}.switch"),
                **kwargs))
    with _config_errors(path, ModelError):
        return SystemSpec(tuple(queues))


def _build_sim(obj, path: str, n_queues: int) -> SimConfig:
    if obj is None:
        return SimConfig()
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    allowed = ("warmup_cycles", "measured_cycles", "replications",
               "master_seed", "pgf_points")
    _check_keys(obj, path, allowed)
    kwargs = {}
    for key in allowed[:4]:
        if key in obj:
            kwargs[key] = _as_int(obj[key], f"{path}.{key}")
    if "pgf_points" in obj:
        points = []
        if not isinstance(obj["pgf_points"], list):
            raise ConfigError(f"{path}.pgf_points: expected a list of "
                              "[queue, [z, ...]] pairs")
        for k, pair in enumerate(obj["pgf_points"]):
            ppath = f"{path}.pgf_points[{k}]"
            if not isinstance(pair, list) or len(pair) != 2 \
                    or not isinstance(pair[1], list):
                raise ConfigError(f"{ppath}: expected [queue, [z, ...]]")
            queue = _as_int(pair[0], f"{ppath}[0]")
            if not 1 <= queue <= n_queues:
                raise ConfigError(f"{ppath}[0]: queue {queue} out of range "
                                  f"1..{n_queues}")
            zs = tuple(_as_number(z, f"{ppath}[1][{j}]")
                       for j, z in enumerate(pair[1]))
            for j, z in enumerate(zs):
                if not math.isfinite(z):
                    raise ConfigError(f"{ppath}[1][{j}]: z must be finite, "
                                      f"got {z!r}")
            if len(zs) != n_queues:
                raise ConfigError(f"{ppath}[1]: expected {n_queues} z values")
            points.append((queue - 1, zs))
        kwargs["pgf_points"] = tuple(points)
    with _config_errors(path, DomainError):
        return SimConfig(**kwargs)


@dataclasses.dataclass(frozen=True)
class _SweepSpec:
    queue: int  # 0-based
    target: str
    grid: tuple[float, ...]


def _build_sweep(obj, path: str, n_queues: int) -> _SweepSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object (the config needs a "
                          "'sweep' block for this command)")
    _check_keys(obj, path, ("queue", "target", "grid"),
                ("queue", "target", "grid"))
    queue = _as_int(obj["queue"], f"{path}.queue")
    if not 1 <= queue <= n_queues:
        raise ConfigError(f"{path}.queue: queue {queue} out of range "
                          f"1..{n_queues}")
    target = obj["target"]
    if target not in _SWEEP_TARGETS:
        raise ConfigError(f"{path}.target: unknown target {target!r} "
                          f"(expected one of: {', '.join(_SWEEP_TARGETS)})")
    grid_obj = obj["grid"]
    if isinstance(grid_obj, list):
        grid = tuple(_as_number(g, f"{path}.grid[{k}]")
                     for k, g in enumerate(grid_obj))
    elif isinstance(grid_obj, dict):
        _check_keys(grid_obj, f"{path}.grid", ("start", "stop", "points"),
                    ("start", "stop", "points"))
        start = _as_number(grid_obj["start"], f"{path}.grid.start")
        stop = _as_number(grid_obj["stop"], f"{path}.grid.stop")
        points = _as_int(grid_obj["points"], f"{path}.grid.points")
        if points < 2:
            raise ConfigError(f"{path}.grid.points: need at least 2 points")
        grid = tuple(float(g) for g in np.linspace(start, stop, points))
    else:
        raise ConfigError(f"{path}.grid: expected a list of values or a "
                          "start/stop/points object")
    if not grid:
        raise ConfigError(f"{path}.grid: grid must not be empty")
    return _SweepSpec(queue=queue - 1, target=target, grid=grid)


def _build_optimize(obj, path: str, n_queues: int) -> tuple[TourState, str]:
    """The tour state and the objective the "optimize" block describes."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object (the config needs an "
                          "'optimize' block for this command)")
    _check_keys(obj, path, ("counts", "mode", "objective"), ("counts",))
    counts_obj = obj["counts"]
    if not isinstance(counts_obj, list) or len(counts_obj) != n_queues:
        raise ConfigError(f"{path}.counts: expected a list of {n_queues} "
                          "nonnegative integers")
    counts = tuple(_as_int(c, f"{path}.counts[{k}]")
                   for k, c in enumerate(counts_obj))
    mode = obj.get("mode", SERIAL)
    if mode not in (SERIAL, CENTRAL_POINT):
        raise ConfigError(f"{path}.mode: expected {SERIAL!r} or "
                          f"{CENTRAL_POINT!r}, got {mode!r}")
    objective = obj.get("objective", "max")
    if objective not in ("max", "min"):
        raise ConfigError(f"{path}.objective: expected 'max' or 'min', "
                          f"got {objective!r}")
    with _config_errors(f"{path}.counts", DomainError):
        return TourState(counts, mode=mode), objective


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys(raw, "config", ("system", "sim", "sweep", "optimize"),
                ("system",))
    return raw


def _thread_count(replications: int) -> int:
    threads = min(replications, os.cpu_count() or 1)
    cap = os.environ.get("POLLING_NUM_THREADS")
    if cap is not None:
        try:
            cap_value = int(cap)
        except ValueError:
            cap_value = 0
        if cap_value < 1:
            raise ConfigError(
                f"POLLING_NUM_THREADS must be a positive integer, got {cap!r}")
        threads = min(threads, cap_value)
    return threads


#: rows formatted per write, so no more than this many are held as text
_CSV_CHUNK_ROWS = 4096


class _OutputError(Exception):
    """An `--out` file could not be opened or written."""

    def __init__(self, path: str, exc: OSError):
        super().__init__(f"cannot write {path}: {exc.strerror or exc}")


def _needs_quotes(text: str) -> bool:
    """Whether csv's minimal quoting wraps a cell holding `text`."""
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _csv_text(cell: str) -> str:
    """A text cell as csv's minimal quoting writes it."""
    if _needs_quotes(cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_column(cells: tuple) -> Sequence[str]:
    """One column of a chunk of rows, each cell formatted for the file.

    A column of Python floats is one `float.__repr__` pass, and a column
    of text is written as it is unless some cell needs quotes; a column
    with other numbers, or with text and numbers, goes cell by cell.
    """
    kinds = set(map(type, cells))
    if kinds == {float}:
        return list(map(float.__repr__, cells))
    if kinds == {str}:
        return list(map(_csv_text, cells)) \
            if _needs_quotes("".join(cells)) else cells
    return [_csv_text(c) if isinstance(c, str) else repr(float(c))
            for c in cells]


def _write_table(fh, header, rows) -> None:
    fh.write(",".join(map(_csv_text, header)) + "\n")
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, _CSV_CHUNK_ROWS)):
        columns = [_csv_column(cells) for cells in zip(*chunk, strict=True)]
        fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def _write_csv(out_path: str | None, header, rows) -> None:
    """Write `header` and `rows` as CSV to `out_path`, or to stdout for None.

    The dialect is csv's default with "\\n" line ends. A text cell is
    wrapped in double quotes, with every inner quote doubled, when it holds
    a comma, a double quote, CR or LF; any other cell is written as
    repr(float(cell)), so nan, inf and -0.0 keep their Python spellings.
    The rows go out in chunks of `_CSV_CHUNK_ROWS`, each formatted column
    by column and written as one string, so a generator of rows is never
    held whole. A file that cannot be opened or written raises
    `_OutputError`, and a regular file left holding part of the table is
    removed.
    """
    if out_path is None:
        _write_table(sys.stdout, header, rows)
        return
    try:
        fh = open(out_path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise _OutputError(out_path, exc) from exc
    try:
        with fh:
            _write_table(fh, header, rows)
    except BaseException as exc:
        # a device or pipe given as the path is left alone
        if os.path.isfile(out_path):
            with contextlib.suppress(OSError):
                os.remove(out_path)
        if isinstance(exc, OSError):
            raise _OutputError(out_path, exc) from exc
        raise


def _parse_s_grid(text: str) -> tuple[float, ...]:
    try:
        grid = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"--s-grid must be comma-separated numbers, "
                          f"got {text!r}")
    if any(s < 0 or not math.isfinite(s) for s in grid):
        raise ConfigError("--s-grid values must be finite and >= 0")
    return grid


def _inputs(args) -> tuple[dict, SystemSpec]:
    """The config's blocks and the system its "system" block describes."""
    raw = _load_config(args.config)
    return raw, _build_system(raw["system"])


def cmd_analyze(args) -> int:
    _, system = _inputs(args)
    n = len(system.queues)
    s_grid = (DEFAULT_S_GRID if args.s_grid is None
              else _parse_s_grid(args.s_grid))

    # the transform pass of each queue also computes the s-free pairs that
    # derived_quantities then reads, sharing term products with them
    metrics = sojourn_metrics(system, s_grid)
    derived = system._derived_quantities
    pm = polling_means(system)
    cm = cycle_moments(system)
    rows = []

    print(f"system: {n} queues, mean cycle {cm.cycle_mean:.10g}")
    print()
    print("queue  arrival_rate  completion_prob  leftover_mean")
    for i, (q, d) in enumerate(zip(system.queues, derived), 1):
        print(f"{i:>5}  {q.arrival_rate:>12.10g}  "
              f"{d.completion_prob:>15.10g}  {d.leftover_arrival_mean:>13.10g}")
        rows += [(f"completion_prob[{i}]", d.completion_prob),
                 (f"leftover_mean[{i}]", d.leftover_arrival_mean)]
    for metric, matrix, title in (
            ("polling_mean", pm.at_polling,
             "polling instants (row: polled queue)"),
            ("visit_end_mean", pm.at_visit_end,
             "visit ends (row: finished queue)")):
        print()
        print(f"queue-length means at {title}:")
        for i, row in enumerate(matrix, 1):
            print("  " + "  ".join(f"{v:>12.10g}" for v in row))
            rows += [(f"{metric}[{i},{j}]", v) for j, v in enumerate(row, 1)]
    print()
    print("queue  sojourn_mean  mean_count_at_any_time")
    for i, (q, mean) in enumerate(zip(system.queues, metrics.means), 1):
        count = q.arrival_rate * mean
        print(f"{i:>5}  {mean:>12.10g}  {count:>22.10g}")
        rows += [(f"sojourn_mean[{i}]", mean), (f"mean_count[{i}]", count)]
    print()
    print("sojourn transform samples (rows: s):")
    print("     s  " + "  ".join(f"{'queue ' + str(i + 1):>12}"
                                 for i in range(n)))
    for s, row in zip(s_grid, metrics.lst_table.T):
        print(f"{s:>6.4g}  " + "  ".join(f"{v:>12.10g}" for v in row))
        rows += [(f"sojourn_lst[{i}]@s={s:g}", v) for i, v in enumerate(row, 1)]

    if args.out:
        _write_csv(args.out, ("metric", "value"), rows)
    return 0


def _simulation_inputs(args):
    """The system, its sim block with the command-line overrides, and workers."""
    raw, system = _inputs(args)
    sim = _build_sim(raw.get("sim"), "sim", len(system.queues))
    if args.seed is not None:
        with _config_errors("--seed", DomainError):
            sim = dataclasses.replace(sim, master_seed=args.seed)
    if args.cycles is not None:
        with _config_errors("--cycles", DomainError):
            sim = dataclasses.replace(sim, measured_cycles=args.cycles)
    return system, sim, _thread_count(sim.replications)


def cmd_simulate(args) -> int:
    system, sim, threads = _simulation_inputs(args)
    report = run(system, sim, threads=threads)

    print(f"simulated {sim.replications} replications x "
          f"{sim.measured_cycles} cycles (warmup {sim.warmup_cycles}, "
          f"seed {sim.master_seed}, {threads} worker(s))")
    print()
    rows = []
    print(f"{'metric':<34}  {'estimate':>14}  {'stderr':>12}")
    for (metric, values), mean, se in zip(report.per_replication.items(),
                                          *report.summary):
        print(f"{metric:<34}  {float(mean):>14.8g}  {float(se):>12.4g}")
        if args.out:
            rows += [(str(r), metric, value, "")
                     for r, value in enumerate(values.tolist(), 1)]
            rows.append(("all", metric, float(mean), float(se)))

    if args.out:
        _write_csv(args.out, ("replication", "metric", "estimate", "stderr"),
                   rows)
    return 0


def cmd_sweep(args) -> int:
    raw, system = _inputs(args)
    n = len(system.queues)
    spec = _build_sweep(raw.get("sweep"), "sweep", n)

    header = ("grid_value", "ES_weighted") + tuple(f"ES[{i + 1}]"
                                                   for i in range(n))
    points = sojourn_sweep(system, spec.queue, spec.target, spec.grid)
    rows = [(value, weighted) + per_queue
            for value, (weighted, per_queue) in zip(spec.grid, points)]
    _write_csv(args.out, header, rows)
    return 0


def cmd_optimize(args) -> int:
    raw, system = _inputs(args)
    n = len(system.queues)
    state, objective = _build_optimize(raw.get("optimize"), "optimize", n)
    objective = args.objective or objective
    with _config_errors("optimize", UnsupportedModelError):
        report = optimal_order(system, state, objective)

    names = [str(q + 1) for q in range(n)]

    def label(order):
        return " -> ".join([names[q] for q in order]) or "(empty)"

    print(f"mode: {state.mode}   objective: {objective}")
    print(f"initial counts: {list(state.counts)}")
    print()
    rows = []
    print("queue  index_value")
    for i, value in enumerate(report.index_values):
        marker = "" if i in report.order else "  (not visited)"
        print(f"{i + 1:>5}  {value:>11.10g}{marker}")
        rows.append((f"index[{i + 1}]", value))
    # the order ranks its queues' index values, so a tie is between neighbours
    tied = any(math.isclose(a, b, rel_tol=1e-12) for a, b in
               itertools.pairwise(report.index_values[list(report.order)]))
    order = label(report.order)
    rows += [("order", order), ("expected_services", report.total)]
    print()
    print(f"optimal order: {order}"
          + ("   (ties present: tied queues may be permuted freely)"
             if tied else ""))
    print(f"expected services in the tour: {report.total:.10g}")
    print(f"order-invariant part: {report.constant:.10g}")
    print()
    print("queue  expected_services")
    for i in range(n):
        print(f"{i + 1:>5}  {report.per_queue[i]:>17.10g}")

    if args.brute_force:
        if len(report.order) > _BRUTE_FORCE_LIMIT:
            raise DomainError(
                f"--brute-force scans at most {_BRUTE_FORCE_LIMIT} visited "
                f"queues and this tour visits {len(report.order)}; the "
                f"index-rule report above needs no scan")
        result = brute_force_order(system, state, objective)
        print()
        print(f"exhaustive ranking ({len(result.ranking)} orders):")
        ranking = result.ranking
        shown = ranking if len(ranking) <= 24 else ranking[:10]
        for order, value in shown:
            print(f"  {value:>14.10g}  {label(order)}")
        if len(ranking) > 24:
            print(f"  ... {len(ranking) - 20} more ...")
            for order, value in ranking[-10:]:
                print(f"  {value:>14.10g}  {label(order)}")
        if args.out:
            # a generator, so each label lives only while its row is written
            _write_csv(args.out, ("order", "expected_services"),
                       ((label(order), value) for order, value in ranking))
    elif args.out:
        _write_csv(args.out, ("metric", "value"), rows)
    return 0


def _worst_row(name: str, tol: float, measured, exact, scales):
    """Yield the row (name, tol, worst) by the rule of `_validate_checks`,
    or nothing; `measured(k)` is called only for an entry k that counts."""
    worst = [abs(measured(k) - exact[k]) / s for k, s in enumerate(scales)
             if math.isfinite(s) and s > 0.0]
    if worst:
        yield name, tol, float(max(worst))


def _validate_checks(system: SystemSpec, sim: SimConfig, scale: float,
                     threads: int):
    """Yield (check name, tolerance, measured value) triples.

    A row over entries is the largest |measured - exact| / scale over those
    whose scale (a z row's stderr, a relative error's exact value) is finite
    and > 0, and is left out when none is: no `sim_` row for one replication
    or for queues without arrivals, no `pgf_gradient_vs_means` row when all
    its means are 0.
    """
    n = len(system.queues)
    h = 1e-6
    memoryless = all(isinstance(q.service, Exponential)
                     and isinstance(q.visit, Exponential) for q in system.queues)
    # one grid pass gives every queue's transform at 0 and h and, for a
    # memoryless system, on the default grid, each entry equal to the
    # one-point `sojourn_lst`
    metrics = sojourn_metrics(
        system, (0.0, h) + (DEFAULT_S_GRID if memoryless else ()))
    means = metrics.means
    lsts = metrics.lst_table.tolist()
    pm = polling_means(system)

    for i in range(n):
        yield (f"sojourn_lst_at_zero[{i + 1}]", 1e-12 * scale,
               abs(lsts[i][0] - 1.0))
    for i in range(n):
        slope = (1.0 - lsts[i][1]) / h
        yield (f"sojourn_lst_slope_vs_mean[{i + 1}]", 1e-4 * scale,
               abs(slope - means[i]) / means[i])

    if memoryless:
        for i in range(n):
            closed = [sojourn_mean_exponential(system, i)] + [
                sojourn_lst_exponential(system, i, s) for s in DEFAULT_S_GRID]
            yield from _worst_row(
                f"memoryless_closed_form[{i + 1}]", 1e-8 * scale,
                ([means[i]] + lsts[i][2:]).__getitem__, closed, closed)

    steps = 1.0 - h * np.eye(n)  # row j: z = 1 but for z_j = 1 - h
    try:
        at_one = [pgf_eval(system, i, np.ones(n)) for i in range(n)]
    except UnsupportedModelError:
        at_one = []  # pgf_eval decides which laws it covers
    for i, value in enumerate(at_one):
        yield (f"pgf_normalization[{i + 1}]", 1e-12 * scale, abs(value - 1.0))
        yield from _worst_row(
            f"pgf_gradient_vs_means[{i + 1}]", 1e-4 * scale,
            lambda j: (1.0 - pgf_eval(system, i, steps[j])) / h,
            pm.at_polling[i], pm.at_polling[i])

    report = run(system, sim, threads=threads)
    # (name, estimates, exact values, stderrs)
    estimates = [
        ("sim_polling_means_z", report.polling_means, pm.at_polling,
         report.polling_stderr),
        ("sim_visit_end_means_z", report.visit_end_means, pm.at_visit_end,
         report.visit_end_stderr)]
    for i, d in enumerate(system._derived_quantities):
        estimates += [(f"sim_sojourn_mean_z[{i + 1}]", report.sojourn_means[i],
                       means[i], report.sojourn_stderr[i]),
                      (f"sim_completion_fraction_z[{i + 1}]",
                       report.completion_fraction[i], d.completion_prob,
                       report.completion_stderr[i])]
    total_rate = sum(q.arrival_rate for q in system.queues)
    estimates.append(("sim_throughput_z", report.throughput_mean,
                      total_rate * cycle_moments(system).cycle_mean,
                      report.throughput_stderr))
    for name, estimate, exact, se in estimates:
        yield from _worst_row(name, 3.0 * scale, np.ravel(estimate).__getitem__,
                              np.ravel(exact), np.ravel(se))


def cmd_validate(args) -> int:
    scale = args.tolerance_scale
    if not (math.isfinite(scale) and scale > 0.0):
        raise ConfigError(f"--tolerance-scale must be finite and > 0, "
                          f"got {scale!r}")
    system, sim, threads = _simulation_inputs(args)

    rows = []
    print(f"{'check':<34}  {'tolerance':>10}  {'measured':>12}  status")
    for name, tol, measured in _validate_checks(system, sim, scale, threads):
        status = "PASS" if measured <= tol else "FAIL"
        rows.append((name, tol, measured, status))
        print(f"{name:<34}  {tol:>10.3g}  {measured:>12.5g}  {status}")
    if args.out:
        _write_csv(args.out, ("check", "tolerance", "measured", "status"),
                   rows)
    failures = sum(status == "FAIL" for *_, status in rows)
    if failures:
        print(f"\n{failures} check(s) failed")
        return 1
    print("\nall checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mginfpolling",
        description="Exact analysis, simulation, and visit-order "
                    "optimization for polling systems of infinite-server "
                    "queues with random visit times.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seeded=False):
        p.add_argument("--config", required=True,
                       help="path to the JSON config file")
        p.add_argument("--out", help="write CSV output to this path")
        if seeded:
            p.add_argument("--seed", type=int, help="override sim.master_seed")
            p.add_argument("--cycles", type=int,
                           help="override sim.measured_cycles")

    p = sub.add_parser("analyze",
                       help="print exact steady-state quantities")
    add_common(p)
    p.add_argument("--s-grid",
                   help="comma-separated transform sample points "
                        "(default 0.1,0.5,1,2)")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("simulate", help="run the discrete-event oracle")
    add_common(p, seeded=True)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("sweep",
                       help="tabulate sojourn means over a parameter grid")
    add_common(p)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("optimize", help="report the optimal visit order")
    add_common(p)
    p.add_argument("--objective", choices=("max", "min"),
                   help="override optimize.objective")
    p.add_argument("--brute-force", action="store_true",
                   help="also scan all orders exhaustively (<= 9 queues)")
    p.set_defaults(handler=cmd_optimize)

    p = sub.add_parser("validate",
                       help="cross-check analytics against closed forms "
                            "and simulation")
    add_common(p, seeded=True)
    p.add_argument("--tolerance-scale", type=float, default=1.0,
                   help="multiply every tolerance by this finite factor "
                            "> 0 (< 1 tightens the checks)")
    p.set_defaults(handler=cmd_validate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call in a process.

    Parsing leaves no state on the parser: each call gets a new namespace
    with the defaults.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ModelError, DomainError, NumericsError) as exc:
        # library internals number queues from 0; everything user-facing is
        # 1-based
        message = re.sub(r"\bqueue (\d+)\b",
                         lambda m: f"queue {int(m.group(1)) + 1}", str(exc))
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
