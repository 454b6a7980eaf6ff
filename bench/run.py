#!/usr/bin/env python3
"""Benchmark of the mginfpolling command-line pipelines.

Usage (from the repository root):

    python3 bench/run.py --workload demo --seed 1 --seconds 30 --trace 0

One invocation runs one workload in its own process. The untraced run
(`--trace 0`) times, in a closed loop with one caller, the five pipelines
the CLI exposes through `mginfpolling.cli.main([...])` in-process
(`analyze`, `sweep`, `optimize --brute-force`, `simulate`, `validate`),
plus `pgf_eval` on workloads with atomic laws, and checks every output
against an oracle (see checks.py). The traced run (`--trace 1`) alternates
an untraced and a traced pass over the same ops and reports per-layer
counts and self times (see tracing.py). Both end with one JSON line:
{"correct", "attempted", "failed", "metrics"}. Everything runs with
POLLING_NUM_THREADS=1. Metric definitions are in README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = {
    "demo": {
        "why": "demos/base_config.json as shipped (N=2, exp/exp): the README "
               "system, where the per-customer simulator loop dominates",
        "exact": {"sojourn_mean[1]": 31 / 12, "polling_mean[1,1]": 8 / 3},
        # --cycles for simulate and validate: 10 x (1000 + 2000) cycles is
        # under 1 s, so a run holds several samples of each and the probes
        # around them follow the machine's speed
        "cycles": 2000,
    },
    "general-wide": {
        "why": "N=8 with every continuous family on service and visit, "
               "central-point tours and a visit_scv sweep across 1: adaptive "
               "quadrature and the N^2 simulator cost",
        "exact": {},
    },
    "atomic-pgf": {
        "why": "N=3 with two-atom visit and atomic switch laws and "
               "sim.pgf_points: the only inputs on which pgf_eval runs",
        "exact": {},
    },
}
CLI_OPS = ("analyze", "sweep", "optimize", "simulate", "validate")
FUNCTIONALS = {f"distributions.{name}" for name in (
    "completion_probability", "expected_min", "min_lst",
    "survival_product_integral", "expectation")}
IMPORTTIME_RUNS = 3
# Time an op gets in each round of the closed loop.
SLOT_S = 0.25
DETERMINISM_CYCLES = 300
# Nominal time of `probe()`: its median on a 2-vCPU Xeon VM at 2.1 GHz.
PROBE_REFERENCE_S = 0.008
# A sample is scaled by the probes up to this many marks before and after it.
PROBE_WINDOW = 5

END_TO_END = {
    "setup_s": "s", "analyze_s": "s/call", "sweep_points_per_s": "points/s",
    "optimize_s": "s/call", "simulate_cycles_per_s": "cycles/s",
    "validate_s": "s/call", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.scipy_s": "s", "import.numpy_s": "s", "import.mginfpolling_s": "s",
    "cli.config_build_s": "s",
    **{f"cli.self_s.{op}": "s" for op in CLI_OPS},
    **{f"distributions.{kind}.{op}": unit for op in CLI_OPS if op != "simulate"
       for kind, unit in (("quad_calls", "count"), ("integrand_evals", "count"),
                          ("functional_self_s", "s"))},
    "distributions.sample_s": "s", "distributions.sample_calls": "count",
    **{f"analytic.derived_quantities_calls.{op}": "count"
       for op in CLI_OPS if op != "simulate"},
    "analytic.sojourn_mean_self_s": "s", "analytic.sojourn_lst_self_s": "s",
    "analytic.polling_means_self_s": "s", "analytic.pgf_eval_calls": "count",
    "simulator.cycles_per_s": "cycles/s", "simulator.visits_per_s": "visits/s",
    "simulator.customers_per_s": "customers/s", "simulator.self_s": "s",
    "optimizer.optimal_order_s": "s", "optimizer.brute_force_order_s": "s",
    "optimizer.orders_scored": "count", "trace.overhead_frac": "ratio",
}

# A fresh interpreter pays this before its first op: the import and the
# config build that every CLI command starts with.
SETUP_SCRIPT = """
import sys, time
sys.path.insert(0, sys.argv[1])
from mginfpolling import cli
t0 = time.perf_counter()
raw = cli._load_config(sys.argv[2])
system = cli._build_system(raw["system"])
n = len(system.queues)
cli._build_sim(raw.get("sim"), "sim", n)
cli._build_sweep(raw.get("sweep"), "sweep", n)
cli._build_optimize(raw.get("optimize"), "optimize", n)
print(time.perf_counter() - t0)
"""


def probe() -> float:
    """Seconds for a fixed interpreter loop and small-array numpy calls.

    None of it is the package's code, so no change to the package moves it.
    """
    import numpy as np

    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(40_000):
        acc += math.sqrt(i) * 0.5
        table[i & 255] = acc
    a = np.arange(64.0)
    for _ in range(400):
        a = np.exp(-a * 1e-3) + a.sum() * 1e-9
    return time.perf_counter() - start


class Clock:
    """Wall times rescaled to a reference machine speed.

    On a 2-vCPU Xeon VM that shares its host with other tenants, the speed
    of the same code swung by up to 1.8x over tens of seconds. A
    fixed probe therefore runs before every timed sample and once after
    the last one. A sample's wall time is scaled by PROBE_REFERENCE_S over
    the median of the probes within PROBE_WINDOW marks of it, so every
    reported time is in seconds at the probe's reference speed. The report
    also prints the raw wall-time medians. In-process ops followed the
    probe with a log-log slope of 0.75-1.0; fresh interpreters, at
    0.25-0.56, did not, so their times are reported raw.
    """

    def __init__(self):
        self.probes: list[float] = []

    def mark(self) -> int:
        self.probes.append(probe())
        return len(self.probes) - 1

    def factor(self, mark: int) -> float:
        window = self.probes[max(mark - PROBE_WINDOW + 1, 0):mark + PROBE_WINDOW + 1]
        return PROBE_REFERENCE_S / statistics.median(window)


def fresh_setup(config: Path, importtime: bool = False):
    """One fresh interpreter: wall time, config build time and stderr."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-c", SETUP_SCRIPT, str(SRC), str(config)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return time.perf_counter() - start, float(proc.stdout.split()[-1]), proc.stderr


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of numpy, scipy and mginfpolling.

    `-X importtime` prints children before parents, indented by depth. A
    package counts where it is first imported; numpy imported inside scipy
    counts as scipy.
    """
    lines = []
    for line in stderr.splitlines():
        if line.startswith("import time:") and "cumulative" not in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            lines.append((len(name) - len(name.lstrip()), name.strip(),
                          int(cumulative) * 1e-6))
    totals = {"numpy": 0.0, "scipy": 0.0, "mginfpolling": 0.0}
    stack: list[tuple[int, str]] = []
    for indent, name, seconds in reversed(lines):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        top = name.split(".")[0]
        outer = {t for _, t in stack}
        if top in totals and top not in outer \
                and not (top == "numpy" and "scipy" in outer):
            totals[top] += seconds
        stack.append((indent, top))
    return totals


class Workload:
    """One workload's config, ops and recorded samples."""

    def __init__(self, name: str, seed: int, traced: bool):
        from mginfpolling import cli

        import checks

        self.name, self.seed = name, seed
        self.config = BENCH / "workloads" / f"{name}.json"
        self.raw = json.loads(self.config.read_text(encoding="utf-8"))
        self.out = OUT / name
        self.out.mkdir(parents=True, exist_ok=True)
        self.system = cli._build_system(self.raw["system"])
        self.ctx = checks.Context(self.raw, self.system, seed,
                                  WORKLOADS[name]["exact"])
        sim = self.raw["sim"]
        self.measured = WORKLOADS[name].get("cycles", sim["measured_cycles"])
        self.cycles = (sim["warmup_cycles"] + self.measured) * sim["replications"]
        self.ops = {op: self._cli_op(op) for op in CLI_OPS}
        if self.ctx.pgf_points:
            self.ops["pgf"] = self._pgf_op
        if not traced:
            # set-up samples interleave with the ops, so a slow spell of the
            # machine reaches them as it reaches the ops
            self.ops["setup"] = self._setup_op
        self.clock = Clock()
        # per op: (wall seconds, output digest, clock mark before the op)
        self.samples: dict[str, list[tuple[float, str, int]]] = \
            {op: [] for op in self.ops}
        self.outputs: dict[str, dict[str, tuple]] = {op: {} for op in self.ops}
        self.errors: list[str] = []

    def _cli_op(self, op: str):
        from mginfpolling import cli

        out = self.out / f"{op}.csv"
        sim = ["--seed", str(self.seed), "--cycles", str(self.measured)]
        argv = {"optimize": ["optimize", "--brute-force"],
                "simulate": ["simulate", *sim],
                "validate": ["validate", *sim]}.get(op, [op])
        argv += ["--config", str(self.config), "--out", str(out)]

        def call():
            out.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                start = time.perf_counter()
                rc = cli.main(argv)
                elapsed = time.perf_counter() - start
            payload = out.read_bytes() if out.exists() else b""
            return elapsed, rc, stdout.getvalue() + stderr.getvalue(), payload
        return call

    def _setup_op(self):
        return fresh_setup(self.config)[0], 0, "", b""

    def _pgf_op(self):
        from mginfpolling import pgf_eval

        start = time.perf_counter()
        values = [pgf_eval(self.system, q, zs) for q, zs in self.ctx.pgf_points]
        return time.perf_counter() - start, 0, "", json.dumps(values).encode()

    def run_op(self, op: str, tracer=None) -> tuple[float, str, int]:
        """Probe, run one op, and record its time and output digest."""
        mark = self.clock.mark()
        start = time.perf_counter()
        try:
            if tracer is None:
                elapsed, rc, text, payload = self.ops[op]()
            else:
                with tracer.op_span(op, "bench.pgf" if op == "pgf" else f"cli.{op}"):
                    elapsed, rc, text, payload = self.ops[op]()
        except (Exception, SystemExit) as exc:
            elapsed = time.perf_counter() - start
            digest = f"raised {exc!r}"
        else:
            digest = hashlib.sha256(text.encode() + b"\0" + payload).hexdigest()
            self.outputs[op].setdefault(digest, (rc, text, payload))
        self.samples[op].append((elapsed, digest, mark))
        return elapsed, digest, mark

    def warm_up(self) -> None:
        """One untimed analyze: lazy imports and first-call costs."""
        self.run_op("analyze")
        self.samples["analyze"].clear()

    def closed_loop(self, seconds: float) -> None:
        """Rounds over the ops, in a fixed order, until `seconds` passed.

        In each round an op repeats until it used SLOT_S, and runs at least
        once, so every op's samples spread evenly over the run.
        """
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for op in self.ops:
                slot = time.perf_counter()
                self.run_op(op)
                while time.perf_counter() - slot < SLOT_S:
                    self.run_op(op)
        self.clock.mark()

    def times(self, op: str) -> list[float]:
        """The op's sample times in reference-speed seconds."""
        return [t * self.clock.factor(m) for t, _, m in self.samples[op]]

    def first_output(self, op: str):
        return next(iter(self.outputs[op].values()), None)

    def verdicts(self) -> dict[str, list[str]]:
        """Problems per op; every sample of a failed output counts as failed."""
        import checks

        analyze, simulate = self.first_output("analyze"), self.first_output("simulate")
        if analyze and analyze[0] == 0:
            self.ctx.analytic = checks.metric_table(analyze[2])
        if simulate and simulate[0] == 0:
            self.ctx.simulated = checks.pooled(simulate[2])
        self.bad: set[str] = set()
        problems = {}
        for op in self.ops:
            found = []
            digests = {d for _, d, _ in self.samples[op]}
            if len(digests) > 1:
                found.append(f"{len(digests)} different outputs for the same inputs")
            for digest in digests:
                if digest.startswith("raised"):
                    found.append(digest)
                    self.bad.add(digest)
                    continue
                rc, text, payload = self.outputs[op][digest]
                if op not in checks.CHECKS:
                    continue
                try:
                    faults = checks.CHECKS[op](self.ctx, rc, text, payload)
                except Exception as exc:  # an unparsable output fails its op
                    faults = [f"output could not be checked: {exc!r}"]
                if faults:
                    self.bad.add(digest)
                    found += faults
            problems[op] = found
        return problems

    def failed_count(self) -> int:
        return sum(d in self.bad for samples in self.samples.values()
                   for _, d, _ in samples)

    def attempted(self) -> int:
        return sum(len(s) for s in self.samples.values())

    def determinism(self) -> list[str]:
        """Same seed, same CSV bytes: on a repeat and with 1 against 2 workers."""
        from mginfpolling import cli

        out = self.out / "determinism.csv"
        argv = ["simulate", "--config", str(self.config), "--seed", str(self.seed),
                "--cycles", str(DETERMINISM_CYCLES), "--out", str(out)]
        runs = []
        for threads in ("1", "1", "2"):
            out.unlink(missing_ok=True)
            os.environ["POLLING_NUM_THREADS"] = threads
            with redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            runs.append((rc, out.read_bytes()))
        os.environ["POLLING_NUM_THREADS"] = "1"
        if any(rc != 0 for rc, _ in runs):
            return [f"simulate exited {[rc for rc, _ in runs]}"]
        if runs[0][1] != runs[1][1]:
            return ["repeat run with the same seed wrote different CSV bytes"]
        if runs[0][1] != runs[2][1]:
            return ["POLLING_NUM_THREADS=2 wrote different CSV bytes than 1"]
        return []


def summary(times: list[float]) -> str:
    """Median, the highest percentile with >= 10 samples beyond it, count."""
    ordered = sorted(times)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g}"
    for p in (99.9, 99, 95, 90, 75):
        k = math.ceil(n * p / 100)
        if n - k >= 10:
            text += f", p{p:g} {ordered[k - 1]:.6g}"
            break
    return text + f", n={n}"


def manifest(wl: Workload, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
        commit = commit.stdout.strip() or None
    except OSError:
        commit = None
    sources = hashlib.sha256()
    for path in sorted((SRC / "mginfpolling").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": wl.name, "seed": wl.seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": commit,
        "src_sha256": sources.hexdigest(),
        "configs": {name: {"sha256": hashlib.sha256(
            (BENCH / "workloads" / f"{name}.json").read_bytes()).hexdigest(),
            "why": spec["why"]} for name, spec in WORKLOADS.items()},
    }


def untraced(wl: Workload, seconds: int) -> dict:
    wl.warm_up()
    wl.closed_loop(seconds)
    median = {op: statistics.median(wl.times(op)) for op in wl.ops}
    metrics = {
        # a fresh interpreter does not follow the probe (see Clock): raw time
        "setup_s": statistics.median(t for t, _, _ in wl.samples["setup"]),
        "analyze_s": median["analyze"],
        "sweep_points_per_s": len(wl.ctx.grid) / median["sweep"],
        "optimize_s": median["optimize"],
        "simulate_cycles_per_s": wl.cycles / median["simulate"],
        "validate_s": median["validate"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"probe: {summary(wl.clock.probes)} s (reference {PROBE_REFERENCE_S} s)")
    for op in wl.ops:
        print(f"{op}: {summary(wl.times(op))} s/call; raw wall "
              f"{summary([t for t, _, _ in wl.samples[op]])}")
    if "pgf" in wl.ops:
        print(f"report-only metric pgf_s = {median['pgf']!r} s/call "
              f"(pgf_eval at {len(wl.ctx.pgf_points)} points)")
    return metrics


def layer_metrics(wl: Workload, tracer, plain: dict, traced: dict):
    """Per-layer metrics of one traced pass, and report-only ones."""
    import checks
    from tracing import self_times

    spans = tracer.spans
    factor = {op: wl.clock.factor(mark) for op, (_, _, mark) in traced.items()}
    own = [t * factor[s[4]] for t, s in zip(self_times(spans), spans)]
    duration = [(s[2] - s[1]) * factor[s[4]] for s in spans]

    def select(name=None, op=None, names=()):
        return [i for i, s in enumerate(spans)
                if (name is None or s[0] == name) and (op is None or s[4] == op)
                and (not names or s[0] in names)]

    m = {}
    for op in CLI_OPS:
        m[f"cli.self_s.{op}"] = sum(own[i] for i in select(f"cli.{op}", op))
        if op == "simulate":
            continue
        m[f"distributions.quad_calls.{op}"] = tracer.counts[op, "quad_calls"]
        m[f"distributions.integrand_evals.{op}"] = tracer.counts[op, "integrand_evals"]
        m[f"distributions.functional_self_s.{op}"] = sum(
            own[i] for i in select(op=op, names=FUNCTIONALS))
        m[f"analytic.derived_quantities_calls.{op}"] = len(
            select("analytic.derived_quantities", op))
    samples = select("distributions.sample", "simulate")
    m["distributions.sample_s"] = sum(duration[i] for i in samples)
    m["distributions.sample_calls"] = len(samples)
    for name in ("sojourn_mean", "sojourn_lst", "polling_means"):
        m[f"analytic.{name}_self_s"] = sum(own[i] for i in select(f"analytic.{name}"))
    pgf = select("analytic.pgf_eval")
    m["analytic.pgf_eval_calls"] = len(pgf)
    report_only = {"analytic.pgf_eval_s":
                   sum(duration[i] for i in pgf) / len(pgf) if pgf else 0.0}
    run_time = sum(duration[i] for i in select("simulator.run", "simulate"))
    simulated = checks.pooled(wl.outputs["simulate"][traced["simulate"][1]][2])
    m["simulator.cycles_per_s"] = wl.cycles / run_time
    m["simulator.visits_per_s"] = wl.cycles * wl.ctx.n / run_time
    m["simulator.customers_per_s"] = \
        simulated["throughput_per_cycle"][0] * wl.cycles / run_time
    m["simulator.self_s"] = run_time - m["distributions.sample_s"]
    for name in ("optimal_order", "brute_force_order"):
        m[f"optimizer.{name}_s"] = sum(
            duration[i] for i in select(f"optimizer.{name}", "optimize"))
    optimize = wl.outputs["optimize"][traced["optimize"][1]][2]
    m["optimizer.orders_scored"] = len(checks.rows(optimize))

    def total(run):
        return sum(t * wl.clock.factor(mark) for t, _, mark in run.values())
    m["trace.overhead_frac"] = (total(traced) - total(plain)) / total(plain)
    return m, report_only


def traced_run(wl: Workload, seconds: int) -> dict:
    from tracing import Tracer

    # fresh interpreters do not follow the probe (see Clock): raw times
    setups = [fresh_setup(wl.config, importtime=True) for _ in range(IMPORTTIME_RUNS)]
    imports = [import_times(stderr) for _, _, stderr in setups]
    metrics = {f"import.{pkg}_s": statistics.median(t[pkg] for t in imports)
               for pkg in ("scipy", "numpy", "mginfpolling")}
    metrics["cli.config_build_s"] = statistics.median(b for _, b, _ in setups)
    wl.warm_up()
    passes, tracers = [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        plain = {op: wl.run_op(op) for op in wl.ops}
        tracer = Tracer()
        tracer.install()
        try:
            traced = {op: wl.run_op(op, tracer) for op in wl.ops}
        finally:
            tracer.uninstall()
        wl.clock.mark()
        passes.append((plain, traced))
        tracers.append(tracer)
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    for op in wl.ops:
        if any(plain[op][1] != traced[op][1] for plain, traced in passes):
            wl.errors.append(f"{op}: traced output differs from the untraced one")
    per_pass = [layer_metrics(wl, tracer, plain, traced)
                for tracer, (plain, traced) in zip(tracers, passes)]
    for name, value in per_pass[0][0].items():
        # counts repeat exactly from pass to pass; times take the median
        metrics[name] = value if PER_LAYER[name] == "count" else \
            statistics.median(m[name] for m, _ in per_pass)
    for name in per_pass[0][1]:
        print(f"report-only metric {name} = "
              f"{statistics.median(r[name] for _, r in per_pass)!r}")
    tracers[-1].write(wl.out / "spans.jsonl")
    print(f"traced passes: {len(passes)}; spans of the last pass in "
          f"{(wl.out / 'spans.jsonl').relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mginfpolling" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    # one worker everywhere: the plain single-worker baseline
    for var in ("POLLING_NUM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import mginfpolling

    if Path(mginfpolling.__file__).resolve().parent != (SRC / "mginfpolling").resolve():
        print(f"error: imported {mginfpolling.__file__}, not the source tree",
              file=sys.stderr)
        return 2

    import checks

    wl = Workload(args.workload, args.seed, traced=bool(args.trace))
    print("manifest " + json.dumps(manifest(wl, args.seconds, args.trace)))
    if args.trace:
        metrics = traced_run(wl, args.seconds)
        units = PER_LAYER
    else:
        metrics = untraced(wl, args.seconds)
        units = END_TO_END
    with open(wl.out / "samples.json", "w", encoding="utf-8") as fh:
        json.dump({"probes": wl.clock.probes,
                   "samples": {op: [(t, m) for t, _, m in samples]
                               for op, samples in wl.samples.items()}}, fh)
    problems = wl.verdicts()
    wl.errors += [f"determinism: {p}" for p in wl.determinism()]
    attempted, failed = wl.attempted(), wl.failed_count()
    for op, found in problems.items():
        print(f"check {op}: " + ("; ".join(found) if found else "pass"))
    print(f"check unchecked: {checks.UNCHECKED_LST}")
    validate = wl.first_output("validate")
    if validate:
        fails = checks.validate_rows(wl.ctx, validate[2])[1]
        print(f"data validate: exit {validate[0]}, FAIL rows under its fixed "
              f"tolerances: {fails or 'none'}")
    for error in wl.errors:
        print(f"check {error}")
    print(f"report-only metric failed_ops_frac = {failed / attempted!r} "
          f"({failed} of {attempted} ops)")
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not wl.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
