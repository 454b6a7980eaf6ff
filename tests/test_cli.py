"""Command-line front end: config parsing and diagnostics, subcommand
output, CSV schemas, exit codes, and byte-level determinism."""
import collections
import csv
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import simd_dispatch
import mginfpolling
from mginfpolling import analytic, cli, distributions
from mginfpolling.cli import main
from mginfpolling.distributions import (
    Deterministic,
    Discrete,
    Erlang,
    Exponential,
    HyperExponential,
    MixedErlang,
)
from mginfpolling.errors import ConfigError, UnsupportedModelError
from mginfpolling.simulator import _BLOCK_CYCLES, SimConfig, _mean_and_stderr

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "bench" / "workloads"

BASE_QUEUES = [
    {
        "arrival_rate": 0.8,
        "service": {"type": "exponential", "rate": 1.0},
        "visit": {"type": "exponential", "rate": 1.0},
        "switch": {"type": "deterministic", "value": 0.25},
    },
    {
        "arrival_rate": 0.5,
        "service": {"type": "exponential", "rate": 1.5},
        "visit": {"type": "exponential", "rate": 1.5},
        "switch": {"type": "deterministic", "value": 0.25},
    },
]


def write_config(tmp_path, name="config.json", **blocks):
    payload = {"system": {"queues": blocks.pop("queues", BASE_QUEUES)}}
    payload.update(blocks)
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_csv(path) -> list[list[str]]:
    """The rows of a CSV file; the file is closed before they are returned."""
    with path.open(newline="") as f:
        return list(csv.reader(f))


def base_sim_block(**overrides):
    block = {"warmup_cycles": 100, "measured_cycles": 800,
             "replications": 6, "master_seed": 7}
    block.update(overrides)
    return block


class TestConfigParsing:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, surprise=1)
        assert main(["analyze", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "unknown key 'surprise'" in err

    def test_unknown_queue_key_names_path(self, tmp_path, capsys):
        queues = json.loads(json.dumps(BASE_QUEUES))
        queues[1]["patience"] = 3
        cfg = write_config(tmp_path, queues=queues)
        assert main(["analyze", "--config", cfg]) == 2
        assert "system.queues[2]: unknown key 'patience'" \
            in capsys.readouterr().err

    def test_bad_distribution_tag_names_field(self, tmp_path, capsys):
        queues = json.loads(json.dumps(BASE_QUEUES))
        queues[0]["service"] = {"type": "gamma", "rate": 1.0}
        cfg = write_config(tmp_path, queues=queues)
        assert main(["analyze", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "system.queues[1].service.type" in err and "'gamma'" in err

    def test_single_queue_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, queues=BASE_QUEUES[:1])
        assert main(["analyze", "--config", cfg]) == 2
        assert ">= 2 queues" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"system": }', encoding="utf-8")
        assert main(["analyze", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_all_distribution_families_parse(self, tmp_path, capsys):
        queues = [
            {
                "arrival_rate": 0.4,
                "service": {"type": "erlang", "phases": 3, "rate": 2.0},
                "visit": {"type": "mixed_erlang", "p": 0.3, "phases": 2,
                          "rate": 1.5},
                "switch": {"type": "discrete",
                           "atoms": [[0.1, 0.5], [0.3, 0.5]]},
            },
            {
                "arrival_rate": 0.2,
                "service": {"type": "hyperexponential", "p": 0.6,
                            "rate1": 2.0, "rate2": 0.8},
                "visit": {"type": "deterministic", "value": 1.2},
                "switch": {"type": "exponential", "rate": 4.0},
            },
        ]
        cfg = write_config(tmp_path, queues=queues)
        assert main(["analyze", "--config", cfg]) == 0
        assert "sojourn_mean" in capsys.readouterr().out

    @pytest.mark.parametrize("record, law", [
        ({"type": "exponential", "rate": 2.0}, Exponential(2.0)),
        ({"type": "deterministic", "value": 1}, Deterministic(1.0)),
        ({"type": "erlang", "phases": 3, "rate": 2.0}, Erlang(3, 2.0)),
        ({"type": "mixed_erlang", "p": 0.3, "phases": 2, "rate": 1.5},
         MixedErlang(0.3, 2, 1.5)),
        ({"type": "hyperexponential", "p": 0.6, "rate1": 2.0, "rate2": 0.8},
         HyperExponential(0.6, 2.0, 0.8)),
        ({"type": "discrete", "atoms": [[0.3, 0.5], [0.1, 0.5]]},
         Discrete(((0.1, 0.5), (0.3, 0.5)))),
    ], ids=lambda v: v["type"] if isinstance(v, dict) else type(v).__name__)
    def test_each_tag_builds_its_law(self, record, law):
        built = cli._build_distribution(record, "law")
        assert type(built) is type(law) and built == law

    # messages as the per-family parsing gave them, kept word for word
    @pytest.mark.parametrize("record, message", [
        ({"type": "exponential"}, "law: missing required key 'rate'"),
        ({"type": "hyperexponential", "p": 0.5, "rate1": 1.0},
         "law: missing required key 'rate2'"),
        ({"type": "exponential", "rate": 1.0, "scale": 2},
         "law: unknown key 'scale' (expected one of: rate, type)"),
        ({"type": "discrete", "atoms": [[1.0, 1.0]], "value": 1},
         "law: unknown key 'value' (expected one of: atoms, type)"),
        ({"type": "exponential", "rate": True},
         "law.rate: expected a number, got True"),
        ({"type": "deterministic", "value": False},
         "law.value: expected a number, got False"),
        ({"type": "erlang", "phases": True, "rate": 1.0},
         "law.phases: expected an integer, got True"),
        ({"type": "hyperexponential", "p": 0.5, "rate1": 1.0, "rate2": True},
         "law.rate2: expected a number, got True"),
        ({"type": "discrete", "atoms": [[1.0, True]]},
         "law.atoms[0][1]: expected a number, got True"),
        ({"type": "erlang", "phases": 2.5, "rate": 1.0},
         "law.phases: expected an integer, got 2.5"),
        ({"type": "mixed_erlang", "p": 0.5, "phases": 2.5, "rate": 1.0},
         "law.phases: expected an integer, got 2.5"),
        ({"type": "mixed_erlang", "p": True, "phases": 2.5, "rate": 1.0},
         "law.p: expected a number, got True"),
        ({"type": "discrete", "atoms": {"a": 1}},
         "law.atoms: expected a list of [value, probability] pairs"),
        ({"type": "discrete", "atoms": [[1.0]]},
         "law.atoms[0]: expected a [value, probability] pair"),
        ({"type": "discrete", "atoms": [1.0, 1.0]},
         "law.atoms[0]: expected a [value, probability] pair"),
        ({"type": "discrete", "atoms": [["x", 1.0]]},
         "law.atoms[0][0]: expected a number, got 'x'"),
        ({"type": "discrete", "atoms": []},
         "law: a discrete law needs at least one atom"),
        ({"type": "erlang", "phases": 0, "rate": 1.0},
         "law: phases must be an integer >= 1, got 0"),
    ])
    def test_record_errors_keep_their_messages(self, record, message):
        with pytest.raises(ConfigError) as info:
            cli._build_distribution(record, "law")
        assert str(info.value) == message

    @pytest.mark.parametrize("tag", [["exponential"], {"a": 1}, 1])
    def test_non_string_tag_is_a_config_error(self, tag):
        with pytest.raises(ConfigError,
                           match=r"^law\.type: unknown distribution type"):
            cli._build_distribution({"type": tag, "rate": 1.0}, "law")

    def test_unpaired_travel_law_rejected(self, tmp_path, capsys):
        queues = json.loads(json.dumps(BASE_QUEUES))
        queues[0]["approach"] = {"type": "deterministic", "value": 0.1}
        cfg = write_config(tmp_path, queues=queues)
        assert main(["analyze", "--config", cfg]) == 2
        assert "pair" in capsys.readouterr().err

    def test_impossible_service_names_queue(self, tmp_path, capsys):
        queues = json.loads(json.dumps(BASE_QUEUES))
        queues[0]["service"] = {"type": "deterministic", "value": 5.0}
        queues[0]["visit"] = {"type": "deterministic", "value": 1.0}
        cfg = write_config(tmp_path, queues=queues)
        assert main(["analyze", "--config", cfg]) == 2
        assert "queue 1" in capsys.readouterr().err

    def test_bad_pgf_point(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           sim=base_sim_block(pgf_points=[[7, [0.5, 0.5]]]))
        assert main(["simulate", "--config", cfg]) == 2
        assert "sim.pgf_points[0][0]" in capsys.readouterr().err

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_pgf_z(self, tmp_path, capsys, z):
        # json.load reads NaN and Infinity, so the config must refuse them
        cfg = write_config(tmp_path,
                           sim=base_sim_block(pgf_points=[[1, [0.5, 0.5]],
                                                          [2, [0.5, z]]]))
        assert main(["simulate", "--config", cfg]) == 2
        assert "sim.pgf_points[1][1][1]: z must be finite" \
            in capsys.readouterr().err

    def test_removed_collect_toggle_is_unknown(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           sim=base_sim_block(collect_sojourn=False))
        assert main(["simulate", "--config", cfg]) == 2
        assert "sim: unknown key 'collect_sojourn'" in capsys.readouterr().err


def with_queue(k, **fields):
    queues = json.loads(json.dumps(BASE_QUEUES))
    queues[k].update(fields)
    return queues


SWEEP_BLOCK = {"queue": 1, "target": "service_mean", "grid": [0.5, 1.0]}

# (argv, config blocks, the JSON path stderr names); a str in place of the
# blocks is the whole config file's text
CONFIG_ERRORS = [
    (["analyze"], {"queues": with_queue(0, service=3)},
     "system.queues[1].service: expected a distribution object"),
    (["analyze"], {"queues": with_queue(1, visit={"rate": 1.0})},
     "system.queues[2].visit: missing required key 'type'"),
    (["analyze"], '{"system": []}', "system: expected an object"),
    (["analyze"], '{"system": {"queues": {}}}', "system.queues: expected a list"),
    (["analyze"], {"queues": [BASE_QUEUES[0], 5]},
     "system.queues[2]: expected a queue object"),
    (["simulate"], {"sim": []}, "sim: expected an object"),
    (["simulate"], {"sim": base_sim_block(pgf_points={})},
     "sim.pgf_points: expected a list"),
    (["simulate"], {"sim": base_sim_block(pgf_points=[[1, 0.5]])},
     "sim.pgf_points[0]: expected [queue, [z, ...]]"),
    (["simulate"], {"sim": base_sim_block(pgf_points=[[1, [0.5]]])},
     "sim.pgf_points[0][1]: expected 2 z values"),
    (["simulate"], {"sim": base_sim_block(replications=0)},
     "sim: replications must be >= 1"),
    (["sweep"], {"sweep": {**SWEEP_BLOCK, "queue": 3}},
     "sweep.queue: queue 3 out of range 1..2"),
    (["sweep"], {"sweep": {**SWEEP_BLOCK,
                           "grid": {"start": 0.5, "stop": 1.0, "points": 1}}},
     "sweep.grid.points: need at least 2 points"),
    (["sweep"], {"sweep": {**SWEEP_BLOCK, "grid": "0.5,1.0"}},
     "sweep.grid: expected a list of values or a start/stop/points object"),
    (["sweep"], {"sweep": {**SWEEP_BLOCK, "grid": []}},
     "sweep.grid: grid must not be empty"),
    (["optimize"], {}, "optimize: expected an object"),
    (["optimize"], {"optimize": {"counts": [1]}},
     "optimize.counts: expected a list of 2 nonnegative integers"),
    (["optimize"], {"optimize": {"counts": [1, 1], "mode": "ring"}},
     "optimize.mode: expected 'serial' or 'central_point', got 'ring'"),
    (["optimize"], {"optimize": {"counts": [1, 1], "objective": "most"}},
     "optimize.objective: expected 'max' or 'min', got 'most'"),
    (["optimize"], {"optimize": {"counts": [1, -1]}},
     "optimize.counts: initial counts must be nonnegative"),
    (["analyze"], "[1]", "config.json: top level must be an object"),
    (["analyze", "--s-grid", "0.5,-1"], {},
     "--s-grid values must be finite and >= 0"),
    (["analyze", "--s-grid", "0.5,inf"], {},
     "--s-grid values must be finite and >= 0"),
    (["analyze", "--s-grid", ""], {},
     "config error: --s-grid must be comma-separated numbers, got ''"),
    (["simulate", "--seed", "-1"], {},
     "--seed: master_seed must fit in 64 bits"),
    (["validate", "--seed", "18446744073709551616"], {},
     "--seed: master_seed must fit in 64 bits"),
    (["simulate", "--cycles", "0"], {},
     "--cycles: measured_cycles must be >= 1"),
]


@pytest.mark.parametrize("argv, blocks, message", CONFIG_ERRORS)
def test_config_errors_name_their_path(tmp_path, capsys, argv, blocks,
                                       message):
    if isinstance(blocks, str):
        cfg = tmp_path / "config.json"
        cfg.write_text(blocks, encoding="utf-8")
    else:
        cfg = write_config(tmp_path, **blocks)
    assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 2
    assert message in capsys.readouterr().err


def test_config_without_sim_block_gets_the_defaults():
    assert cli._build_sim(None, "sim", 2) == SimConfig()


class TestAnalyze:
    def test_base_values_in_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["analyze", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "2.583333333" in out  # E[S_1] = 31/12
        assert "2.666666667" in out  # E[X_1^1] = 8/3
        assert "2.066666667" in out  # lambda_1 E[S_1]

    def test_csv_export(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_path = tmp_path / "analyze.csv"
        assert main(["analyze", "--config", cfg, "--out", str(out_path)]) == 0
        rows = read_csv(out_path)
        assert rows[0] == ["metric", "value"]
        table = dict(rows[1:])
        assert abs(float(table["sojourn_mean[1]"]) - 31 / 12) < 1e-9
        assert abs(float(table["polling_mean[1,1]"]) - 8 / 3) < 1e-9
        assert "sojourn_lst[2]@s=0.5" in table

    def test_custom_s_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["analyze", "--config", cfg, "--s-grid", "0.25,1.5"]) == 0
        out = capsys.readouterr().out
        assert "  0.25  " in out and "   1.5  " in out

    def test_bad_s_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["analyze", "--config", cfg, "--s-grid", "0.1,zebra"]) == 2
        assert "--s-grid" in capsys.readouterr().err

    def test_each_queue_is_derived_once_per_command(self, capsys,
                                                    monkeypatch):
        # `analyze` and `validate` read the system's kept derived quantities,
        # as `polling_means` does
        calls = collections.Counter()
        derive = analytic.derived_quantities

        def counted(system, queue):
            calls[queue] += 1
            return derive(system, queue)
        for module in (analytic, cli):
            monkeypatch.setattr(module, "derived_quantities", counted,
                                raising=False)
        cfg = str(WORKLOADS / "general-wide.json")
        for argv in (["analyze"], ["validate", "--cycles", "100"]):
            calls.clear()
            assert main([*argv, "--config", cfg]) in (0, 1)
            assert calls == dict.fromkeys(range(8), 1)

    @pytest.mark.parametrize("name, n, integrals", [
        ("demo", 2, 4), ("general-wide", 8, 16), ("atomic-pgf", 3, 6)])
    def test_one_pass_per_queue(self, capsys, monkeypatch, name, n,
                                integrals):
        # each queue's transform pass also computes its s-free pairs: its
        # four s-free parts share one integral and its four transform parts
        # another, less those an atomic law sums over its atoms
        passes, calls = [], []
        run_pass, integral = distributions._pass, distributions._integral

        def counted_pass(parts):
            passes.append(len(parts))
            return run_pass(parts)

        def counted_integral(ts):
            calls.append(len(ts))
            return integral(ts)
        monkeypatch.setattr(distributions, "_pass", counted_pass)
        monkeypatch.setattr(distributions, "_integral", counted_integral)
        assert main(["analyze", "--config", str(WORKLOADS / f"{name}.json")]) == 0
        assert passes == [8] * n
        assert len(calls) == integrals


class TestSimulate:
    def test_csv_schema(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sim=base_sim_block())
        out_path = tmp_path / "sim.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out_path)]) == 0
        rows = read_csv(out_path)
        assert rows[0] == ["replication", "metric", "estimate", "stderr"]
        assert rows[-1][0] == "all"
        polling_rows = [r for r in rows if r[1] == "polling_mean[1,1]"]
        assert len(polling_rows) == 7  # 6 replications + pooled row
        assert [r[0] for r in polling_rows] == \
            [str(k) for k in range(1, 7)] + ["all"]
        # per-replication rows leave stderr empty; the pooled row fills it
        assert polling_rows[0][3] == ""
        assert float(polling_rows[-1][3]) > 0

    def test_seed_gives_identical_bytes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sim=base_sim_block())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--seed", "5",
                     "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--seed", "5",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thread_cap_keeps_bytes(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, sim=base_sim_block())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        monkeypatch.setenv("POLLING_NUM_THREADS", "3")
        assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seeded_bytes_are_pinned(self, tmp_path, capsys):
        # the seeded CSV of a run with continuous and atomic laws, a warmup,
        # pgf points and customers carried across two block ends, pinned
        # across versions: a kernel change that reads any stream in another
        # order changes these bytes. The digest depends on the numpy build's
        # Generator algorithms (recorded with numpy 2.4 on x86-64).
        queues = [
            {"arrival_rate": 0.6, "service": {"type": "exponential", "rate": 1.2},
             "visit": {"type": "exponential", "rate": 1.0},
             "switch": {"type": "deterministic", "value": 0.2}},
            {"arrival_rate": 0.4,
             "service": {"type": "erlang", "phases": 2, "rate": 3.0},
             "visit": {"type": "discrete", "atoms": [[0.5, 0.5], [1.5, 0.5]]},
             "switch": {"type": "discrete", "atoms": [[0.1, 0.5], [0.3, 0.5]]}},
            {"arrival_rate": 0.3, "service": {"type": "deterministic", "value": 0.4},
             "visit": {"type": "hyperexponential", "p": 0.6, "rate1": 2.0,
                       "rate2": 0.7},
             "switch": {"type": "exponential", "rate": 8.0}},
        ]
        sim = {"warmup_cycles": 40, "measured_cycles": 2 * _BLOCK_CYCLES + 300,
               "replications": 2, "master_seed": 4242,
               "pgf_points": [[1, [0.5, 0.7, 0.9]], [3, [0.8, 0.6, 0.4]]]}
        cfg = write_config(tmp_path, queues=queues, sim=sim)
        out_path = tmp_path / "sim.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out_path)]) == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == \
            "621641e22e9cd6cbf130fef7b314189a271c88472cd5a8f6852b857017c8f01f"

    def test_seeded_bytes_with_drawless_laws_are_pinned(self, tmp_path,
                                                        capsys):
        # a second pin for what the first lacks: a deterministic visit and
        # one-atom discrete switch-overs, whose samplers read no stream; a
        # mixed Erlang service, which draws a uniform before each gamma; a
        # queue without arrivals, whose retry rounds are empty; and a warmup
        # that ends inside the second block. Recorded before the retry
        # rounds lost their attempt array and the drawless laws their
        # streams, and never re-taken (numpy 2.4 on x86-64).
        queues = [
            {"arrival_rate": 0.7,
             "service": {"type": "mixed_erlang", "p": 0.4, "phases": 3,
                         "rate": 4.0},
             "visit": {"type": "deterministic", "value": 0.6},
             "switch": {"type": "discrete", "atoms": [[0.15, 1.0]]}},
            {"arrival_rate": 0.0, "service": {"type": "exponential", "rate": 2.0},
             "visit": {"type": "exponential", "rate": 1.5},
             "switch": {"type": "deterministic", "value": 0.1}},
            {"arrival_rate": 0.5,
             "service": {"type": "hyperexponential", "p": 0.3, "rate1": 0.5,
                         "rate2": 5.0},
             "visit": {"type": "discrete", "atoms": [[0.2, 0.5], [1.1, 0.5]]},
             "switch": {"type": "discrete", "atoms": [[0.05, 1.0]]}},
        ]
        sim = {"warmup_cycles": _BLOCK_CYCLES + 150,
               "measured_cycles": _BLOCK_CYCLES + 200,
               "replications": 2, "master_seed": 9001,
               "pgf_points": [[1, [0.6, 0.9, 0.7]], [3, [0.8, 0.5, 0.95]]]}
        cfg = write_config(tmp_path, queues=queues, sim=sim)
        out_path = tmp_path / "sim.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out_path)]) == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == \
            "41d8ca6513563f00e3248427b350103c5df50798476ab53fe933a41745dcb536"

    def test_bad_thread_cap(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, sim=base_sim_block())
        monkeypatch.setenv("POLLING_NUM_THREADS", "many")
        assert main(["simulate", "--config", cfg]) == 2
        assert "POLLING_NUM_THREADS" in capsys.readouterr().err

    def test_cycle_override_shown(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sim=base_sim_block())
        assert main(["simulate", "--config", cfg, "--cycles", "300"]) == 0
        assert "x 300 cycles" in capsys.readouterr().out

    def test_summary_matches_per_metric_stats(self, tmp_path, capsys,
                                              monkeypatch):
        # 10 replications: numpy sums 8 or more values pairwise, so a
        # summary that reduced them in another order would show in the bits
        silent = dict(BASE_QUEUES[1], arrival_rate=0.0)
        cfg = write_config(tmp_path, queues=BASE_QUEUES + [silent],
                           sim=base_sim_block(
                               replications=10,
                               pgf_points=[[1, [0.5, 0.5, 0.5]],
                                           [2, [0.9, 0.0, 1.0]]]))
        simulate, reports = cli.run, []

        def recorded(*args, **kwargs):
            reports.append(simulate(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "run", recorded)
        monkeypatch.setenv("POLLING_NUM_THREADS", "1")
        out_path = tmp_path / "sim.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out_path)]) == 0
        printed = capsys.readouterr().out.splitlines()
        table = reports[0].per_replication
        expected = {m: _mean_and_stderr(v) for m, v in table.items()}
        assert np.isnan(expected["sojourn_mean[3]"][0])
        assert np.isnan(expected["completion_fraction[3]"][1])

        pooled = {r[1]: (float(r[2]), float(r[3]))
                  for r in read_csv(out_path) if r[0] == "all"}
        assert list(pooled) == list(table)
        for metric, (mean, se) in expected.items():
            assert np.array_equal(pooled[metric], (mean, se), equal_nan=True), \
                metric
            line = f"{metric:<34}  {float(mean):>14.8g}  {float(se):>12.4g}"
            assert line in printed, metric

        # every replication summary of the report is its CSV row, bit for bit
        report = reports[0]
        summaries = [("throughput_per_cycle", report.throughput_mean,
                      report.throughput_stderr)]
        for i in range(3):
            for j in range(3):
                summaries += [
                    (f"polling_mean[{i + 1},{j + 1}]", report.polling_means[i, j],
                     report.polling_stderr[i, j]),
                    (f"visit_end_mean[{i + 1},{j + 1}]",
                     report.visit_end_means[i, j], report.visit_end_stderr[i, j])]
            summaries += [
                (f"sojourn_mean[{i + 1}]", report.sojourn_means[i],
                 report.sojourn_stderr[i]),
                (f"completion_fraction[{i + 1}]", report.completion_fraction[i],
                 report.completion_stderr[i]),
                (f"throughput_per_cycle[{i + 1}]",
                 report.per_queue_throughput[i], pooled[
                     f"throughput_per_cycle[{i + 1}]"][1])]
        summaries += [(f"pgf[q{q};z={z}]", report.pgf_estimates[k],
                       report.pgf_stderr[k])
                      for k, (q, z) in enumerate(((1, "0.5,0.5,0.5"),
                                                  (2, "0.9,0,1")))]
        assert len(summaries) == 1 + 3 * (6 + 3) + 2
        for metric, mean, se in summaries:
            assert np.array_equal(pooled[metric], (mean, se), equal_nan=True), \
                metric


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 1e-5, 0.1, 3,
    np.float64(2.0 / 3.0), np.float64("nan"), np.float32(0.1)], ids=repr)
def test_csv_cells_are_float_reprs(tmp_path, value):
    out_path = tmp_path / "cells.csv"
    cli._write_csv(str(out_path), ("name", "value"), [("x", value)])
    assert out_path.read_text().splitlines() == [
        "name,value", f"x,{float(value)!r}"]


TEXT_CELLS = ["a,b", 'say "hi"', '"', "cr\rin", "lf\nin", "crlf\r\nin",
              "ünïcødé → 1", "", "plain", "polling_mean[1,2]"]
NUMBER_CELLS = [float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 1e-5,
                0.1, 3, np.float64(2.0 / 3.0), np.float32(0.1), np.int64(7),
                np.uint8(255)]


def csv_writer_text(header, rows):
    """What csv.writer with "\n" line ends writes for `header` and `rows`,
    with float(cell) for every cell that is not text.

    csv.writer quotes a cell that holds a character of its line terminator,
    so with "\n" alone Python 3.11 leaves a bare CR unquoted, and csv.reader
    then refuses the file. A terminator of "\n\r", cut back to "\n" after
    each row, quotes the CR too and changes nothing else.
    """
    lines = []
    for row in [header, *rows]:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n\r").writerow(
            [c if isinstance(c, str) else float(c) for c in row])
        lines.append(buffer.getvalue()[:-2] + "\n")
    return "".join(lines)


def written(tmp_path, header, rows):
    out_path = tmp_path / "table.csv"
    cli._write_csv(str(out_path), header, rows)
    return out_path.read_bytes().decode("utf-8")


class TestCsvWriter:
    @pytest.mark.parametrize("cell", TEXT_CELLS + NUMBER_CELLS, ids=repr)
    def test_cell_matches_csv_writer(self, tmp_path, cell):
        # the cell alone in a column, beside text and a float, in every place
        header = ("a", "b", "c")
        rows = [(cell, "x", 1.5), ("y", cell, 2.5), ("z", 0.25, cell)]
        text = written(tmp_path, header, rows)
        assert text == csv_writer_text(header, rows)
        if not (isinstance(cell, str) and "\r" in cell):
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerows(
                [header] + [[c if isinstance(c, str) else float(c) for c in row]
                            for row in rows])
            assert text == buffer.getvalue()
        if isinstance(cell, str):
            back = list(csv.reader(io.StringIO(text, newline="")))
            assert [back[1][0], back[2][1], back[3][2]] == [cell] * 3

    def test_mixed_columns_and_chunk_edges(self, tmp_path, monkeypatch):
        # each chunk decides its own column formats: a comma, a quote or a
        # non-float number in one chunk leaves the others as they were
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 3)
        rows = [(f"r{k}", float(k) / 7, "" if k % 4 else 0.5 * k)
                for k in range(11)]
        rows[4] = ("r,4", np.float64(4 / 7), "")
        rows[7] = ('r"7', 7 / 7, np.float32(0.3))
        rows[9] = ("r9", 9, -0.0)
        header = ("name", "value, of it", 'say "x"')
        assert written(tmp_path, header, rows) == csv_writer_text(header, rows)
        assert written(tmp_path, header, []) == csv_writer_text(header, [])
        assert written(tmp_path, header, iter(rows)) == \
            csv_writer_text(header, rows)

    def test_ragged_rows_are_refused(self, tmp_path):
        with pytest.raises(ValueError):
            written(tmp_path, ("a", "b"), [("x", 1.0), ("y",)])
        assert not (tmp_path / "table.csv").exists()

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 2)
        out_path = tmp_path / "table.csv"
        out_path.write_text("an older table\n")

        def rows():
            yield from (("x", float(k)) for k in range(5))
            raise OSError(errno.ENOSPC, "No space left on device")
        with pytest.raises(cli._OutputError) as info:
            cli._write_csv(str(out_path), ("a", "b"), rows())
        assert str(info.value) == \
            f"cannot write {out_path}: No space left on device"
        assert not out_path.exists()

    def test_stdout_gets_the_file_bytes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 2)
        rows = [("a,b", 1.0), ("c", 2), ("d", float("nan"))]
        cli._write_csv(None, ("k", "v"), rows)
        assert capsys.readouterr().out == written(tmp_path, ("k", "v"), rows)


WRITING_COMMANDS = {
    "analyze": ["analyze"],
    "sweep": ["sweep"],
    "optimize": ["optimize"],
    "optimize --brute-force": ["optimize", "--brute-force"],
    "simulate": ["simulate", "--seed", "3", "--cycles", "60"],
    "validate": ["validate", "--seed", "3", "--cycles", "60"],
}


@pytest.mark.parametrize("workload", ["demo", "general-wide", "atomic-pgf"])
@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_csv_reads_back(tmp_path, capsys, workload, command):
    # csv.reader parses every table into rows as wide as the header, and
    # csv.writer writes the parsed cells back to the same bytes
    out_path = tmp_path / "table.csv"
    assert main(WRITING_COMMANDS[command] + [
        "--config", str(WORKLOADS / f"{workload}.json"),
        "--out", str(out_path)]) in (0, 1)
    data = out_path.read_bytes().decode("utf-8")
    rows = list(csv.reader(io.StringIO(data, newline="")))
    assert len(rows) > 1 and {len(row) for row in rows} == {len(rows[0])}
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    assert buffer.getvalue() == data


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_unwritable_out_is_an_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, sim=base_sim_block(measured_cycles=200),
                       sweep={"queue": 1, "target": "visit_scv",
                              "grid": [0.5, 2.0]},
                       optimize={"counts": [3, 2]})
    out_path = tmp_path / "missing" / "table.csv"
    assert main(WRITING_COMMANDS[command] + [
        "--config", cfg, "--out", str(out_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {out_path}: No such file or directory\n")
    assert not out_path.parent.exists()


def test_directory_as_out_is_left_alone(tmp_path, capsys):
    cfg = write_config(tmp_path)
    (tmp_path / "kept").mkdir()
    (tmp_path / "kept" / "inside.txt").write_text("x")
    assert main(["analyze", "--config", cfg,
                 "--out", str(tmp_path / "kept")]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {tmp_path / 'kept'}: Is a directory\n")
    assert (tmp_path / "kept" / "inside.txt").read_text() == "x"


class TestSweep:
    def test_service_mean_sweep_is_increasing(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           sweep={"queue": 2, "target": "service_mean",
                                  "grid": [0.2, 0.5, 1.0, 1.5, 2.0]})
        out_path = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "grid_value,ES_weighted,ES[1],ES[2]"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_stdout_when_no_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           sweep={"queue": 1, "target": "visit_scv",
                                  "grid": [0.5, 1.0, 2.0]})
        assert main(["sweep", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith("grid_value,ES_weighted")
        assert len(out.splitlines()) == 4
        out_path = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        assert out_path.read_bytes() == out.encode()

    def test_each_mean_computed_once(self, tmp_path, capsys, monkeypatch):
        calls, sojourn_mean = [], analytic._sojourn_mean

        def counted(moments, queue, *values):
            calls.append(queue)
            return sojourn_mean(moments, queue, *values)
        monkeypatch.setattr(analytic, "_sojourn_mean", counted)
        cfg = write_config(tmp_path,
                           sweep={"queue": 1, "target": "visit_scv",
                                  "grid": [0.5, 1.0, 2.0]})
        assert main(["sweep", "--config", cfg]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert calls == [0, 1] * 3
        for row in rows:
            weighted, first, second = map(float, row.split(",")[1:])
            assert weighted == (0.8 * first + 0.5 * second) / 1.3

    @pytest.mark.parametrize("config, n, g, groups", [
        ("three-queue", 3, 4, 1),
        ("bench/workloads/general-wide.json", 8, 6, 5)])
    def test_unchanged_queues_evaluate_their_functionals_once(
            self, tmp_path, capsys, monkeypatch, config, n, g, groups):
        # every unchanged queue is evaluated once, in one pass of its
        # (completion probability, expected minimum) and in-visit pairs,
        # and the swept queue in one pass of the same four per group of
        # fitted laws with the same phases, shared by the new specs of the
        # group's points
        passes = []
        run_pass = distributions._pass

        def counted(parts):
            passes.append(len(parts))
            return run_pass(parts)
        monkeypatch.setattr(distributions, "_pass", counted)
        if config == "three-queue":
            cfg = write_config(
                tmp_path, queues=BASE_QUEUES + [dict(BASE_QUEUES[0])],
                sweep={"queue": 3, "target": "service_mean",
                       "grid": [0.2, 0.5, 1.0, 1.5]})
        else:
            cfg = str(ROOT / config)
        assert main(["sweep", "--config", cfg]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + g
        assert passes == [4] * (n - 1 + groups)

    def test_missing_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", cfg]) == 2
        assert "sweep" in capsys.readouterr().err

    def test_fit_error_reports_grid_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           sweep={"queue": 2, "target": "service_scv",
                                  "grid": [0.5, -1.0]})
        assert main(["sweep", "--config", cfg]) == 2
        assert "grid value -1" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["service_mean", "visit_mean"])
    def test_zero_mean_on_exponential_law_reports_grid_value(
            self, tmp_path, capsys, target):
        cfg = write_config(tmp_path,
                           sweep={"queue": 1, "target": target,
                                  "grid": [0.5, 0.0]})
        assert main(["sweep", "--config", cfg]) == 2
        assert "grid value 0: mean must be positive" in capsys.readouterr().err

    def test_bad_target(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           sweep={"queue": 1, "target": "switch_mean",
                                  "grid": [0.5]})
        assert main(["sweep", "--config", cfg]) == 2
        assert "switch_mean" in capsys.readouterr().err


class TestOptimize:
    @pytest.mark.parametrize("name, n", [("demo", 2), ("general-wide", 8),
                                         ("atomic-pgf", 3)])
    def test_index_rule_runs_one_min_pass_per_queue(self, capsys,
                                                     monkeypatch, name, n):
        # the index rule and the scan read P[B <= V] and E[min(B, V)] only:
        # one pass of those two parts per queue, and no law builds the tail
        # sum that the in-visit and transform parts read
        passes, tails = [], []
        run_pass = distributions._pass

        def counted(parts):
            passes.append(len(parts))
            return run_pass(parts)
        monkeypatch.setattr(distributions, "_pass", counted)
        for base in (distributions._ErlangMixture, distributions._Atomic):
            monkeypatch.setattr(base, "_tail_terms", property(
                lambda law: tails.append(law)))
        cfg = str(WORKLOADS / f"{name}.json")
        assert main(["optimize", "--config", cfg, "--brute-force"]) == 0
        assert passes == [2] * n and tails == []

    def test_base_order_and_total(self, tmp_path, capsys):
        cfg = write_config(tmp_path, optimize={"counts": [3, 2]})
        assert main(["optimize", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "optimal order: 2 -> 1" in out
        assert "3.433333333" in out

    def test_objective_flag_flips_order(self, tmp_path, capsys):
        cfg = write_config(tmp_path, optimize={"counts": [3, 2]})
        assert main(["optimize", "--config", cfg, "--objective", "min"]) == 0
        assert "optimal order: 1 -> 2" in capsys.readouterr().out

    def test_brute_force_ranking(self, tmp_path, capsys):
        cfg = write_config(tmp_path, optimize={"counts": [3, 2]})
        out_path = tmp_path / "rank.csv"
        assert main(["optimize", "--config", cfg, "--brute-force",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "exhaustive ranking (2 orders):" in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == "order,expected_services"
        assert lines[1].startswith("2 -> 1,")

    def test_index_csv_without_brute_force(self, tmp_path, capsys):
        cfg = write_config(tmp_path, optimize={"counts": [3, 2]})
        out_path = tmp_path / "index.csv"
        assert main(["optimize", "--config", cfg, "--out", str(out_path)]) == 0
        rows = read_csv(out_path)
        assert rows[0] == ["metric", "value"]
        assert [r[0] for r in rows[1:]] == ["index[1]", "index[2]", "order",
                                            "expected_services"]
        assert rows[3][1] == "2 -> 1"
        assert float(rows[4][1]) == pytest.approx(3.433333333, rel=1e-9)

    def test_empty_tour_csv_names_the_empty_order(self, tmp_path, capsys):
        queues = json.loads(json.dumps(BASE_QUEUES))
        for q in queues:
            q.update(switch={"type": "deterministic", "value": 0.0},
                     approach={"type": "deterministic", "value": 0.2},
                     **{"return": {"type": "deterministic", "value": 0.3}})
        cfg = write_config(tmp_path, queues=queues,
                           optimize={"counts": [0, 0], "mode": "central_point"})
        out_path = tmp_path / "tour.csv"
        assert main(["optimize", "--config", cfg, "--out", str(out_path)]) == 0
        assert "optimal order: (empty)" in capsys.readouterr().out
        rows = read_csv(out_path)
        assert rows[3:] == [["order", "(empty)"], ["expected_services", "0.0"]]
        # the brute-force CSV names the empty tour the same way
        assert main(["optimize", "--config", cfg, "--brute-force",
                     "--out", str(out_path)]) == 0
        rows = read_csv(out_path)
        assert rows == [["order", "expected_services"], ["(empty)", "0.0"]]

    def test_long_ranking_is_elided(self, tmp_path, capsys):
        queues = [json.loads(json.dumps(BASE_QUEUES[i % 2])) for i in range(5)]
        for i, q in enumerate(queues):
            q["arrival_rate"] = 0.2 + 0.1 * i
        cfg = write_config(tmp_path, queues=queues,
                           optimize={"counts": [1, 2, 3, 4, 5]})
        out_path = tmp_path / "rank.csv"
        assert main(["optimize", "--config", cfg, "--brute-force",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        ranking = out.split("exhaustive ranking (120 orders):\n")[1].splitlines()
        assert len(ranking) == 21 and ranking[10] == "  ... 100 more ..."
        rows = read_csv(out_path)[1:]
        assert len(rows) == 120
        shown = rows[:10] + rows[-10:]
        for line, (order, value) in zip(ranking[:10] + ranking[11:], shown):
            assert line == f"  {float(value):>14.10g}  {order}"

    def test_brute_force_past_the_scan_limit(self, tmp_path, capsys):
        queues = [json.loads(json.dumps(BASE_QUEUES[i % 2])) for i in range(10)]
        cfg = write_config(tmp_path, queues=queues,
                           optimize={"counts": [1] * 10})
        out_path = tmp_path / "rank.csv"
        assert main(["optimize", "--config", cfg, "--brute-force",
                     "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert "optimal order: " in captured.out
        assert captured.err == (
            "error: --brute-force scans at most 9 visited queues and this "
            "tour visits 10; the index-rule report above needs no scan\n")
        assert not out_path.exists()

    def test_counts_invariance_note(self, tmp_path, capsys):
        for counts in ([0, 0], [9, 1]):
            cfg = write_config(tmp_path, optimize={"counts": counts})
            assert main(["optimize", "--config", cfg]) == 0
            assert "optimal order: 2 -> 1" in capsys.readouterr().out

    def test_central_mode_needs_travel_laws(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           optimize={"counts": [3, 2],
                                     "mode": "central_point"})
        assert main(["optimize", "--config", cfg]) == 2
        assert "approach" in capsys.readouterr().err

    def test_zero_completion_is_a_model_error(self, tmp_path, capsys):
        # only UnsupportedModelError reads as an optimize config error; a
        # queue that never completes a service keeps its 1-based model error
        queues = json.loads(json.dumps(BASE_QUEUES))
        queues[1]["service"] = {"type": "deterministic", "value": 1.0}
        queues[1]["visit"] = {"type": "deterministic", "value": 0.5}
        cfg = write_config(tmp_path, queues=queues,
                           optimize={"counts": [1, 1]})
        assert main(["optimize", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "error: queue 2: service never completes within a visit "
            "(completion probability 0)\n")

    def test_identical_queues_tie_note(self, tmp_path, capsys):
        queues = [json.loads(json.dumps(BASE_QUEUES[0])) for _ in range(2)]
        cfg = write_config(tmp_path, queues=queues,
                           optimize={"counts": [1, 5]})
        assert main(["optimize", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "optimal order: 1 -> 2" in out
        assert "ties present" in out

    def test_tiny_distinct_index_values_are_no_tie(self, tmp_path, capsys):
        # index values of 4e-15 and 1.636e-14: distinct relative to their
        # size, though they agree to 12 decimal places
        queues = json.loads(json.dumps(BASE_QUEUES))
        queues[0]["arrival_rate"] = 1e-14
        queues[1]["arrival_rate"] = 3e-14
        cfg = write_config(tmp_path, queues=queues,
                           optimize={"counts": [3, 2]})
        assert main(["optimize", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "optimal order: 1 -> 2" in out
        assert "ties present" not in out


@pytest.mark.parametrize("name, objective, digest", [
    ("demo", "max",
     "35fcf0419678dfe6ca65c9675536c4ba02d00c0aa4437da6d02f3779add1647e"),
    ("demo", "min",
     "fed1ce4911f1b67b720e3b7100b9494041a0dd556d366fc9229227bed444c325"),
    ("general-wide", "max",
     "b461fbbe1ac9b0df3ea3919768302fe7dfd26b418ebc3fcf799a3f1579f30565"),
    ("general-wide", "min",
     "f81ef5aebb8778bf321f277bb790713ce814d0b4f3b155fd206dd482a263dd85"),
    ("atomic-pgf", "max",
     "82566a6dcbff18cc3bd1abcf3704dfd8006de928041d1cd907c83c1537d9775e"),
    ("atomic-pgf", "min",
     "0e8b8643573c8312d5742a6f0a0150538011e795bf0fa702f9274d02857b7a66"),
])
def test_brute_force_bytes_are_pinned(tmp_path, capsys, name, objective,
                                      digest):
    # stdout then CSV of the exhaustive scan; recorded while every order was
    # still scored by a scalar loop, so a scan that moves any bit of a value
    # or the order of a tie changes these bytes
    out_path = tmp_path / "rank.csv"
    assert main(["optimize", "--config", str(WORKLOADS / f"{name}.json"),
                 "--brute-force", "--objective", objective,
                 "--out", str(out_path)]) == 0
    data = capsys.readouterr().out.encode() + out_path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("objective, digest", [
    ("max", "2d9480799399592ac522c48851dc62a3f3862730dc503d15e80bd2e30a34dac7"),
    ("min", "acb1c701c4f8286dd73ff7069ac6029c941e87f918c02f16d79250b079ac04bb"),
])
def test_seven_queue_ranking_csv_is_pinned(tmp_path, capsys, objective,
                                            digest):
    # general-wide's central-point tour with 7 of its 8 queues visited: 5040
    # rows, more than one chunk of the writer; recorded while the rows still
    # went through csv.writer
    raw = json.loads((WORKLOADS / "general-wide.json").read_text())
    raw["optimize"]["counts"] = [3, 1, 2, 4, 2, 0, 5, 2]
    cfg = tmp_path / "seven.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    out_path = tmp_path / "rank.csv"
    assert main(["optimize", "--config", str(cfg), "--brute-force",
                 "--objective", objective, "--out", str(out_path)]) == 0
    data = out_path.read_bytes()
    assert data.count(b"\n") == 5041
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("name, digest", [
    ("demo", "2aa6bf1228211537dcc7d6145138c7f3bb0fdd8f10758c8b1320e9213071c311"),
    ("general-wide",
     "d0744ab00c90fad49be775945cfad2fa7859c8c69d26f0799b87ed401409ff69"),
    ("atomic-pgf",
     "009eb6f0c86914901aafa93e575add5984dc1ff3943034bb19582922fd0e769d"),
])
def test_analyze_bytes_are_pinned(tmp_path, name, digest):
    # recorded before the term-sum kernel's one-pass rewrite: a change that
    # moves any bit of an exact value changes these bytes
    out_path = tmp_path / "analyze.csv"
    assert main(["analyze", "--config", str(WORKLOADS / f"{name}.json"),
                 "--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest, \
        simd_dispatch()


PINNED_CONFIGS = {name: WORKLOADS / f"{name}.json"
                  for name in ("demo", "general-wide", "atomic-pgf")}
PINNED_CONFIGS["base_config"] = ROOT / "demos" / "base_config.json"


@pytest.mark.parametrize("name, digest", [
    ("demo", "778c733fc0b529a9a852bc698a8b0d194fd3b98fb4bdfab6b1e1390085781c44"),
    ("general-wide",
     "493fb4b9274460d909d773c7dfa6ea1ac1896dc7cd4f6053a0daee02b97d4d10"),
    ("atomic-pgf",
     "d8e7c0c2f4416d18aaf4506f342366a7502de18f12c02704fc32ca08a76c1d73"),
    ("base_config",
     "778c733fc0b529a9a852bc698a8b0d194fd3b98fb4bdfab6b1e1390085781c44"),
])
def test_analyze_stdout_is_pinned(capsys, name, digest):
    # the printed tables, which the CSV pin above does not cover
    assert main(["analyze", "--config", str(PINNED_CONFIGS[name])]) == 0
    data = capsys.readouterr().out.encode()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("name, objective, digest", [
    ("demo", "max",
     "15a03d400ffbf8effcaef23f089664e21c2ac210b3e439ec586bc9fe30cdbe06"),
    ("demo", "min",
     "098b8922b96e07b4f1d7050022929376781197be0546d5496668ff4e4bf2d83a"),
    ("general-wide", "max",
     "2c7f51ffc04959b275f92168d31b012cad5eca08b93eb8ccae6ec0fe757bdc8d"),
    ("general-wide", "min",
     "ce312076b3f7740a086b06404fb4e3439917e446cc9d23bd288f2d1333b69c10"),
    ("atomic-pgf", "max",
     "915d969e903c7dc879153852193313c595235c25d61af0de35bc5e19ccd6de95"),
    ("atomic-pgf", "min",
     "f465491adbe07f454cd3c44dfef53c3a2858b63e0da1c6fd8ded436793398dd8"),
    ("base_config", "max",
     "15a03d400ffbf8effcaef23f089664e21c2ac210b3e439ec586bc9fe30cdbe06"),
    ("base_config", "min",
     "098b8922b96e07b4f1d7050022929376781197be0546d5496668ff4e4bf2d83a"),
])
def test_index_rule_bytes_are_pinned(tmp_path, capsys, name, objective,
                                     digest):
    # stdout then CSV of `optimize` without the exhaustive scan
    out_path = tmp_path / "index.csv"
    assert main(["optimize", "--config", str(PINNED_CONFIGS[name]),
                 "--objective", objective, "--out", str(out_path)]) == 0
    data = capsys.readouterr().out.encode() + out_path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("name, stdout_digest, csv_digest", [
    ("demo",
     "8721c5a751a75931feb53b80bb47d9085ee43065d722148245c672197526d687",
     "785fba4bd7fd834d00cbdcaeba741bd21c5a4e4e6c50270c00071bb4cae7cc92"),
    ("general-wide",
     "a87a43a4aaaf8ecced563e13a8ac43285cce525ff9f9759d4af9d6a75fdcfdf4",
     "164ffe9712572332ccf9813edd538bcb7025eaa604690339e2189e08838b2af7"),
    ("atomic-pgf",
     "7879f8cf0237e52d5ca92554306263d5a129b664fdb1985fd751195056006085",
     "dfb5e2202f1e406fbe963517f884dfb3b52a45c1c7778f41ba8b1e33e1adfe12"),
    ("base_config",
     "8721c5a751a75931feb53b80bb47d9085ee43065d722148245c672197526d687",
     "785fba4bd7fd834d00cbdcaeba741bd21c5a4e4e6c50270c00071bb4cae7cc92"),
])
def test_validate_bytes_are_pinned(tmp_path, capsys, monkeypatch, name,
                                   stdout_digest, csv_digest):
    # every check row, exact and simulated; the bytes do not depend on the
    # worker count, so one worker keeps the run short
    monkeypatch.setenv("POLLING_NUM_THREADS", "1")
    out_path = tmp_path / "checks.csv"
    assert main(["validate", "--config", str(PINNED_CONFIGS[name]),
                 "--seed", "7", "--cycles", "300",
                 "--out", str(out_path)]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == stdout_digest, simd_dispatch()
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == csv_digest, \
        simd_dispatch()


class TestValidate:
    def test_base_config_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sim=base_sim_block(
            measured_cycles=2_500, replications=8))
        out_path = tmp_path / "checks.csv"
        assert main(["validate", "--config", cfg, "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "memoryless_closed_form[1]" in out
        assert "FAIL" not in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == "check,tolerance,measured,status"
        assert all(line.endswith(",PASS") for line in lines[1:])

    def test_tightened_tolerance_names_failures(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sim=base_sim_block(measured_cycles=500))
        code = main(["validate", "--config", cfg,
                     "--tolerance-scale", "1e-6"])
        assert code == 1
        out = capsys.readouterr().out
        failing = [line for line in out.splitlines() if line.endswith("FAIL")]
        assert failing and any("sojourn_lst_slope_vs_mean" in line
                               for line in failing)
        assert "check(s) failed" in out

    @pytest.mark.parametrize("scale", ["nan", "0", "-1", "inf", "-inf"])
    def test_bad_tolerance_scale_is_a_config_error(self, tmp_path, capsys,
                                                   scale):
        cfg = write_config(tmp_path, sim=base_sim_block(measured_cycles=500))
        assert main(["validate", "--config", cfg,
                     f"--tolerance-scale={scale}"]) == 2
        captured = capsys.readouterr()
        assert "--tolerance-scale must be finite and > 0" in captured.err
        assert captured.out == ""

    def test_pgf_rows_for_continuous_switch_overs(self, tmp_path, capsys):
        queues = json.loads(json.dumps(BASE_QUEUES))
        queues[0].update(visit={"type": "discrete",
                                "atoms": [[0.6, 0.4], [1.4, 0.6]]},
                         switch={"type": "exponential", "rate": 3.0})
        queues[1].update(visit={"type": "deterministic", "value": 1.5},
                         switch={"type": "hyperexponential", "p": 0.3,
                                 "rate1": 5.0, "rate2": 2.0})
        cfg = write_config(tmp_path, queues=queues,
                           sim=base_sim_block(measured_cycles=500))
        main(["validate", "--config", cfg])
        lines = capsys.readouterr().out.splitlines()
        for name in ("pgf_normalization", "pgf_gradient_vs_means"):
            for i in (1, 2):
                row = [line for line in lines
                       if line.startswith(f"{name}[{i}]")]
                assert len(row) == 1 and row[0].endswith("PASS")

    def test_pgf_rows_for_atomic_laws(self, tmp_path, capsys):
        queues = json.loads(json.dumps(BASE_QUEUES))
        for q in queues:
            q["visit"] = {"type": "deterministic", "value": 1.0}
        cfg = write_config(tmp_path, queues=queues,
                           sim=base_sim_block(measured_cycles=1_500))
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "pgf_normalization[1]" in out
        assert "pgf_gradient_vs_means[2]" in out

    def test_pgf_gradient_skips_a_zero_rate_queue(self, tmp_path, capsys,
                                                 monkeypatch):
        # queue 2 has no arrivals, so every mean of its count is 0: the
        # gradient row never differentiates along it, and still passes
        seen = []

        def recorded(system, queue, z):
            seen.append(tuple(z))
            return analytic.pgf_eval(system, queue, z)
        monkeypatch.setattr(cli, "pgf_eval", recorded)
        queues = json.loads(json.dumps(BASE_QUEUES))
        for q in queues:
            q["visit"] = {"type": "deterministic", "value": 1.0}
        queues[1]["arrival_rate"] = 0.0
        cfg = write_config(tmp_path, queues=queues,
                           sim=base_sim_block(measured_cycles=500))
        main(["validate", "--config", cfg])
        lines = capsys.readouterr().out.splitlines()
        for i in (1, 2):
            row = [line for line in lines
                   if line.startswith(f"pgf_gradient_vs_means[{i}]")]
            assert len(row) == 1 and row[0].endswith("PASS")
        # two normalizations, then one gradient point per polled queue
        assert len(seen) == 4 and all(z[1] == 1.0 for z in seen)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rates, replications", [
        ((0.0, 0.0), 10), ((1e-14, 3e-14), 10), ((0.8, 0.5), 1)])
    def test_unmeasurable_simulation_rows_are_left_out(
            self, tmp_path, capsys, monkeypatch, rates, replications):
        # a run without arrivals leaves each stderr at 0 or nan, and one
        # replication has none: with no entry to compare there is no `sim_`
        # row, where a nan or inf row would fail a valid system
        monkeypatch.setenv("POLLING_NUM_THREADS", "1")
        config = json.loads(PINNED_CONFIGS["base_config"].read_text())
        for q, rate in zip(config["system"]["queues"], rates):
            q["arrival_rate"] = rate
        config["sim"]["replications"] = replications
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["validate", "--config", str(path), "--seed", "7",
                     "--cycles", "500"]) == 0
        captured = capsys.readouterr()
        assert "memoryless_closed_form[2]" in captured.out
        assert "sim_" not in captured.out and captured.err == ""

    def test_no_gradient_row_without_arrivals(self, tmp_path, capsys,
                                              monkeypatch):
        # every mean at a polling instant is 0, so no gradient entry has a
        # scale, and a row would read 0 without comparing anything
        monkeypatch.setenv("POLLING_NUM_THREADS", "1")
        config = json.loads((WORKLOADS / "atomic-pgf.json").read_text())
        for q in config["system"]["queues"]:
            q["arrival_rate"] = 0.0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["validate", "--config", str(path), "--seed", "7",
                     "--cycles", "300"]) == 0
        out = capsys.readouterr().out
        assert "pgf_normalization[3]" in out
        assert "pgf_gradient_vs_means" not in out

    def test_pgf_rows_follow_pgf_eval(self, tmp_path, capsys, monkeypatch):
        # continuous visit laws: pgf_eval declines, and the rows are left out
        cfg = write_config(tmp_path, sim=base_sim_block(measured_cycles=500))
        main(["validate", "--config", cfg])
        assert "pgf_" not in capsys.readouterr().out

        # atomic laws, but pgf_eval declines: the rows are left out as well
        def declined(system, queue, z):
            raise UnsupportedModelError("declined")
        monkeypatch.setattr(cli, "pgf_eval", declined)
        queues = json.loads(json.dumps(BASE_QUEUES))
        for q in queues:
            q["visit"] = {"type": "deterministic", "value": 1.0}
        cfg = write_config(tmp_path, queues=queues,
                           sim=base_sim_block(measured_cycles=500))
        main(["validate", "--config", cfg])
        out = capsys.readouterr().out
        assert "pgf_" not in out and "sojourn_lst_at_zero[2]" in out

    def test_atomic_bytes_are_pinned(self, tmp_path, capsys):
        # the seeded CSV on three queues with two-atom visit laws, so it has
        # the sojourn transform rows, all twelve pgf rows and the simulation
        # rows. Re-taken once when the exact paths stopped summing through
        # BLAS: the bytes the earlier code wrote under OpenBLAS's Haswell
        # kernel (numpy 2.4 on x86-64).
        queues = [
            {"arrival_rate": 0.6, "service": {"type": "exponential", "rate": 5.0},
             "visit": {"type": "discrete", "atoms": [[0.8, 0.5], [1.6, 0.5]]},
             "switch": {"type": "deterministic", "value": 0.2}},
            {"arrival_rate": 0.4,
             "service": {"type": "erlang", "phases": 2, "rate": 6.0},
             "visit": {"type": "discrete", "atoms": [[0.6, 0.6], [1.2, 0.4]]},
             "switch": {"type": "discrete", "atoms": [[0.1, 0.5], [0.3, 0.5]]}},
            {"arrival_rate": 0.5, "service": {"type": "exponential", "rate": 5.0},
             "visit": {"type": "discrete", "atoms": [[0.5, 0.3], [1.0, 0.7]]},
             "switch": {"type": "deterministic", "value": 0.15}},
        ]
        sim = {"warmup_cycles": 50, "measured_cycles": 600,
               "replications": 4, "master_seed": 1818}
        cfg = write_config(tmp_path, queues=queues, sim=sim)
        out_path = tmp_path / "checks.csv"
        assert main(["validate", "--config", cfg, "--out", str(out_path)]) == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == \
            "486e889e3cbad2eae2c1593930473bc9d1f24075fed43caf8634d62dff3b4fdc", \
            simd_dispatch()

    def test_pgf_rows_for_never_serving_visit_atom(self, tmp_path, capsys):
        # queue 1's short visit atom never completes its service
        queues = json.loads(json.dumps(BASE_QUEUES))
        queues[0].update(
            arrival_rate=0.5,
            service={"type": "deterministic", "value": 1.0},
            visit={"type": "discrete", "atoms": [[0.5, 0.5], [2.0, 0.5]]},
            switch={"type": "deterministic", "value": 0.2})
        queues[1].update(
            service={"type": "exponential", "rate": 2.0},
            visit={"type": "deterministic", "value": 1.0},
            switch={"type": "deterministic", "value": 0.2})
        cfg = write_config(tmp_path, queues=queues,
                           sim=base_sim_block(measured_cycles=1_500))
        assert main(["validate", "--config", cfg]) in (0, 1)
        lines = capsys.readouterr().out.splitlines()
        for name in ("pgf_normalization", "pgf_gradient_vs_means"):
            for i in (1, 2):
                row = [line for line in lines
                       if line.startswith(f"{name}[{i}]")]
                assert len(row) == 1 and row[0].endswith("PASS")


BLOCK_SCIPY = """
import importlib.abc, json, sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"import of {name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
from mginfpolling.cli import main

codes = {}
for config in sys.argv[1:]:
    for op in (["analyze"], ["sweep"], ["optimize", "--brute-force"],
               ["simulate", "--cycles", "300"], ["validate", "--cycles", "300"]):
        codes[f"{op[0]} {config}"] = main([*op, "--config", config])
print(json.dumps(codes))
"""


def test_runs_with_scipy_blocked(tmp_path):
    queues = json.loads(json.dumps(BASE_QUEUES))
    queues[0]["visit"] = {"type": "discrete", "atoms": [[0.5, 0.4], [1.5, 0.6]]}
    queues[1]["service"] = {"type": "erlang", "phases": 3, "rate": 4.0}
    queues[1]["visit"] = {"type": "deterministic", "value": 1.0}
    queues[1]["switch"] = {"type": "discrete", "atoms": [[0.1, 0.5], [0.4, 0.5]]}
    atomic = write_config(
        tmp_path, queues=queues, sim=base_sim_block(),
        sweep={"queue": 1, "target": "service_scv", "grid": [0.3, 1.0, 2.0]},
        optimize={"counts": [2, 3], "mode": "serial", "objective": "max"})
    base = str(ROOT / "demos" / "base_config.json")
    src = str(Path(mginfpolling.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", BLOCK_SCIPY, base, atomic],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert codes == {f"{op} {config}": 0 for config in (base, atomic)
                     for op in ("analyze", "sweep", "optimize", "simulate",
                                "validate")}


NO_MULTIPROCESSING = """
import json, sys
from mginfpolling.cli import main

codes = [main([*op, "--config", sys.argv[1]])
         for op in (["analyze"], ["simulate", "--cycles", "300"])]
loaded = sorted(name for name in sys.modules
                if name.split(".")[0] == "multiprocessing"
                or name == "concurrent.futures.process")
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_single_worker_runs_leave_multiprocessing_unloaded(tmp_path):
    cfg = write_config(tmp_path, sim=base_sim_block())
    src = str(Path(mginfpolling.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", NO_MULTIPROCESSING, cfg],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src,
                               "POLLING_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0], "loaded": []}


class TestParserReuse:
    """`main` parses with one parser per process; no call leaks into the next."""

    def test_options_of_one_call_do_not_reach_the_next(self, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.setenv("POLLING_NUM_THREADS", "1")
        cfg = write_config(tmp_path, sim=base_sim_block(measured_cycles=300))
        src = str(Path(mginfpolling.__file__).resolve().parents[1])
        for first, second in (
                (["analyze", "--s-grid", "0.3,4"], ["analyze"]),
                (["simulate", "--seed", "99", "--cycles", "100"], ["simulate"])):
            fresh = subprocess.run(
                [sys.executable, "-m", "mginfpolling", *second, "--config", cfg],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src})
            assert fresh.returncode == 0, fresh.stderr
            assert main([*first, "--config", cfg]) == 0
            capsys.readouterr()
            assert main([*second, "--config", cfg]) == 0
            assert capsys.readouterr().out == fresh.stdout
        assert cli._parser() is cli._parser()


class TestConsoleEntryPoints:
    def test_installed_script(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = subprocess.run(["mginfpolling", "analyze", "--config", cfg],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "sojourn_mean" in proc.stdout

    def test_module_execution(self, tmp_path, capsys):
        # the package the suite imports, also from a checkout
        src = str(Path(mginfpolling.__file__).resolve().parents[1])

        def run_module(cfg):
            return subprocess.run([sys.executable, "-m", "mginfpolling",
                                   "analyze", "--config", cfg],
                                  capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": src})
        cfg = str(ROOT / "demos" / "base_config.json")
        proc = run_module(cfg)
        assert proc.returncode == 0, proc.stderr
        assert main(["analyze", "--config", cfg]) == 0
        assert proc.stdout == capsys.readouterr().out
        proc = run_module(write_config(tmp_path, surprise=1))
        assert proc.returncode == 2
        assert "unknown key 'surprise'" in proc.stderr
