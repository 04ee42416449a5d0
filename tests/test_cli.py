"""Configuration files and the command-line front end."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from rtwnsim import cli as cli_mod
from rtwnsim import experiments
from rtwnsim import trace as trace_mod
from rtwnsim.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main
from rtwnsim.config import ConfigError, dump_scenario, parse_experiment, parse_scenario, parse_tasks
from rtwnsim.mac import SlotTiming, priority_levels
from rtwnsim.model import Link, RhythmicSpec, SchedulingMode, TaskSpec, generate_taskset
from rtwnsim.sim import BaselineParams, DisturbanceSpec, Framework, MacParams, SimConfig
from rtwnsim.static_schedule import plan_retry_vectors
from rtwnsim.config import load_document, parse_network

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# --------------------------------------------------------------- config files

def test_parse_testbed_scenario():
    cfg = parse_scenario(SCENARIOS / "testbed.yaml")
    assert cfg.network.controller == "Vc"
    assert len(cfg.tasks) == 3
    assert cfg.tasks[0].slot_budget == 8
    assert cfg.disturbance.task == 0 and cfg.disturbance.instance == 3
    assert cfg.alpha == 15
    assert cfg.framework.value == "FDPAS_PACKET"


def test_malformed_yaml_reports_line(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("network:\n  nodes: [a, b\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        parse_scenario(bad)
    assert err.value.line is not None


def test_semantic_error_names_key(tmp_path):
    doc = tmp_path / "doc.yaml"
    doc.write_text(
        "network:\n  controller: c\n  nodes: [a, c]\n  links:\n    - {from: a, to: c, pdr: 2.0}\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    assert "links[0]" in str(err.value)


def test_parse_experiment_defaults(tmp_path):
    spec_file = tmp_path / "sweep.yaml"
    spec_file.write_text("trials: 3\nalphas: [1, 2]\n", encoding="utf-8")
    spec = parse_experiment(spec_file)
    assert spec.trials == 3
    assert spec.alphas == (1, 2)
    assert len(spec.frameworks) == 3


def test_solver_greedy_is_still_accepted(tmp_path):
    # Older scenario and sweep files name the greedy solver explicitly.
    text = (SCENARIOS / "testbed.yaml").read_text(encoding="utf-8")
    scenario = tmp_path / "greedy.yaml"
    scenario.write_text(text.replace("framework: FDPAS_PACKET", "solver: greedy\n  framework: FDPAS_PACKET"),
                        encoding="utf-8")
    assert parse_scenario(scenario) == parse_scenario(SCENARIOS / "testbed.yaml")
    plain, greedy = tmp_path / "plain.yaml", tmp_path / "greedy-sweep.yaml"
    plain.write_text("trials: 3\n", encoding="utf-8")
    greedy.write_text("trials: 3\nsolver: greedy\n", encoding="utf-8")
    assert parse_experiment(greedy) == parse_experiment(plain)


def _reparse(text: str, parse):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.yaml"
        path.write_text(text, encoding="utf-8")
        return parse(path)


@st.composite
def _rhythmic_specs(draw, period):
    periods = sorted(draw(st.lists(st.integers(1, period), min_size=1, max_size=4)))
    return RhythmicSpec(periods=tuple(periods), deadlines=tuple(draw(st.integers(1, p)) for p in periods))


@st.composite
def _scenario_configs(draw):
    """Configs a scenario file can express: the testbed network with drawn
    link quality, and drawn tasks, disturbance, MAC, baseline and sim keys."""
    network = parse_network(load_document(SCENARIOS / "testbed.yaml"))
    network = dataclasses.replace(network, links=tuple(
        Link(l.src, l.dst, draw(st.floats(0.01, 1.0))) for l in network.links))
    paths = draw(st.lists(st.sampled_from([("V0", "V1", "Vc", "V3", "V4"), ("V2", "Vc", "V3"), ("V1", "Vc", "V5")]),
                          min_size=1, max_size=4))
    ids = draw(st.lists(st.integers(0, 50), min_size=len(paths), max_size=len(paths), unique=True))
    tasks = []
    for task_id, path in zip(ids, paths):
        period = draw(st.integers(3, 40))
        tasks.append(TaskSpec(
            id=task_id, path=path, period=period, deadline=draw(st.integers(1, period)),
            rhythmic=draw(st.none() | _rhythmic_specs(period)),
            slot_budget=draw(st.none() | st.integers(len(path) - 1, len(path) + 3)),
            phase=draw(st.integers(0, 5)),
        ))
    disturbance, alpha = None, draw(st.none() | st.integers(1, 100))
    if draw(st.booleans()):
        task = draw(st.sampled_from(tasks))
        own = st.none() if task.rhythmic is not None else st.nothing()
        disturbance = DisturbanceSpec(task=task.id, instance=draw(st.integers(0, 5)),
                                      rhythmic=draw(own | _rhythmic_specs(task.period)))
        alpha = draw(st.none() | st.integers(task.period, 3 * task.period))
    timing = SlotTiming(priority_tick_us=draw(st.sampled_from([30, 50, 60, 100, 400])))
    priority = st.integers(0, priority_levels(timing) - 1)
    per_table = draw(st.dictionaries(st.integers(1, 13), st.floats(0.0, 1.0), max_size=3))
    return SimConfig(
        network=network,
        tasks=tuple(tasks),
        mode=draw(st.sampled_from(list(SchedulingMode))),
        required_pdr=draw(st.floats(0.01, 0.999)),
        seed=draw(st.integers(0, 2**32)),
        horizon=draw(st.none() | st.integers(1, 10_000)),
        disturbance=disturbance,
        alpha=alpha,
        beta=draw(st.integers(1, 6)),
        framework=draw(st.sampled_from(list(Framework))),
        mac=MacParams(timing=timing, rhythmic_priority=draw(priority), periodic_priority=draw(priority),
                      per_table=tuple(sorted(per_table.items()))),
        baseline=BaselineParams(broadcast_period=draw(st.none() | st.integers(1, 60)),
                                depth=draw(st.none() | st.integers(0, 6)), offset=draw(st.integers(0, 10))),
    )


@settings(max_examples=150, deadline=None)
@given(_scenario_configs())
def test_dump_scenario_round_trips(config):
    assert _reparse(dump_scenario(config), parse_scenario) == config


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), util=st.floats(0.05, 0.8))
def test_generated_task_file_parses_back(seed, util):
    # A scenario is the network file followed by the task file, meta block included.
    network = SCENARIOS / "network7.yaml"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "tasks.yaml"
        rc = main(["generate", "--seed", str(seed), "--util", str(util), "--network", str(network),
                   "--out", str(out)])
        assume(rc == EXIT_OK)
        tasks = parse_tasks(load_document(out))
        text = network.read_text(encoding="utf-8") + out.read_text(encoding="utf-8")
    assert tasks == tuple(generate_taskset(seed, util, parse_network(load_document(network))))
    assert _reparse(text, parse_scenario).tasks == tasks


# ------------------------------------------------------------------ commands

def test_generate_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.yaml", tmp_path / "b.yaml"
    args = ["generate", "--seed", "9", "--util", "0.4",
            "--network", str(SCENARIOS / "network7.yaml")]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_generate_mean_utilization_bound():
    # The incremental-add loop stops at the first crossing, so the achieved
    # utilization lies in [target, target + max single-task utilization).
    net = parse_network(load_document(SCENARIOS / "network7.yaml"))
    overshoots = []
    for seed in range(100):
        tasks = generate_taskset(seed, 0.5, net, required_pdr=0.95)
        vectors = plan_retry_vectors(tasks, net, 0.95)
        util = sum(sum(vectors[t.id]) / t.period for t in tasks)
        step = max(sum(vectors[t.id]) / t.period for t in tasks)
        assert 0.5 <= util < 0.5 + step + 1e-9
        overshoots.append(util - 0.5)
    assert sum(overshoots) / len(overshoots) < 0.2


def test_generate_rejects_malformed_network(tmp_path, capsys):
    bad = tmp_path / "net.yaml"
    bad.write_text("network:\n  nodes: [a\n", encoding="utf-8")
    rc = main(["generate", "--seed", "1", "--util", "0.3",
               "--network", str(bad), "--out", str(tmp_path / "o.yaml")])
    assert rc == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_generate_unreachable_utilization_exit_code(tmp_path, capsys):
    out = tmp_path / "o.yaml"
    rc = main(["generate", "--seed", "1", "--util", "1.0",
               "--network", str(SCENARIOS / "network7.yaml"), "--out", str(out)])
    assert rc == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "--seed must be >= 0, got -1"),
    ("--util", "5", "--util must lie in [0, 1], got 5.0"),
    ("--util", "-0.5", "--util must lie in [0, 1], got -0.5"),
    ("--required-pdr", "0", "--required-pdr must be in (0, 1), got 0.0"),
    ("--required-pdr", "1", "--required-pdr must be in (0, 1), got 1.0"),
], ids=["seed_negative", "util_5", "util_negative", "required_pdr_0", "required_pdr_1"])
def test_generate_out_of_range_argument_exit_code(tmp_path, capsys, flag, value, message):
    # The sweep spec's rules: base_seed >= 0, utils in [0, 1], required_pdr in (0, 1).
    args = {"--seed": "1", "--util": "0.3", "--required-pdr": "0.99", flag: value}
    out = tmp_path / "o.yaml"
    rc = main(["generate", *(x for pair in args.items() for x in pair),
               "--network", str(SCENARIOS / "network7.yaml"), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_generate_without_simple_path_exit_code(tmp_path, capsys):
    # V1 relays both ways, so every sensor-to-actuator route through the
    # controller turns back through V1: no candidate path is simple.
    network = tmp_path / "net.yaml"
    network.write_text(
        "network:\n"
        "  controller: Vc\n"
        "  nodes: [V0, V1, Vc]\n"
        "  links:\n"
        "    - {from: V0, to: V1, pdr: 0.9}\n"
        "    - {from: V1, to: V0, pdr: 0.9}\n"
        "    - {from: V1, to: Vc, pdr: 0.9}\n"
        "    - {from: Vc, to: V1, pdr: 0.9}\n",
        encoding="utf-8",
    )
    out = tmp_path / "o.yaml"
    rc = main(["generate", "--seed", "1", "--util", "0.3", "--network", str(network), "--out", str(out)])
    assert rc == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "no simple sensor-to-actuator path" in err
    assert not out.exists()


def test_simulate_testbed_produces_preemptions(tmp_path):
    trace = tmp_path / "trace.txt"
    metrics = tmp_path / "metrics.csv"
    rc = main(["simulate", "--scenario", str(SCENARIOS / "testbed.yaml"),
               "--trace-out", str(trace), "--csv-out", str(metrics)])
    assert rc == EXIT_OK
    text = trace.read_text(encoding="utf-8")
    assert "result=deferred" in text  # periodic transmissions preempted in-window
    with open(metrics, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["success"] == "1"
    assert rows[0]["drt"] == "15"
    assert rows[0]["dropped_packets"] == "2"


def test_simulate_is_byte_deterministic(tmp_path):
    paths = []
    for tag in ("x", "y"):
        trace = tmp_path / f"{tag}.txt"
        metrics = tmp_path / f"{tag}.csv"
        assert main(["simulate", "--scenario", str(SCENARIOS / "testbed.yaml"),
                     "--trace-out", str(trace), "--csv-out", str(metrics)]) == EXIT_OK
        paths.append((trace.read_bytes(), metrics.read_bytes()))
    assert paths[0] == paths[1]


def test_simulate_infeasible_static_exit_code(tmp_path, capsys):
    # Two tasks demanding four slots per three-slot period: pigeonhole overload.
    bad = tmp_path / "overloaded.yaml"
    bad.write_text(
        "network:\n"
        "  controller: C\n"
        "  nodes: [S1, C, A1]\n"
        "  links:\n"
        "    - {from: S1, to: C, pdr: 1.0}\n"
        "    - {from: C, to: A1, pdr: 1.0}\n"
        "tasks:\n"
        "  - {id: 0, path: [S1, C, A1], period: 3, deadline: 3}\n"
        "  - {id: 1, path: [S1, C, A1], period: 3, deadline: 3}\n"
        "sim: {required_pdr: 0.9, horizon: 30}\n",
        encoding="utf-8",
    )
    rc = main(["simulate", "--scenario", str(bad)])
    assert rc == EXIT_INFEASIBLE
    capsys.readouterr()
    # The testbed's detecting packet, released at 46, gets only its first hop
    # (V0 -> V1) inside a 47-slot horizon, so the baseline's controller never
    # hears of the disturbance.
    text = (SCENARIOS / "testbed.yaml").read_text(encoding="utf-8")
    for old, new in [("horizon: 260", "horizon: 47"), ("framework: FDPAS_PACKET", "framework: BASELINE_BROADCAST")]:
        assert old in text
        text = text.replace(old, new)
    short = tmp_path / "short_baseline.yaml"
    short.write_text(text, encoding="utf-8")
    trace = tmp_path / "trace.txt"
    rc = main(["simulate", "--scenario", str(short), "--trace-out", str(trace)])
    assert rc == EXIT_INFEASIBLE
    assert capsys.readouterr().err == (
        "error: detection packet has no static slot to the controller inside the horizon\n"
    )
    assert not trace.exists()


def _controller_first_baseline(tmp_path, mode, baseline=""):
    """The testbed with task 1 routed Vc -> V3 -> V4, so the controller is
    its sensor, and disturbed under the centralized baseline."""
    text = (SCENARIOS / "testbed.yaml").read_text(encoding="utf-8")
    for old, new in [
        ("path: [V2, Vc, V3]\n    period: 30\n    deadline: 30\n    slot_budget: 6\n    phase: 1\n",
         "path: [Vc, V3, V4]\n    period: 30\n    deadline: 30\n    slot_budget: 6\n    phase: 1\n"
         "    rhythmic: {periods: [24, 24]}\n"),
        ("  task: 0\n", "  task: 1\n"),
        ("alpha: 15", "alpha: 30"),
        ("mode: TBS", f"mode: {mode}"),
        ("framework: FDPAS_PACKET", "framework: BASELINE_BROADCAST"),
        ("mac:\n", f"{baseline}mac:\n"),
    ]:
        assert old in text
        text = text.replace(old, new)
    scenario = tmp_path / f"controller_first_{mode}.yaml"
    scenario.write_text(text, encoding="utf-8")
    metrics = tmp_path / "metrics.csv"
    rc = main(["simulate", "--scenario", str(scenario), "--trace-out", str(tmp_path / "trace.txt"),
               "--csv-out", str(metrics)])
    assert rc == EXIT_OK
    with open(metrics, newline="") as fh:
        return next(csv.DictReader(fh))


@pytest.mark.parametrize("mode", ["TBS", "PBS"])
def test_simulate_baseline_with_the_controller_as_sensor(tmp_path, mode):
    # The controller knows of a disturbance on its own route at the detection
    # slot 91: the broadcast at 120 floods by 122 and task 1 next releases
    # at 151, 60 slots after detection, in either mode.
    row = _controller_first_baseline(tmp_path, mode)
    assert (row["drt"], row["success"]) == ("60", "0")
    # With the broadcast task released at 40 + 60k, the instance at 100
    # already carries the news: flood done at 102, next release at 121.
    # Waiting for the detecting packet's last slot (104) instead would miss
    # it and answer at 181, 90 slots after detection.
    row = _controller_first_baseline(tmp_path, mode, baseline="baseline: {offset: 40}\n")
    assert (row["drt"], row["success"]) == ("30", "1")


def test_simulate_with_no_packet_writes_an_empty_trace(tmp_path):
    # Every task's first release is at the explicit horizon, and no
    # disturbance is set: the run has no event, and the trace is one newline.
    text = (SCENARIOS / "testbed.yaml").read_text(encoding="utf-8")
    assert text.count("phase: 1\n") == 3 and "disturbance:\n  task: 0\n  instance: 3\n" in text
    text = text.replace("phase: 1\n", "phase: 260\n")
    text = text.replace("disturbance:\n  task: 0\n  instance: 3\n", "")
    scenario = tmp_path / "idle.yaml"
    scenario.write_text(text, encoding="utf-8")
    trace = tmp_path / "trace.txt"
    rc = main(["simulate", "--scenario", str(scenario), "--trace-out", str(trace),
               "--csv-out", str(tmp_path / "metrics.csv")])
    assert rc == EXIT_OK
    assert trace.read_bytes() == b"\n"


@pytest.mark.parametrize("framework", ["FDPAS_PACKET", "FDPAS_TRANSMISSION"])
def test_simulate_horizon_before_window_end_exit_code(tmp_path, capsys, framework):
    # The testbed disturbance's latest end point is slot 166; a 60-slot
    # horizon cannot hold its window under either distributed framework.
    text = (SCENARIOS / "testbed.yaml").read_text(encoding="utf-8")
    text = text.replace("horizon: 260", "horizon: 60")
    text = text.replace("framework: FDPAS_PACKET", f"framework: {framework}")
    scenario = tmp_path / "short.yaml"
    scenario.write_text(text, encoding="utf-8")
    trace = tmp_path / "trace.txt"
    rc = main(["simulate", "--scenario", str(scenario), "--trace-out", str(trace),
               "--csv-out", str(tmp_path / "metrics.csv")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: sim.horizon 60 ") and err.count("\n") == 1
    assert "166" in err
    assert not trace.exists()


def test_sweep_smoke_grid(tmp_path):
    spec = tmp_path / "sweep.yaml"
    spec.write_text(
        "utils: [0.4]\nr_steps: [4]\nalphas: [1, 6]\ntrials: 2\nbase_seed: 5\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    rc = main(["sweep", "--spec", str(spec), "--out-dir", str(out)])
    assert rc == EXIT_OK
    with open(out / "records.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    assert len(records) == 2 * 2 * 3  # trials x alphas x frameworks
    with open(out / "aggregate.csv", newline="") as fh:
        aggs = list(csv.DictReader(fh))
    fd = [r for r in aggs if r["framework"] == "FDPAS_PACKET"]
    assert all(r["sr"] == "1.000000" for r in fd)
    # identical reruns produce identical bytes
    out2 = tmp_path / "out2"
    assert main(["sweep", "--spec", str(spec), "--out-dir", str(out2)]) == EXIT_OK
    assert (out / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
    assert (out / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()


@pytest.mark.parametrize("line, message", [
    ("alphas: [0]", "alphas must be >= 1"),
    ("beta: 0", "beta must be >= 1"),
    ("solver: bogus", "unknown solver 'bogus'"),
    ("solver: oracle", "unknown solver 'oracle'; FD-PaS plans with the greedy heuristics"),
    ("utils: [1.5]", "utils must lie in [0, 1]"),
    ("utils: [-0.1]", "utils must lie in [0, 1]"),
    ("r_steps: [0]", "r_steps must be >= 1"),
    ("gamma: 1.0", "gamma must lie in (0, 1)"),
    ("gamma: 0", "gamma must lie in (0, 1)"),
    ("required_pdr: 1.0", "required pdr must be in (0, 1)"),
    ("required_pdr: 0", "required pdr must be in (0, 1)"),
    ("ticks: [-1]", "ticks must be >= 0"),
    ("base_seed: -1", "base_seed must be >= 0"),
    ("utils: 0.5", "experiment spec: 'float' object is not iterable"),
    ("trials: [1]", "experiment spec: int() argument must be"),
    ("trials: 2.5", "experiment spec: trials 2.5 is not an integer"),
    ("alphas: [1, 1.5]", "experiment spec: alphas 1.5 is not an integer"),
    ("beta: 4.5", "experiment spec: beta 4.5 is not an integer"),
    ("base_seed: true", "experiment spec: base_seed True is not an integer"),
    ("util: [0.9]", "experiment spec: unknown key 'util'"),
    ("tick: [50]", "experiment spec: unknown key 'tick'"),
    ('r_steps: "48"', "experiment spec: r_steps must be a list, got str"),
    ("r_steps: {4: x}", "experiment spec: r_steps must be a list, got dict"),
    # A repeated axis value would plan its cells twice and double their records.
    ("alphas: [1, 1]", "experiment spec: alphas must not repeat a value"),
    ("ticks: [50, 60, 50]", "experiment spec: ticks must not repeat a value"),
    ("frameworks: [FDPAS_PACKET, FDPAS_PACKET]", "experiment spec: frameworks must not repeat a value"),
    ("utils: [0.4, 0.4001]", "experiment spec: utils must not repeat a value"),
], ids=["alpha_0", "beta_0", "unknown_solver", "oracle_solver", "util_1.5", "util_negative", "r_steps_0", "gamma_1",
        "gamma_0", "required_pdr_1", "required_pdr_0", "tick_negative", "base_seed_negative", "scalar_utils",
        "list_trials", "fractional_trials", "fractional_alpha", "fractional_beta", "bool_base_seed", "util_typo",
        "tick_typo", "string_r_steps", "mapping_r_steps", "repeated_alpha", "repeated_tick", "repeated_framework",
        "utils_equal_to_0.001"])
def test_sweep_invalid_spec_exit_code(tmp_path, capsys, line, message):
    # ``line`` replaces the base spec's line of the same key: a repeated key
    # is an error of its own.
    spec = tmp_path / "sweep.yaml"
    base = [row for row in ("utils: [0.4]", "r_steps: [4]", "trials: 1") if row.split(":")[0] != line.split(":")[0]]
    spec.write_text("".join(f"{row}\n" for row in (*base, line)), encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["sweep", "--spec", str(spec), "--out-dir", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not (out / "records.csv").exists()


def test_simulate_unknown_solver_exit_code(tmp_path, capsys):
    text = (SCENARIOS / "testbed.yaml").read_text(encoding="utf-8")
    scenario = tmp_path / "bogus.yaml"
    scenario.write_text(text.replace("framework: FDPAS_PACKET", "solver: bogus\n  framework: FDPAS_PACKET"),
                        encoding="utf-8")
    trace = tmp_path / "trace.txt"
    rc = main(["simulate", "--scenario", str(scenario), "--trace-out", str(trace)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "unknown solver 'bogus'" in err
    assert not trace.exists()


@pytest.mark.parametrize("old, new, message", [
    ("priority_tick_us: 60", "priority_tick_us: 60\n  periodic_priority: 99",
     "mac: periodic_priority 99 outside the supported range 0..13"),
    ("priority_tick_us: 60", "priority_tick_us: 400\n  rhythmic_priority: 3",
     "mac: rhythmic_priority 3 outside the supported range 0..2"),
    ("path: [V2, Vc, V3]", "path: [V2, Vx, V3]", "tasks[1]: task 1: path node 'Vx' not in network"),
    ("horizon: 260\n  alpha: 15\n  beta: 4\n  framework: FDPAS_PACKET",
     "horizon: -5\n  alpha: 15\n  beta: 4\n  framework: BASELINE_BROADCAST",
     "sim: horizon -5 must be >= 1"),
    ("horizon: 260", "horizon: 0", "sim: horizon 0 must be >= 1"),
    ("alpha: 15", "alpha: 0", "sim: alpha must be at least one nominal period"),
    ("framework: FDPAS_PACKET", "solver: oracle\n  framework: FDPAS_PACKET",
     "sim: unknown solver 'oracle'; FD-PaS plans with the greedy heuristics ('greedy'), "
     "the exhaustive oracle is a test reference"),
    ("framework: FDPAS_PACKET",
     "framework: BASELINE_BROADCAST\nbaseline: {broadcast_period: -5, depth: -3}",
     "baseline: broadcast_period -5 must be >= 1"),
    ("framework: FDPAS_PACKET", "framework: BASELINE_BROADCAST\nbaseline: {broadcast_period: 0}",
     "baseline: broadcast_period 0 must be >= 1"),
    ("framework: FDPAS_PACKET", "framework: BASELINE_BROADCAST\nbaseline: {depth: -3}",
     "baseline: depth -3 must be >= 0"),
    ("framework: FDPAS_PACKET", "framework: BASELINE_BROADCAST\nbaseline: {offset: -1}",
     "baseline: offset -1 must be >= 0"),
    ("seed: 7", "seed: -1", "sim: seed -1 must be >= 0"),
    ("instance: 3", "instance: -1", "disturbance: instance -1 must be >= 0"),
    ("priority_tick_us: 60", "priority_tick_us: 20", "mac: tick must lie in the supported 30..400 us range"),
    ("instance: 3", "instance: abc", "disturbance: instance 'abc' is not an integer"),
    ("  task: 0\n", "  task: x\n", "disturbance: task 'x' is not an integer"),
    ("period: 30", "period: x", "tasks[1]: period 'x' is not an integer"),
    ("rhythmic: {periods: [12, 12, 12, 12, 12]}", "rhythmic: {periods: 12}",
     "tasks[0].rhythmic: 'int' object is not iterable"),
    # A number with a fractional part, or a bool, is rejected, not truncated.
    ("instance: 3", "instance: 3.9", "disturbance: instance 3.9 is not an integer"),
    ("instance: 3", "instance: true", "disturbance: instance True is not an integer"),
    ("period: 30", "period: 30.5", "tasks[1]: period 30.5 is not an integer"),
    ("slot_budget: 8", "slot_budget: 8.5", "tasks[0]: slot_budget 8.5 is not an integer"),
    ("rhythmic: {periods: [12, 12, 12, 12, 12]}", "rhythmic: {periods: [12, 12.5, 12, 12, 12]}",
     "tasks[0].rhythmic: periods 12.5 is not an integer"),
    ("priority_tick_us: 60", "priority_tick_us: 60.5", "mac: priority_tick_us 60.5 is not an integer"),
    ("seed: 7", "seed: 7.5", "sim: seed 7.5 is not an integer"),
    ("horizon: 260", "horizon: 260.5", "sim: horizon 260.5 is not an integer"),
    ("beta: 4", "beta: 4.5", "sim: beta 4.5 is not an integer"),
    ("framework: FDPAS_PACKET", "framework: BASELINE_BROADCAST\nbaseline: {offset: 1.5}",
     "baseline: offset 1.5 is not an integer"),
    ("seed: 7", "seed: [7]", "sim: int() argument must be"),
    # A key that names no field, in any section, is rejected, not ignored.
    ("seed: 7", "seeed: 7", "sim: unknown key 'seeed'"),
    ("framework: FDPAS_PACKET", "framework: FDPAS_PACKET\n  mac: {priority_tick_us: 60}", "sim: unknown key 'mac'"),
    ("priority_tick_us: 60", "priority_tick_us: 60\n  periodic_prio: 1", "mac: unknown key 'periodic_prio'"),
    ("priority_tick_us: 60", "priority_tick_us: 60\n  slot_duration_us: 9000", "mac: unknown key 'slot_duration_us'"),
    ("mac:\n", "baseline: {broadcast_periods: 30}\nmac:\n", "baseline: unknown key 'broadcast_periods'"),
    ("mac:\n", "baselin: {broadcast_period: 30}\nmac:\n", "document: unknown key 'baselin'"),
    ("  controller: Vc\n", "  controller: Vc\n  root: Vc\n", "network: unknown key 'root'"),
    ("{from: V0, to: V1, pdr: 0.9}", "{from: V0, to: V1, prr: 0.9}", "network.links[0]: unknown key 'prr'"),
    ("period: 30", "period: 30\n    priority: 2", "tasks[1]: unknown key 'priority'"),
    ("rhythmic: {periods: [12, 12, 12, 12, 12]}", "rhythmic: {periods: [12, 12, 12, 12, 12], deadline: [12]}",
     "tasks[0].rhythmic: unknown key 'deadline'"),
    ("  instance: 3\n", "  instance: 3\n  slot: 40\n", "disturbance: unknown key 'slot'"),
    ("  instance: 3\n", "  instance: 3\n  rhythmic: {periods: [12, 12], steps: 2, ratios: 0.8}\n",
     "disturbance.rhythmic: unknown key 'ratios'"),
    ("  - id: 2\n", "  - id: 1\n", "tasks[2]: duplicate task id 1"),
    # A schedule keeps task ids in an int32 column and marks an idle slot -1.
    ("  - id: 1\n", "  - id: -1\n", "tasks[1]: task -1: id must lie in 0..2147483647"),
    ("  - id: 1\n", "  - id: 3000000000\n", "tasks[1]: task 3000000000: id must lie in 0..2147483647"),
    # The schedule's columns hold int64; a larger integer or float is rejected.
    ("period: 30", "period: 1000000000000000000000",
     "tasks[1]: period 1000000000000000000000 lies outside the 64-bit integer range"),
    ("period: 30", "period: 1.0e+308", "tasks[1]: period 1e+308 lies outside the 64-bit integer range"),
    ("priority_tick_us: 60", "priority_tick_us: 60\n  per_table: {1: 2.0}", "mac: per_table rate 2.0 must lie in [0, 1]"),
    ("priority_tick_us: 60", "priority_tick_us: 60\n  per_table: {0: 0.5}",
     "mac: per_table priority distance 0 must be >= 1"),
    ("priority_tick_us: 60", "priority_tick_us: 60\n  per_table: [0.5]", "mac: per_table: expected a mapping, got list"),
    ("  task: 0\n", "  task: 9\n", "disturbance: unknown task 9"),
    ("  task: 0\n", "  task: 1\n", "disturbance: task has no rhythmic specification"),
    ("rhythmic: {periods: [12, 12, 12, 12, 12]}", "rhythmic: {steps: 3}",
     "tasks[0].rhythmic: rhythmic needs either 'periods' or 'ratio'+'steps'"),
    ("  controller: Vc\n", "  controller: Vz\n", "network: controller 'Vz' is not a declared node"),
    ("nodes: [V0, V1, V2, V3, V4, V5, Vc]", "nodes: [V0, V1, V2, V3, V4, V5, Vc, V1]",
     "network: duplicate node identifiers"),
    # A string or a mapping is iterable, but is not a list of periods.
    ("rhythmic: {periods: [12, 12, 12, 12, 12]}", 'rhythmic: {periods: "12"}',
     "tasks[0].rhythmic: periods must be a list, got str"),
    ("rhythmic: {periods: [12, 12, 12, 12, 12]}", "rhythmic: {periods: [12, 12], deadlines: {12: 12}}",
     "tasks[0].rhythmic: deadlines must be a list, got dict"),
], ids=["periodic_priority_99", "rhythmic_priority_at_tick_400", "path_node_off_network",
        "baseline_negative_horizon", "zero_horizon", "zero_alpha", "oracle_solver",
        "baseline_negative_period_and_depth", "baseline_zero_period", "baseline_negative_depth",
        "baseline_negative_offset", "negative_seed", "negative_instance", "tick_20", "non_integer_instance",
        "non_integer_task", "non_integer_period", "scalar_rhythmic_periods", "fractional_instance",
        "bool_instance", "fractional_period", "fractional_slot_budget", "fractional_rhythmic_period",
        "fractional_tick", "fractional_seed", "fractional_horizon", "fractional_beta", "fractional_offset",
        "list_seed", "sim_typo", "sim_nested_mac", "mac_typo", "mac_timing_field", "baseline_typo", "document_typo",
        "network_typo", "link_typo", "task_typo", "task_rhythmic_typo", "disturbance_typo",
        "disturbance_rhythmic_typo", "duplicate_task_id", "negative_task_id", "task_id_beyond_int32",
        "period_beyond_int64", "float_period_beyond_int64",
        "per_table_rate", "per_table_distance", "per_table_list",
        "string_rhythmic_periods", "mapping_rhythmic_deadlines", "unknown_disturbed_task",
        "disturbed_task_without_rhythmic_spec", "rhythmic_without_periods_or_ratio", "undeclared_controller",
        "duplicate_node"])
def test_simulate_invalid_scenario_exit_code(tmp_path, capsys, old, new, message):
    text = (SCENARIOS / "testbed.yaml").read_text(encoding="utf-8")
    assert old in text
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(text.replace(old, new), encoding="utf-8")
    trace = tmp_path / "trace.txt"
    rc = main(["simulate", "--scenario", str(scenario), "--trace-out", str(trace)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not trace.exists()


def test_simulate_baseline_on_disconnected_network_exit_code(tmp_path, capsys):
    # The baseline's default flood depth needs every node reachable from the
    # controller with links taken both ways; X9 has no link at all.
    text = (SCENARIOS / "testbed.yaml").read_text(encoding="utf-8")
    text = text.replace("nodes: [V0, V1, V2, V3, V4, V5, Vc]", "nodes: [V0, V1, V2, V3, V4, V5, Vc, X9]")
    text = text.replace("framework: FDPAS_PACKET", "framework: BASELINE_BROADCAST")
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(text, encoding="utf-8")
    trace = tmp_path / "trace.txt"
    rc = main(["simulate", "--scenario", str(scenario), "--trace-out", str(trace)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: sim: baseline.depth unset and network is not connected: X9 cut off from controller Vc\n"
    )
    assert not trace.exists()
    # An explicit depth needs no search, so the same network runs.
    scenario.write_text(text.replace("mac:\n", "baseline: {depth: 2}\nmac:\n"), encoding="utf-8")
    assert main(["simulate", "--scenario", str(scenario), "--trace-out", str(trace),
                 "--csv-out", str(tmp_path / "metrics.csv")]) == 0


@pytest.mark.parametrize("old, new, message", [
    ("  - id: 1\n", "  - ident: 1\n", "error: tasks[1]: missing required key 'id'\n"),
    ("{from: V2, to: Vc, pdr: 0.9}", "{src: V2, to: Vc, pdr: 0.9}",
     "error: network.links[4]: missing required key 'from'\n"),
    ("rhythmic: {periods: [12, 12, 12, 12, 12]}", "rhythmic: {ratio: 0.8}",
     "error: tasks[0].rhythmic: missing required key 'steps'\n"),
], ids=["task_id", "link_from", "rhythmic_steps"])
def test_missing_key_names_its_location_once(tmp_path, capsys, old, new, message):
    text = (SCENARIOS / "testbed.yaml").read_text(encoding="utf-8")
    assert old in text
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(text.replace(old, new), encoding="utf-8")
    rc = main(["simulate", "--scenario", str(scenario), "--trace-out", str(tmp_path / "trace.txt")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == message


_TESTBED = (SCENARIOS / "testbed.yaml").read_text(encoding="utf-8")


@pytest.mark.parametrize("old, new, message", [
    ("    - {from: V0, to: V1, pdr: 0.9}\n", "    - 5\n", "network.links[0]: expected a mapping, got int"),
    ("\ndisturbance:\n", "  - 7\n\ndisturbance:\n", "tasks[3]: expected a mapping, got int"),
    (_TESTBED[_TESTBED.index("network:"):_TESTBED.index("tasks:")], "network: 3\n",
     "network: expected a mapping, got int"),
    ("disturbance:\n  task: 0\n  instance: 3\n", "disturbance: [1]\n", "disturbance: expected a mapping, got list"),
    ("mac:\n  priority_tick_us: 60\n", "mac: 3\n", "mac: expected a mapping, got int"),
    ("mac:\n", "baseline: [1]\nmac:\n", "baseline: expected a mapping, got list"),
    (_TESTBED[_TESTBED.index("sim:"):], "sim: 3\n", "sim: expected a mapping, got int"),
    # Only a null reads as an empty section: a falsy non-mapping is rejected too.
    (_TESTBED[_TESTBED.index("sim:"):], "sim: []\n", "sim: expected a mapping, got list"),
    ("mac:\n  priority_tick_us: 60\n", "mac: 0\n", "mac: expected a mapping, got int"),
    ("mac:\n", "baseline: []\nmac:\n", "baseline: expected a mapping, got list"),
    ("disturbance:\n  task: 0\n  instance: 3\n", "disturbance: []\n", "disturbance: expected a mapping, got list"),
    ("rhythmic: {periods: [12, 12, 12, 12, 12]}", "rhythmic: []", "tasks[0].rhythmic: expected a mapping, got list"),
    ("  instance: 3\n", "  instance: 3\n  rhythmic: 0\n", "disturbance.rhythmic: expected a mapping, got int"),
    ("priority_tick_us: 60", "priority_tick_us: 60\n  per_table: []", "mac: per_table: expected a mapping, got list"),
], ids=["bare_link", "bare_task", "scalar_network", "list_disturbance", "scalar_mac", "list_baseline",
        "scalar_sim", "empty_list_sim", "zero_mac", "empty_list_baseline", "empty_list_disturbance",
        "empty_list_task_rhythmic", "zero_disturbance_rhythmic", "empty_list_per_table"])
def test_non_mapping_entry_exit_code(tmp_path, capsys, old, new, message):
    assert old in _TESTBED
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(_TESTBED.replace(old, new, 1), encoding="utf-8")
    rc = main(["simulate", "--scenario", str(scenario), "--trace-out", str(tmp_path / "trace.txt")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("old, new, message", [
    ("nodes: [V0, V1, V2, V3, V4, V5, Vc]", "nodes: 5", "network: nodes must be a list, got int"),
    (_TESTBED[_TESTBED.index("  links:"):_TESTBED.index("tasks:")], "  links: 5\n\n",
     "network: links must be a list, got int"),
    (_TESTBED[_TESTBED.index("tasks:"):_TESTBED.index("disturbance:")], "tasks: 5\n\n",
     "document: tasks must be a list, got int"),
    ("path: [V2, Vc, V3]", "path: V2", "tasks[1]: path must be a list, got str"),
    (_TESTBED[_TESTBED.index("tasks:"):_TESTBED.index("mac:")], "tasks: []\n\n",
     "document: tasks must list at least one task"),
], ids=["scalar_nodes", "scalar_links", "scalar_tasks", "scalar_path", "empty_tasks_no_disturbance"])
def test_non_list_entry_exit_code(tmp_path, capsys, old, new, message):
    assert old in _TESTBED
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(_TESTBED.replace(old, new, 1), encoding="utf-8")
    trace = tmp_path / "trace.txt"
    rc = main(["simulate", "--scenario", str(scenario), "--trace-out", str(trace)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not trace.exists()


def test_simulate_node_name_not_utf8_exit_code(tmp_path, capsys):
    # A YAML escape for a lone surrogate names a node no UTF-8 trace can hold.
    assert "V2" in _TESTBED
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(_TESTBED.replace("V2", '"V\\ud800"'), encoding="utf-8")
    trace = tmp_path / "trace.txt"
    rc = main(["simulate", "--scenario", str(scenario), "--trace-out", str(trace)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: network.nodes[2]: node name 'V\\ud800' is not valid UTF-8 text\n"
    assert "Traceback" not in err
    assert not trace.exists()


@pytest.mark.parametrize("name", ["V\n2", "V 2", "V\t2", "V=2", ""],
                         ids=["newline", "space", "tab", "equals", "empty"])
def test_simulate_node_name_that_breaks_a_trace_line_exit_code(tmp_path, capsys, name):
    # A trace line is one line of space-separated name=value fields.
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(_TESTBED.replace("V2", json.dumps(name)), encoding="utf-8")
    trace = tmp_path / "trace.txt"
    rc = main(["simulate", "--scenario", str(scenario), "--trace-out", str(trace)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: network.nodes[2]: node name {name!r} must be non-empty, without whitespace or '='\n"
    assert not trace.exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8", "list", "scalar", "empty"])
@pytest.mark.parametrize("command", ["generate", "simulate", "sweep"])
def test_unreadable_input_exit_code(tmp_path, capsys, command, kind):
    # A file that cannot be read as text, or whose top level is no mapping.
    source = tmp_path / "input.yaml"
    if kind == "directory":
        source.mkdir()
    elif kind != "missing":
        source.write_bytes({"not_utf8": b"utils: [0.5]\n# \xff\n", "list": b"- utils\n- [0.5]\n",
                            "scalar": b"0.5\n", "empty": b""}[kind])
    out = tmp_path / "out"
    argv = {
        "generate": ["generate", "--seed", "1", "--util", "0.3", "--network", str(source), "--out", str(out)],
        "simulate": ["simulate", "--scenario", str(source), "--trace-out", str(out), "--csv-out", str(out)],
        "sweep": ["sweep", "--spec", str(source), "--out-dir", str(out)],
    }[command]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    if kind in ("list", "scalar", "empty"):
        assert err == f"error: {source}: expected a mapping at the top level\n"
    else:
        assert err.startswith(f"error: cannot read {source}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_sweep_without_admissible_disturbance_exit_code(tmp_path, capsys, parallel):
    # At utilization 0 no task is generated, so no trial can host a disturbance.
    spec = tmp_path / "sweep.yaml"
    spec.write_text("utils: [0.0, 0.4]\nr_steps: [4]\nalphas: [1]\ntrials: 1\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["sweep", "--spec", str(spec), "--out-dir", str(out), "--parallel", parallel])
    assert rc == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("error: no admissible disturbance") and err.count("\n") == 1
    assert not (out / "records.csv").exists()


def test_env_var_sets_default_output_dir(tmp_path, monkeypatch):
    out = tmp_path / "outputs"
    monkeypatch.setenv("RTWNSIM_OUT", str(out))
    rc = main(["simulate", "--scenario", str(SCENARIOS / "testbed.yaml")])
    assert rc == EXIT_OK
    assert (out / "trace.txt").exists()
    assert (out / "metrics.csv").exists()


@pytest.mark.parametrize("flag", ["--trace-out", "--csv-out"])
def test_simulate_unwritable_output_exit_code(tmp_path, capsys, flag):
    # An output file in a directory that does not exist cannot be opened.
    paths = {"--trace-out": tmp_path / "trace.txt", "--csv-out": tmp_path / "metrics.csv"}
    paths[flag] = tmp_path / "missing" / "out.txt"
    argv = ["simulate", "--scenario", str(SCENARIOS / "testbed.yaml")]
    for name, path in paths.items():
        argv += [name, str(path)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert str(paths[flag]) in err


_SMALL_SWEEP = "utils: [0.4]\nr_steps: [4]\nalphas: [1]\ntrials: 1\nbase_seed: 5\nframeworks: [FDPAS_PACKET]\n"


@pytest.mark.parametrize("command, via", [
    ("simulate", "RTWNSIM_OUT"), ("sweep", "RTWNSIM_OUT"), ("sweep", "--out-dir"),
])
def test_output_directory_naming_a_file_exit_code(tmp_path, capsys, monkeypatch, command, via):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    if command == "simulate":
        argv = ["simulate", "--scenario", str(SCENARIOS / "testbed.yaml")]
    else:
        spec = tmp_path / "sweep.yaml"
        spec.write_text(_SMALL_SWEEP, encoding="utf-8")
        argv = ["sweep", "--spec", str(spec)]
    if via == "RTWNSIM_OUT":
        monkeypatch.setenv("RTWNSIM_OUT", str(taken))
    else:
        argv += ["--out-dir", str(taken)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert str(taken) in err
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


def test_simulate_explicit_outputs_ignore_the_default_directory(tmp_path, monkeypatch):
    # With both output paths given, RTWNSIM_OUT is never created or read.
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    monkeypatch.setenv("RTWNSIM_OUT", str(taken))
    assert main(["simulate", "--scenario", str(SCENARIOS / "testbed.yaml"), "--trace-out",
                 str(tmp_path / "trace.txt"), "--csv-out", str(tmp_path / "metrics.csv")]) == EXIT_OK


def test_generate_unwritable_output_exit_code(tmp_path, capsys):
    out = tmp_path / "missing" / "tasks.yaml"
    rc = main(["generate", "--seed", "1", "--util", "0.3", "--network", str(SCENARIOS / "network7.yaml"),
               "--out", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert str(out) in err


@pytest.mark.parametrize("mode", list(SchedulingMode), ids=lambda m: m.value)
def test_simulate_builds_no_record_tuples(tmp_path, monkeypatch, mode):
    # simulate renders its trace from the engine's record columns: with the
    # record merge broken it still exits 0 and writes the same bytes.
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(dump_scenario(dataclasses.replace(parse_scenario(SCENARIOS / "testbed.yaml"), mode=mode)),
                        encoding="utf-8")

    def simulate(tag: str) -> bytes:
        trace = tmp_path / f"{tag}.txt"
        assert main(["simulate", "--scenario", str(scenario), "--trace-out", str(trace),
                     "--csv-out", str(tmp_path / f"{tag}.csv")]) == EXIT_OK
        return trace.read_bytes()

    def broken(*args, **kwargs):
        raise RuntimeError("simulate built record tuples")

    plain = simulate("plain")
    monkeypatch.setattr(trace_mod, "_merge", broken)
    assert simulate("unmerged") == plain and plain.count(b"\n") > 100


@pytest.mark.parametrize("libc", ["glibc", "other"])
def test_main_trims_the_heap_after_each_command(tmp_path, monkeypatch, libc):
    # main hands freed heap pages back after every command that returns,
    # failed ones included; a C library without malloc_trim is left alone.
    calls = []
    fake = types.SimpleNamespace(malloc_trim=calls.append) if libc == "glibc" else types.SimpleNamespace()
    monkeypatch.setattr(cli_mod, "_LIBC", fake)
    assert main(["simulate", "--scenario", str(SCENARIOS / "testbed.yaml"), "--trace-out",
                 str(tmp_path / "t.txt"), "--csv-out", str(tmp_path / "m.csv")]) == EXIT_OK
    assert main(["generate", "--seed", "-1", "--util", "0.5", "--network", str(SCENARIOS / "testbed.yaml"),
                 "--out", str(tmp_path / "o.yaml")]) == EXIT_CONFIG
    assert calls == ([0, 0] if libc == "glibc" else [])


def test_sweep_parallel_matches_serial(tmp_path):
    spec = tmp_path / "sweep.yaml"
    spec.write_text(
        "utils: [0.4, 0.6]\nr_steps: [4]\nalphas: [1]\ntrials: 2\nbase_seed: 3\n"
        "frameworks: [FDPAS_PACKET]\n",
        encoding="utf-8",
    )
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["sweep", "--spec", str(spec), "--out-dir", str(serial)]) == EXIT_OK
    assert main(["sweep", "--spec", str(spec), "--out-dir", str(parallel),
                 "--parallel", "2"]) == EXIT_OK
    assert (serial / "records.csv").read_bytes() == (parallel / "records.csv").read_bytes()
    assert (serial / "aggregate.csv").read_bytes() == (parallel / "aggregate.csv").read_bytes()


@pytest.fixture
def serial_pool(monkeypatch):
    """Stand in for ``ProcessPoolExecutor`` with a pool that maps in this
    process, so no test starts a worker; returns each pool's ``max_workers``."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return list(map(fn, iterable))

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    return sizes


@pytest.mark.parametrize("utils, parallel, workers", [
    ("[0.4, 0.6]", "64", [2]),
    ("[0.4, 0.5, 0.6]", "2", [2]),
    ("[0.4, 0.6]", "1", []),
    ("[0.4]", "8", []),
], ids=["capped_at_two_cells", "fewer_workers_than_cells", "serial", "one_cell"])
def test_sweep_parallel_starts_at_most_one_worker_per_cell(tmp_path, serial_pool, utils, parallel, workers):
    spec = tmp_path / "sweep.yaml"
    spec.write_text(f"utils: {utils}\nr_steps: [4]\nalphas: [1]\ntrials: 1\nbase_seed: 3\n"
                    "frameworks: [FDPAS_PACKET]\n", encoding="utf-8")
    assert main(["sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "out"),
                 "--parallel", parallel]) == EXIT_OK
    assert serial_pool == workers
    assert len((tmp_path / "out" / "records.csv").read_text().splitlines()) == 1 + utils.count(",") + 1


@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_sweep_parallel_below_one_exit_code(tmp_path, capsys, serial_pool, parallel):
    spec = tmp_path / "sweep.yaml"
    spec.write_text("utils: [0.4, 0.6]\nr_steps: [4]\nalphas: [1]\ntrials: 1\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--spec", str(spec), "--out-dir", str(out), "--parallel", parallel]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: --parallel must be >= 1, got {parallel}\n"
    assert serial_pool == [] and not out.exists()


def test_simulate_slot_budget_beyond_the_deadline_exits_promptly(tmp_path):
    # A budget of 2**31 slots per packet cannot fit task 0's 15-slot window,
    # so its first packet is missed.  Neither the budget's padding nor the
    # EDF build's hop labels may grow with the budget: in a separate process
    # with a time limit, one error line and exit 3.
    text = (SCENARIOS / "testbed.yaml").read_text(encoding="utf-8")
    assert "slot_budget: 8\n" in text
    scenario = tmp_path / "budget.yaml"
    scenario.write_text(text.replace("slot_budget: 8\n", "slot_budget: 2147483648\n", 1), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "rtwnsim.cli", "simulate", "--scenario", str(scenario),
         "--trace-out", str(tmp_path / "trace.txt"), "--csv-out", str(tmp_path / "metrics.csv")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_INFEASIBLE
    assert proc.stderr == "error: static schedule misses packet (task, release) (0, 1)\n"
    assert not (tmp_path / "trace.txt").exists()


@pytest.mark.parametrize("edits, message", [
    ([("  horizon: 260\n", "  horizon: 2147483647\n")], "sim.horizon 2147483647 exceeds the 4194304-slot cap"),
    ([("  horizon: 260\n", "  horizon: 9223372036854775807\n")],
     "sim.horizon 9223372036854775807 exceeds the 4194304-slot cap"),
    ([("  horizon: 260\n", ""), ("    period: 30\n", "    period: 1000000000000\n")],
     "the default horizon 4000000000166 exceeds the 4194304-slot cap"),
], ids=["horizon_2_31", "horizon_2_63", "default_horizon_of_a_long_period"])
def test_simulate_horizon_beyond_the_cap_exits_promptly(tmp_path, edits, message):
    # A horizon past sim.MAX_HORIZON, explicit or the default one that a
    # 10**12-slot period gives, is rejected before the static schedule is
    # built: in a separate process with a time limit, one error line and
    # exit 2.
    text = _TESTBED
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    scenario = tmp_path / "horizon.yaml"
    scenario.write_text(text, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "rtwnsim.cli", "simulate", "--scenario", str(scenario),
         "--trace-out", str(tmp_path / "trace.txt"), "--csv-out", str(tmp_path / "metrics.csv")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr == f"error: {message}\n"
    assert not (tmp_path / "trace.txt").exists()


_RAMP_CAP = "beyond the 4194304-slot horizon cap"
_SWEEP_RAMP_CAP = "exceeds 2097152, half the 4194304-slot horizon cap; a ramp lasts at least 2 slots per step"


@pytest.mark.parametrize("command, old, new, message", [
    ("simulate", "rhythmic: {periods: [12, 12, 12, 12, 12]}", "rhythmic: {ratio: 0.2, steps: 100000000}",
     f"tasks[0].rhythmic: a ramp of 100000000 steps lasts at least 300000000 slots, {_RAMP_CAP}"),
    ("simulate", "  instance: 3\n", "  instance: 3\n  rhythmic: {ratio: 0.2, steps: 4194305}\n",
     f"disturbance.rhythmic: a ramp of 4194305 steps lasts at least 12582915 slots, {_RAMP_CAP}"),
    ("simulate", "  instance: 3\n", "  instance: 3\n  rhythmic: {ratio: 0.2, steps: 4194304}\n",
     f"disturbance.rhythmic: a ramp of 4194304 steps lasts at least 12582912 slots, {_RAMP_CAP}"),
    ("sweep", "r_steps: [4]", "r_steps: [4, 2147483648]", f"experiment spec: r_steps 2147483648 {_SWEEP_RAMP_CAP}"),
    ("sweep", "r_steps: [4]", "r_steps: [4194304]", f"experiment spec: r_steps 4194304 {_SWEEP_RAMP_CAP}"),
], ids=["task_steps_10_8", "disturbance_steps_cap_plus_1", "disturbance_steps_cap", "r_steps_2_31", "r_steps_cap"])
def test_ramp_longer_than_the_horizon_cap_exits_promptly(tmp_path, command, old, new, message):
    # A ramp of n steps lasts at least n times its first, shortest period,
    # and a sweep's periods are at least 2 slots, so a ramp no plan could
    # hold is rejected as the file is parsed, before its periods are built:
    # in a separate process with a time limit, one error line and exit 2.
    text = _TESTBED if command == "simulate" else _SMALL_SWEEP
    assert old in text
    source = tmp_path / "input.yaml"
    source.write_text(text.replace(old, new, 1), encoding="utf-8")
    args = (["--scenario", str(source), "--trace-out", str(tmp_path / "trace.txt")] if command == "simulate"
            else ["--spec", str(source), "--out-dir", str(tmp_path / "out")])
    proc = subprocess.run([sys.executable, "-m", "rtwnsim.cli", command, *args],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr == f"error: {message}\n"
    assert not (tmp_path / "trace.txt").exists() and not (tmp_path / "out").exists()


def test_the_longest_ramp_under_the_horizon_cap_still_parses(tmp_path):
    # Task 0's ramp at ratio 0.8 starts at floor(15 * 0.8) = 12 slots, so
    # 349525 steps (4194300 slots at least) parse and one more step does
    # not.  A sweep accepts r_steps up to half the cap.
    def ramp(steps):
        source = tmp_path / f"ramp-{steps}.yaml"
        source.write_text(_TESTBED.replace("rhythmic: {periods: [12, 12, 12, 12, 12]}",
                                           f"rhythmic: {{ratio: 0.8, steps: {steps}}}", 1), encoding="utf-8")
        return parse_scenario(source)

    assert len(ramp(349525).tasks[0].rhythmic.periods) == 349525
    with pytest.raises(ConfigError, match=r"a ramp of 349526 steps lasts at least 4194312 slots"):
        ramp(349526)
    assert experiments.ExperimentSpec(r_steps=(2097152,)).r_steps == (2097152,)
    with pytest.raises(ValueError, match=r"r_steps 2097153 exceeds 2097152"):
        experiments.ExperimentSpec(r_steps=(2097153,))


@pytest.mark.parametrize("command, old, new, key", [
    ("simulate", "sim:\n", "sim:\n  horizon: 2147483647\nsim:\n", "sim"),
    ("sweep", "trials: 1\n", "trials: 1\ntrials: 2\n", "trials"),
    ("generate", "  controller: Vc\n", "  controller: Vc\n  controller: V0\n", "controller"),
], ids=["scenario", "sweep_spec", "network"])
def test_repeated_key_exit_code(tmp_path, capsys, command, old, new, key):
    # A key given twice in one mapping is rejected at its second line, not
    # read as its last value.
    source = tmp_path / "input.yaml"
    text = {"simulate": _TESTBED, "sweep": _SMALL_SWEEP,
            "generate": (SCENARIOS / "network7.yaml").read_text(encoding="utf-8")}[command]
    assert old in text
    source.write_text(text.replace(old, new, 1), encoding="utf-8")
    line = [i for i, row in enumerate(source.read_text(encoding="utf-8").splitlines(), 1)
            if row.strip().startswith(f"{key}:")][1]
    out = tmp_path / "out"
    argv = {
        "generate": ["generate", "--seed", "1", "--util", "0.3", "--network", str(source), "--out", str(out)],
        "simulate": ["simulate", "--scenario", str(source), "--trace-out", str(out), "--csv-out", str(out)],
        "sweep": ["sweep", "--spec", str(source), "--out-dir", str(out)],
    }[command]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: line {line}: repeated key {key!r}\n"
    assert not out.exists()


def test_console_entry_point_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "rtwnsim.cli", "simulate", "--scenario",
         str(SCENARIOS / "testbed.yaml")],
        capture_output=True, text=True, cwd=str(SCENARIOS.parent),
        env={**os.environ, "RTWNSIM_OUT": str(tmp_path)},
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "success=1" in proc.stdout
    assert (tmp_path / "trace.txt").exists() and (tmp_path / "metrics.csv").exists()
