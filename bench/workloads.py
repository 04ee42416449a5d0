"""The benchmark's three workloads.

Each workload builds its inputs once (the timed set-up) and then runs whole
passes over them.  A pass makes one or more *runs* -- the top-level calls a
user makes -- times each run on its own, and checks what the run produced.
Every pass over the same inputs must produce the same bytes, so a pass
returns a sha256 of its outputs next to its timings.

Instance panels are fixed; ``--seed`` drives the inputs that vary the outputs
without changing how much work a pass does (see README.md for why):

* ``sweep_tbs``: the second latency-bound multiplier of the sweep grid.
* ``simulate_long`` and ``simulate_pbs``: the radio seed of every run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml


@dataclass
class Run:
    seconds: float  # host time of the call
    evals: int  # (trial, framework) evaluations the call attempted
    failed: int  # evaluations that raised or broke an invariant
    slots: int  # slots covered, as README.md defines them per workload


@dataclass
class Pass:
    runs: list[Run]
    digest: str  # sha256 of the pass's outputs
    violations: list[str] = field(default_factory=list)  # broken invariants
    errors: list[str] = field(default_factory=list)  # calls that raised
    factor: float = 1.0  # host factor measured around the pass (see run.host_factor)

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.runs)

    @property
    def ref_seconds(self) -> float:
        return self.seconds / self.factor


def _call_cli(rt, argv: list[str]) -> tuple[float, str | None]:
    """Time one in-process ``rtwnsim`` command; return its error, if any."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        start = perf_counter()
        try:
            code = rt.cli.main(argv)
        except Exception as exc:  # a traceback is a failed run, not a crashed benchmark
            return perf_counter() - start, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    if code != 0:
        return seconds, f"exit code {code}: {err.getvalue().strip()}"
    return seconds, None


def _task_balance(per_task) -> list[str]:
    """Tasks whose packets do not all end delivered, missed or dropped."""
    return [
        f"task {tid}: released {s['released']} != delivered {s['delivered']} + missed {s['missed']} + dropped {s['dropped']}"
        for tid, s in sorted(per_task.items())
        if s["released"] != s["delivered"] + s["missed"] + s["dropped"]
    ]


class SweepTbs:
    """In-process ``rtwnsim sweep`` over the paper's cell: util 0.5, r 8,
    TBS, greedy solver, all three frameworks, 100 trials of base seed 0."""

    name = "sweep_tbs"
    TRIALS = 100
    FRAMEWORKS = ("FDPAS_PACKET", "FDPAS_TRANSMISSION", "BASELINE_BROADCAST")

    def __init__(self, rt, seed: int, tmp: Path):
        self.rt = rt
        self.alphas = (1, int(np.random.default_rng(seed).integers(2, 5)))
        spec = {
            "utils": [0.5],
            "r_steps": [8],
            "alphas": list(self.alphas),
            "ticks": [60],
            "trials": self.TRIALS,
            "base_seed": 0,
            "frameworks": list(self.FRAMEWORKS),
            "solver": "greedy",
        }
        spec_path = tmp / "sweep.yaml"
        spec_path.write_text(yaml.safe_dump(spec), encoding="utf-8")
        self.out = tmp / "sweep"
        self.argv = ["sweep", "--spec", str(spec_path), "--out-dir", str(self.out), "--parallel", "1"]
        self.evals = self.TRIALS * len(self.FRAMEWORKS)

    def run_pass(self) -> Pass:
        seconds, error = _call_cli(self.rt, self.argv)
        if error is not None:
            return Pass([Run(seconds, self.evals, self.evals, 0)], hashlib.sha256(error.encode()).hexdigest(),
                        errors=[error])
        records = (self.out / "records.csv").read_bytes()
        aggregates = (self.out / "aggregate.csv").read_bytes()
        digest = hashlib.sha256(records + b"\0" + aggregates).hexdigest()

        violations = []
        rows = list(csv.DictReader(io.StringIO(records.decode())))
        if len(rows) != self.evals * len(self.alphas):
            violations.append(f"{len(rows)} records, expected {self.evals * len(self.alphas)}")
        # The alpha x1 record of each (framework, trial) is the one with the
        # smallest bound; it carries the evaluation itself.
        base: dict[tuple[str, str], dict] = {}
        for row in rows:
            key = (row["framework"], row["seed"])
            if key not in base or int(row["alpha"]) < int(base[key]["alpha"]):
                base[key] = row
        # A2: with a one-period bound every FD-PaS packet-level run succeeds.
        a2 = [r for r in base.values() if r["framework"] == "FDPAS_PACKET" and r["success"] != "1"]
        violations += [f"A2: FDPAS_PACKET trial {r['seed']} failed at alpha x1" for r in a2]
        for row in csv.DictReader(io.StringIO(aggregates.decode())):
            if row["framework"] == "FDPAS_PACKET" and row["alpha"] == "1" and float(row["sr"]) != 1.0:
                violations.append(f"A2: FDPAS_PACKET aggregate sr {row['sr']} at alpha x1")
        # Slots of dynamic schedule the sweep planned (see README.md).
        slots = sum(int(r["dhl"]) for r in base.values())
        return Pass([Run(seconds, self.evals, len(a2), slots)], digest, violations)


class SimulateLong:
    """In-process ``rtwnsim simulate`` of one generated scenario (6 tasks at
    util 0.7, TBS, FDPAS_PACKET, tick 60) over an explicit long horizon."""

    name = "simulate_long"
    SCENARIO_SEED = 0
    HORIZON = 100_000
    _STATE = re.compile(rb"^slot=\d+ kind=state task=(\d+) release=\d+ event=(\w+)$", re.M)

    def __init__(self, rt, seed: int, tmp: Path):
        self.rt = rt
        trial = rt.experiments.make_trial(self.SCENARIO_SEED, 0.7, 8)
        config = rt.sim.SimConfig(
            network=trial.network,
            tasks=trial.tasks,
            mode=rt.model.SchedulingMode.TBS,
            seed=seed,
            horizon=self.HORIZON,
            disturbance=rt.sim.DisturbanceSpec(trial.rhythmic_task, trial.instance, trial.spec),
            framework=rt.sim.Framework.FDPAS_PACKET,
            mac=rt.sim.MacParams(timing=rt.mac.SlotTiming(priority_tick_us=60)),
        )
        scenario = tmp / "scenario.yaml"
        scenario.write_text(rt.config.dump_scenario(config), encoding="utf-8")
        self.trace = tmp / "trace.txt"
        self.csv = tmp / "metrics.csv"
        self.argv = ["simulate", "--scenario", str(scenario),
                     "--trace-out", str(self.trace), "--csv-out", str(self.csv)]

    def run_pass(self) -> Pass:
        seconds, error = _call_cli(self.rt, self.argv)
        if error is not None:
            return Pass([Run(seconds, 1, 1, 0)], hashlib.sha256(error.encode()).hexdigest(), errors=[error])
        trace = self.trace.read_bytes()
        digest = hashlib.sha256(trace + b"\0" + self.csv.read_bytes()).hexdigest()
        per_task: dict[int, Counter] = {}
        for task, event in self._STATE.findall(trace):
            per_task.setdefault(int(task), Counter())[event.decode()] += 1
        violations = _task_balance(per_task)
        return Pass([Run(seconds, 1, int(bool(violations)), self.HORIZON)], digest, violations)


def panel_trial_seed(base_seed: int, util: float, r_steps: int, tick: int, index: int) -> int:
    """Trial seed of panel entry ``index``; the same derivation the sweep
    uses for its cells, so panel entry i is sweep trial i of that cell."""
    ss = np.random.SeedSequence([base_seed, int(round(util * 1000)), r_steps, tick, index])
    return int(ss.generate_state(1)[0])


class SimulatePbs:
    """A batch of ``sim.run`` calls: generated trials at util 0.5, r 8, PBS,
    FDPAS_TRANSMISSION, tick 50, default horizon.  Entries 20 and 31 hit the
    known PBS defect (a delivery probability above 1 makes the transmission
    solver raise ValueError); they count as failed and stay in the panel."""

    name = "simulate_pbs"
    BASE_SEED = 1
    TICK = 50
    TRIALS = 32

    def __init__(self, rt, seed: int, tmp: Path):
        self.rt = rt
        sim = rt.sim
        self.configs = []
        for i in range(self.TRIALS):
            trial = rt.experiments.make_trial(panel_trial_seed(self.BASE_SEED, 0.5, 8, self.TICK, i), 0.5, 8)
            config = sim.SimConfig(
                network=trial.network,
                tasks=trial.tasks,
                mode=rt.model.SchedulingMode.PBS,
                seed=int(np.random.SeedSequence([seed, i]).generate_state(1)[0]),
                disturbance=sim.DisturbanceSpec(trial.rhythmic_task, trial.instance, trial.spec),
                framework=sim.Framework.FDPAS_TRANSMISSION,
                mac=sim.MacParams(timing=rt.mac.SlotTiming(priority_tick_us=self.TICK)),
            )
            self.configs.append((config, sim.default_horizon(config)))

    def run_pass(self) -> Pass:
        runs, rows, violations, errors = [], [], [], []
        for i, (config, horizon) in enumerate(self.configs):
            start = perf_counter()
            try:
                trace, m = self.rt.sim.run(config)  # looked up per call: traced runs wrap it
            except Exception as exc:  # counted in error_rate; the batch goes on
                seconds = perf_counter() - start
                rows.append(f"{i} error {type(exc).__name__}: {exc}")
                errors.append(f"panel entry {i}: {type(exc).__name__}: {exc}")
                runs.append(Run(seconds, 1, 1, 0))
                continue
            seconds = perf_counter() - start
            per_task = {tid: vars(s) for tid, s in m.per_task.items()}
            broken = [f"panel entry {i}: {v}" for v in _task_balance(per_task)]
            violations += broken
            rows.append(
                f"{i} ok success={int(m.success)} drt={m.drt_slots} dhl={m.dhl_slots} "
                f"dr={m.degradation_rate!r} total={m.total_degradation!r} dp={m.dropped_packets} "
                f"dt={m.dropped_transmissions} end={m.endpoint} window={m.periodic_in_window} "
                f"feasible={int(m.feasible_dynamic)} events={len(trace.events)} "
                f"tasks={sorted((tid, tuple(s.values())) for tid, s in per_task.items())}"
            )
            runs.append(Run(seconds, 1, int(bool(broken)), horizon))
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        return Pass(runs, digest, violations, errors)


WORKLOADS = {w.name: w for w in (SweepTbs, SimulateLong, SimulatePbs)}
