"""Scenario and experiment configuration files.

One YAML document fully determines a run.  Top-level keys:

    network:      controller, nodes [..], links [{from, to, pdr}]
    tasks:        [{id, path, period, deadline?, slot_budget?, phase?,
                    rhythmic?: {periods, deadlines}}]
    disturbance:  {task, instance, rhythmic?: {periods, deadlines} |
                                              {ratio, steps}}
    mac:          {priority_tick_us?, rhythmic_priority?, periodic_priority?}
    sim:          {mode?, required_pdr?, seed?, horizon?, alpha?, beta?,
                   framework?}
    baseline:     {broadcast_period?, depth?, offset?}

Experiment sweep files use: utils, r_steps, alphas, ticks, trials, base_seed,
frameworks, gamma, required_pdr, beta.

FD-PaS plans with its greedy dropping heuristics only.  A ``solver`` key
(under ``sim`` or at the top of a sweep file) is still accepted when it
reads ``greedy``; any other value is a configuration error, since the
exhaustive oracle is a test reference, not a planner.  A key that is
present is taken as given: ``horizon: 0`` or ``alpha: 0`` is rejected, not
read as unset.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional

import yaml

from .model import (
    Link,
    NetworkModel,
    RhythmicSpec,
    SchedulingMode,
    TaskSpec,
    generate_rhythmic_spec,
)
from .mac import SlotTiming
from .sim import BaselineParams, DisturbanceSpec, Framework, MacParams, SimConfig
from .experiments import ExperimentSpec

__all__ = [
    "ConfigError",
    "load_document",
    "parse_network",
    "parse_tasks",
    "parse_scenario",
    "parse_experiment",
    "dump_taskset",
    "dump_scenario",
]


class ConfigError(ValueError):
    """Configuration file problem; carries a line number for syntax errors."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def load_document(path: str | Path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        raise ConfigError(f"invalid YAML in {path}: {exc}", line=line) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping at the top level")
    return doc


def _check_solver(section: dict, where: str) -> None:
    if "solver" in section and section["solver"] != "greedy":
        raise ConfigError(
            f"{where}: unknown solver {str(section['solver'])!r}; FD-PaS plans with the greedy "
            "heuristics ('greedy'), the exhaustive oracle is a test reference"
        )


def _mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(value).__name__}")
    return value


def _require(section: dict, key: str, where: str) -> Any:
    if key not in _mapping(section, where):
        raise ConfigError(f"{where}: missing required key {key!r}")
    return section[key]


def _int(value: Any, key: str) -> int:
    """``int(value)`` without truncation: a bool or a number with a fractional
    part raises ``ValueError`` naming ``key`` instead of being read as 1 or 3."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{key} {value!r} is not an integer")
    return int(value)


def _require_list(section: dict, key: str, where: str) -> list:
    value = _require(section, key, where)
    if not isinstance(value, list):
        raise ConfigError(f"{where}: {key} must be a list, got {type(value).__name__}")
    return value


def _require_int(section: dict, key: str, where: str) -> int:
    value = _require(section, key, where)
    try:
        return _int(value, key)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {key} {value!r} is not an integer") from exc


def parse_network(doc: dict) -> NetworkModel:
    section = _require(doc, "network", "document")
    nodes = tuple(str(n) for n in _require_list(section, "nodes", "network"))
    controller = str(_require(section, "controller", "network"))
    links = []
    for i, raw in enumerate(_require_list(section, "links", "network")):
        try:
            links.append(
                Link(
                    src=str(_require(raw, "from", f"network.links[{i}]")),
                    dst=str(_require(raw, "to", f"network.links[{i}]")),
                    pdr=float(raw.get("pdr", 1.0)),
                )
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"network.links[{i}]: {exc}") from exc
    try:
        return NetworkModel(nodes=nodes, controller=controller, links=tuple(links))
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from exc


def _parse_rhythmic(raw: dict, period: int, where: str) -> RhythmicSpec:
    try:
        if "periods" in raw:
            periods = tuple(_int(p, "periods") for p in raw["periods"])
            deadlines = tuple(_int(d, "deadlines") for d in raw.get("deadlines", periods))
            return RhythmicSpec(periods=periods, deadlines=deadlines)
        if "ratio" in raw:
            return generate_rhythmic_spec(period, float(raw["ratio"]), _require_int(raw, "steps", where))
    except ConfigError:
        raise
    except (TypeError, ValueError, RuntimeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: rhythmic needs either 'periods' or 'ratio'+'steps'")


def parse_tasks(doc: dict) -> tuple[TaskSpec, ...]:
    tasks = []
    for i, raw in enumerate(_require_list(doc, "tasks", "document")):
        where = f"tasks[{i}]"
        period = _require_int(raw, "period", where)
        rhythmic = None
        if raw.get("rhythmic"):
            rhythmic = _parse_rhythmic(raw["rhythmic"], period, f"{where}.rhythmic")
        try:
            tasks.append(
                TaskSpec(
                    id=_require_int(raw, "id", where),
                    path=tuple(str(n) for n in _require(raw, "path", where)),
                    period=period,
                    deadline=_int(raw.get("deadline", period), "deadline"),
                    rhythmic=rhythmic,
                    slot_budget=(
                        _int(raw["slot_budget"], "slot_budget") if raw.get("slot_budget") is not None else None
                    ),
                    phase=_int(raw.get("phase", 0), "phase"),
                )
            )
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return tuple(tasks)


def parse_scenario(path: str | Path) -> SimConfig:
    doc = load_document(path)
    network = parse_network(doc)
    tasks = parse_tasks(doc)
    for i, task in enumerate(tasks):
        try:
            task.validate_against(network)
        except ValueError as exc:
            raise ConfigError(f"tasks[{i}]: {exc}") from exc
    by_id = {t.id: t for t in tasks}

    disturbance = None
    if doc.get("disturbance"):
        raw = doc["disturbance"]
        task_id = _require_int(raw, "task", "disturbance")
        if task_id not in by_id:
            raise ConfigError(f"disturbance: unknown task {task_id}")
        rhythmic = None
        if raw.get("rhythmic"):
            rhythmic = _parse_rhythmic(raw["rhythmic"], by_id[task_id].period, "disturbance.rhythmic")
        elif by_id[task_id].rhythmic is None:
            raise ConfigError("disturbance: task has no rhythmic specification")
        instance = _require_int(raw, "instance", "disturbance")
        try:
            disturbance = DisturbanceSpec(task=task_id, instance=instance, rhythmic=rhythmic)
        except ValueError as exc:
            raise ConfigError(f"disturbance: {exc}") from exc

    mac_raw = _mapping(doc.get("mac") or {}, "mac")
    try:
        timing = SlotTiming(priority_tick_us=_int(mac_raw.get("priority_tick_us", 60), "priority_tick_us"))
        per_table = tuple(
            sorted((_int(k, "per_table key"), float(v)) for k, v in (mac_raw.get("per_table") or {}).items())
        )
        mac = MacParams(
            timing=timing,
            rhythmic_priority=_int(mac_raw.get("rhythmic_priority", 0), "rhythmic_priority"),
            periodic_priority=_int(mac_raw.get("periodic_priority", 1), "periodic_priority"),
            per_table=per_table,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"mac: {exc}") from exc

    base_raw = _mapping(doc.get("baseline") or {}, "baseline")
    try:
        baseline = BaselineParams(
            broadcast_period=(
                _int(base_raw["broadcast_period"], "broadcast_period")
                if base_raw.get("broadcast_period") is not None
                else None
            ),
            depth=_int(base_raw["depth"], "depth") if base_raw.get("depth") is not None else None,
            offset=_int(base_raw.get("offset", 0), "offset"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"baseline: {exc}") from exc

    sim_raw = _mapping(doc.get("sim") or {}, "sim")
    _check_solver(sim_raw, "sim")
    try:
        mode = SchedulingMode(str(sim_raw.get("mode", "TBS")).upper())
        framework = Framework(str(sim_raw.get("framework", "FDPAS_PACKET")).upper())
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from exc
    try:
        return SimConfig(
            network=network,
            tasks=tasks,
            mode=mode,
            required_pdr=float(sim_raw.get("required_pdr", 0.99)),
            seed=_int(sim_raw.get("seed", 0), "seed"),
            horizon=_int(sim_raw["horizon"], "horizon") if sim_raw.get("horizon") is not None else None,
            disturbance=disturbance,
            alpha=_int(sim_raw["alpha"], "alpha") if sim_raw.get("alpha") is not None else None,
            beta=_int(sim_raw.get("beta", 4), "beta"),
            framework=framework,
            mac=mac,
            baseline=baseline,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sim: {exc}") from exc


def parse_experiment(path: str | Path) -> ExperimentSpec:
    doc = load_document(path)
    _check_solver(doc, "experiment spec")
    try:
        frameworks = tuple(
            Framework(str(f).upper()) for f in doc.get("frameworks", [f.value for f in Framework])
        )
        return ExperimentSpec(
            utils=tuple(float(u) for u in doc.get("utils", [0.5])),
            r_steps=tuple(_int(r, "r_steps") for r in doc.get("r_steps", [8])),
            alphas=tuple(_int(a, "alphas") for a in doc.get("alphas", [1])),
            ticks=tuple(_int(t, "ticks") for t in doc.get("ticks", [60])),
            trials=_int(doc.get("trials", 100), "trials"),
            base_seed=_int(doc.get("base_seed", 0), "base_seed"),
            frameworks=frameworks,
            gamma=float(doc.get("gamma", 0.2)),
            required_pdr=float(doc.get("required_pdr", 0.99)),
            beta=_int(doc.get("beta", 4), "beta"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"experiment spec: {exc}") from exc


def _task_doc(task: TaskSpec) -> dict:
    raw: dict[str, Any] = {
        "id": task.id,
        "path": list(task.path),
        "period": task.period,
        "deadline": task.deadline,
    }
    if task.slot_budget is not None:
        raw["slot_budget"] = task.slot_budget
    if task.phase:
        raw["phase"] = task.phase
    if task.rhythmic is not None:
        raw["rhythmic"] = {
            "periods": list(task.rhythmic.periods),
            "deadlines": list(task.rhythmic.deadlines),
        }
    return raw


def dump_taskset(tasks: tuple[TaskSpec, ...], meta: Optional[dict] = None) -> str:
    doc: dict[str, Any] = {}
    if meta:
        doc["meta"] = dict(sorted(meta.items()))
    doc["tasks"] = [_task_doc(t) for t in tasks]
    return yaml.safe_dump(doc, sort_keys=False)


def dump_scenario(config: SimConfig) -> str:
    doc: dict[str, Any] = {
        "network": {
            "controller": config.network.controller,
            "nodes": list(config.network.nodes),
            "links": [
                {"from": l.src, "to": l.dst, "pdr": l.pdr} for l in config.network.links
            ],
        },
        "tasks": [_task_doc(t) for t in config.tasks],
    }
    if config.disturbance is not None:
        dist: dict[str, Any] = {
            "task": config.disturbance.task,
            "instance": config.disturbance.instance,
        }
        if config.disturbance.rhythmic is not None:
            dist["rhythmic"] = {
                "periods": list(config.disturbance.rhythmic.periods),
                "deadlines": list(config.disturbance.rhythmic.deadlines),
            }
        doc["disturbance"] = dist
    doc["mac"] = {
        "priority_tick_us": config.mac.timing.priority_tick_us,
        "rhythmic_priority": config.mac.rhythmic_priority,
        "periodic_priority": config.mac.periodic_priority,
    }
    doc["sim"] = {
        "mode": config.mode.value,
        "required_pdr": config.required_pdr,
        "seed": config.seed,
        "beta": config.beta,
        "framework": config.framework.value,
    }
    if config.horizon is not None:
        doc["sim"]["horizon"] = config.horizon
    if config.alpha is not None:
        doc["sim"]["alpha"] = config.alpha
    return yaml.safe_dump(doc, sort_keys=False)
