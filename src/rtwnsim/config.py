"""Scenario and experiment configuration files.

One YAML document fully determines a run.  Top-level keys:

    network:      controller, nodes [..], links [{from, to, pdr?}]
    tasks:        [{id, path, period, deadline?, slot_budget?, phase?,
                    rhythmic?: {periods, deadlines?} | {ratio, steps}}]
    disturbance:  {task, instance, rhythmic?: {periods, deadlines?} |
                                              {ratio, steps}}
    mac:          {priority_tick_us?}
    sim:          {mode?, required_pdr?, seed?, horizon?, alpha?, beta?,
                   framework?}
    baseline:     {broadcast_period?, depth?, offset?}
    meta:         free-form notes, ignored (``rtwnsim generate`` writes one)

Experiment sweep files use: utils, r_steps, alphas, ticks, trials, base_seed,
frameworks, gamma, required_pdr, beta.

The keys of ``mac``, ``sim``, ``baseline`` and a sweep file are the field
names of ``SlotTiming``, ``SimConfig``, ``BaselineParams`` and
``ExperimentSpec``.  The field's type converts the value, an absent key
keeps the dataclass default, and a null leaves an optional field unset.
A list field takes a list, not a string or a mapping.  A section or
``rhythmic`` block given as null reads as absent; any other value that is
not a mapping, falsy ones included, is an error.
A key that names no field or section, in any part of the file, is a
configuration error (``rtwnsim`` exits 2).
``dump_scenario`` writes the same fields back, so
``parse_scenario`` reads its output as the config it was given.

FD-PaS plans with its greedy dropping heuristics only.  A ``solver`` key
(under ``sim`` or at the top of a sweep file) is still accepted when it
reads ``greedy``; any other value is a configuration error, since the
exhaustive oracle is a test reference, not a planner.  A key that is
present is taken as given: ``horizon: 0`` or ``alpha: 0`` is rejected, not
read as unset.
"""

from __future__ import annotations

from dataclasses import fields
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Any, Iterable, Optional, Union, get_args, get_origin, get_type_hints

import yaml

from .model import (
    Link,
    NetworkModel,
    RhythmicSpec,
    TaskSpec,
    _decimal_ratio,
    generate_rhythmic_spec,
)
from .mac import SlotTiming
from .sim import MAX_HORIZON, BaselineParams, DisturbanceSpec, MacParams, SimConfig
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

# SimConfig fields read from top-level sections of their own, not from ``sim``.
_SECTIONS = ("network", "tasks", "disturbance", "mac", "baseline")


class ConfigError(ValueError):
    """Configuration file problem; carries a line number for syntax errors."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader``, except that a key repeated in one mapping raises
    ConfigError instead of replacing the earlier value."""

    def construct_mapping(self, node: yaml.MappingNode, deep: bool = False) -> dict:
        seen: list = []  # a list, so an unhashable key reaches the loader's own error
        for key_node, _ in node.value:
            if key_node.tag != "tag:yaml.org,2002:merge":  # merged keys may be overridden
                key = self.construct_object(key_node, deep=deep)
                if key in seen:
                    raise ConfigError(f"repeated key {key!r}", line=key_node.start_mark.line + 1)
                seen.append(key)
        return super().construct_mapping(node, deep=deep)


def load_document(path: str | Path) -> dict:
    """The YAML mapping in ``path``; every command reads its input files here."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        doc = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        raise ConfigError(f"invalid YAML in {path}: {exc}", line=line) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping at the top level")
    return doc


def _without_solver(section: Any, where: str) -> dict:
    section = _section(section, where)
    if section.get("solver", "greedy") != "greedy":
        raise ConfigError(
            f"{where}: unknown solver {str(section['solver'])!r}; FD-PaS plans with the greedy "
            "heuristics ('greedy'), the exhaustive oracle is a test reference"
        )
    return {k: v for k, v in section.items() if k != "solver"}


def _mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(value).__name__}")
    return value


def _section(value: Any, where: str) -> dict:
    """An optional section: null reads as empty, any other non-mapping fails."""
    return {} if value is None else _mapping(value, where)


def _known(section: dict, keys: Iterable[str], where: str) -> dict:
    """``section``, once each of its keys is among ``keys``."""
    for key in _mapping(section, where):
        if key not in keys:
            raise ConfigError(f"{where}: unknown key {key!r}")
    return section


def _require(section: dict, key: str, where: str) -> Any:
    if key not in _mapping(section, where):
        raise ConfigError(f"{where}: missing required key {key!r}")
    return section[key]


def _int(value: Any, key: str) -> int:
    """``int(value)`` without truncation or overflow: a bool or a number with
    a fractional part raises ``ValueError`` naming ``key`` instead of being
    read as 1 or 3, and so does a value outside int64, which the schedule's
    numpy columns could not hold."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{key} {value!r} is not an integer")
    number = int(value)
    if not -2**63 <= number < 2**63:
        raise ValueError(f"{key} {value!r} lies outside the 64-bit integer range")
    return number


def _items(value: Any, key: str) -> Any:
    """``value`` to iterate as the items of list field ``key``: a string or a
    mapping is iterable, but is not a list of items."""
    if isinstance(value, (str, dict)):
        raise TypeError(f"{key} must be a list, got {type(value).__name__}")
    return value


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
        # A number fails only _int's own checks, whose messages name the key.
        reason = exc if isinstance(value, (int, float)) else f"{key} {value!r} is not an integer"
        raise ConfigError(f"{where}: {reason}") from exc


@cache
def _field_types(cls: type) -> dict[str, Any]:
    return get_type_hints(cls)


def _convert(hint: Any, value: Any, key: str) -> Any:
    """YAML ``value`` of field ``key`` as the field's type ``hint``."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[X]: null leaves it unset
        return None if value is None else _convert(args[0], value, key)
    if origin is tuple:
        return tuple(_convert(args[0], item, key) for item in _items(value, key))
    if hint is int:
        return _int(value, key)
    if hint is float and isinstance(value, bool):  # float(True) would read as 1.0
        raise ValueError(f"{key} {value!r} is not a number")
    if issubclass(hint, Enum):
        return hint(str(value).upper())
    return hint(value)


def _plain(hint: Any, value: Any) -> Any:
    """Field ``value`` in the YAML form ``_convert`` reads back."""
    origin, args = get_origin(hint), get_args(hint)
    if value is None:
        return None
    if origin is Union:
        return _plain(args[0], value)
    return value.value if isinstance(value, Enum) else value


def _build(cls: type, section: Any, where: str, **given: Any) -> Any:
    """``cls(**given)`` plus one field per key of the flat ``section``."""
    hints = _field_types(cls)
    section = _known(_section(section, where), hints.keys() - given.keys(), where)
    try:
        return cls(**given, **{key: _convert(hints[key], value, key) for key, value in section.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _flat(obj: Any, *skip: str) -> dict[str, Any]:
    """The fields of ``obj`` not in ``skip``, as ``_build`` reads them."""
    hints = _field_types(type(obj))
    return {f.name: _plain(hints[f.name], getattr(obj, f.name)) for f in fields(obj) if f.name not in skip}


def parse_network(doc: dict) -> NetworkModel:
    section = _require(doc, "network", "document")
    nodes = tuple(str(n) for n in _require_list(section, "nodes", "network"))
    for i, node in enumerate(nodes):  # a trace line is UTF-8 text of space-separated name=value fields
        try:
            node.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError(f"network.nodes[{i}]: node name {node!r} is not valid UTF-8 text") from None
        if not node or "=" in node or any(c.isspace() for c in node):
            raise ConfigError(f"network.nodes[{i}]: node name {node!r} must be non-empty, without whitespace or '='")
    controller = str(_require(section, "controller", "network"))
    links = []
    for i, raw in enumerate(_require_list(section, "links", "network")):
        where = f"network.links[{i}]"
        src, dst = str(_require(raw, "from", where)), str(_require(raw, "to", where))
        rest = {k: v for k, v in raw.items() if k not in ("from", "to")}
        links.append(_build(Link, rest, where, src=src, dst=dst))
    _known(section, ("controller", "nodes", "links"), "network")
    try:
        return NetworkModel(nodes=nodes, controller=controller, links=tuple(links))
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from exc


def _parse_rhythmic(raw: dict, period: int, where: str) -> RhythmicSpec:
    _known(raw, ("periods", "deadlines", "ratio", "steps"), where)
    try:
        if "periods" in raw:
            periods = tuple(_int(p, "periods") for p in _items(raw["periods"], "periods"))
            deadlines = tuple(_int(d, "deadlines") for d in _items(raw.get("deadlines", periods), "deadlines"))
            return RhythmicSpec(periods=periods, deadlines=deadlines)
        if "ratio" in raw:
            ratio, steps = float(raw["ratio"]), _require_int(raw, "steps", where)
            if 0 < ratio < 1:
                # A ramp lasts at least ``steps`` times its first, shortest
                # period, so one no plan could hold is never built.
                n, d = _decimal_ratio(ratio)
                shortest = max(1, period * n // d)
                if steps * shortest > MAX_HORIZON:
                    raise ConfigError(f"{where}: a ramp of {steps} steps lasts at least {steps * shortest} slots, "
                                      f"beyond the {MAX_HORIZON}-slot horizon cap")
            return generate_rhythmic_spec(period, ratio, steps)
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
        if raw.get("rhythmic") is not None:
            rhythmic = _parse_rhythmic(raw["rhythmic"], period, f"{where}.rhythmic")
        task_id = _require_int(raw, "id", where)
        if any(t.id == task_id for t in tasks):
            raise ConfigError(f"{where}: duplicate task id {task_id}")
        path = tuple(str(n) for n in _require_list(raw, "path", where))
        rest = {k: v for k, v in raw.items() if k not in ("id", "path", "period", "rhythmic")}
        tasks.append(
            _build(TaskSpec, {"deadline": period, **rest}, where,
                   id=task_id, path=path, period=period, rhythmic=rhythmic)
        )
    if not tasks:
        raise ConfigError("document: tasks must list at least one task")
    return tuple(tasks)


def parse_scenario(path: str | Path) -> SimConfig:
    doc = _known(load_document(path), (*_SECTIONS, "sim", "meta"), "document")
    network = parse_network(doc)
    tasks = parse_tasks(doc)
    for i, task in enumerate(tasks):
        try:
            task.validate_against(network)
        except ValueError as exc:
            raise ConfigError(f"tasks[{i}]: {exc}") from exc
    by_id = {t.id: t for t in tasks}

    disturbance = None
    raw = doc.get("disturbance")
    if raw is not None:
        task_id = _require_int(raw, "task", "disturbance")
        if task_id not in by_id:
            raise ConfigError(f"disturbance: unknown task {task_id}")
        rhythmic = None
        if raw.get("rhythmic") is not None:
            rhythmic = _parse_rhythmic(raw["rhythmic"], by_id[task_id].period, "disturbance.rhythmic")
        elif by_id[task_id].rhythmic is None:
            raise ConfigError("disturbance: task has no rhythmic specification")
        instance = _require_int(raw, "instance", "disturbance")
        _known(raw, ("task", "instance", "rhythmic"), "disturbance")
        try:
            disturbance = DisturbanceSpec(task=task_id, instance=instance, rhythmic=rhythmic)
        except ValueError as exc:
            raise ConfigError(f"disturbance: {exc}") from exc

    # ``mac`` holds SlotTiming's one field.
    mac = _build(MacParams, {}, "mac", timing=_build(SlotTiming, doc.get("mac"), "mac"))
    baseline = _build(BaselineParams, doc.get("baseline"), "baseline")
    sections = dict(network=network, tasks=tasks, disturbance=disturbance, mac=mac, baseline=baseline)
    return _build(SimConfig, _without_solver(doc.get("sim"), "sim"), "sim", **sections)


def parse_experiment(path: str | Path) -> ExperimentSpec:
    return _build(ExperimentSpec, _without_solver(load_document(path), "experiment spec"), "experiment spec")


def _rhythmic_doc(spec: RhythmicSpec) -> dict:
    return {"periods": list(spec.periods), "deadlines": list(spec.deadlines)}


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
        raw["rhythmic"] = _rhythmic_doc(task.rhythmic)
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
        doc["disturbance"] = {"task": config.disturbance.task, "instance": config.disturbance.instance}
        if config.disturbance.rhythmic is not None:
            doc["disturbance"]["rhythmic"] = _rhythmic_doc(config.disturbance.rhythmic)
    doc["mac"] = _flat(config.mac.timing)
    doc["baseline"] = _flat(config.baseline)
    doc["sim"] = _flat(config, *_SECTIONS)
    return yaml.safe_dump(doc, sort_keys=False)
