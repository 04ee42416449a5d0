"""Per-layer tracing for the benchmark's traced runs.

A traced run wraps module attributes of the loaded ``rtwnsim`` modules (it
changes no source file), so that every call into a layer opens a span.  A
span's self time is its duration minus the time its child spans cover.
Spans are folded into per-name totals as they close, which keeps memory flat
however many calls a pass makes; the two spans whose percentiles are
reported also keep their durations.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter
from time import perf_counter


class Stat:
    __slots__ = ("calls", "self_time", "errors", "durations")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.calls = 0
        self.self_time = 0.0
        self.errors: Counter = Counter()  # exception class name -> count
        self.durations: list[float] = []

    def copy(self) -> "Stat":
        out = Stat()
        out.calls, out.self_time = self.calls, self.self_time
        out.errors, out.durations = Counter(self.errors), list(self.durations)
        return out


def _count_build(tracer, args, result) -> None:
    tracer.counters["static_schedule.build.slots"] += result.schedule.horizon
    tracer.last_build_slots = result.schedule.horizon


def _count_candidates(tracer, args, result) -> None:
    tracer.counters["rhythmic.candidates"] += len(result)


def _count_greedy_rounds(tracer, args, result) -> None:
    tracer.counters["dropping.greedy.rounds"] += result.packet_count  # one packet per round


def _count_transmission_rounds(tracer, args, result) -> None:
    tracer.counters["dropping.transmission.rounds"] += result.slot_count  # one slot per round


def _count_run(tracer, args, result) -> None:
    tracer.counters["sim.trace_events"] += len(result[0].events)
    tracer.counters["sim.slots"] += tracer.last_build_slots  # the run's own static build


def _count_arbitration(tracer, args, result) -> None:
    if len(args[0]) > 1:
        tracer.counters["mac.contended"] += 1


# (span name, binding sites as (module, attribute), hook run on each result).
# A function imported with ``from .x import f`` is called through the
# importing module's binding, so each such module is listed.
SPANS = (
    ("cli", (("cli", "main"),), None),
    ("config.parse", (("config", "parse_scenario"), ("config", "parse_experiment")), None),
    ("experiments.sweep", (("cli", "run_sweep"),), None),
    ("experiments.make_trial", (("experiments", "make_trial"),), None),
    ("experiments.evaluate_trial", (("experiments", "evaluate_trial"),), None),
    ("static_schedule.build", (("experiments", "build_static_schedule"),
                               ("sim", "build_static_schedule")), _count_build),
    ("dropping.plan", (("experiments", "generate_dynamic_schedule"),
                       ("sim", "generate_dynamic_schedule")), None),
    ("rhythmic.end_point_candidates", (("dropping", "end_point_candidates"),), _count_candidates),
    ("rhythmic.build_active_sets", (("dropping", "build_active_sets"),), None),
    ("dropping.periodic_state", (("dropping", "build_periodic_state"),), None),
    ("dropping.greedy", (("dropping", "greedy_drop_packets"),), _count_greedy_rounds),
    ("dropping.transmission", (("dropping", "drop_transmissions"),), _count_transmission_rounds),
    ("model.pdr", (("dropping", "packet_pdr"), ("dropping", "packet_pdr_flexible")), None),
    ("sim.run", (("sim", "run"), ("cli", "run")), _count_run),
    ("sim.link_draws", (("sim", "_link_draws"),), None),
    ("sim.trace_text", (("sim.SimTrace", "text"),), None),
    ("mac.arbitrate", (("mac", "arbitrate_slot"),), _count_arbitration),
    ("mac.preempt", (("mac", "preemption_error_rate"),), None),
)
KEEP_DURATIONS = {"experiments.evaluate_trial", "sim.run"}


class Tracer:
    def __init__(self, rt) -> None:
        self.rt = rt
        self.stats = {name: Stat() for name, _, _ in SPANS}
        self.counters: Counter = Counter()
        self.last_build_slots = 0
        self._stack: list[list[float]] = []  # [start, time covered by children] per open span
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, sites, hook in SPANS:
            for owner_path, attr in sites:
                module, _, cls = owner_path.partition(".")
                owner = getattr(self.rt, module)
                if cls:
                    owner = getattr(owner, cls)
                original = getattr(owner, attr, None)
                if original is None:
                    print(f"trace: rtwnsim.{owner_path}.{attr} not found; {name} reads 0", file=sys.stderr)
                    continue
                setattr(owner, attr, self._wrap(name, original, hook))
                self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.clear()
        self.counters.clear()

    def snapshot(self, factor: float) -> "Snapshot":
        return Snapshot({n: s.copy() for n, s in self.stats.items()}, Counter(self.counters), factor)

    def _wrap(self, name, fn, hook):
        stack, stat, keep = self._stack, self.stats[name], name in KEEP_DURATIONS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append([perf_counter(), 0.0])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                stat.errors[type(exc).__name__] += 1
                raise
            finally:
                start, covered = stack.pop()
                duration = perf_counter() - start
                stat.calls += 1
                stat.self_time += duration - covered
                if stack:
                    stack[-1][1] += duration
                if keep:
                    stat.durations.append(duration)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper


class Snapshot:
    def __init__(self, stats: dict[str, Stat], counters: Counter, factor: float) -> None:
        self.stats = stats
        self.counters = counters
        self.factor = factor  # host factor of the pass; times are divided by it

    def counts(self) -> dict[str, int]:
        """The counts a traced pass must repeat exactly."""
        return {
            "static_schedule.build.calls": self.stats["static_schedule.build"].calls,
            "rhythmic.candidates": self.counters["rhythmic.candidates"],
            "rhythmic.build_active_sets.calls": self.stats["rhythmic.build_active_sets"].calls,
            "dropping.greedy.rounds": self.counters["dropping.greedy.rounds"],
            "dropping.transmission.rounds": self.counters["dropping.transmission.rounds"],
            "model.pdr_evals": self.stats["model.pdr"].calls,
            "sim.slots": self.counters["sim.slots"],
            "sim.trace_events": self.counters["sim.trace_events"],
            "mac.arbitrations": self.stats["mac.arbitrate"].calls,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(snaps: list[Snapshot], overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run: counts of its first traced pass
    (every pass repeats them), times as the median over traced passes."""
    first = snaps[0]
    counts = first.counts()

    def self_s(*names: str) -> float:
        return statistics.median(sum(s.stats[n].self_time for n in names) / s.factor for s in snaps)

    def durations_ms(name: str) -> list[float]:
        return [d * 1000 / s.factor for s in snaps for d in s.stats[name].durations]

    calls = {name: stat.calls for name, stat in first.stats.items()}
    infeasible = sum(
        first.stats[n].errors["CandidateInfeasible"]
        for n in ("rhythmic.build_active_sets", "dropping.greedy", "dropping.transmission")
    )
    evaluated = calls["rhythmic.build_active_sets"]
    trials = calls["experiments.make_trial"] or calls["sim.run"]
    engine_s = self_s("sim.run", "sim.link_draws", "mac.arbitrate", "mac.preempt")
    evaluate_ms = durations_ms("experiments.evaluate_trial")
    return {
        "experiments.make_trial.self_s": (self_s("experiments.make_trial"), "s"),
        "experiments.evaluate_trial.calls": (calls["experiments.evaluate_trial"], "count"),
        "experiments.evaluate_trial.ms_p50": (_percentile(evaluate_ms, 50), "ms"),
        "experiments.evaluate_trial.ms_p95": (_percentile(evaluate_ms, 95), "ms"),
        "static_schedule.build.calls": (counts["static_schedule.build.calls"], "count"),
        "static_schedule.build.self_s": (self_s("static_schedule.build"), "s"),
        "static_schedule.build.slots": (first.counters["static_schedule.build.slots"], "count"),
        "static_schedule.builds_per_trial": (_ratio(counts["static_schedule.build.calls"], trials), "ratio"),
        "rhythmic.build_active_sets.calls": (evaluated, "count"),
        "rhythmic.build_active_sets.self_s": (self_s("rhythmic.build_active_sets"), "s"),
        "rhythmic.candidates": (counts["rhythmic.candidates"], "count"),
        "rhythmic.candidates_feasible_ratio": (_ratio(evaluated - infeasible, evaluated), "ratio"),
        "dropping.plan.self_s": (self_s("dropping.plan"), "s"),
        "dropping.greedy.self_s": (self_s("dropping.greedy"), "s"),
        "dropping.greedy.rounds": (counts["dropping.greedy.rounds"], "count"),
        "dropping.transmission.self_s": (self_s("dropping.transmission"), "s"),
        "dropping.transmission.rounds": (counts["dropping.transmission.rounds"], "count"),
        "dropping.periodic_state.self_s": (self_s("dropping.periodic_state"), "s"),
        "model.pdr_evals": (counts["model.pdr_evals"], "count"),
        "model.pdr.self_s": (self_s("model.pdr"), "s"),
        "dropping.pdr_evals_per_round": (
            _ratio(counts["model.pdr_evals"], counts["dropping.transmission.rounds"]), "ratio"),
        "sim.run.calls": (calls["sim.run"], "count"),
        "sim.run.self_s": (self_s("sim.run"), "s"),
        "sim.slots": (counts["sim.slots"], "count"),
        "sim.us_per_slot": (_ratio(engine_s * 1e6, counts["sim.slots"]), "us"),
        "sim.link_draws.self_s": (self_s("sim.link_draws"), "s"),
        "sim.trace_events": (counts["sim.trace_events"], "count"),
        "sim.trace_text.self_s": (self_s("sim.trace_text"), "s"),
        "mac.arbitrations": (counts["mac.arbitrations"], "count"),
        "mac.arbitrate.self_s": (self_s("mac.arbitrate"), "s"),
        "mac.contended_ratio": (_ratio(first.counters["mac.contended"], counts["mac.arbitrations"]), "ratio"),
        "mac.preempt_lookups": (calls["mac.preempt"], "count"),
        "config.parse.self_s": (self_s("config.parse"), "s"),
        "cli.write.self_s": (self_s("cli"), "s"),
        "tracing.overhead_pct": (overhead_pct, "%"),
    }
