"""rtwnsim benchmark: end-to-end metrics, or with --trace 1 the per-layer split.

    python3 bench/run.py --workload sweep_tbs --seed 0 --seconds 30 --trace 0

Runs one workload (see workloads.py) in this process, in whole passes until
--seconds have gone by, and checks every pass's outputs.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  All outputs of the program
go to a temporary directory inside this one, removed on exit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from layers import Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
SETUP_REPEATS = 5
# Time of one reference_loop() on the host the benchmark was tuned on, at its
# usual speed (a 2-vCPU Intel Xeon VM at 2.0 GHz, Python 3.11).
REFERENCE_LOOP_S = 0.0125
MODULES = ("model", "static_schedule", "rhythmic", "dropping", "mac", "sim", "experiments", "config", "cli")


def import_rtwnsim() -> SimpleNamespace:
    """Import the package afresh, so each set-up pays the import again."""
    for name in [n for n in sys.modules if n == "rtwnsim" or n.startswith("rtwnsim.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"rtwnsim.{m}") for m in MODULES})


def reference_loop() -> int:
    """Fixed pure-Python work that depends on nothing in rtwnsim."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(60_000):
        table[i & 1023] = acc
        acc = (acc + i * 7) % 1_000_003
    return acc


def host_factor() -> float:
    """How slow the host runs now: the reference loop's time over its tuned
    time (median of 9).  Shared hosts drift by tens of percent within
    minutes; dividing times by this factor cancels much of that drift."""
    times = []
    for _ in range(9):
        start = perf_counter()
        reference_loop()
        times.append(perf_counter() - start)
    return statistics.median(times) / REFERENCE_LOOP_S


class HostClock:
    """Stamps each measurement with the mean of the host factors sampled just
    before and just after it."""

    def __init__(self) -> None:
        self.last = host_factor()

    def stamp(self) -> float:
        now = host_factor()
        factor, self.last = (self.last + now) / 2, now
        return factor


def set_up(workload_cls, seed: int, tmp: Path):
    """Import plus input generation, repeated; returns the last set-up and
    the median set-up time in reference seconds."""
    clock, times = HostClock(), []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        rt = import_rtwnsim()
        workload = workload_cls(rt, seed, tmp)
        seconds = perf_counter() - start
        times.append(seconds / clock.stamp())
    return rt, workload, statistics.median(times)


def run_passes(workload, seconds: float, tracer=None) -> tuple[list, list, list]:
    """Whole passes until ``seconds`` have gone by, each stamped with its
    host factor.  With a tracer, untraced and traced passes alternate, at
    least two of each, so that the tracing overhead compares like with like
    and traced counts can be compared."""
    clock, untraced, traced, snaps = HostClock(), [], [], []
    start = perf_counter()
    while not untraced or (tracer and len(traced) < 2) or perf_counter() - start < seconds:
        untraced.append(workload.run_pass())
        untraced[-1].factor = clock.stamp()
        if tracer:
            tracer.reset()
            tracer.install()
            try:
                traced.append(workload.run_pass())
            finally:
                tracer.uninstall()
            traced[-1].factor = clock.stamp()
            snaps.append(tracer.snapshot(traced[-1].factor))
    return untraced, traced, snaps


def environment(args, workload, passes) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    import networkx
    import numpy
    import yaml

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": workload.name,
        "seed": args.seed,
        "passes": len(passes),
        "runs_per_pass": len(passes[0].runs),
        "evals_per_pass": sum(r.evals for r in passes[0].runs),
    }


def end_to_end(passes, setup_s: float) -> dict[str, tuple[float, str]]:
    run_s = [r.seconds / p.factor for p in passes for r in p.runs]
    return {
        "setup_s": (setup_s, "s"),
        "evals_per_s": (statistics.median(sum(r.evals for r in p.runs) / p.ref_seconds for p in passes), "1/s"),
        "slots_per_s": (statistics.median(sum(r.slots for r in p.runs) / p.ref_seconds for p in passes), "1/s"),
        "runs_per_s": (statistics.median(len(p.runs) / p.ref_seconds for p in passes), "1/s"),
        "run_ms_p50": (statistics.median(run_s) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def check(workload, seed: int, passes) -> list[str]:
    """Problems that make the run incorrect: broken invariants, outputs that
    differ between passes, or a digest that misses its reference."""
    problems = sorted({v for p in passes for v in p.violations})
    digest = passes[0].digest
    if any(p.digest != digest for p in passes):
        problems.append("outputs differ between passes over the same inputs")
    print(f"digest {workload.name} seed={seed} sha256={digest}")
    if seed == DEFAULT_SEED:
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8")).get(workload.name)
        if reference != digest:
            problems.append(f"digest differs from the reference {reference}")
    return problems


def measure(args, tmp: Path) -> int:
    os.environ["RTWNSIM_OUT"] = str(tmp)  # default output directory of the CLI
    rt, workload, setup_s = set_up(WORKLOADS[args.workload], args.seed, tmp)

    if not args.trace:
        passes, _, _ = run_passes(workload, args.seconds)
        return report(args, workload, passes, check(workload, args.seed, passes), end_to_end(passes, setup_s))

    untraced, traced, snaps = run_passes(workload, args.seconds, Tracer(rt))
    problems = check(workload, args.seed, untraced + traced)
    counts = snaps[0].counts()
    for i, snap in enumerate(snaps[1:], start=2):
        differ = {k: (counts[k], v) for k, v in snap.counts().items() if counts[k] != v}
        if differ:
            problems.append(f"traced pass {i} repeats counts inexactly (first, this): {differ}")
    overhead_pct = (statistics.median(p.ref_seconds for p in traced)
                    / statistics.median(p.ref_seconds for p in untraced) - 1) * 100
    return report(args, workload, untraced + traced, problems, layer_metrics(snaps, overhead_pct))


def report(args, workload, passes, problems, metrics) -> int:
    attempted = sum(r.evals for p in passes for r in p.runs)
    failed = sum(r.failed for p in passes for r in p.runs)
    print("env " + json.dumps(environment(args, workload, passes), sort_keys=True))
    for error in sorted({e for p in passes for e in p.errors}):
        print(f"failed: {error}")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    print(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} evaluations failed)")
    print("host factor per pass " + " ".join(f"{p.factor:.3f}" for p in passes))
    print(f"raw evals_per_s {statistics.median(sum(r.evals for r in p.runs) / p.seconds for p in passes):.6g} 1/s")
    run_ms = sorted(r.seconds / p.factor * 1000 for p in passes for r in p.runs)
    # The highest percentile with at least ten samples beyond it.
    top = next((q for q in (99, 95, 90, 75) if len(run_ms) * (100 - q) / 100 >= 10), None)
    tail = f", p{top} {statistics.quantiles(run_ms, n=100)[top - 1]:.6g} ms" if top else ""
    print(f"run time: {len(run_ms)} runs, p50 {statistics.median(run_ms):.6g} ms{tail}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "rtwnsim" / "__init__.py").is_file():
        print(f"error: no rtwnsim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    tmp = Path(tempfile.mkdtemp(prefix=".run-", dir=HERE))
    try:
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
