"""Batch command-line front end.

    rtwnsim generate --seed N --util U --network net.yaml --out tasks.yaml
    rtwnsim simulate --scenario run.yaml [--trace-out t.txt] [--csv-out m.csv]
    rtwnsim sweep --spec sweep.yaml [--out-dir DIR] [--parallel N]

Exit codes: 0 on success (a run that misses its latency bound included), 2
for a configuration or parse error, an input file that cannot be read as
UTF-8 text or an output path that cannot be written, 3 for infeasible
requirements; README.md lists each case.  ``main`` maps each error class to
its code and prints one ``error:`` line to stderr; the commands only raise.
RTWNSIM_OUT sets the default output directory.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import os
import sys
from pathlib import Path
from typing import Iterable, Sequence

from .model import InfeasibleError, generate_taskset
from . import config as config_mod
from .config import ConfigError
from .experiments import (
    AGGREGATE_COLUMNS,
    RECORD_COLUMNS,
    RunRecord,
    aggregate,
    record_row,
    run_sweep,
)
from .sim import HorizonTooLong, HorizonTooShort, run
from .static_schedule import plan_retry_vectors

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

# glibc keeps freed heap pages resident while any small live block -- one of
# numpy's cached small-array buffers, say -- lies above them, so a command's
# transient peak would stay resident in an in-process caller by an amount
# that depends on where those blocks happened to land.  ``main`` hands such
# pages back after each command through glibc's malloc_trim, where it exists.
_LIBC = ctypes.CDLL(None) if os.name == "posix" else None


def _out_dir(explicit: str | None) -> Path:
    path = Path(explicit or os.environ.get("RTWNSIM_OUT", "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_generate(args: argparse.Namespace) -> int:
    # The sweep spec's rules for base_seed, utils and required_pdr.
    for bad, message in (
        (args.seed < 0, f"--seed must be >= 0, got {args.seed}"),
        (not 0 <= args.util <= 1, f"--util must lie in [0, 1], got {args.util}"),
        (not 0 < args.required_pdr < 1, f"--required-pdr must be in (0, 1), got {args.required_pdr}"),
    ):
        if bad:
            raise ConfigError(message)
    network = config_mod.parse_network(config_mod.load_document(args.network))
    tasks = tuple(generate_taskset(args.seed, args.util, network, required_pdr=args.required_pdr))
    meta = {"seed": args.seed, "target_utilization": args.util, "required_pdr": args.required_pdr,
            "tasks": len(tasks)}
    Path(args.out).write_text(config_mod.dump_taskset(tasks, meta=meta), encoding="utf-8")
    print(f"wrote {len(tasks)} tasks to {args.out}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = config_mod.parse_scenario(args.scenario)
    trace, metrics = run(cfg)
    vectors = plan_retry_vectors(cfg.tasks, cfg.network, cfg.required_pdr)
    event = cfg.event()
    record = RunRecord(
        framework=cfg.framework.value,
        seed=cfg.seed,
        util=sum(sum(vectors[t.id]) / t.period for t in cfg.tasks),
        r_steps=len(event.periods) if event else 0,
        alpha_slots=cfg.alpha_slots() or 0,
        drt_slots=metrics.drt_slots,
        dhl_slots=metrics.dhl_slots,
        success=metrics.success,
        feasible_dynamic=metrics.feasible_dynamic,
        dr=metrics.degradation_rate,
        dropped_packets=metrics.dropped_packets,
        dropped_transmissions=metrics.dropped_transmissions,
    )
    trace_path = Path(args.trace_out) if args.trace_out else _out_dir(None) / "trace.txt"
    csv_path = Path(args.csv_out) if args.csv_out else _out_dir(None) / "metrics.csv"
    with open(trace_path, "wb") as fh:
        trace.write(fh)
    _write_csv(csv_path, RECORD_COLUMNS, [record_row(record)])
    print(
        f"simulated {cfg.framework.value}: success={int(metrics.success)} "
        f"drt={metrics.drt_slots} dhl={metrics.dhl_slots} dr={metrics.degradation_rate:.6f}"
    )
    print(f"trace: {trace_path}")
    print(f"metrics: {csv_path}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.parallel < 1:
        raise ConfigError(f"--parallel must be >= 1, got {args.parallel}")
    spec = config_mod.parse_experiment(args.spec)
    records = run_sweep(spec, parallel=args.parallel)
    out = _out_dir(args.out_dir)
    records_path = out / "records.csv"
    agg_path = out / "aggregate.csv"
    _write_csv(records_path, RECORD_COLUMNS, map(record_row, records))
    _write_csv(agg_path, AGGREGATE_COLUMNS, (
        [framework, f"{util:.3f}", r_steps, alpha_mult, tick, n, f"{sr:.6f}", f"{mean_dr:.6f}"]
        for framework, util, r_steps, alpha_mult, tick, n, sr, mean_dr in aggregate(records)
    ))
    print(f"{len(records)} records -> {records_path}")
    print(f"aggregates -> {agg_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rtwnsim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random task set onto a network")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--util", type=float, required=True, help="target nominal utilization")
    gen.add_argument("--network", required=True, help="YAML file with a network section")
    gen.add_argument("--out", required=True, help="output task-set YAML")
    gen.add_argument("--required-pdr", type=float, default=0.99)
    gen.set_defaults(func=cmd_generate)

    simp = sub.add_parser("simulate", help="run one scenario")
    simp.add_argument("--scenario", required=True, help="scenario YAML")
    simp.add_argument("--trace-out", default=None)
    simp.add_argument("--csv-out", default=None)
    simp.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="run an experiment grid")
    sw.add_argument("--spec", required=True, help="experiment-spec YAML")
    sw.add_argument("--out-dir", default=None)
    sw.add_argument("--parallel", type=int, default=1, help="worker processes, at most one per cell")
    sw.set_defaults(func=cmd_sweep)
    return parser


def _fail(code: int, message: object) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Every input is read through config.load_document, which raises
    # ConfigError, so an OSError here comes from writing an output.  Any
    # other exception is a bug and keeps its traceback.
    try:
        return args.func(args)
    except (ConfigError, HorizonTooLong, HorizonTooShort) as exc:
        return _fail(EXIT_CONFIG, exc)
    except OSError as exc:
        return _fail(EXIT_CONFIG, f"cannot write output: {exc}")
    except InfeasibleError as exc:
        return _fail(EXIT_INFEASIBLE, exc)
    finally:
        trim = getattr(_LIBC, "malloc_trim", None)
        if trim is not None:
            trim(0)


if __name__ == "__main__":
    raise SystemExit(main())
