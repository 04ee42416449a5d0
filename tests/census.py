#!/usr/bin/env python3
"""Line and caller census of the ``rtwnsim`` library, standard library only.

    python tests/census.py reach     # library statements tier-1 never runs
    python tests/census.py callers   # library functions no command or workload enters

``reach`` runs the tier-1 suite in this process under ``sys.settrace`` and
``threading.settrace``, recording the lines run in ``src/rtwnsim``.  The
suite's child processes are traced too: a generated ``sitecustomize.py``
goes first on ``PYTHONPATH`` and, in a child whose environment names a hits
file in ``HITS_VARIABLE``, installs the same tracer, and a process forked
from a traced one traces on; each child appends its hits to that file as it
exits.  A statement counts as reached when some line of its own, from its
first line (its first decorator's) to the line before its body, ran.
Constant expression statements (docstrings) and bare annotations of local
names compile to no code and are not counted.  The mode prints
``module:line: text`` for each statement not reached and exits 1 if there is
any, or if the suite fails.

``callers`` runs ``cli.main`` for ``simulate`` on the testbed scenario and on
its PBS variant written by ``dump_scenario``, ``generate`` on the
seven-node network, a two-cell ``sweep`` on two worker processes and one
command that exits 2, then one pass of each benchmark workload at seed 0.
It prints every library function, by qualified name from ``ast``, that none
of them enters, apart from those in ``ALLOWED``, and exits 1 if there is any.
"""

from __future__ import annotations

import ast
import atexit
import contextlib
import dataclasses
import importlib
import io
import os
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

CENSUS = Path(__file__).resolve()
ROOT = CENSUS.parent.parent
LIBRARY = ROOT / "src" / "rtwnsim"
HITS_VARIABLE = "RTWNSIM_CENSUS_HITS"

# Functions no command or workload needs to enter.
ALLOWED = {
    # The verifiers, and the helpers only they call.
    "static_schedule.verify_schedulable",
    "model.TaskSpec.nominal_deadline",
    "rhythmic.find_idle_slot",
    "rhythmic.find_idle_slot.<locals>.involves",
    "static_schedule.Schedule.task_slots",
    "trace.SimTrace.packets_from",
    # The paper's MAC contention result (A6, demo 04).
    "mac.contention_latency_experiment",
}

SITECUSTOMIZE = """\
import os
if os.environ.get({variable!r}):
    import importlib.util
    spec = importlib.util.spec_from_file_location("_rtwnsim_census", {census!r})
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    census.trace_child(os.environ[{variable!r}])
"""


class LineTracer:
    """Collects (file, line) for every line run in the library's files."""

    def __init__(self) -> None:
        self.hits: set[tuple[str, int]] = set()
        self._local: dict = {}  # code object -> its line tracer, or None outside the library

    def _for_code(self, code):
        filename = os.path.abspath(code.co_filename)
        if not filename.startswith(str(LIBRARY) + os.sep):
            return None
        add = self.hits.add

        def local(frame, event, arg):
            if event == "line":
                add((filename, frame.f_lineno))
            return local

        return local

    def __call__(self, frame, event, arg):
        code = frame.f_code
        try:
            return self._local[code]
        except KeyError:
            local = self._local[code] = self._for_code(code)
            return local

    def start(self) -> None:
        threading.settrace(self)
        sys.settrace(self)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def append_to(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            fh.writelines(f"{filename}\t{line}\n" for filename, line in sorted(self.hits))


def trace_into(path: str) -> LineTracer:
    """Trace this process; a forked multiprocessing child traces on and
    appends its own hits to the hits file ``path`` as it exits."""
    tracer = LineTracer()
    os.register_at_fork(after_in_child=lambda: _trace_fork(tracer, path))
    tracer.start()
    return tracer


def trace_child(path: str) -> None:
    """Trace this child process, appending its hits to ``path`` at exit."""
    atexit.register(trace_into(path).append_to, path)


def _trace_fork(tracer: LineTracer, path: str) -> None:
    # A multiprocessing child leaves through os._exit, which skips atexit but
    # runs the finalizers of multiprocessing.util first.
    import multiprocessing.util

    tracer.hits.clear()
    multiprocessing.util.Finalize(None, tracer.append_to, args=(path,), exitpriority=0)


def _library_files() -> list[Path]:
    return sorted(LIBRARY.glob("*.py"))


def _first_line(node: ast.stmt) -> int:
    """A statement's first line: its first decorator's, if it has one."""
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])


def _inner(node: ast.stmt) -> list[ast.stmt]:
    """The statements of every block directly inside ``node``."""
    blocks = [getattr(node, name, ()) for name in ("body", "orelse", "finalbody")]
    blocks += [part.body for part in [*getattr(node, "handlers", ()), *getattr(node, "cases", ())]]
    return [stmt for block in blocks for stmt in block]


def _uncounted(node: ast.stmt, in_function: bool) -> bool:
    """Whether ``node`` compiles to no code: a constant expression (a
    docstring), a global or nonlocal declaration, or a local annotation."""
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return True
    if isinstance(node, (ast.Global, ast.Nonlocal)):
        return True
    return in_function and isinstance(node, ast.AnnAssign) and node.value is None


def _statements(body: list[ast.stmt], in_function: bool = False):
    """(first line, last own line) of each counted statement in ``body``,
    nested ones included."""
    for node in body:
        inner = _inner(node)
        if not _uncounted(node, in_function):
            first = _first_line(node)
            yield first, max(first, min([node.end_lineno] + [stmt.lineno - 1 for stmt in inner]))
        yield from _statements(inner, in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _functions(body: list[ast.stmt], module: str, prefix: str = ""):
    """(first line, qualified name) of each function in ``body``, nested ones included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield _first_line(node), f"{module}.{prefix}{node.name}"
            yield from _functions(node.body, module, f"{prefix}{node.name}.<locals>.")
        else:
            inner_prefix = f"{prefix}{node.name}." if isinstance(node, ast.ClassDef) else prefix
            yield from _functions(_inner(node), module, inner_prefix)


def reach() -> int:
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        hits_path = os.path.join(tmp, "hits")
        Path(tmp, "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(variable=HITS_VARIABLE, census=str(CENSUS)), encoding="utf-8"
        )
        inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        os.environ["PYTHONPATH"] = os.pathsep.join([tmp, str(ROOT / "src"), *inherited])
        os.environ[HITS_VARIABLE] = hits_path
        tracer = trace_into(hits_path)
        try:
            status = pytest.main(["-q", "--continue-on-collection-errors"])
        finally:
            tracer.stop()
        hits = set(tracer.hits)
        if os.path.exists(hits_path):
            with open(hits_path, encoding="utf-8") as fh:
                for row in fh:
                    filename, line = row.rstrip("\n").split("\t")
                    hits.add((filename, int(line)))

    missed = []
    for path in _library_files():
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for first, last in _statements(ast.parse(source).body):
            if not any((str(path), n) in hits for n in range(first, last + 1)):
                missed.append(f"{path.relative_to(ROOT / 'src')}:{first}: {lines[first - 1].strip()}")
    for line in missed:
        print(line)
    print(f"census reach: {len(missed)} library statements tier-1 does not run")
    if status != 0:
        print(f"census reach: tier-1 exited {int(status)} under the tracer")
    return int(bool(missed) or status != 0)


def _commands(cli, config, model, tmp: Path) -> None:
    pbs = tmp / "pbs.yaml"
    testbed = config.parse_scenario(str(ROOT / "scenarios" / "testbed.yaml"))
    pbs.write_text(config.dump_scenario(dataclasses.replace(testbed, mode=model.SchedulingMode.PBS)),
                   encoding="utf-8")
    sweep = tmp / "sweep.yaml"
    sweep.write_text("utils: [0.4, 0.6]\nr_steps: [4]\nalphas: [1]\ntrials: 1\n", encoding="utf-8")
    runs = [
        (0, ["simulate", "--scenario", str(ROOT / "scenarios" / "testbed.yaml"),
             "--trace-out", str(tmp / "trace.txt"), "--csv-out", str(tmp / "metrics.csv")]),
        (0, ["simulate", "--scenario", str(pbs),
             "--trace-out", str(tmp / "pbs-trace.txt"), "--csv-out", str(tmp / "pbs-metrics.csv")]),
        (0, ["generate", "--seed", "1", "--util", "0.3", "--network", str(ROOT / "scenarios" / "network7.yaml"),
             "--out", str(tmp / "tasks.yaml")]),
        (0, ["sweep", "--spec", str(sweep), "--out-dir", str(tmp / "results"), "--parallel", "2"]),
        (2, ["simulate", "--scenario", str(tmp / "missing.yaml"),
             "--trace-out", str(tmp / "t.txt"), "--csv-out", str(tmp / "m.csv")]),
    ]
    for expected, argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        if code != expected:
            raise SystemExit(f"census callers: rtwnsim {argv[0]} exited {code}, not {expected}: {err.getvalue()}")


def callers() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    codes: set = set()

    def tracer(frame, event, arg):
        codes.add(frame.f_code)

    rt = SimpleNamespace(**{m: importlib.import_module(f"rtwnsim.{m}")
                            for m in ("cli", "config", "experiments", "mac", "model", "sim")})
    from workloads import WORKLOADS

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            _commands(rt.cli, rt.config, rt.model, Path(tmp))
            for workload in WORKLOADS.values():
                workload(rt, 0, Path(tmp)).run_pass()
    finally:
        sys.settrace(None)
        threading.settrace(None)

    entered = {(os.path.abspath(code.co_filename), code.co_firstlineno) for code in codes}
    functions = {(str(path), line): name for path in _library_files()
                 for line, name in _functions(ast.parse(path.read_text(encoding="utf-8")).body, path.stem)}
    stale = sorted(ALLOWED - set(functions.values()))
    missed = sorted(name for key, name in functions.items() if key not in entered and name not in ALLOWED)
    for name in missed:
        print(f"no command or workload enters {name}")
    for name in stale:
        print(f"ALLOWED names no library function: {name}")
    print(f"census callers: {len(missed)} library functions outside ALLOWED that nothing enters")
    return int(bool(missed or stale))


if __name__ == "__main__":
    modes = {"reach": reach, "callers": callers}
    if len(sys.argv) != 2 or sys.argv[1] not in modes:
        raise SystemExit(f"usage: {sys.argv[0]} {{{','.join(modes)}}}")
    raise SystemExit(modes[sys.argv[1]]())
