"""Which statements of ``src/repro`` a run executes: a line-reach recorder.

Record a command, and every Python process it starts, then tabulate::

    python tools/reach.py record OUT -- python examples/quickstart.py
    python tools/reach.py table --runs OUT [--tests OUT2] [--functions]

``record`` writes a ``sitecustomize.py`` into ``src/`` for as long as the
command runs and puts ``src/`` first on the command's ``PYTHONPATH``.
Every process with ``src/`` on its path imports that file at start-up
(``benchmarks/e2e/run.py`` puts ``src/`` first on each child's path,
``--probe-slo`` included), traces the lines of ``src/repro`` it executes
with :func:`sys.settrace` and leaves one JSON file in OUT when it exits.
Run pytest-benchmark files with ``--benchmark-disable``: the timed
section clears the trace function.  Record in a ``git clone``: the
benches rewrite ``benchmarks/results/``.

``table`` counts each statement in a function body of ``src/repro``
(docstrings aside) as *run* if a process recorded in ``--runs`` executed
it, *tests-only* if only one recorded in ``--tests`` did, and *none*
otherwise, one row per module.  ``--functions`` also lists the functions
of which no run executes a statement.  It exits 1 when ``--runs``
recorded nothing.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

TREE = Path(__file__).resolve().parents[1]

SITECUSTOMIZE = '''\
"""Line-reach recorder written by tools/reach.py for one command."""
import atexit, json, os, sys, threading

_OUT = os.environ.get("REPRO_REACH_OUT")
_PREFIX = os.environ.get("REPRO_REACH_PREFIX")
if _OUT and _PREFIX:
    _tracers = {}  # id(code) -> (code, its line tracer or None)
    _lines = {}  # path under src/repro -> executed line numbers

    def _tracer_for(code):
        path = os.path.realpath(code.co_filename)
        if not path.startswith(_PREFIX):
            return None
        add = _lines.setdefault(path[len(_PREFIX):], set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    def _trace(frame, event, arg):
        code = frame.f_code
        entry = _tracers.get(id(code))
        if entry is None:
            entry = _tracers[id(code)] = (code, _tracer_for(code))
        return entry[1]

    def _dump():
        sys.settrace(None)
        name = os.path.join(_OUT, f"{os.getpid()}-{os.urandom(4).hex()}.json")
        with open(name, "w") as out:
            json.dump({path: sorted(lines) for path, lines in _lines.items()}, out)

    atexit.register(_dump)
    threading.settrace(_trace)
    sys.settrace(_trace)
'''


def record(out: Path, command, tree: Path) -> int:
    """Run *command* with every process it starts recorded into *out*;
    returns the command's exit status."""
    src = tree / "src"
    site = src / "sitecustomize.py"
    if site.exists():
        sys.exit(f"{site} exists: remove it or record in a clean clone")
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, REPRO_REACH_OUT=str(out.resolve()),
               REPRO_REACH_PREFIX=str((src / "repro").resolve()) + os.sep)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src.resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    site.write_text(SITECUSTOMIZE)
    try:
        return subprocess.run(command, env=env).returncode
    finally:
        site.unlink()
        for compiled in (src / "__pycache__").glob("sitecustomize.*"):
            compiled.unlink()


def executed(directory: Path):
    """Path under ``src/repro`` -> every line a recorded process executed."""
    lines = {}
    for dump in sorted(directory.glob("*.json")):
        for path, hits in json.loads(dump.read_text()).items():
            lines.setdefault(path, set()).update(hits)
    return lines


def _header(stmt):
    """The lines a statement executes itself: all of a simple one's, a
    compound one's up to its body (decorators included)."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(first, body[0].lineno - 1) + 1)
    return range(first, stmt.end_lineno + 1)


def _statements(body, top=False):
    """The statements of a function body (*top*), nested blocks included
    but not the bodies of the functions and classes defined in it."""
    for index, stmt in enumerate(body):
        if top and index == 0 and isinstance(stmt, ast.Expr) and isinstance(
                getattr(stmt.value, "value", None), str):
            continue  # a docstring executes nothing
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            continue
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, field, []))
        for block in getattr(stmt, "handlers", []) + getattr(stmt, "cases", []):
            yield from _statements(block.body)


def functions(module):
    """``(qualified name, its statements)`` for every function of *module*."""
    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, list(_statements(child.body, top=True))
                yield from visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            else:
                yield from visit(child, prefix)
    return visit(module, "")


def _hit(stmt, lines) -> bool:
    """Whether *stmt* ran: a line of its own was traced (for ``try:``,
    which has none in the bytecode, its first statement was)."""
    if isinstance(stmt, ast.Try):
        return _hit(stmt.body[0], lines)
    return any(line in lines for line in _header(stmt))


RUN, TESTS_ONLY, NONE = range(3)


def table(runs: Path, tests, tree: Path, list_functions: bool) -> int:
    ran = executed(runs)
    tested = executed(tests) if tests else {}
    if not any(ran.values()):
        print(f"{runs}: no recorded statement of src/repro", file=sys.stderr)
        return 1
    root = tree / "src" / "repro"
    rows, unrun = [], []
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        counts = [0, 0, 0]
        for name, body in functions(ast.parse(path.read_text(), str(path))):
            marks = [RUN if _hit(stmt, ran.get(module, ())) else
                     TESTS_ONLY if _hit(stmt, tested.get(module, ())) else NONE
                     for stmt in body]
            for mark in marks:
                counts[mark] += 1
            if marks and RUN not in marks:
                unrun.append((f"{module}:{name}", len(marks),
                              marks.count(TESTS_ONLY), marks.count(NONE)))
        rows.append((module, *counts))
    rows.append(("total", *(sum(row[i] for row in rows) for i in (1, 2, 3))))
    width = max(len(row[0]) for row in rows)
    print(f"{'module':<{width}} {'stmts':>6} {'run':>6} {'tests-only':>10} {'none':>6}")
    for module, run, tests_only, none in rows:
        print(f"{module:<{width}} {run + tests_only + none:>6} {run:>6} "
              f"{tests_only:>10} {none:>6}")
    if list_functions:
        print(f"\nfunctions no run enters: {len(unrun)} "
              f"({sum(row[1] for row in unrun)} statements)")
        for name, stmts, tests_only, none in unrun:
            print(f"{name}  stmts {stmts}  tests-only {tests_only}  none {none}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--tree", type=Path, default=TREE,
                        help="checkout whose src/repro is measured (default: this one)")
    commands = parser.add_subparsers(dest="command", required=True)
    rec = commands.add_parser("record", help="run a command, recording every process")
    rec.add_argument("out", type=Path, help="directory for the per-process dumps")
    rec.add_argument("argv", nargs=argparse.REMAINDER, help="-- command ...")
    tab = commands.add_parser("table", help="per-module run / tests-only / none counts")
    tab.add_argument("--runs", type=Path, required=True,
                     help="dumps of the runs: examples, benches, BENCH-E2E")
    tab.add_argument("--tests", type=Path, help="dumps of the tier-1 tests")
    tab.add_argument("--functions", action="store_true",
                     help="also list the functions no run enters")
    args = parser.parse_args(argv)
    if args.command == "record":
        command = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        if not command:
            parser.error("record needs a command after --")
        return record(args.out, command, args.tree)
    return table(args.runs, args.tests, args.tree, args.functions)


if __name__ == "__main__":
    sys.exit(main())
