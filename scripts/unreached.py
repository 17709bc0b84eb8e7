"""List the ``src/`` functions that no suite, CI sweep row or example reaches.

Usage (from the repository root)::

    python scripts/unreached.py

One ``cProfile`` profiler runs, in this process and in order:

* ``python -m repro.bench`` -- every suite;
* each crash-sweep row of the CI workflow at ``--max-plans 60`` (one
  seed), the ``sf`` row writing its trace; then, as CI's loader step
  does, the report on that trace and both trace readers
  (``repro.obs.report``, ``repro.slo``) refusing a truncated copy;
* a 3-schedule sweep of every builder, and of the cluster scenario;
* a 30-plan cluster crash sweep;
* the eight ``examples/*.py`` scripts.

Every ``def`` under ``src/`` that none of them called is written to
``UNREACHED.txt`` at the root, one ``path:line qualified.name`` a line.  A function on the list
is reached by tests at most: wire it into one of the above or delete it.
Standard library only; takes a few minutes.
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import io
import os
import pathlib
import pstats
import runpy
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: the CI crash-sweep rows (``--records 150 --operations 10`` unless a
#: row overrides them)
CRASH_ROWS = [
    ["--builder", "sf"],
    ["--builder", "nsf"],
    ["--builder", "psf", "--partitions", "2"],
    ["--builder", "multi"],
    ["--builder", "multi", "--partitions", "2"],
    ["--builder", "rebuild"],
    ["--builder", "sf", "--schedule-seed", "5"],
    ["--builder", "nsf", "--schedule-seed", "5"],
    ["--builder", "sf", "--records", "500", "--operations", "150"],
    ["--builder", "sf", "--buffer-frames", "8", "--disk-channels", "4",
     "--operations", "40"],
    ["--builder", "nsf", "--buffer-frames", "8", "--disk-channels", "4",
     "--operations", "40"],
]


def defined_functions() -> dict[tuple[str, int], str]:
    """``(file, first line) -> qualified name`` of every ``def`` in
    ``src/``; the first line is a decorated function's first decorator,
    as in its code object."""
    found: dict[tuple[str, int], str] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [decorator.lineno
                                 for decorator in child.decorator_list])
                    name = prefix + child.name
                    found[(str(path), first)] = name
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def quietly(call, *args, expect=0):
    """Run ``call(*args)`` with its output dropped; a run that exits
    other than ``expect`` stops the probe: its coverage would be
    partial."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = call(*args)
        except SystemExit as exc:
            code = exc.code
    if (code or 0) != expect:
        sys.stderr.write(sink.getvalue())
        raise SystemExit(f"{call.__module__}.{call.__name__}{args} "
                         f"exited {code}")


def run_example(path: pathlib.Path) -> None:
    saved = sys.argv
    sys.argv = [str(path)]
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = saved


def probe(work: str) -> None:
    """Everything the list is taken over, in ``work`` (a scratch
    directory the runs write into)."""
    from repro.bench.__main__ import SUITES
    from repro.bench.runner import main as bench_main
    from repro.obs.report import main as report_main
    from repro.slo.__main__ import main as slo_main
    from repro.sweep.harness import main as sweep_main

    quietly(bench_main, SUITES, ["--out", os.path.join(work, "bench.json")])
    trace = os.path.join(work, "sweep-trace.jsonl")
    for row in CRASH_ROWS:
        argv = ["crash", "--records", "150", "--operations", "10", *row,
                "--seed", "7", "--max-plans", "60", "--quiet"]
        if row == ["--builder", "sf"]:
            argv += ["--trace-out", trace]
        quietly(sweep_main, argv)
    quietly(report_main, [trace, "--width", "80"])
    truncated = os.path.join(work, "truncated-trace.jsonl")
    with open(trace, "rb") as source, open(truncated, "wb") as cut:
        cut.write(source.read(2000))
    for reader in (report_main, slo_main):
        quietly(reader, [truncated], expect=2)
    quietly(sweep_main, ["schedule", "--schedules", "3", "--records", "60",
                         "--operations", "15", "--quiet"])
    quietly(sweep_main, ["schedule", "--builder", "cluster", "--schedules",
                         "3", "--quiet"])
    quietly(sweep_main, ["crash", "--builder", "cluster", "--max-plans",
                         "30", "--quiet"])
    for example in sorted((ROOT / "examples").glob("*.py")):
        quietly(run_example, example)


def main() -> int:
    sys.path.insert(0, str(SRC))
    profiler = cProfile.Profile()
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            profiler.enable()
            probe(work)
            profiler.disable()
        finally:
            os.chdir(cwd)
    reached = {(str(pathlib.Path(filename).resolve()), line)
               for filename, line, _name in pstats.Stats(profiler).stats}
    unreached = [(path, line, name) for (path, line), name
                 in sorted(defined_functions().items())
                 if (path, line) not in reached]
    out = ROOT / "UNREACHED.txt"
    with open(out, "w", encoding="utf-8") as handle:
        handle.write("# src/ functions no suite, CI sweep row or example "
                     "reaches (scripts/unreached.py)\n")
        for path, line, name in unreached:
            relative = pathlib.Path(path).relative_to(ROOT).as_posix()
            handle.write(f"{relative}:{line} {name}\n")
    print(f"{len(unreached)} unreached functions -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
