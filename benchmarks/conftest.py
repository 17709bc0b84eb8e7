"""Shared benchmark configuration.

Every bench runs its experiment exactly once (the workloads are
deterministic; repetition adds nothing), asserts the paper's claim on
the rows and renders a paper-style results table.  The tables are
re-emitted in the terminal summary -- after pytest's capture has ended
-- so they always appear in
``pytest -q benchmarks --ignore benchmarks/e2e | tee bench_output.txt``.
"""

from repro.bench.harness import RENDERED_TABLES


def pytest_terminal_summary(terminalreporter):
    if not RENDERED_TABLES:
        return
    terminalreporter.section("paper-style results tables")
    for table in RENDERED_TABLES:
        terminalreporter.write_line("")
        for line in table.splitlines():
            terminalreporter.write_line(line)
    terminalreporter.write_line("")
