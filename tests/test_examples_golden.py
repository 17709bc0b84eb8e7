"""Golden-output tests for the runnable examples.

The drain/flip extraction that the parallel builder shares with the
serial SF path must not change observable behaviour: the examples'
stdout is captured byte-for-byte in ``tests/golden/`` and any drift --
an extra checkpoint, a reordered phase, a changed counter -- fails here
before it can silently change the documented walkthroughs.

To refresh a golden after an *intentional* behaviour change::

    PYTHONPATH=src python examples/quickstart.py > tests/golden/quickstart.out
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

#: examples with committed goldens (the deterministic, side-effect-free
#: walkthroughs; crash_recovery.py is covered by the recovery suites)
GOLDEN_EXAMPLES = ["quickstart.py", "online_migration.py",
                   "traced_build.py", "latency_slo.py",
                   "advisor_build.py", "index_organized_table.py"]


def _run_example(name: str, *args: str) -> bytes:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) \
        + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / name), *args],
        capture_output=True, env=env, timeout=300, check=False)
    assert completed.returncode == 0, \
        f"{name} exited {completed.returncode}:\n" \
        f"{completed.stderr.decode(errors='replace')}"
    return completed.stdout


@pytest.mark.parametrize("name", GOLDEN_EXAMPLES)
def test_example_output_matches_golden(name):
    golden_path = GOLDEN_DIR / (pathlib.Path(name).stem + ".out")
    expected = golden_path.read_bytes()
    actual = _run_example(name)
    assert actual == expected, (
        f"{name} stdout drifted from {golden_path.name}; if the change "
        f"is intentional, regenerate the golden (see module docstring)")


def test_quickstart_trace_golden(tmp_path):
    """``--trace-out`` must not perturb the run (stdout stays golden)
    and the JSONL trace itself is byte-stable across machines.

    Refresh after an intentional trace-schema or instrumentation change::

        PYTHONPATH=src python examples/quickstart.py \\
            --trace-out tests/golden/quickstart_trace.jsonl
    """
    trace_path = tmp_path / "quickstart.jsonl"
    stdout = _run_example("quickstart.py", "--trace-out", str(trace_path))
    assert stdout == (GOLDEN_DIR / "quickstart.out").read_bytes(), \
        "passive tracing changed quickstart's output"
    expected = (GOLDEN_DIR / "quickstart_trace.jsonl").read_bytes()
    assert trace_path.read_bytes() == expected, \
        "quickstart trace drifted from quickstart_trace.jsonl"
