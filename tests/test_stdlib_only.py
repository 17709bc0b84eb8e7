"""``dependencies = []`` in pyproject.toml is a tested fact: importing
the package and every module in it loads nothing outside the standard
library."""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not module.name.endswith(".__main__"):  # would run a CLI
        importlib.import_module(module.name)
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"repro"}))
"""


def test_importing_every_module_loads_only_the_standard_library():
    done = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
