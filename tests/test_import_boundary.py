"""The product never reaches the test oracles.

The tree-walking interpreter, the deferred-schedule explorer, the
vector-clock detector and the object ESP-bags detectors live under
``tests/`` as references the product is compared against.  Every
``repro`` module must import without them, and no source file under
``src/`` may import from ``tests``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Imports every ``repro`` module with the ``tests`` package blocked
#: (``sys.modules[name] = None`` makes any import of it fail) and prints
#: the modules it imported.
_IMPORT_ALL = """
import importlib, pkgutil, sys
sys.modules["tests"] = None
import repro
names = ["repro"]
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
    names.append(info.name)
print("\\n".join(names))
"""


def test_every_module_imports_without_tests():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL], env=env, cwd=str(SRC),
        capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    imported = set(completed.stdout.split())
    # The walk really covered the package tree...
    for name in ("repro.cli", "repro.runtime.codegen",
                 "repro.runtime.interpreter", "repro.races.arraycore",
                 "repro.repair.engine", "repro.service.pool"):
        assert name in imported, name
    # ...and the oracles that moved out of it are gone.
    assert not imported & {"repro.runtime.env", "repro.runtime.schedules",
                           "repro.races.vectorclock"}


def test_no_source_file_imports_tests():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            offenders.extend((str(path.relative_to(SRC)), module)
                             for module in modules
                             if module.split(".")[0] == "tests")
    assert not offenders
