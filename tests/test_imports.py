"""The package runs on the standard library alone."""

from __future__ import annotations

import ast
import glob
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MODULES = sorted(glob.glob(os.path.join(SRC, "skillpath", "*.py")))


def imported_names(path):
    """The top-level name of every absolute import in the module at `path`."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_import_is_the_standard_library_or_the_package(path):
    foreign = {name for name in imported_names(path)
               if name not in sys.stdlib_module_names and name != "skillpath"}
    assert foreign == set()


def test_the_cli_loads_no_http_client_library():
    probe = "import sys, skillpath.cli; print('requests' in sys.modules)"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out.strip() == "False"
