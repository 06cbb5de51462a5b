"""Every script in demos/ runs to completion without writing to stderr."""

from __future__ import annotations

import glob
import os
import subprocess
import sys

import pytest

import skillpath

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py")))
SRC = os.path.dirname(os.path.dirname(skillpath.__file__))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_exits_0_with_empty_stderr(tmp_path, demo):
    env = {
        **os.environ,
        "TMPDIR": str(tmp_path),  # the demos' scratch files land in the test's directory
        "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
    }
    done = subprocess.run([sys.executable, demo], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
