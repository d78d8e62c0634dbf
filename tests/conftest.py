"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sjb

# The directory that holds the sjb package under test.
SRC = str(Path(sjb.__file__).resolve().parent.parent)


def _run_python(*args, **env):
    """Runs python with args in a fresh process that imports this checkout's
    sjb, without OPENBLAS_NUM_THREADS unless it is given in env."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env.update(env, PYTHONPATH=os.pathsep.join(
        [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, *args], env=child_env,
                          capture_output=True, text=True, timeout=60)


@pytest.fixture
def run_python():
    return _run_python
