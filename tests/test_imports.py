"""Each module of the package imports alone, and as itself, in a fresh
interpreter: the package root imports none of them."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sjb

# sjb.__main__ runs the CLI when imported, and defines nothing.
MODULES = [m.name for m in pkgutil.iter_modules(sjb.__path__) if m.name != "__main__"]

PROBE = ("import sys\nimport sjb.{0} as m\n"
         "print(m is sys.modules['sjb.{0}'])\n"
         "print(*sorted(k for k in sys.modules if k.split('.')[0] == 'sjb'))\n")


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone_as_itself(name):
    src = str(Path(sjb.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", PROBE.format(name)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    bound, loaded = proc.stdout.splitlines()
    assert bound == "True"
    if name == "lattice":  # every other module imports it; it imports no sibling
        assert loaded.split() == ["sjb", "sjb.lattice"]
