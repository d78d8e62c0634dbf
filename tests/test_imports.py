"""Each module of the package imports alone, and as itself, in a fresh
interpreter: the package root imports none of them and binds no public name."""

import pkgutil

import pytest

import sjb

# sjb.__main__ runs the CLI when imported, and defines nothing.
MODULES = [m.name for m in pkgutil.iter_modules(sjb.__path__) if m.name != "__main__"]

PROBE = ("import sys\nimport sjb.{0} as m\n"
         "print(m is sys.modules['sjb.{0}'])\n"
         "print(*sorted(k for k in sys.modules if k.split('.')[0] == 'sjb'))\n")


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone_as_itself(run_python, name):
    proc = run_python("-c", PROBE.format(name))
    assert proc.returncode == 0, proc.stderr
    bound, loaded = proc.stdout.splitlines()
    assert bound == "True"
    if name == "lattice":  # every other module imports it; it imports no sibling
        assert loaded.split() == ["sjb", "sjb.lattice"]


def test_package_root_binds_no_public_name(run_python):
    # A re-export, such as lattice's grow, would bind a name here.
    proc = run_python("-c", "import sjb\n"
                            "print(sorted(k for k in vars(sjb) if not k.startswith('_')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
