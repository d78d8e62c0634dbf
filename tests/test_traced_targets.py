"""The benchmark's traced pass wraps functions that exist in the library."""

import importlib
import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable():
    targets = _load_traced().TARGETS
    assert targets
    for module_name, qualname, _ in targets:
        obj = importlib.import_module(f"sjb.{module_name}")
        for attr in qualname.split("."):
            obj = getattr(obj, attr, None)
        assert callable(obj), f"sjb.{module_name}.{qualname} is not a callable"


def test_importing_the_cli_loads_every_traced_module(run_python):
    # Tracer.install reads sys.modules["sjb.<module>"] for each target right
    # after `import sjb.cli`, and the package root imports no module.
    proc = run_python("-c", "import sys, sjb.cli; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    missing = {f"sjb.{m}" for m, _, _ in _load_traced().TARGETS} - set(proc.stdout.split())
    assert not missing, f"a fresh import of sjb.cli does not load {sorted(missing)}"
