"""Every su2pulse binding that perfbench/tracer.py wraps must exist.

`perfbench/run.py --trace 1` replaces each (module, attribute) pair listed
in the tracer's SPANNED and COUNTED tables with a wrapper, so a refactor
that drops one of those names (say, an import another module no longer
calls) breaks the traced run. The tables are read, not changed.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SPANNED + mod.COUNTED


BINDINGS = _tracer_tables()


def test_tables_are_not_empty():
    assert len(BINDINGS) > 10


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in BINDINGS],
                         ids=[f"{m}.{a}" for m, a, _ in BINDINGS])
def test_binding_resolves(module, attr):
    mod = importlib.import_module(f"su2pulse.{module}")
    assert callable(getattr(mod, attr, None)), f"su2pulse.{module}.{attr} is missing"
