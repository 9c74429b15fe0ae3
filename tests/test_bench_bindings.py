"""Every su2pulse binding that perfbench/tracer.py wraps must exist.

`perfbench/run.py --trace 1` replaces each (module, attribute) pair listed
in the tracer's SPANNED and COUNTED tables with a wrapper, so a refactor
that drops one of those names (say, an import another module no longer
calls) breaks the traced run. The tables are read, not changed. The
solvers must also reach the label map through the bindings the tracer
counts, or its `resonant.label_for_phi0.calls` would miss their calls.
"""
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from su2pulse import detuned, resonant, so3
from su2pulse.su2 import gate_from_euler

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


def test_solvers_call_the_label_map_through_its_bindings(monkeypatch):
    # the tracer counts resonant.label_for_phi0 by wrapping the module
    # attributes resonant.label_for_phi0 and detuned.label_for_phi0, both
    # under that one metric; a solver that reached the map another way
    # would drop out of it
    calls = []
    for mod in (resonant, detuned):
        def counted(*args, _fn=mod.label_for_phi0):
            calls.append(1)
            return _fn(*args)
        monkeypatch.setattr(mod, "label_for_phi0", counted)

    def through(fn, *args):
        before = len(calls)
        fn(*args)
        return len(calls) - before

    gate = gate_from_euler(0.4, 2.2689, 0.3)
    assert through(resonant.synthesize, gate, 0.0) > 10
    assert through(resonant.synthesize, gate, 3.0) > 10
    assert through(detuned.optimal_domain, 2.2689, 0.3, 3.0) > 10
    assert through(detuned.build_psi_family, 2.2689, 0.3, 256) >= 256
    # 9 angles, 3 of them +-identity: U and -U at the other 6
    assert through(so3.sweep_rotation_angle, (0.6, 0.0, 0.8),
                   np.linspace(0.0, 4.0 * math.pi, 9)) >= 12
    assert through(detuned.tdiff_analysis, gate, np.linspace(-3.0, 3.0, 7)) >= 12
