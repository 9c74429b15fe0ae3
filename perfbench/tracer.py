"""Spans and counters recorded around calls into su2pulse, from outside it.

`Tracer.install` replaces module attributes with wrappers, including the
names that other modules imported directly (`resonant.propagate_law`,
`detuned.label_for_phi0`, ...), so calls made inside the package are seen
too. A span records name, start, end, parent span and op id; spans stay in
memory until `write`. Functions that run in about a microsecond and are
called hundreds of times per solve are counted without a span.

Wrappers record only between `begin_op` and `end_op`, so the benchmark's
own correctness checks, which call the same functions, are not counted.
"""
from __future__ import annotations

import json
import math
import os
import time
from collections import defaultdict

# (module, attribute, metric name): every binding a caller can reach
SPANNED = [
    ("cli", "main", "cli.main"),
    ("su2", "parse_target", "su2.parse_target"),
    ("resonant", "synthesize", "resonant.synthesize"),
    ("resonant", "synthesize_general", "resonant.synthesize_general"),
    ("detuned", "synthesize_general", "resonant.synthesize_general"),
    ("so3", "synthesize_general", "resonant.synthesize_general"),
    ("detuned", "synthesize_detuned", "detuned.synthesize_detuned"),
    ("detuned", "optimal_domain", "detuned.optimal_domain"),
    ("detuned", "build_psi_family", "detuned.build_psi_family"),
    ("detuned", "tdiff_analysis", "detuned.tdiff_analysis"),
    ("so3", "sweep_rotation_angle", "so3.sweep_rotation_angle"),
    ("dynamics", "propagate_law", "dynamics.propagate_law"),
    ("resonant", "propagate_law", "dynamics.propagate_law"),
    ("detuned", "propagate_law", "dynamics.propagate_law"),
    ("dynamics", "propagate_schrodinger", "dynamics.propagate_schrodinger"),
    ("dynamics", "schedule_from_law", "dynamics.schedule_from_law"),
    ("dynamics", "write_pulse_csv", "dynamics.write_pulse_csv"),
    ("dynamics", "write_trajectory_csv", "dynamics.write_trajectory_csv"),
    ("dynamics", "read_pulse_csv", "dynamics.read_pulse_csv"),
]
COUNTED = [
    ("su2", "euler_from_gate", "su2.euler_from_gate"),
    ("resonant", "euler_from_gate", "su2.euler_from_gate"),
    ("detuned", "euler_from_gate", "su2.euler_from_gate"),
    ("resonant", "label_for_phi0", "resonant.label_for_phi0"),
    ("detuned", "label_for_phi0", "resonant.label_for_phi0"),
    ("so3", "select_faster", "so3.select_faster"),
]
SPAN_NAMES = sorted({name for _, _, name in SPANNED})
SOLVE_CLASSES = ("res", "full", "strict", "z", "zres")


class Tracer:
    def __init__(self, modules: dict):
        """modules maps short names ("cli", "su2", ...) to su2pulse modules."""
        self._modules = modules
        self._saved = []
        self.spans = []            # [name, start_ns, end_ns, parent, op_id, self_ns]
        self._stack = []
        self.op_id = None
        self.op_cls = None
        self.counts = defaultdict(int)        # (name, op class) -> calls
        self.extra = defaultdict(float)       # metric name -> summed value
        self.ops = []                         # (op_id, cls, duration_ns)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for mod, attr, name in SPANNED:
            self._wrap(mod, attr, self._spanning(name, getattr(self._modules[mod], attr)))
        for mod, attr, name in COUNTED:
            self._wrap(mod, attr, self._counting(name, getattr(self._modules[mod], attr)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, mod: str, attr: str, wrapper) -> None:
        module = self._modules[mod]
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _counting(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.op_id is not None:
                counts[(name, self.op_cls)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanning(self, name, fn):
        measure = _MEASURES.get(name)

        def wrapper(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1][0] if self._stack else None
            idx = len(self.spans)
            span = [name, 0, 0, parent, self.op_id, 0]
            self.spans.append(span)
            frame = [idx, 0]                       # index, child time
            self._stack.append(frame)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
                dur = span[2] - span[1]
                span[5] = dur - frame[1]
                if self._stack:
                    self._stack[-1][1] += dur
                self.counts[(name, self.op_cls)] += 1
            if measure is not None:
                for key, value in measure(self._modules["dynamics"], args, kwargs).items():
                    self.extra[key] += value
            return result
        return wrapper

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id: int, cls: str) -> None:
        self.op_id, self.op_cls = op_id, cls

    def end_op(self, duration_ns: int) -> None:
        self.ops.append((self.op_id, self.op_cls, duration_ns))
        self.op_id = self.op_cls = None

    # -- results ------------------------------------------------------------

    def calls(self, name: str, cls: str | None = None) -> int:
        return sum(v for (n, c), v in self.counts.items()
                   if n == name and (cls is None or c == cls))

    def self_ms(self, name: str) -> float:
        return sum(s[5] for s in self.spans if s[0] == name) / 1e6

    def metrics(self) -> dict:
        """Per-layer figures over the traced ops; names as in BENCHMARK.json."""
        m = {}
        for name in SPAN_NAMES:
            m[f"{name}.calls"] = self.calls(name)
            m[f"{name}.self_ms"] = self.self_ms(name)
        for name in ("su2.euler_from_gate", "resonant.label_for_phi0", "so3.select_faster"):
            m[f"{name}.calls"] = self.calls(name)
        op_ms = sum(d for _, _, d in self.ops) / 1e6
        ops_by_cls = defaultdict(int)
        for _, cls, _ in self.ops:
            ops_by_cls[cls] += 1
        incl = defaultdict(list)
        op_cls = {op_id: cls for op_id, cls, _ in self.ops}
        for s in self.spans:
            if s[0] == "resonant.synthesize":
                incl[op_cls[s[4]]].append(s[2] - s[1])
        for cls in SOLVE_CLASSES:
            m[f"resonant.synthesize.{cls}.calls"] = len(incl[cls])
            m[f"resonant.synthesize.{cls}.ms_per_call"] = (
                sum(incl[cls]) / len(incl[cls]) / 1e6 if incl[cls] else 0.0)
        for cls in ("res", "full", "strict"):
            n = ops_by_cls[cls]
            m[f"resonant.label_for_phi0.calls_per_op.{cls}"] = (
                self.calls("resonant.label_for_phi0", cls) / n if n else 0.0)
        for name in ("dynamics.propagate_law", "dynamics.propagate_schrodinger"):
            m[f"{name}.steps"] = int(self.extra[f"{name}.steps"])
        prop_ms = (self.self_ms("dynamics.propagate_law")
                   + self.self_ms("dynamics.propagate_schrodinger"))
        m["dynamics.propagator_share"] = prop_ms / op_ms if op_ms else 0.0
        m["dynamics.io.bytes"] = int(self.extra["dynamics.io.bytes"])
        m["trace.op_ms"] = op_ms
        m["trace.ops"] = len(self.ops)
        return m

    def write(self, path: str) -> None:
        """Write the recorded spans, one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id, self_ns in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op_id,
                                     "self_ns": self_ns}) + "\n")


# -- per-call work measured from a call's arguments --------------------------

def _law_steps(dyn, args, kwargs):
    law = args[0]
    n = kwargs.get("n_steps", args[1] if len(args) > 1 else dyn.DEFAULT_STEPS)
    return {"dynamics.propagate_law.steps": 0 if law.tf == 0.0 else n}


def _schedule_steps(dyn, args, kwargs):
    schedule = args[0]
    dt = kwargs.get("dt", args[1] if len(args) > 1 else None)
    tf = schedule.tf
    if schedule.samples.shape[0] == 0 or tf == 0.0:
        n = 0
    else:
        n = dyn.DEFAULT_STEPS if dt is None else max(1, math.ceil(tf / dt))
    return {"dynamics.propagate_schrodinger.steps": n}


def _file_bytes(position):
    def measure(dyn, args, kwargs):
        path = args[position] if len(args) > position else kwargs["path"]
        return {"dynamics.io.bytes": os.path.getsize(path)}
    return measure


_MEASURES = {
    "dynamics.propagate_law": _law_steps,
    "dynamics.propagate_schrodinger": _schedule_steps,
    "dynamics.write_pulse_csv": _file_bytes(1),
    "dynamics.write_trajectory_csv": _file_bytes(1),
    "dynamics.read_pulse_csv": _file_bytes(0),
}
