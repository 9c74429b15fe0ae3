"""Command-line surface: synthesize pulses, replay and verify them, and
emit figure-ready sweep data.

Exit codes: 0 success, 2 parse/usage error, 3 synthesis failure,
4 verification residual above tolerance. All angles are radians and all
times are in normalized units (physical seconds require --omega-max,
t_phys = 2 t / omega_max).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import detuned, dynamics, resonant, so3, su2
from .errors import DomainError, NonUnitary, NonUnitDeterminant, Su2PulseError

HEADER_VERSION = 1

_AXES = {
    "x": (1.0, 0.0, 0.0),
    "y": (0.0, 1.0, 0.0),
    "z": (0.0, 0.0, 1.0),
    "yz": (0.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
}


@dataclass
class RunConfig:
    """Resolved options for one command; JSON-serializable, and explicit
    CLI flags override values loaded from --config."""

    command: str
    target: str | None = None
    delta: float = 0.0
    out: str = "."
    samples: int = dynamics.DEFAULT_SAMPLES
    tol: float = 1e-6
    omega_max: float | None = None
    pulse: str | None = None
    axis: str = "y"
    alpha_steps: int = 721
    delta_min: float = -3.0
    delta_max: float = 3.0
    delta_steps: int = 241

    def __post_init__(self):
        # a tolerance and a drive scale that compare and divide, and counts
        # that numpy can size; each error names the option's flag
        for name in ("tol", "omega_max"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"--{name.replace('_', '-')} = {v!r}: must be finite and > 0")
        # a law's tf is at most pi: its time in seconds, 2 tf / omega_max, is finite
        if self.omega_max is not None and not math.isfinite(2.0 * math.pi / self.omega_max):
            raise DomainError(f"--omega-max = {self.omega_max!r}: 2 pi / omega_max must be finite")
        for name, least in (("samples", 2), ("alpha_steps", 1), ("delta_steps", 2)):
            v = getattr(self, name)
            if not least <= v <= _MAX_COUNT:
                bound = f"at most {_MAX_COUNT}" if v > _MAX_COUNT else f"at least {least}"
                raise DomainError(f"--{name.replace('_', '-')} = {v}: must be {bound}")

    @classmethod
    def from_json(cls, d: dict) -> "RunConfig":
        names = {f.name for f in fields(cls)}
        unknown = set(d) - names
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        for f in fields(cls):
            if f.name in d and not _config_value_ok(f, d[f.name]):
                raise DomainError(f"config value {f.name} = {d[f.name]!r}: expected {f.type}")
        return cls(**d)


# the longest float64 array numpy can size: a longer one raises numpy's
# ValueError before anything is allocated (np.linspace an IndexError), while
# a count within it that the host cannot hold raises MemoryError
_MAX_COUNT = int(np.iinfo(np.intp).max) // np.dtype(float).itemsize


def _config_value_ok(f, v) -> bool:
    """Whether v fits RunConfig field f by its annotation: a number (not a
    bool) for a float field, with an int only where it converts to a
    float, an int for an int field, a str for a str field; None only
    where the field's default is None."""
    if v is None:
        return f.default is None
    kind = f.type.partition(" | ")[0]     # the annotation's text: float, int or str
    if kind == "float":
        if isinstance(v, int) and not isinstance(v, bool):
            return abs(v) <= sys.float_info.max
        return isinstance(v, float)
    if kind == "int":
        return isinstance(v, int) and not isinstance(v, bool)
    return isinstance(v, str)


def _number_flag(kind):
    """The argparse type of a number flag: kind by su2's number rule, so a
    digit-group underscore, as any bad number, is a usage error naming the
    flag; argparse names the type by its __name__."""
    def parse(text: str):
        return su2._parse_number(text, kind)
    parse.__name__ = kind.__name__
    return parse


_FLOAT, _INT = _number_flag(float), _number_flag(int)

# each command's options, by RunConfig field: the flags its parser has
# beside --config, and the keys a --config file may set for it
_OPTIONS = {
    "synthesize": ("target", "delta", "out", "tol", "samples", "omega_max"),
    "propagate": ("pulse",),
    "verify": ("pulse", "tol"),
    "sweep-angle": ("out", "axis", "alpha_steps"),
    "sweep-detuning": ("target", "out", "delta_min", "delta_max", "delta_steps"),
    "so3-select": ("target",),
}
# config keys with no flag: the detuning of a pulse CSV that has no pulse.json
_CONFIG_ONLY = {"propagate": ("delta",), "verify": ("delta",)}

_FLAGS = {
    "target": (("--target",), dict(help="gate spec, e.g. zrot:3.14159, xyrot:0,1.57, "
                                   "euler:p,t,f, quat:a,b,c,d, axis:alpha@nx,ny,nz, "
                                   "matrix:[[..],[..]]")),
    "delta": (("--delta",), dict(type=_FLOAT, help="normalized detuning (default 0)")),
    "out": (("--out",), dict(help="output directory (default: .)")),
    "tol": (("--tol",), dict(type=_FLOAT, help="verification tolerance (default 1e-6)")),
    "samples": (("--samples",), dict(type=_INT, help="pulse/trajectory samples (default 2048)")),
    "omega_max": (("--omega-max",), dict(dest="omega_max", type=_FLOAT,
                                         help="physical drive scale in rad/s, for unit "
                                         "conversion")),
    "pulse": (("pulse",), dict(help="pulse CSV written by synthesize")),
    "axis": (("--axis",), dict(help="x, y, z, yz, or nx,ny,nz (default y)")),
    "alpha_steps": (("--alpha-steps",), dict(dest="alpha_steps", type=_INT,
                                             help="grid points over [0, 4pi] (default 721)")),
    "delta_min": (("--delta-min",), dict(dest="delta_min", type=_FLOAT)),
    "delta_max": (("--delta-max",), dict(dest="delta_max", type=_FLOAT)),
    "delta_steps": (("--delta-steps",), dict(dest="delta_steps", type=_INT)),
}

_HELP = {
    "synthesize": "synthesize a time-optimal pulse",
    "propagate": "replay a pulse file and print the gate",
    "verify": "replay a pulse and compare to its declared target",
    "sweep-angle": "duration vs rotation angle for U and -U",
    "sweep-detuning": "T_diff analysis over a detuning grid",
    "so3-select": "which of U, -U is faster to generate",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process: parse_args leaves
    it unchanged, so every main call can share it. Each command has only
    the flags it reads."""
    p = argparse.ArgumentParser(
        prog="su2pulse",
        description="Time-optimal SU(2) pulse synthesis and verification.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for command, options in _OPTIONS.items():
        sp = sub.add_parser(command, help=_HELP[command])
        # values such as -1e-3 and -1,0,0, which argparse reads as options
        sp._negative_number_matcher = re.compile(r"^-\.?\d")
        sp.add_argument("--config", help="JSON config file; explicit flags override it")
        for name in options:
            flags, kwargs = _FLAGS[name]
            sp.add_argument(*flags, **kwargs)
    return p


def _load_json_object(path, what: str) -> dict:
    """The JSON object in the file at path; a file that is not readable
    UTF-8 JSON text with an object at its top level is a DomainError
    naming it."""
    # ValueError covers UnicodeDecodeError, json.JSONDecodeError and an int
    # literal longer than Python converts (sys.get_int_max_str_digits())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            value = json.load(fh)
    except (IsADirectoryError, ValueError) as exc:
        raise DomainError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(value, dict):
        raise DomainError(f"{what} {path}: expected a JSON object, got {type(value).__name__}")
    return value


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = {k: v for k, v in vars(args).items() if v is not None}
    cfg_path = values.pop("config", None)
    base = {}
    if cfg_path:
        base = _load_json_object(cfg_path, "config")
        # a saved RunConfig carries its command, which must be this one
        named = base.pop("command", args.command)
        if named != args.command:
            raise DomainError(f"config key 'command' is {named!r}, not {args.command}")
        reads = {*_OPTIONS[args.command], *_CONFIG_ONLY.get(args.command, ())}
        unread = sorted(set(base) - reads)
        if unread:
            raise DomainError(f"config key {unread[0]!r} is not an option of {args.command}")
    merged = {**base, **values}
    return RunConfig.from_json({"command": args.command, **merged})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _target(cfg: RunConfig) -> su2.ParsedTarget:
    if not cfg.target:
        raise DomainError("--target is required")
    return su2.parse_target(cfg.target)


def _pulse_paths(out: str) -> tuple[Path, Path, Path]:
    d = Path(out)
    d.mkdir(parents=True, exist_ok=True)
    return d / "pulse.csv", d / "pulse.json", d / "trajectory.csv"


def cmd_synthesize(cfg: RunConfig) -> int:
    result = resonant.synthesize(_target(cfg), delta=cfg.delta)
    law = result.law
    schedule = dynamics.schedule_from_law(law, cfg.samples)
    csv_path, json_path, traj_path = _pulse_paths(cfg.out)
    dynamics.write_pulse_csv(schedule, csv_path)
    header = {
        "version": HEADER_VERSION,
        "target": asdict(result.target),
        "delta": law.delta,
        "phi0": law.phi0,
        "p2": law.p2,
        "tf": law.tf,
        "residual": result.residual,
        "omega_max": cfg.omega_max,
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    dynamics.write_trajectory_csv(law, traj_path, cfg.samples)
    print(f"phi0 = {law.phi0:.12g}")
    print(f"p2 = {law.p2:.12g}")
    print(f"tf = {law.tf:.12g}")
    if cfg.omega_max is not None:
        print(f"tf_physical = {2.0 * law.tf / cfg.omega_max:.12g} s")
    print(f"residual = {result.residual:.3e}")
    print(f"wrote {csv_path}, {json_path}, {traj_path}")
    return 0 if result.residual < cfg.tol else 4


def _header_number(json_path: Path, name: str, v) -> float:
    """v as a float if it is a finite JSON number (not a bool, not a
    string), else a DomainError naming the header file and the field: the
    one rule of every number read from a pulse header."""
    # abs(v) <= max float is False for nan, inf and ints past the float range
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise DomainError(f"pulse header {json_path}: {name} = {v!r} is not a finite number")
    return float(v)


def _read_pulse(cfg: RunConfig) -> tuple[dynamics.PulseSchedule, dict, Path]:
    csv_path = Path(cfg.pulse)
    # not with_suffix, which raises on a path with an empty name such as "."
    json_path = csv_path.parent / (csv_path.stem + ".json")
    header = _load_json_object(json_path, "pulse header") if json_path.exists() else {}
    delta = _header_number(json_path, "delta", header.get("delta", cfg.delta))
    return dynamics.read_pulse_csv(csv_path, delta=delta), header, json_path


def _header_target(header: dict, json_path: Path) -> su2.EulerTarget:
    """The canonical triple of the header's target record: psi, theta and
    phi by the header's number rule, theta within 1e-12 of [0, pi] and
    clamped into it."""
    record = header.get("target")
    if not (isinstance(record, dict) and record.keys() >= {"psi", "theta", "phi"}):
        raise DomainError(f"pulse header {json_path} lacks a target record of psi, theta, phi")
    psi, theta, phi = (_header_number(json_path, f"target {name}", record[name])
                       for name in ("psi", "theta", "phi"))
    if not -1e-12 <= theta <= math.pi + 1e-12:
        raise DomainError(f"pulse header {json_path}: target theta = {theta:.12g} outside [0, pi]")
    return su2.euler_from_gate(su2.gate_from_euler(psi, min(max(theta, 0.0), math.pi), phi))


def cmd_propagate(cfg: RunConfig) -> int:
    schedule, _, _ = _read_pulse(cfg)
    gate = dynamics.propagate_pulse(schedule)
    e = su2.euler_from_gate(gate)
    print(f"quaternion = ({gate.x1:.12g}, {gate.x2:.12g}, {gate.x3:.12g}, {gate.x4:.12g})")
    print(f"euler = (psi={e.psi:.12g}, theta={e.theta:.12g}, phi={e.phi:.12g})")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    schedule, header, json_path = _read_pulse(cfg)
    target = _header_target(header, json_path)
    want = su2.gate_from_euler(target.psi, target.theta, target.phi)
    gate = dynamics.propagate_pulse(schedule)
    residual = su2.gate_distance(gate, want)
    e = su2.euler_from_gate(gate)
    print(f"achieved euler = (psi={e.psi:.12g}, theta={e.theta:.12g}, phi={e.phi:.12g})")
    print(f"declared target = (psi={target.psi:.12g}, theta={target.theta:.12g}, "
          f"phi={target.phi:.12g})")
    print(f"residual = {residual:.3e} (tolerance {cfg.tol:g})")
    return 0 if residual < cfg.tol else 4


def _parse_axis(text: str):
    if text in _AXES:
        return _AXES[text]
    v = np.array(su2._parse_floats(text, 3, "--axis (x/y/z/yz or nx,ny,nz)"))
    if not np.isfinite(v).all() or not v.any():
        raise DomainError(f"--axis {text!r}: must be finite and nonzero")
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(v))
    if not 0.0 < n < math.inf:
        # the norm over- or underflowed: rescale by the largest component first
        v /= np.abs(v).max()
        n = float(np.linalg.norm(v))
    return tuple(v / n)


def cmd_sweep_angle(cfg: RunConfig) -> int:
    axis = _parse_axis(cfg.axis)
    alphas = np.linspace(0.0, 4.0 * math.pi, cfg.alpha_steps)
    rows = so3.sweep_rotation_angle(axis, alphas)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep_angle.csv"
    so3.write_sweep_csv(rows, path)
    cross = so3.crossing_angles(rows)
    print(f"wrote {path} ({len(rows)} rows)")
    print("crossings:", " ".join(f"{c:.6g}" for c in cross))
    return 0


def cmd_sweep_detuning(cfg: RunConfig) -> int:
    gate = _target(cfg).gate
    grid = np.linspace(cfg.delta_min, cfg.delta_max, cfg.delta_steps)
    report = detuned.tdiff_analysis(gate, grid)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "tdiff.csv"
    detuned.write_tdiff_csv(report, path)
    print(f"wrote {path} ({grid.size} rows)")
    for d, kind in report.events:
        print(f"sign change near delta = {d:.6g} ({kind})")
    return 0


def cmd_so3_select(cfg: RunConfig) -> int:
    dec = so3.select_faster(_target(cfg).gate)
    print(f"chosen = {dec.chosen}")
    print(f"tf(U) = {dec.tf_plus:.12g}")
    print(f"tf(-U) = {dec.tf_minus:.12g}")
    print(f"tie = {str(dec.tie).lower()}")
    return 0


_COMMANDS = {
    "synthesize": cmd_synthesize,
    "propagate": cmd_propagate,
    "verify": cmd_verify,
    "sweep-angle": cmd_sweep_angle,
    "sweep-detuning": cmd_sweep_detuning,
    "so3-select": cmd_so3_select,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        code = _COMMANDS[cfg.command](cfg)
    # OSError: a file that cannot be read or written, a missing one included
    except (DomainError, NonUnitary, NonUnitDeterminant, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a count numpy can size but this host cannot hold
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except Su2PulseError as exc:
        print(f"synthesis error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
