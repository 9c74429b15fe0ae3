import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import su2pulse
from su2pulse import (NoConvergence, NoStationaryPoint, StepTooLarge, TargetUnreached, detuned,
                      dynamics, resonant, so3)
from su2pulse.cli import RunConfig, main


def run_cli(*args):
    return main(list(args))


def test_synthesize_z_rotation(tmp_path, capsys):
    code = run_cli("synthesize", "--target", "zrot:3.141592653589793",
                   "--out", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert "tf = 2.72069904635" in out
    assert (tmp_path / "pulse.csv").exists()
    assert (tmp_path / "pulse.json").exists()
    assert (tmp_path / "trajectory.csv").exists()
    header = json.loads((tmp_path / "pulse.json").read_text())
    assert header["version"] == 1
    assert header["residual"] < 1e-6
    assert set(header["target"]) == {"psi", "theta", "phi"}


def test_synthesize_xy_rotation(tmp_path, capsys):
    code = run_cli("synthesize", "--target", "xyrot:0,3.141592653589793",
                   "--out", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert "tf = 1.57079632679" in out


def test_synthesize_identity_empty_schedule(tmp_path, capsys):
    code = run_cli("synthesize", "--target", "euler:0,0,0", "--out", str(tmp_path))
    assert code == 0
    assert "tf = 0" in capsys.readouterr().out
    lines = (tmp_path / "pulse.csv").read_text().strip().splitlines()
    assert lines == ["t,vx,vy"]


def test_verify_round_trip(tmp_path, capsys):
    run_cli("synthesize", "--target", "euler:1.0,1.2,-0.4", "--delta", "0.8",
            "--out", str(tmp_path))
    capsys.readouterr()
    code = run_cli("verify", str(tmp_path / "pulse.csv"))
    out = capsys.readouterr().out
    assert code == 0
    assert "residual" in out


def test_verify_detects_corruption(tmp_path, capsys):
    run_cli("synthesize", "--target", "zrot:1.5", "--out", str(tmp_path))
    csv_path = tmp_path / "pulse.csv"
    lines = csv_path.read_text().strip().splitlines()
    fixed = [lines[0]]
    for ln in lines[1:]:
        t, vx, vy = ln.split(",")
        fixed.append(f"{t},{vx},{-float(vy)}")
    csv_path.write_text("\n".join(fixed) + "\n")
    assert run_cli("verify", str(csv_path)) == 4


def test_verify_truncated_file(tmp_path):
    run_cli("synthesize", "--target", "zrot:1.5", "--out", str(tmp_path))
    (tmp_path / "pulse.csv").write_text("t,vx,vy\n0.0,1.0\n")
    assert run_cli("verify", str(tmp_path / "pulse.csv")) == 2


def test_propagate_prints_gate(tmp_path, capsys):
    run_cli("synthesize", "--target", "zrot:1.0", "--out", str(tmp_path))
    capsys.readouterr()
    code = run_cli("propagate", str(tmp_path / "pulse.csv"))
    out = capsys.readouterr().out
    assert code == 0 and "quaternion" in out and "euler" in out


def test_parse_error_exit_code(tmp_path):
    assert run_cli("synthesize", "--target", "zrot:9.0", "--out", str(tmp_path)) == 2
    assert run_cli("synthesize", "--target", "junk", "--out", str(tmp_path)) == 2
    assert run_cli("sweep-angle", "--axis", "a,b,c", "--out", str(tmp_path)) == 2


@pytest.mark.parametrize("command", ["synthesize", "sweep-detuning", "so3-select"])
def test_missing_target_is_a_usage_error(tmp_path, capsys, command):
    # so3-select writes no file and has no --out
    out = () if command == "so3-select" else ("--out", str(tmp_path))
    assert run_cli(command, *out) == 2
    assert "--target is required" in capsys.readouterr().err


def test_verify_without_target_record(tmp_path, capsys):
    run_cli("synthesize", "--target", "zrot:1.5", "--out", str(tmp_path))
    header = json.loads((tmp_path / "pulse.json").read_text())
    del header["target"]
    (tmp_path / "pulse.json").write_text(json.dumps(header))
    capsys.readouterr()
    assert run_cli("verify", str(tmp_path / "pulse.csv")) == 2
    assert "lacks a target record" in capsys.readouterr().err


@pytest.mark.parametrize("axis", ["0,0,0", "1,2", "nan,0,1", "inf,0,0", "1,-inf,0"])
def test_bad_axis_is_a_usage_error_naming_the_flag(tmp_path, capsys, axis):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("sweep-angle", "--axis", axis, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error: --axis ")
    assert not (tmp_path / "sweep_angle.csv").exists()


@pytest.mark.parametrize("axis, unit", [("1e200,1e200,0", "1,1,0"), ("1e-200,0,0", "1,0,0"),
                                        ("0,5e-324,0", "0,1,0")])
def test_axis_norm_over_and_underflow(tmp_path, axis, unit):
    # a norm that over- or underflows is rescaled by the largest component:
    # the sweep is that of the same direction written in unit-sized numbers
    for a, out in ((axis, "big"), (unit, "unit")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("sweep-angle", "--axis", a, "--alpha-steps", "41",
                           "--out", str(tmp_path / out)) == 0
    assert ((tmp_path / "big" / "sweep_angle.csv").read_bytes()
            == (tmp_path / "unit" / "sweep_angle.csv").read_bytes())


@pytest.mark.parametrize("error", [NoConvergence, NoStationaryPoint, TargetUnreached,
                                   StepTooLarge])
def test_synthesis_error_exit_code(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr(resonant, "synthesize", fail)
    assert run_cli("synthesize", "--target", "zrot:1.0", "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert "synthesis error: forced" in err and "Traceback" not in err


def test_parser_is_built_once(tmp_path, capsys):
    from su2pulse.cli import build_parser
    assert build_parser() is build_parser()
    assert run_cli("so3-select", "--target", "zrot:1.0") == 0
    assert "chosen = " in capsys.readouterr().out
    assert run_cli("synthesize", "--target", "zrot:1.0", "--out", str(tmp_path)) == 0
    assert "phi0 = " in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        run_cli("synthesize", "--bogus")
    assert exc.value.code == 2
    assert run_cli("verify", str(tmp_path / "pulse.csv")) == 0


@pytest.mark.parametrize("kind,content", [
    pytest.param("config", b"[1]", id="config-array"),
    pytest.param("config", b'"abc"', id="config-string"),
    pytest.param("config", None, id="config-directory"),
    pytest.param("config", b'\xff\xfe{"delta": 0.5}', id="config-not-utf8"),
    pytest.param("pulse", None, id="pulse-directory"),
    pytest.param("pulse", b"t,vx,vy\n0,1,0\n\xff\n", id="pulse-not-utf8"),
])
def test_unreadable_input_is_a_usage_error(tmp_path, capsys, kind, content):
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    if kind == "config":
        args = ("synthesize", "--config", str(path), "--target", "zrot:1.0",
                "--out", str(tmp_path / "out"))
    else:
        args = ("verify", str(path))
    code = run_cli(*args)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and str(path) in err


@pytest.mark.parametrize("command,key,value", [
    pytest.param(command, "delta", value, id=f"{command}-delta-{name}")
    for command in ("verify", "propagate")
    for name, value in (("string", "abc"), ("null", None), ("list", [1]))
] + [pytest.param("verify", "target", {"psi": "a", "theta": 1, "phi": 0},
                  id="verify-target-non-numeric")])
def test_bad_pulse_header_is_a_usage_error(tmp_path, capsys, command, key, value):
    run_cli("synthesize", "--target", "euler:0.4,1.1,0.2", "--out", str(tmp_path))
    sidecar = tmp_path / "pulse.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), key: value}))
    capsys.readouterr()
    code = run_cli(command, str(tmp_path / "pulse.csv"))
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and key in err


def test_verify_current_directory_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # "." has an empty name, so no sidecar name can be derived from it
    monkeypatch.chdir(tmp_path)
    assert run_cli("verify", ".") == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    pytest.param(("synthesize", "--target", "zrot:1", "--out", "F"), id="synthesize-out-file"),
    pytest.param(("synthesize", "--target", "zrot:1", "--out", "F/sub"), id="synthesize-out-under-file"),
    pytest.param(("synthesize", "--config", "F/c.json", "--target", "zrot:1"),
                 id="synthesize-config-under-file"),
    pytest.param(("sweep-angle", "--out", "F"), id="sweep-angle-out-file"),
    pytest.param(("sweep-detuning", "--target", "euler:0,2.2689,0", "--out", "F"),
                 id="sweep-detuning-out-file"),
    pytest.param(("verify", "F/x.csv"), id="verify-under-file"),
    pytest.param(("propagate", "F/x.csv"), id="propagate-under-file"),
])
def test_file_that_cannot_be_read_or_written_is_a_usage_error(tmp_path, capsys, args):
    # F is a regular file: an output directory at F, or any path under it,
    # raises an OSError other than FileNotFoundError
    f = tmp_path / "F"
    f.write_text("not a directory\n")
    code = run_cli(*(a.replace("F", str(f), 1) if a.startswith("F") else a for a in args))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_sweep_angle_single_row(tmp_path, capsys):
    code = run_cli("sweep-angle", "--axis", "y", "--alpha-steps", "1",
                   "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "sweep_angle.csv").read_text().strip().splitlines()
    assert len(lines) == 2


def test_sweep_angle_crossings(tmp_path, capsys):
    code = run_cli("sweep-angle", "--axis", "y", "--alpha-steps", "101",
                   "--out", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    nums = [float(x) for x in out.splitlines()[-1].split(":")[1].split()]
    assert abs(nums[0] - math.pi) < 0.1 and abs(nums[1] - 3 * math.pi) < 0.1


def test_sweep_detuning_emits_events(tmp_path, capsys):
    code = run_cli("sweep-detuning", "--target", "euler:0,2.2689,0",
                   "--delta-min", "-3", "--delta-max", "3",
                   "--delta-steps", "121", "--out", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    text = (tmp_path / "tdiff.csv").read_text()
    assert text.splitlines()[0] == "delta,t_U,t_negU,tdiff,in_X,event"
    assert "zero_cross" in text
    assert "sign change" in out


def test_sweep_detuning_reports_a_sign_change_across_an_exact_zero(tmp_path, capsys):
    # a half turn about an axis in the xz plane: t_U - t_negU is -0.0573, 0
    # and +0.0573 at delta = -0.025, 0 and 0.025, all inside X, so the
    # crossing sits on the delta = 0 row; it used to be dropped
    target = "axis:3.141592653589793@0.6,0,0.8"
    code = run_cli("sweep-detuning", "--target", target, "--out", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    report = detuned.tdiff_analysis(su2pulse.parse_target(target).gate,
                                    np.linspace(-3.0, 3.0, 241))
    assert [kind for _, kind in report.events] == ["boundary_jump", "zero_cross", "boundary_jump"]
    assert report.events[1] == (0.0, "zero_cross")
    assert [d for d, _ in report.events][::2] == pytest.approx([-2.4625, 2.4625])
    zero = report.predicted_zero_crossings.index(0.0)
    assert math.copysign(1.0, report.predicted_zero_crossings[zero]) == 1.0
    assert "sign change near delta = 0 (zero_cross)" in out
    rows = [ln.split(",") for ln in (tmp_path / "tdiff.csv").read_text().splitlines()[1:]]
    marked = [(r[0], r[3], r[5]) for r in rows if r[5] != "none"]
    assert [kind for _, _, kind in marked] == ["boundary_jump", "zero_cross", "boundary_jump"]
    assert marked[1] == ("0", "0", "zero_cross")


@pytest.mark.parametrize("spec", ["quat:1e200,0,0,0", "quat:1e308,1e308,0,0"])
def test_synthesize_a_quaternion_past_the_float_range(tmp_path, capsys, spec):
    # squaring a component overflowed: an OverflowError traceback, exit 1
    code = run_cli("synthesize", "--target", spec, "--out", str(tmp_path))
    out, err = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in err and "residual = " in out


def test_so3_select_output(capsys):
    code = run_cli("so3-select", "--target", "xyrot:0,3.141592653589793")
    out = capsys.readouterr().out
    assert code == 0
    assert "tie = true" in out


def test_deterministic_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli("synthesize", "--target", "euler:0.4,1.1,0.2", "--delta", "0.6",
                "--out", str(out))
        run_cli("sweep-angle", "--axis", "yz", "--alpha-steps", "41", "--out", str(out))
    for name in ("pulse.csv", "pulse.json", "trajectory.csv", "sweep_angle.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"target": "zrot:1.0", "samples": 256,
                               "out": str(tmp_path / "cfgout")}))
    code = run_cli("synthesize", "--config", str(cfg),
                   "--target", "zrot:2.0")   # flag overrides file
    assert code == 0
    header = json.loads((tmp_path / "cfgout" / "pulse.json").read_text())
    assert abs(header["target"]["psi"] - 2.0) < 1e-12
    lines = (tmp_path / "cfgout" / "pulse.csv").read_text().strip().splitlines()
    assert len(lines) == 257   # samples honored from the file


@pytest.mark.parametrize("bad", [{"delta": "abc"}, {"samples": "many"}])
def test_config_value_types_are_checked(tmp_path, capsys, bad):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(bad))
    code = run_cli("synthesize", "--config", str(cfg), "--target", "zrot:1.0",
                   "--out", str(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and next(iter(bad)) in err


def test_config_round_trip():
    cfg = RunConfig(command="synthesize", target="zrot:1.0", delta=0.5)
    assert RunConfig.from_json(dataclasses.asdict(cfg)) == cfg


def test_config_rejects_unknown_keys():
    from su2pulse import DomainError
    with pytest.raises(DomainError):
        RunConfig.from_json({"command": "synthesize", "bogus": 1})


def test_omega_max_physical_units(tmp_path, capsys):
    code = run_cli("synthesize", "--target", "zrot:1.0", "--omega-max", "1e6",
                   "--out", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert "tf_physical" in out
    header = json.loads((tmp_path / "pulse.json").read_text())
    assert header["omega_max"] == 1e6


def _run_cli_process(*args):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = os.path.dirname(os.path.dirname(su2pulse.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-m", "su2pulse.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_sweep_angle_runs_are_byte_identical(tmp_path):
    # two fresh interpreters, at the default 721 angles
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        proc = _run_cli_process("sweep-angle", "--axis", "0.3,-0.4,0.866", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    a, b = ((out / "sweep_angle.csv").read_bytes() for out in outs)
    assert a == b and a.count(b"\n") == 722


@pytest.mark.parametrize("delta", ["inf", "-inf", "nan"])
def test_non_finite_delta_is_a_usage_error(tmp_path, delta):
    proc = _run_cli_process("synthesize", "--target", "euler:0.4,1.1,0.2",
                            f"--delta={delta}", "--out", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "finite" in proc.stderr


@pytest.mark.parametrize("args", [
    ("synthesize", "--target", "euler:0.4,1.2,1.1", "--delta", "1e308"),
    ("sweep-detuning", "--target", "euler:0.4,2.2689,0.3",
     "--delta-min", "1e308", "--delta-max", "1.7e308"),
])
def test_detuning_whose_phase_overflows_is_a_usage_error(tmp_path, capsys, args):
    # 2 |delta| pi overflows: this ended in an OverflowError traceback
    assert run_cli(*args, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "delta = 1e+308" in err


def test_detuning_past_any_sample_count_is_a_usage_error(tmp_path, capsys):
    # the aliasing hint quoted a 306-digit --samples count here
    assert run_cli("synthesize", "--target", "euler:0.4,1.2,1.1", "--delta", "1e307",
                   "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "delta = 1e+307" in err and "--samples" not in err


def test_aliasing_hint_past_float_resolution_names_delta(tmp_path, capsys):
    # at delta = 1e17 the least count that passes the aliasing check is
    # about 3.8e16, past 2**53; the hint quoted 38197186342054882, which
    # failed the same check. At 1e14 the quoted count passes it
    target = ("synthesize", "--target", "euler:0.4,1.2,1.1", "--out", str(tmp_path))
    assert run_cli(*target, "--delta", "1e17") == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "delta = 1e+17 is out of range" in err
    assert "--samples" not in err
    assert run_cli(*target, "--delta", "1e14") == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    n = int(err.split("--samples ")[1].split()[0])
    law = su2pulse.synthesize(su2pulse.parse_target("euler:0.4,1.2,1.1"), 1e14, verify=False).law
    turn = abs(2.0 * law.p2 + 2.0 * law.delta) * law.tf / math.pi
    assert turn / (n - 1) < 1.0 <= turn / (n - 2)


def test_verify_rejects_nan_pulse_row(tmp_path):
    run_cli("synthesize", "--target", "zrot:1.5", "--out", str(tmp_path))
    csv_path = tmp_path / "pulse.csv"
    lines = csv_path.read_text().strip().splitlines()
    lines[5] = "nan,nan,nan"
    csv_path.write_text("\n".join(lines) + "\n")
    assert run_cli("verify", str(csv_path)) == 2


def test_phase_aliasing_needs_more_samples(tmp_path):
    # delta = 1e4 turns the drive phase by about 5.9 rad per default sample
    target = ("--target", "euler:0.4,1.2,1.1", "--delta", "1e4")
    proc = _run_cli_process("synthesize", *target, "--out", str(tmp_path / "a"))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "--samples" in proc.stderr
    out = tmp_path / "b"
    proc = _run_cli_process("synthesize", *target, "--samples", "8192", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    proc = _run_cli_process("verify", str(out / "pulse.csv"))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("args", [
    ("synthesize", "--target", "zrot:1.0", "--omega-max", "nan"),
    ("synthesize", "--target", "zrot:1.0", "--omega-max", "inf"),
    ("synthesize", "--target", "zrot:1.0", "--omega-max", "-1"),
    ("synthesize", "--target", "zrot:1.0", "--omega-max", "0"),
    ("synthesize", "--target", "zrot:1.0", "--tol", "-1"),
    ("synthesize", "--target", "zrot:1.0", "--tol", "nan"),
    ("synthesize", "--target", "zrot:1.0", "--tol", "0"),
])
def test_scale_and_tolerance_must_be_finite_and_positive(tmp_path, capsys, args):
    # nan went into pulse.json as NaN (not JSON), -1 gave negative seconds,
    # 0 dropped the physical time, and a bad --tol failed every command
    assert run_cli(*args, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and args[3] in err
    assert not (tmp_path / "pulse.json").exists()


@pytest.mark.parametrize("key,value", [("omega_max", -2.0), ("tol", 0.0)])
def test_config_scale_and_tolerance_are_checked(tmp_path, capsys, key, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    assert run_cli("synthesize", "--config", str(cfg), "--target", "zrot:1.0",
                   "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "--" + key.replace("_", "-") in err


# counts past np.iinfo(np.intp).max (sys.maxsize), which numpy refuses
# before allocating; from 2**62 on, a float64 array of that length is past
# it in bytes, which numpy refuses too
_HUGE = str(sys.maxsize + 1)
_COUNT_FLAGS = [("synthesize", "--target", "zrot:1.0", "--samples"),
                ("sweep-angle", "--alpha-steps"),
                ("sweep-detuning", "--target", "euler:0.4,2.2,0.3", "--delta-steps")]


@pytest.mark.parametrize("args", [
    ("synthesize", "--target", "zrot:1.0", "--samples", _HUGE),
    ("synthesize", "--target", "zrot:1.0", "--samples", "100000000000000000000"),
    ("sweep-angle", "--alpha-steps", "100000000000000000000"),
    ("sweep-detuning", "--target", "euler:0.4,2.2,0.3", "--delta-steps", "100000000000000000000"),
    ("sweep-angle", "--alpha-steps", "0"),
    ("sweep-angle", "--alpha-steps", "-3"),
    ("sweep-detuning", "--target", "euler:0.4,2.2,0.3", "--delta-steps", "1"),
    ("synthesize", "--target", "zrot:0", "--samples", "-5"),
    ("synthesize", "--target", "zrot:1", "--samples", "-5"),
    ("synthesize", "--target", "zrot:1", "--samples", "1"),
] + [(*flag, str(n)) for flag in _COUNT_FLAGS for n in (2 ** 62, sys.maxsize)])
def test_counts_out_of_range_are_usage_errors(tmp_path, capsys, args):
    # too large ended in a numpy ValueError traceback; too small was clamped,
    # or for --samples wrote a header-only pulse (identity target) or failed
    # without naming the flag
    assert run_cli(*args, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and args[-2] in err
    assert not list(tmp_path.iterdir())


_ALLOCATION = MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(1000000000000,) and data type float64")


@pytest.mark.parametrize("command, module, name, exc, line", [
    ("synthesize", dynamics, "schedule_from_law", _ALLOCATION, "error: Unable to allocate"),
    ("sweep-angle", so3, "sweep_rotation_angle", _ALLOCATION, "error: Unable to allocate"),
    ("sweep-detuning", detuned, "tdiff_analysis", _ALLOCATION, "error: Unable to allocate"),
    ("sweep-angle", so3, "sweep_rotation_angle", MemoryError(), "error: out of memory\n"),
])
def test_an_allocation_that_fails_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                    command, module, name, exc, line):
    # a count numpy can size but the host cannot hold ended in numpy's
    # _ArrayMemoryError traceback; the allocation here is a stand-in that raises
    def allocate(*args, **kwargs):
        raise exc

    monkeypatch.setattr(module, name, allocate)
    args = [flag for flag in _COUNT_FLAGS if flag[0] == command][0][:-1]
    assert run_cli(*args, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith(line)


_BIG = "1" + "0" * 400                  # an int past the float range
_LONG = "9" * 5000                      # past Python's default digit limit


@pytest.mark.parametrize("text", [
    pytest.param('{"delta": %s}' % _BIG, id="delta-past-float-range"),
    pytest.param('{"tol": %s}' % _BIG, id="tol-past-float-range"),
    pytest.param('{"omega_max": %s}' % _BIG, id="omega-max-past-float-range"),
    pytest.param('{"delta": %s}' % _LONG, id="int-past-digit-limit"),
])
def test_config_number_out_of_range_is_a_usage_error(tmp_path, capsys, text):
    # each ended in an OverflowError or ValueError traceback
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    assert run_cli("synthesize", "--config", str(cfg), "--target", "zrot:1.0",
                   "--out", str(tmp_path)) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    pytest.param('{"delta": %s}' % _BIG, id="delta-past-float-range"),
    pytest.param('{"delta": 0.0, "target": {"psi": %s, "theta": 0.0, "phi": 0.0}}' % _BIG,
                 id="target-past-float-range"),
    pytest.param('{"delta": %s}' % _LONG, id="int-past-digit-limit"),
])
def test_pulse_header_number_out_of_range_is_a_usage_error(tmp_path, capsys, text):
    # each ended in an OverflowError or ValueError traceback
    assert run_cli("synthesize", "--target", "zrot:1.0", "--out", str(tmp_path)) == 0
    (tmp_path / "pulse.json").write_text(text)
    capsys.readouterr()
    assert run_cli("verify", str(tmp_path / "pulse.csv")) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ("synthesize", "--target", "euler:0.4,1.2,1.1", "--delta", "-1e-3"),
    ("synthesize", "--target", "zrot:1.0", "--delta", "-2.5E+0", "--samples", "64"),
    ("sweep-detuning", "--target", "euler:0.4,2.2689,0.3", "--delta-min", "-1e1",
     "--delta-max", "-.5", "--delta-steps", "41"),
    ("sweep-angle", "--axis", "-1,0,0", "--alpha-steps", "37"),
    ("sweep-angle", "--axis", "-0.3,-0.4,0.866", "--alpha-steps", "37"),
    # rejected values must reach the option's own check, not argparse's
    ("synthesize", "--target", "zrot:1.0", "--tol", "-1e-6"),
    ("synthesize", "--target", "zrot:1.0", "--omega-max", "-1e3"),
])
def test_negative_values_take_the_spaced_and_joined_spellings(tmp_path, capsys, args):
    # argparse read a value such as -1e-3 or -1,0,0 after its flag as an
    # option ("expected one argument"); only --flag=value worked
    def run(joined):
        argv = []
        for a in args:
            if joined and a[:1] == "-" and a[1:2] != "-":
                argv[-1] += "=" + a
            else:
                argv.append(a)
        out = tmp_path / ("joined" if joined else "spaced")
        code = run_cli(*argv, "--out", str(out))
        text = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        return code, text.out.replace(str(out), "OUT"), text.err, files

    spaced = run(False)
    assert spaced == run(True)
    if "--tol" in args or "--omega-max" in args:
        assert spaced[0] == 2 and "must be finite and > 0" in spaced[2]
    else:
        assert spaced[0] == 0 and spaced[3]


def test_sweep_detuning_past_the_crossing_cap_is_a_usage_error(tmp_path, capsys):
    # the grid to +-1e12 would list over 1e11 predicted zero crossings
    assert run_cli("sweep-detuning", "--target", "euler:0.4,2.2689,0.3",
                   "--delta-min", "-1e12", "--delta-max", "1e12", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "predicted zero crossings" in err
    assert not (tmp_path / "tdiff.csv").exists()


@pytest.mark.parametrize("args", [
    ("so3-select", "--target", "euler:0.4,1.2,1.1", "--delta", "7"),
    ("so3-select", "--target", "euler:0.4,1.2,1.1", "--delta=7"),
    ("sweep-detuning", "--target", "euler:0.4,2.2689,0.3", "--delta", "7"),
    ("sweep-detuning", "--target", "euler:0.4,2.2689,0.3", "--delta=-7"),
])
def test_delta_is_a_synthesize_option_only(tmp_path, capsys, args):
    # both commands once accepted --delta and ignored it
    with pytest.raises(SystemExit) as exc:
        run_cli(*args, "--out", str(tmp_path))
    assert exc.value.code == 2
    assert "--delta" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_synthesize_takes_every_delta_spelling(tmp_path, capsys):
    def run(*spelling, config=None):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        extra = ()
        if config is not None:
            out.mkdir()
            (out / "cfg.json").write_text(json.dumps(config))
            extra = ("--config", str(out / "cfg.json"))
        code = run_cli("synthesize", "--target", "euler:0.4,1.2,1.1", *spelling, *extra,
                       "--out", str(out))
        text = capsys.readouterr().out.replace(str(out), "OUT")
        files = {n: (out / n).read_bytes() for n in ("pulse.csv", "pulse.json", "trajectory.csv")}
        return code, text, files

    for value in ("0.6", "-0.6"):
        want = run(f"--delta={value}")
        assert want[0] == 0 and json.loads(want[2]["pulse.json"])["delta"] == float(value)
        for spelling in (("--delta", value), ("--delt", value), (f"--delt={value}",)):
            assert run(*spelling) == want, spelling
        assert run(config={"delta": float(value)}) == want
        assert run(f"--delta={value}", config={"delta": 2.0}) == want
    assert run()[2] == run("--delta", "0")[2] != run("--delta", "0.6")[2]


# the options each command reads, as README lists them; propagate and
# verify also read a --config delta, the detuning of a pulse CSV that has
# no pulse.json
READS = {
    "synthesize": {"target", "delta", "out", "tol", "samples", "omega_max"},
    "propagate": {"pulse"},
    "verify": {"pulse", "tol"},
    "sweep-angle": {"out", "axis", "alpha_steps"},
    "sweep-detuning": {"target", "out", "delta_min", "delta_max", "delta_steps"},
    "so3-select": {"target"},
}
CONFIG_ONLY = {"propagate": {"delta"}, "verify": {"delta"}}
OPTION_VALUES = {"target": "euler:0.4,2.2689,0.3", "delta": 0.5, "tol": 1e-3, "samples": 64,
                 "omega_max": 1e6, "axis": "x", "alpha_steps": 5, "delta_min": -1.0,
                 "delta_max": 1.0, "delta_steps": 5}


def _run_options(tmp_path, capsys, command, flags, config=None, sidecar=True):
    """(exit code, stdout, stderr, files written) of command with the
    RunConfig keys in flags given as flags and those in config through
    --config. An "out" value, by either route, is the run's own output
    directory, and "pulse" a pulse CSV synthesized at delta = 0.5, with
    its pulse.json when sidecar."""
    run = tmp_path / f"run{len(list(tmp_path.glob('run*')))}"
    run.mkdir()
    pulse = run / "pulse" / "pulse.csv"
    if "pulse" in {**flags, **(config or {})}:
        assert run_cli("synthesize", "--target", "euler:0.4,1.1,0.2", "--delta", "0.5",
                       "--samples", "64", "--out", str(pulse.parent)) == 0
        if not sidecar:
            (run / "pulse" / "pulse.json").unlink()
    value = {"out": str(run / "out"), "pulse": str(pulse)}
    argv = [command]
    for key, v in flags.items():
        v = value.get(key, v)
        argv += [v] if key == "pulse" else ["--" + key.replace("_", "-"), str(v)]
    if config is not None:
        (run / "cfg.json").write_text(json.dumps({k: value.get(k, v) for k, v in config.items()}))
        argv += ["--config", str(run / "cfg.json")]
    capsys.readouterr()
    code = run_cli(*argv)
    text = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in (run / "out").glob("*")}
    return code, text.out.replace(str(run), "RUN"), text.err, files


def _needs(command):
    """The options command needs to run."""
    return {k: OPTION_VALUES.get(k) for k in ("target", "pulse") if k in READS[command]}


@pytest.mark.parametrize("command", sorted(READS))
def test_options_a_command_does_not_read_exit_2(tmp_path, capsys, command):
    # every command took --out, --tol, --samples and --omega-max, and
    # --config took every RunConfig key for every command, read or not
    keys = [f.name for f in dataclasses.fields(RunConfig)]
    unread = [k for k in keys if k not in READS[command]]
    assert unread
    for key in unread:
        if key not in ("command", "pulse"):
            with pytest.raises(SystemExit) as exc:
                _run_options(tmp_path, capsys, command, {**_needs(command), key: OPTION_VALUES.get(key)})
            assert exc.value.code == 2, key
            assert "--" + key.replace("_", "-") in capsys.readouterr().err, key
        if key == "command" or key in CONFIG_ONLY.get(command, ()):
            continue
        code, out, err, files = _run_options(tmp_path, capsys, command, _needs(command),
                                             {key: OPTION_VALUES.get(key)})
        assert code == 2 and not out and not files, key
        assert "Traceback" not in err and repr(key) in err and command in err, (key, err)


@pytest.mark.parametrize("command", sorted(c for c in READS if READS[c] - {"pulse"}))
def test_options_a_command_reads_work_by_flag_and_by_config(tmp_path, capsys, command):
    for key in sorted(READS[command] - {"pulse"}):
        flags = {**_needs(command), **({"out": None} if "out" in READS[command] else {})}
        value = {key: flags.pop(key, OPTION_VALUES.get(key))}
        by_flag = _run_options(tmp_path, capsys, command, {**flags, **value})
        by_config = _run_options(tmp_path, capsys, command, flags, value)
        assert by_flag == by_config, key
        assert by_flag[0] == 0 and by_flag[1], key


@pytest.mark.parametrize("command", sorted(READS))
def test_a_config_command_key_must_name_the_command_run(tmp_path, capsys, command):
    # a RunConfig saved through dataclasses.asdict carries its command
    flags = {**_needs(command), **({"out": None} if "out" in READS[command] else {})}
    plain = _run_options(tmp_path, capsys, command, flags)
    assert plain[0] == 0
    assert _run_options(tmp_path, capsys, command, flags, {"command": command}) == plain
    other = next(c for c in sorted(READS) if c != command)
    code, out, err, files = _run_options(tmp_path, capsys, command, flags, {"command": other})
    assert code == 2 and not out and not files, err
    assert "Traceback" not in err and repr(other) in err and command in err, err


@pytest.mark.parametrize("command", ["propagate", "verify"])
def test_config_delta_is_the_detuning_of_a_bare_pulse_csv(tmp_path, capsys, command):
    pulse = {"pulse": None}
    with_sidecar = _run_options(tmp_path, capsys, command, pulse)
    bare = _run_options(tmp_path, capsys, command, pulse, {"delta": 0.5}, sidecar=False)
    if command == "verify":
        # without its pulse.json a pulse has no target record to verify against
        assert with_sidecar[0] == 0
        assert bare[0] == 2 and "lacks a target record" in bare[2]
        return
    assert bare == with_sidecar and bare[0] == 0
    assert _run_options(tmp_path, capsys, command, pulse, sidecar=False)[1] != bare[1]
