import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import su2pulse
from su2pulse import NoConvergence, NoStationaryPoint, StepTooLarge, TargetUnreached, resonant
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
    assert run_cli(command, "--out", str(tmp_path)) == 2
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
# before allocating
_HUGE = str(sys.maxsize + 1)


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
])
def test_counts_out_of_range_are_usage_errors(tmp_path, capsys, args):
    # too large ended in a numpy ValueError traceback; too small was clamped,
    # or for --samples wrote a header-only pulse (identity target) or failed
    # without naming the flag
    assert run_cli(*args, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and args[-2] in err
    assert not list(tmp_path.iterdir())


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
