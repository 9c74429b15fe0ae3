import json
import math
import os
import subprocess
import sys

import pytest

import su2pulse
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
    assert RunConfig.from_json(cfg.to_json()) == cfg


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


@pytest.mark.parametrize("delta", ["inf", "-inf", "nan"])
def test_non_finite_delta_is_a_usage_error(tmp_path, delta):
    proc = _run_cli_process("synthesize", "--target", "euler:0.4,1.1,0.2",
                            f"--delta={delta}", "--out", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "finite" in proc.stderr


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
