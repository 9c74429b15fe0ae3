"""The CSV files are written as whole formatted blocks and the pulse file is
read in one numpy conversion; both must reproduce the former per-row code
(the oracles in conftest) byte for byte and error for error, and every
field must be Python's '%.17g' text of its value."""
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    read_pulse_csv_oracle,
    trajectory_point,
    trajectory_point_oracle,
    write_pulse_csv_oracle,
    write_sweep_csv_oracle,
    write_tdiff_csv_oracle,
    write_trajectory_csv_oracle,
)

from su2pulse import (
    DomainError,
    ExtremalLaw,
    PulseSchedule,
    gate_from_euler,
    parse_target,
    read_pulse_csv,
    schedule_from_law,
    synthesize,
    sweep_rotation_angle,
    tdiff_analysis,
    write_pulse_csv,
    write_trajectory_csv,
)
from su2pulse.detuned import write_tdiff_csv
from su2pulse.dynamics import _CSV_BLOCK, _trajectory_rows, write_csv
from su2pulse.so3 import write_sweep_csv


def _seeded_laws():
    """20 laws each with p2 < 0, p2 = 0 and p2 > 0; every other one
    detuned; durations up to three revolutions of the circle."""
    rng = np.random.default_rng(5226)
    laws = []
    for sign in (-1.0, 0.0, 1.0):
        for i in range(20):
            p2 = sign * float(rng.uniform(0.01, 3.0))
            delta = float(rng.uniform(-3.0, 3.0)) if i % 2 else 0.0
            sin_bar = math.sin(math.atan2(1.0, p2))
            tf = float(rng.uniform(0.0, 3.0)) * math.pi * sin_bar
            laws.append(ExtremalLaw(float(rng.uniform(-math.pi, math.pi)), p2, delta, tf))
    return laws


def _revolution_laws():
    """Laws that end on the pole after whole revolutions (eta = 2 pi k)."""
    laws = [synthesize(parse_target(spec)).law for spec in ("zrot:6.283185307179586", "zrot:-5")]
    laws.append(synthesize(parse_target("zrot:-5"), delta=0.7).law)
    for p2 in (-0.7, 0.0, 0.7):
        sin_bar = math.sin(math.atan2(1.0, p2))
        laws += [ExtremalLaw(0.3, p2, 0.4, k * math.pi * sin_bar) for k in (1, 2)]
    return laws


SEEDED = _seeded_laws()
REVOLUTIONS = _revolution_laws()
ZERO = ExtremalLaw(0.3, 0.5, 0.2, 0.0)


def test_revolution_laws_end_on_whole_turns():
    for law in REVOLUTIONS:
        eta = 2.0 * law.tf / math.sin(math.atan2(1.0, law.p2))
        turns = eta / (2.0 * math.pi)
        assert turns > 0.5 and abs(turns - round(turns)) < 1e-9


@pytest.mark.parametrize("n_samples", [1, 2, 3, 2048])
def test_trajectory_csv_matches_per_row_oracle(tmp_path, n_samples):
    laws = SEEDED + REVOLUTIONS + [ZERO]
    if n_samples == 2048:
        laws = SEEDED[::6] + REVOLUTIONS + [ZERO]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    for law in laws:
        write_trajectory_csv(law, got, n_samples)
        write_trajectory_csv_oracle(law, want, n_samples)
        assert got.read_bytes() == want.read_bytes(), law


def test_trajectory_point_is_the_array_row():
    for law in SEEDED[::3] + REVOLUTIONS:
        ts = np.linspace(0.0, law.tf, 65)
        rows = _trajectory_rows(law, ts)
        for t, row in zip(ts.tolist(), rows.tolist()):
            tp = trajectory_point(law, t)
            mu = tp.controls[2]
            assert [tp.t, tp.euler[1], tp.euler[2], tp.euler[0], *tp.hopf,
                    math.cos(mu), math.sin(mu), tp.eta] == row
            euler, hopf, mu_want, eta = trajectory_point_oracle(law, t)
            assert (tp.euler, tp.hopf, mu, tp.eta) == (euler, hopf, mu_want, eta)


def _schedules():
    rng = np.random.default_rng(1310)
    out = [PulseSchedule(np.zeros((0, 3)), delta=0.0),
           PulseSchedule(np.array([[0.0, 1.0, 0.0]]), delta=0.0)]
    for n in (2, 3, 2048):
        t = np.sort(rng.uniform(0.0, 7.0, n))
        t[0] = 0.0
        mu = rng.uniform(-50.0, 50.0, n)
        amp = rng.uniform(0.0, 1.0, n)
        out.append(PulseSchedule(np.column_stack([t, amp * np.cos(mu), amp * np.sin(mu)]),
                                 delta=0.0))
    out += [schedule_from_law(law, 2048) for law in SEEDED[::4] + REVOLUTIONS]
    return out


def test_pulse_csv_matches_per_row_oracle(tmp_path):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    for sched in _schedules():
        write_pulse_csv(sched, got)
        write_pulse_csv_oracle(sched, want)
        assert got.read_bytes() == want.read_bytes()
        assert np.array_equal(read_pulse_csv(got).samples, sched.samples)


READER_CASES = {
    "plain": b"t,vx,vy\n0,1,0\n0.5,0.6,0.8\n1,0,1\n",
    "no final newline": b"t,vx,vy\n0,1,0\n1,0,1",
    "blank lines": b"t,vx,vy\n\n0,1,0\n   \n0.5,0.6,0.8\n\n\n",
    "crlf": b"t,vx,vy\r\n0,1,0\r\n\r\n0.5,0.6,0.8\r\n",
    "padded fields": b"t,vx,vy\n0, 1, 0\n 0.5 ,0.6,\t0.8 \n",
    "python float syntax": b"t,vx,vy\n0,1_0e-1,0\n+.5,-0.0,1E0\n",
    "nan row": b"t,vx,vy\n0,1,0\n0.5,nan,0\n",
    "inf row": b"t,vx,vy\n0,1,0\n0.5,1,-inf\n",
    "header only": b"t,vx,vy\n",
    "header only, no newline": b"t,vx,vy",
    "empty file": b"",
    "bad header": b"t,vx\n0,1\n",
    "padded header": b"t, vx, vy\n0,1,0\n",
    "non-numeric field": b"t,vx,vy\n0,1,0\n0.5,abc,0\n",
    "empty field": b"t,vx,vy\n0,1,0\n0.5,1,\n",
    "comment line": b"t,vx,vy\n# written by hand\n0,1,0\n",
    # 2 + 4 values: a multiple of 3 in total, wrong on every line
    "mixed 2- and 4-column rows": b"t,vx,vy\n0,1\n0.5,1,0,0\n",
    "one column, three lines": b"t,vx,vy\n0\n1\n0\n",
    "trailing comma": b"t,vx,vy\n0,1,0,\n",
    # a form feed is whitespace to str.strip but no line break to the file
    "form feed inside a line": b"t,vx,vy\n0,1,0\x0c0.5,1,0\n",
}


@pytest.mark.parametrize("name", list(READER_CASES))
def test_reader_matches_line_parser(tmp_path, name):
    path = tmp_path / "pulse.csv"
    path.write_bytes(READER_CASES[name])
    try:
        want = read_pulse_csv_oracle(path)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            read_pulse_csv(path)
        assert str(got.value) == str(exc)
    else:
        got = read_pulse_csv(path)
        assert got.samples.shape == want.samples.shape
        assert np.array_equal(got.samples, want.samples)
        assert np.array_equal(np.signbit(got.samples), np.signbit(want.samples))


def test_reader_names_the_faulty_line(tmp_path):
    path = tmp_path / "pulse.csv"
    path.write_bytes(READER_CASES["mixed 2- and 4-column rows"])
    with pytest.raises(DomainError, match="^line 2: expected 3 columns$"):
        read_pulse_csv(path)


def test_sweep_csv_matches_per_row_oracle(tmp_path):
    rows = sweep_rotation_angle((0.0, 1.0, 0.0), np.linspace(0.0, 4.0 * math.pi, 41))
    assert {r[3] for r in rows} == {"U", "-U"}
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_sweep_csv(rows, got)
    write_sweep_csv_oracle(rows, want)
    assert got.read_bytes() == want.read_bytes()


def test_tdiff_csv_matches_per_row_oracle(tmp_path):
    report = tdiff_analysis(gate_from_euler(0.0, 2.2689, 0.0), np.linspace(-3.0, 3.0, 41))
    assert report.events and any(report.in_X) and not all(report.in_X)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_tdiff_csv(report, got)
    write_tdiff_csv_oracle(report, want)
    assert got.read_bytes() == want.read_bytes()


# ---------------------------------------------------------------------------
# the array formatter against Python's '%.17g'
# ---------------------------------------------------------------------------

def _halfway_values(rng, count):
    """Doubles x with x 10**k = N + 1/2 exactly for a 17-digit N, where the
    formatter must round N half to even: x = M / 2**(k + 1) with M odd and
    M 5**k = 2 N + 1."""
    out = []
    for k in rng.integers(2, 21, count).tolist():
        lo, hi = -(-(2 * 10 ** 16 + 1) // 5 ** k), min((2 * 10 ** 17 - 1) // 5 ** k, 2 ** 53)
        m = int(rng.integers(lo, hi)) | 1
        x = math.ldexp(m, -(k + 1))
        n = (m * 5 ** k - 1) // 2
        assert Fraction(x) * 10 ** k == n + Fraction(1, 2) and 10 ** 16 <= n < 10 ** 17
        out.append(x)
    return out


def _stress_values():
    rng = np.random.default_rng(2101)
    bits = rng.integers(0, 2 ** 64, 6000, dtype=np.uint64, endpoint=False).view(np.float64)
    magnitudes = 10.0 ** rng.uniform(-7.0, 18.0, 6000) * rng.choice([-1.0, 1.0], 6000)
    edges = []
    for v in (1e-4, 1e16, 1e17):
        below = above = v
        for _ in range(3):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, math.inf)
            edges += [below, above]
        edges.append(v)
    powers = [10.0 ** k for k in range(-8, 23)]
    special = [0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    halfway = _halfway_values(rng, 200)
    values = np.concatenate([bits, magnitudes, edges, powers, special, halfway])
    return np.concatenate([values, -values])


def _python_text(header, table, tails=None):
    lines = [header]
    for i, row in enumerate(np.asarray(table).tolist()):
        fields = ["%.17g" % v for v in row] + ([] if tails is None else [tails[i]])
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def test_no_field_rounds_up_to_a_new_power_of_ten():
    # the formatter takes N = round(|x| 10**(16 - e10)) < 1e17 for every
    # double with floor(log10 |x|) = e10: the largest double below each
    # power of ten 10**(e10 + 1) still rounds to at most 1e17 - 8
    for e10 in range(-4, 17):
        power = Fraction(10) ** (e10 + 1)
        below = float(power)
        if Fraction(below) >= power:
            below = float(np.nextafter(below, 0.0))
        assert Fraction(below) * 10 ** (16 - e10) < 10 ** 17 - 8


def test_stress_values_cover_every_formatter_path():
    x = np.abs(_stress_values())
    fixed = (x >= 1e-4) & (x < 1e17)
    assert np.isnan(x).any() and np.isinf(x).any() and (x == 0.0).any()
    assert ((x > 0.0) & (x < 2.2250738585072014e-308)).sum() > 2      # subnormals
    assert (~fixed & (x > 0.0) & (x < 1e-4)).sum() > 500 and (x >= 1e17).sum() > 500
    assert fixed.sum() > 8000


@pytest.mark.parametrize("n_cols", [1, 3, 10])
def test_csv_fields_are_python_percent_17g(tmp_path, n_cols):
    values = _stress_values()
    values = values[:len(values) // n_cols * n_cols]
    assert values.size > 2 * _CSV_BLOCK         # several blocks
    table = values.reshape(-1, n_cols)
    path = tmp_path / "t.csv"
    write_csv(path, "h", table)
    assert path.read_text() == _python_text("h", table)
    # a text column after the floats, with Python-formatted fields at row starts
    tails = [f"{i % 2:d},row{i}" for i in range(len(table))]
    write_csv(path, "h", table, tails)
    assert path.read_text() == _python_text("h", table, tails)


def test_csv_of_an_empty_table_is_its_header(tmp_path):
    path = tmp_path / "t.csv"
    for table in (np.zeros((0, 3)), np.zeros((0, 10))):
        write_csv(path, "a,b", table)
        assert path.read_bytes() == b"a,b\n"
        write_csv(path, "a,b", table, [])
        assert path.read_bytes() == b"a,b\n"


def test_oracle_cases_hold_python_formatted_fields(tmp_path):
    # the file oracles above cover fields outside 1e-4 <= |x| < 1e17
    def python_formatted(write, case):
        path = tmp_path / "t.csv"
        write(case, path)
        return re.search(r"e-\d\d,", path.read_text()) is not None

    assert python_formatted(lambda law, path: write_trajectory_csv(law, path, 2048), SEEDED[0])
    assert any(python_formatted(write_pulse_csv, sched) for sched in _schedules())
