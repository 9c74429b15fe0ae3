"""The shared root finders: bracketed bisection and the mod-4pi root scan."""
import math

import numpy as np
import pytest

from su2pulse import NoConvergence
from su2pulse.resonant import _bisect, _roots_mod_4pi

FOUR_PI = 4.0 * math.pi


def _call(g, a, b, tol, **kw):
    return _bisect(g, a, b, g(a), g(b), tol, **kw)


@pytest.mark.parametrize("g", [lambda x: x * x - 2.0, lambda x: 2.0 - x * x],
                         ids=["increasing", "decreasing"])
def test_bisect_interior_root(g):
    x = _call(g, 0.0, 3.0, 1e-12)
    assert abs(x - math.sqrt(2.0)) < 1e-11


@pytest.mark.parametrize("a, b", [(1.0, 3.0), (-2.0, 1.0)])
def test_bisect_root_at_an_end(a, b):
    calls = []

    def g(x):
        calls.append(x)
        return x - 1.0

    assert _bisect(g, a, b, a - 1.0, b - 1.0, 1e-12) == 1.0
    assert calls == []          # an end that meets tol is returned unevaluated


def test_bisect_unbracketed_raises():
    with pytest.raises(NoConvergence):
        _call(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12)
    with pytest.raises(NoConvergence):
        _call(lambda x: 5.0 - x, 0.0, 4.0, 1e-12)


def test_bisect_slack_admits_a_near_miss():
    # the bracket misses the root by 5e-10 at its left end
    g = lambda x: -x - 5e-10
    with pytest.raises(NoConvergence):
        _call(g, 0.0, 1.0, 1e-12)
    assert abs(_call(g, 0.0, 1.0, 1e-12, slack=1e-9)) < 1e-14


def test_bisect_zero_tolerance_reaches_float_resolution():
    x = _call(lambda t: math.cos(t), 1.0, 2.0, 0.0)
    assert abs(x - math.pi / 2.0) < 1e-15


def test_scan_finds_every_root_mod_4pi():
    # f(x) = 3x passes psi = 1 + 4 pi k at x = (1 + 4 pi k) / 3
    f = lambda x: 3.0 * x
    xs = np.linspace(-5.0, 5.0, 801)
    roots = _roots_mod_4pi(f, xs, 3.0 * xs, 1.0, 1e-13)
    want = [(1.0 + FOUR_PI * k) / 3.0 for k in (-1, 0, 1)]
    assert np.allclose(roots, want, atol=1e-12)


def test_scan_skips_wrap_jumps():
    # the wrapped mismatch of f(x) = 3x - 1 jumps from +2pi to -2pi at
    # x = (1 + 2 pi) / 3; a jump is no root, only the zeros at (1 + 4 pi k) / 3
    xs = np.linspace(0.0, 4.0, 400)
    roots = _roots_mod_4pi(lambda x: 3.0 * x, xs, 3.0 * xs, 1.0, 1e-13)
    assert len(roots) == 1 and abs(roots[0] - 1.0 / 3.0) < 1e-12
    assert xs[0] < (1.0 + 2.0 * math.pi) / 3.0 < xs[-1]    # the jump is on the grid


def test_scan_returns_an_exact_grid_zero():
    xs = np.linspace(-1.0, 1.0, 5)                    # contains 0.5 exactly
    calls = []

    def f(x):
        calls.append(x)
        return x

    assert _roots_mod_4pi(f, xs, xs, 0.5, 1e-12) == [0.5]
    assert calls == []
