import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

from lacuna.bump import bump_value, standard_bump
from lacuna.errors import BumpUncertifiedError


def mpmath_fourier(y: float) -> float:
    """Ff(y) from 30-digit tanh-sinh quadrature, split at quarter periods,
    normalized by its own mass; shares nothing with the trapezoid rule."""
    def g(x):
        return mp.exp(-1 / (1 - x**2))

    with mp.workdps(30):
        mass = mp.quad(g, [0, 1])
        pts = mp.linspace(0, 1, int(4 * y) + 2)
        return float(mp.quad(lambda x: g(x) * mp.cos(2 * mp.pi * x * y), pts) / mass)


@pytest.fixture(scope="session")
def bump():
    return standard_bump()


class TestBumpFunction:
    def test_support(self, bump):
        assert bump_value(1.0) == 0.0
        assert bump_value(-1.5) == 0.0
        assert bump_value(0.999) > 0.0

    def test_even(self, bump):
        xs = np.linspace(0, 0.99, 50)
        assert np.allclose(bump_value(xs), bump_value(-xs), rtol=0, atol=0)

    def test_peak_value(self, bump):
        # f(0) = c * e^-1
        assert bump_value(0.0) == pytest.approx(bump.normalization / math.e, rel=1e-14)

    def test_mass_certified(self, bump):
        assert bump.mass_residual < 1e-20

    def test_mass_by_independent_quadrature(self, bump):
        xs = np.linspace(-1, 1, 200001)
        total = np.trapezoid(bump_value(xs), xs)
        assert total == pytest.approx(1.0, abs=1e-8)


class TestFourierTransform:
    def test_at_zero(self, bump):
        assert bump.fourier(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_by_one(self, bump):
        ys = np.linspace(0, bump.grid_max, 4001)
        assert np.max(np.abs(bump.fourier(ys))) <= 1.0 + 1e-12

    def test_even(self, bump):
        ys = np.linspace(0.1, 20, 100)
        assert np.allclose(bump.fourier(ys), bump.fourier(-ys), rtol=0, atol=0)

    def test_matches_direct_quadrature(self, bump):
        xs = np.linspace(-1, 1, 400001)
        for y in (0.5, 1.7, 6.25):
            direct = np.trapezoid(bump_value(xs) * np.cos(2 * np.pi * xs * y), xs)
            assert bump.fourier(y) == pytest.approx(direct, abs=1e-9)

    def test_zero_beyond_grid(self, bump):
        assert bump.fourier(bump.grid_max + 1) == 0.0

    def test_decay_envelope(self, bump):
        ys = np.arange(1.0, bump.grid_max, 0.25)
        vals = np.abs(bump.fourier(ys))
        bounds = np.array([bump.tail_bound(y) for y in ys])
        assert np.all(vals <= bounds)

    def test_tail_actually_small(self, bump):
        assert bump.tail_bound(60.0) < 1e-7

    def test_tail_bound_holds_beyond_the_sampled_range(self, bump):
        # the envelope constant is sampled on [1, 96] only; past it the bound
        # rests on the decay rate, which must match Ff's (|Ff(120)| = 4.05e-14)
        assert abs(mpmath_fourier(120.0)) <= bump.tail_bound(120.0)

    @pytest.mark.parametrize("y", [0.0, 1 / 1024, 0.5, 1.7, 10.0, 50.0])
    def test_grid_matches_mpmath_reference(self, bump, y):
        assert abs(bump.fourier(y) - mpmath_fourier(y)) < 1e-13


class TestSelfCheck:
    def test_underresolved_table_raises_coded_error(self, bump):
        with pytest.raises(BumpUncertifiedError) as info:
            standard_bump(nodes=16)
        assert info.value.code == "bump-uncertified"
        assert info.value.detail["check"].startswith("drift")
        assert info.value.detail["value"] > info.value.detail["bound"] == 1e-12
        # a raising call is not cached: the default build stays in place
        assert standard_bump() is bump

    def test_checks_survive_optimized_mode(self):
        code = (
            "from lacuna.bump import standard_bump\n"
            "from lacuna.errors import BumpUncertifiedError\n"
            "try:\n"
            "    standard_bump(nodes=16)\n"
            "except BumpUncertifiedError as exc:\n"
            "    print(exc.code)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "bump-uncertified"
