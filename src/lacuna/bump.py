"""The standard mollifier bump and its tabulated Fourier transform.

f(x) = c * exp(-1/(1-x^2)) on (-1,1), zero outside, with c chosen so the mass
is 1.  The transform Ff(y) = int f(x) cos(2 pi x y) dx is real and even; it is
tabulated on a uniform grid (step 1/512, up to y = 96) by the trapezoid rule
and interpolated with a cubic spline clamped to Ff'(0) = 0 (Ff is even) at
y = 0 and not-a-knot at y = 96.

Why the trapezoid rule: f is C-infinity and every derivative vanishes at +-1,
so all Euler-Maclaurin end corrections are zero and the rule converges faster
than any power of the step h (Trefethen & Weideman, "The exponentially
convergent trapezoidal rule", SIAM Rev. 56, 2014).  By Poisson summation its
error at frequency y is pure aliasing, sum over k != 0 of Ff(k/h -+ y), led by
|Ff(1/h - y)| ~ exp(-sqrt(4 pi (1/h - y))).  The nodes are the interior points
x_j = -1 + j h, j = 1..nodes-1, with h = 2/nodes; ``nodes`` counts intervals.

Error budget at the defaults (512 intervals, so 1/h = 256 and 1/h - y >= 160):
  * quadrature: aliasing ~exp(-sqrt(4 pi 160)) ~ 4e-20, below the ~1e-16
    rounding of the 511-term sum;
  * interpolation: off the grid the cubic spline on step 1/512 dominates.
    Measured at cell midpoints against the rule itself it is below 7e-13 for
    y >= 2, 1.4e-12 on [1, 2], 2.9e-12 on [0.1, 1] and 3.1e-12 on [0, 0.1]
    (a not-a-knot end at y = 0, which ignores Ff'(0) = 0, gave 3.1e-11 there);
  * normalization: the mass is certified at 30 digits (residual < 1e-20).
standard_bump() enforces the grid values: it checks the mass residual,
re-runs the rule with twice the intervals on a probe grid (drift < 1e-12),
and checks |Ff(0) - 1| < 1e-13 and |Ff| <= 1 + 1e-12, raising
BumpUncertifiedError when a check fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.interpolate import CubicSpline

from .errors import BumpUncertifiedError

_MASS_DPS = 30
_GRID_STEP = 1.0 / 512.0
_GRID_MAX = 96.0
_TRAPEZOID_INTERVALS = 512
# |Ff(y)| decays like exp(-sqrt(4 pi y)) up to algebraic factors
_DECAY_RATE = math.sqrt(4.0 * math.pi)


@lru_cache(maxsize=1)
def _normalization() -> tuple[float, float]:
    """(c, certified |c * integral - 1|) at 30 significant digits."""
    with mp.workdps(_MASS_DPS):
        integral = mp.quad(lambda x: mp.e ** (-1 / (1 - x**2)), [-1, 1])
        c = 1 / integral
        residual = abs(c * integral - 1)
        return float(c), float(residual)


def bump_value(x):
    """f(x), vectorized; exactly zero outside (-1, 1)."""
    c, _ = _normalization()
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = c * np.exp(-1.0 / (1.0 - xi * xi))
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class BumpFunction:
    normalization: float
    mass_residual: float
    grid_step: float
    grid_max: float
    decay_rate: float
    envelope_constant: float
    _spline: CubicSpline

    def value(self, x):
        return bump_value(x)

    def fourier(self, y):
        """Ff(y); even, clipped to zero beyond the tabulated range."""
        y = np.abs(np.asarray(y, dtype=float))
        out = np.where(y <= self.grid_max, self._spline(np.minimum(y, self.grid_max)), 0.0)
        if out.ndim == 0:
            return float(out)
        return out

    def tail_bound(self, y: float) -> float:
        """Envelope C * exp(-rate * sqrt(y)), verified against the table."""
        if y <= 0:
            return 1.0
        return self.envelope_constant * math.exp(-self.decay_rate * math.sqrt(y))


def _fourier_table(c: float, ys: np.ndarray, nodes: int) -> np.ndarray:
    """Ff at ys by the trapezoid rule with ``nodes`` intervals on [-1, 1];
    the end nodes carry f = 0 and are left out."""
    h = 2.0 / nodes
    x = -1.0 + h * np.arange(1, nodes)
    wf = h * c * np.exp(-1.0 / (1.0 - x * x))
    out = np.empty_like(ys)
    chunk = 4096
    for i in range(0, len(ys), chunk):
        block = ys[i : i + chunk]
        out[i : i + chunk] = wf @ np.cos(2.0 * np.pi * np.outer(x, block))
    return out


def _require(holds: bool, check: str, value: float, bound: float) -> None:
    if not holds:
        raise BumpUncertifiedError(check, value, bound)


@lru_cache(maxsize=1)
def standard_bump(grid_max: float = _GRID_MAX, nodes: int = _TRAPEZOID_INTERVALS) -> BumpFunction:
    c, residual = _normalization()
    _require(residual < 1e-20, "mass residual", residual, 1e-20)
    ys = np.arange(0.0, grid_max + _GRID_STEP / 2, _GRID_STEP)
    table = _fourier_table(c, ys, nodes)
    # quadrature self-check: doubling the interval count must not move the table
    step = len(ys) // 16 or 1
    drift = float(np.max(np.abs(_fourier_table(c, ys[::step], 2 * nodes) - table[::step])))
    _require(drift < 1e-12, "drift under interval doubling", drift, 1e-12)
    at_zero = abs(float(table[0]) - 1.0)
    _require(at_zero < 1e-13, "|Ff(0) - 1|", at_zero, 1e-13)
    peak = float(np.max(np.abs(table)))
    _require(peak <= 1.0 + 1e-12, "max |Ff|", peak, 1.0 + 1e-12)
    with np.errstate(divide="ignore"):
        mask = ys >= 1.0
        env = float(np.max(np.abs(table[mask]) * np.exp(_DECAY_RATE * np.sqrt(ys[mask]))))
    env = max(env, 1.0)
    return BumpFunction(
        normalization=c,
        mass_residual=residual,
        grid_step=_GRID_STEP,
        grid_max=float(grid_max),
        decay_rate=_DECAY_RATE,
        envelope_constant=env * 1.01,
        _spline=CubicSpline(ys, table, bc_type=((1, 0.0), "not-a-knot")),
    )
