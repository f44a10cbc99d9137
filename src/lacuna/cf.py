"""Continued fractions: expansions, continuants, growth-rate estimates, and
exact arithmetic for quadratic irrationals.

Quadratic irrationals are carried symbolically as x + y*sqrt(d) with rational
x, y, so expansions and nearest-integer distances never hit a precision
horizon.  dist_to_int is the one nearest-integer distance on exact scalars
(Fraction or QuadraticReal): |x - j| with j = floor(x + 1/2), where a
QuadraticReal's floor is one integer floor over the common denominator of
x and y.  Dyadic inputs are expanded by the Euclidean algorithm with an
explicit horizon: quotients are only trusted while the convergent denominator
stays well below sqrt(2^precision)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dyadic import DyadicReal
from .errors import CfPrecisionExhaustedError, InsufficientDepthError

_LN2 = math.log(2)
_HALF = Fraction(1, 2)


def log_int(n: int) -> float:
    """Natural log of a positive integer of any size."""
    if n <= 0:
        raise ValueError("log of non-positive integer")
    bl = n.bit_length()
    if bl <= 900:
        return math.log(n)
    s = bl - 64
    return math.log(n >> s) + s * _LN2


# ---------------------------------------------------------------------------
# quadratic irrationals
# ---------------------------------------------------------------------------


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


@dataclass(frozen=True)
class QuadraticReal:
    """Exact element x + y*sqrt(d) of a real quadratic field (d > 0 non-square)."""

    x: Fraction
    y: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))
        if self.d <= 0 or _is_square(self.d):
            raise ValueError("d must be a positive non-square integer")

    @classmethod
    def sqrt(cls, d: int) -> "QuadraticReal":
        return cls(Fraction(0), Fraction(1), d)

    @classmethod
    def rational(cls, q, d: int) -> "QuadraticReal":
        return cls(Fraction(q), Fraction(0), d)

    def is_rational(self) -> bool:
        return self.y == 0

    # -- arithmetic ---------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, QuadraticReal):
            if other.d != self.d:
                raise ValueError("mixed quadratic fields")
            return other
        return QuadraticReal(Fraction(other), Fraction(0), self.d)

    def __add__(self, other):
        o = self._lift(other)
        return QuadraticReal(self.x + o.x, self.y + o.y, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return QuadraticReal(self.x - o.x, self.y - o.y, self.d)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __neg__(self):
        return QuadraticReal(-self.x, -self.y, self.d)

    def __mul__(self, other):
        o = self._lift(other)
        return QuadraticReal(
            self.x * o.x + self.y * o.y * self.d,
            self.x * o.y + self.y * o.x,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        norm = o.x * o.x - o.y * o.y * o.d
        if norm == 0:
            raise ZeroDivisionError
        conj = QuadraticReal(o.x, -o.y, self.d)
        num = self * conj
        return QuadraticReal(num.x / norm, num.y / norm, self.d)

    def sign(self) -> int:
        x, y = self.x, self.y
        if y == 0:
            return (x > 0) - (x < 0)
        if x == 0:
            return (y > 0) - (y < 0)
        if x > 0 and y > 0:
            return 1
        if x < 0 and y < 0:
            return -1
        # opposite signs: compare x^2 with y^2*d
        lhs, rhs = x * x, y * y * self.d
        if lhs == rhs:
            return 0
        big_x = lhs > rhs
        return (1 if x > 0 else -1) if big_x else (1 if y > 0 else -1)

    def _cmp(self, other) -> int:
        return (self - other).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except (ValueError, TypeError):
            return NotImplemented

    def __hash__(self):
        return hash((self.x, self.y, self.d))

    def _scaled_int(self, shift: int = 64) -> int:
        """floor-accurate integer approximation of self * 2**shift; exact
        integer arithmetic, so no cancellation between x and y*sqrt(d)."""
        xa = (self.x.numerator << shift) // self.x.denominator
        c, e = self.y.numerator, self.y.denominator
        if c:
            s = math.isqrt(((c * c * self.d) << (2 * shift)) // (e * e))
            xa += -s - 1 if c < 0 else s
        return xa

    def to_float(self) -> float:
        """The float nearest floor(self * 2^s) / 2^s, s = 64.  Where s = 64
        leaves fewer than 53 significant bits (below about 2^-11), s is
        raised until the scaled integer carries 64."""
        if not (self.x or self.y):
            return 0.0
        shift, m = 64, self._scaled_int(64)
        if abs(m).bit_length() < 53:
            while (bl := abs(m).bit_length()) < 64:
                shift += 65 - bl if bl > 1 else shift
                m = self._scaled_int(shift)
        return m / (1 << shift)  # int / int rounds correctly

    def floor(self) -> int:
        """floor((A + B*sqrt(d)) / C) over the common denominator C = b*e of
        x = a/b and y = c/e.  B*sqrt(d) is irrational unless B = 0, so its
        floor is one isqrt, and floor((A + floor(B*sqrt(d))) / C) is exact."""
        a, b = self.x.numerator, self.x.denominator
        c, e = self.y.numerator, self.y.denominator
        s = math.isqrt(c * c * b * b * self.d)
        return (a * e + (-s - 1 if c < 0 else s)) // (b * e)

    __floor__ = floor

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def to_dyadic(self, precision_bits: int) -> DyadicReal:
        scaled = QuadraticReal(
            self.x * (1 << precision_bits), self.y * (1 << precision_bits), self.d
        )
        return DyadicReal(scaled.floor(), -precision_bits, precision_bits)

    def __repr__(self):
        return f"QuadraticReal({self.x} + {self.y}*sqrt({self.d}))"


def dist_to_int(x):
    """||x||, the distance to the nearest integer: |x - j| with j =
    floor(x + 1/2).  Exact, and of the same type as x (QuadraticReal or
    Fraction)."""
    return abs(x - math.floor(x + _HALF))


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuedFraction:
    a0: int
    partial_quotients: tuple[int, ...]
    p: tuple[int, ...]  # p[k] = numerator of k-th convergent, k = 0..depth
    q: tuple[int, ...]  # q[k] = continuant (denominator), q[0] = 1
    rational_terminated: bool = False

    @property
    def depth(self) -> int:
        return len(self.partial_quotients)

    def convergent(self, k: int) -> Fraction:
        return Fraction(self.p[k], self.q[k])

    def to_json_dict(self) -> dict:
        return {
            "a0": self.a0,
            "partial_quotients": [str(c) for c in self.partial_quotients],
            "convergent_numerators": [str(v) for v in self.p],
            "convergent_denominators": [str(v) for v in self.q],
            "rational_terminated": self.rational_terminated,
        }


def _from_quotients(a0: int, quotients, rational_terminated=False) -> ContinuedFraction:
    quotients = tuple(int(c) for c in quotients)
    p = [a0]
    q = [1]
    pm1, qm1 = 1, 0
    for c in quotients:
        if c < 1:
            raise ValueError("partial quotients must be positive")
        p.append(c * p[-1] + pm1)
        q.append(c * q[-1] + qm1)
        pm1, qm1 = p[-2], q[-2]
    return ContinuedFraction(a0, quotients, tuple(p), tuple(q), rational_terminated)


def _expand_fraction(fr: Fraction, depth: int) -> ContinuedFraction:
    a0 = math.floor(fr)
    num, den = (fr - a0).numerator, (fr - a0).denominator
    quotients = []
    # quotients of 1/x via Euclid
    num, den = den, num
    while den != 0 and len(quotients) < depth:
        a, num = divmod(num, den)
        num, den = den, num
        quotients.append(a)
    # canonical form: avoid a trailing quotient 1 ambiguity only if present and
    # expansion is complete; keep the raw Euclid output (unique for rationals
    # with last quotient >= 2, except x integer)
    return _from_quotients(a0, quotients, rational_terminated=(den == 0))


def _expand_dyadic(x: DyadicReal, depth: int) -> ContinuedFraction:
    fr = x.to_fraction()
    a0 = math.floor(fr)
    rem = fr - a0
    horizon = 1 << max((x.precision_bits - 32) // 2, 1)
    num, den = rem.denominator, rem.numerator
    quotients = []
    qk, qk1 = 1, 0
    while len(quotients) < depth:
        if den == 0 or qk > horizon:
            raise CfPrecisionExhaustedError(
                f"cf-precision-exhausted after {len(quotients)} quotients "
                f"(precision {x.precision_bits} bits)"
            )
        a, r = divmod(num, den)
        num, den = den, r
        quotients.append(a)
        qk, qk1 = a * qk + qk1, qk
    return _from_quotients(a0, quotients)


def _expand_quadratic(x: QuadraticReal, depth: int) -> ContinuedFraction:
    if x.is_rational():
        return _expand_fraction(x.x, depth)
    a0 = x.floor()
    quotients = []
    cur = x - a0
    # Gauss map with exact field arithmetic; quotient sizes stay bounded for a
    # quadratic irrational so this is cheap at any depth
    one = QuadraticReal(Fraction(1), Fraction(0), x.d)
    seen = {}
    cycle = None
    for _ in range(depth):
        cur = one / cur
        key = (cur.x, cur.y)
        if key in seen and cycle is None:
            cycle = (seen[key], len(quotients))
        seen[key] = len(quotients)
        a = cur.floor()
        quotients.append(a)
        cur = cur - a
        if cycle is not None:
            # periodic from here; replay the cycle without field arithmetic
            start, end = cycle
            period = quotients[start:end] or quotients[start:]
            if period:
                while len(quotients) < depth:
                    quotients.append(period[len(quotients) % len(period)])
                break
    return _from_quotients(a0, quotients[:depth])


def parse_value_spec(spec: str):
    """Parse 'sqrt:2', 'quad:p,d,q' ((p+sqrt(d))/q), 'rat:3/7' or 'dec:0.7'."""
    kind, _, rest = spec.partition(":")
    if kind == "sqrt":
        return QuadraticReal.sqrt(int(rest))
    if kind == "quad":
        p, d, q = rest.split(",")
        return QuadraticReal(Fraction(int(p), int(q)), Fraction(1, int(q)), int(d))
    if kind == "rat":
        return Fraction(rest)
    if kind == "dec":
        return DyadicReal.from_fraction(
            Fraction(rest), 256
        )
    raise ValueError(f"unknown value spec {spec!r}")


def expand(x, depth: int) -> ContinuedFraction:
    """Continued-fraction expansion to the given depth.

    Accepts Fraction (exact, may terminate), QuadraticReal (exact periodic) or
    DyadicReal (horizon-checked)."""
    if depth < 1:
        raise ValueError("depth must be positive")
    if isinstance(x, str):
        x = parse_value_spec(x)
    if isinstance(x, QuadraticReal):
        return _expand_quadratic(x, depth)
    if isinstance(x, Fraction):
        return _expand_fraction(x, depth)
    if isinstance(x, DyadicReal):
        return _expand_dyadic(x, depth)
    raise TypeError(f"cannot expand {type(x).__name__}")


def lambda_estimate(cf: ContinuedFraction) -> float:
    """Running supremum of ln(q_k)/k over the available depth (nondecreasing
    in depth, dominated by small k for typical inputs)."""
    if len(cf.q) < 2:
        raise InsufficientDepthError("insufficient-depth: need >= 2 convergents")
    return max(log_int(qk) / k for k, qk in enumerate(cf.q[1:], start=1) if qk > 1 or k > 0)


def levy_rate(cf: ContinuedFraction) -> float:
    """Deepest-convergent growth rate ln(q_K)/K: the consistent estimator of
    the almost-sure continuant growth constant pi^2/(12 ln 2)."""
    if len(cf.q) < 2:
        raise InsufficientDepthError("insufficient-depth: need >= 2 convergents")
    k = len(cf.q) - 1
    return log_int(cf.q[k]) / k
