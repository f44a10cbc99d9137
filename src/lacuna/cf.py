"""Continued fractions: expansions, continuants, growth-rate estimates, and
exact arithmetic for quadratic irrationals.

Every expansion is an integer loop.  Fractions and DyadicReals share one
Euclid loop; a DyadicReal's quotients are then trusted only while the
continuant stays well below sqrt(2^precision), one check on the finished
continuants.  A quadratic irrational x + y*sqrt(d) (rational x, y) is written
(P + sqrt(D)) / Q with Q dividing D - P^2 and expanded by the classical
recurrence on (P, Q), so its expansion never hits a precision horizon.

QuadraticReal has one exact scaled floor, floor(v * 2^s) by one isqrt over
the common denominator of x and y; floor, sign, to_float and to_dyadic all
read it.  dist_to_int is the one nearest-integer distance on exact scalars
(Fraction or QuadraticReal): |x - j| with j = floor(x + 1/2), read with its
sign from one floor of 2x."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .dyadic import DyadicReal
from .errors import CfPrecisionExhaustedError, InsufficientDepthError

_LN2 = math.log(2)


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
        """The sign of v: 0 only when x = y = 0, as sqrt(d) is irrational;
        otherwise -1 exactly when floor(v) < 0."""
        if not (self.x or self.y):
            return 0
        return -1 if self._scaled_int(0) < 0 else 1

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

    def _scaled_int(self, shift: int) -> int:
        """floor(self * 2^shift), exact.  Over the common denominator C = b*e
        of x = a/b and y = c/e this is floor((A + B*sqrt(d)) / C) with
        A = a*e*2^shift, B = c*b*2^shift.  B*sqrt(d) is irrational unless
        B = 0, so its floor is one isqrt (less one when B < 0), and
        floor((A + floor(B*sqrt(d))) / C) is exact."""
        a, b = self.x.numerator, self.x.denominator
        c, e = self.y.numerator, self.y.denominator
        s = math.isqrt((c * c * b * b * self.d) << (2 * shift))
        return ((a * e << shift) + (-s - 1 if c < 0 else s)) // (b * e)

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
        """floor(v), exact."""
        return self._scaled_int(0)

    __floor__ = floor

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def to_dyadic(self, precision_bits: int) -> DyadicReal:
        """floor(self * 2^precision_bits) / 2^precision_bits."""
        return DyadicReal(self._scaled_int(precision_bits), -precision_bits, precision_bits)

    def __repr__(self):
        return f"QuadraticReal({self.x} + {self.y}*sqrt({self.d}))"


def dist_to_int(x):
    """||x||, the distance to the nearest integer: |x - j| with j =
    floor(x + 1/2).  Exact, and of the same type as x (QuadraticReal or
    Fraction).  One floor t = floor(2x) gives both j = floor((t + 1) / 2)
    and the sign of x - j, which is >= 0 exactly when t is even."""
    t = math.floor(2 * x)
    j = (t + 1) // 2
    return x - j if t % 2 == 0 else j - x


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
    """The Euclidean algorithm on the fractional part of fr, stopped at depth
    quotients or when it terminates."""
    a0 = math.floor(fr)
    num, den = (fr - a0).denominator, (fr - a0).numerator
    quotients = []
    while den and len(quotients) < depth:
        a, r = divmod(num, den)
        num, den = den, r
        quotients.append(a)
    return _from_quotients(a0, quotients, rational_terminated=(den == 0))


def _expand_dyadic(x: DyadicReal, depth: int) -> ContinuedFraction:
    """The Euclid expansion of x's exact value, checked once against the
    horizon 2^((precision - 32) / 2): quotient k + 1 is trusted while q_k
    stays within it and the Euclid loop has not ended.  x stands for a real
    it only approximates, so the result is never rational_terminated."""
    cf = _expand_fraction(x.to_fraction(), depth)
    horizon = 1 << max((x.precision_bits - 32) // 2, 1)
    trusted = min(bisect.bisect_right(cf.q, horizon), cf.depth)
    if trusted < depth:
        raise CfPrecisionExhaustedError(
            f"cf-precision-exhausted after {trusted} quotients "
            f"(precision {x.precision_bits} bits)"
        )
    return replace(cf, rational_terminated=False)


def _expand_quadratic(x: QuadraticReal, depth: int) -> ContinuedFraction:
    """The classical integer recurrence on x_k = (P + sqrt(D)) / Q with Q
    dividing D - P^2: c = floor(x_k), P <- c*Q - P, Q <- (D - P^2) / Q, so
    x_{k+1} = 1 / (x_k - c) in the same form.  D is not a square, so with
    r = isqrt(D) the floor is (P + r) // Q for Q > 0 and (P + r + 1) // Q
    for Q < 0."""
    if x.is_rational():
        return _expand_fraction(x.x, depth)
    a, b = x.x.numerator, x.x.denominator
    c, e = x.y.numerator, x.y.denominator
    # x = (a*e + c*b*sqrt(d)) / C with C = b*e; moving the sign s of c into
    # Q and scaling by C gives (P + sqrt(D)) / Q with Q = s*C^2 dividing
    # D - P^2 = C^2 ((a*e)^2 - (c*b)^2 d)
    s = 1 if c > 0 else -1
    C = b * e
    P, Q, D = s * a * e * C, s * C * C, (c * b * C) ** 2 * x.d
    r = math.isqrt(D)
    quotients = []
    for _ in range(depth + 1):
        k = (P + r + (Q < 0)) // Q
        P = k * Q - P
        Q = (D - P * P) // Q
        quotients.append(k)
    return _from_quotients(quotients[0], quotients[1:])


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
    return max(log_int(qk) / k for k, qk in enumerate(cf.q[1:], start=1))


def levy_rate(cf: ContinuedFraction) -> float:
    """Deepest-convergent growth rate ln(q_K)/K: the consistent estimator of
    the almost-sure continuant growth constant pi^2/(12 ln 2)."""
    if len(cf.q) < 2:
        raise InsufficientDepthError("insufficient-depth: need >= 2 convergents")
    k = len(cf.q) - 1
    return log_int(cf.q[k]) / k
