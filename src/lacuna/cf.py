"""Continued fractions: expansions, continuants, growth-rate estimates, and
exact arithmetic for quadratic irrationals.

A QuadraticReal is the integers (a + b*sqrt(d)) / c, c > 0 and
gcd(a, b, c) = 1, with d tested for a square once, when built from
rationals.  Arithmetic is integer products and one gcd; sign compares a^2
with b^2 d; floor, to_float and to_dyadic read one isqrt, floor(v * 2^s).
dist_to_int is the one nearest-integer distance on exact scalars: |x - j|
with j = floor(x + 1/2), its sign read from one floor of 2x;
affine_dist_to_int is the same for x = v n - s, with one reduction.

Every expansion is an integer loop.  Fractions and DyadicReals share one
Euclid loop (Lehmer's: most quotients come from the leading bits of the
pair), a DyadicReal's quotients trusted only while the continuant
stays well below sqrt(2^precision); a QuadraticReal is (P + sqrt(D)) / Q
with Q dividing D - P^2 under the classical recurrence on (P, Q), so its
expansion never hits a precision horizon."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .dyadic import DyadicReal
from .errors import CfPrecisionExhaustedError, InsufficientDepthError, MalformedValueError

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


@dataclass(frozen=True, init=False)
class QuadraticReal:
    """Exact element (a + b*sqrt(d)) / c of a real quadratic field: integers
    with c > 0, gcd(a, b, c) = 1 and d > 0 not a square.  The form is
    canonical, so the dataclass hash and repr of the fields are the value's."""

    a: int
    b: int
    c: int
    d: int

    def __new__(cls, x, y, d: int):
        """x + y*sqrt(d) for rational x and y: the one square test of d."""
        if d <= 0 or math.isqrt(d) ** 2 == d:
            raise ValueError("d must be a positive non-square integer")
        x, y = Fraction(x), Fraction(y)
        return _reduced(x.numerator * y.denominator, y.numerator * x.denominator,
                        x.denominator * y.denominator, d)

    @classmethod
    def sqrt(cls, d: int) -> "QuadraticReal":
        return cls(0, 1, d)

    def __reduce__(self):  # copy and pickle rebuild from the stored integers
        return _reduced, (self.a, self.b, self.c, self.d)

    x = property(lambda self: Fraction(self.a, self.c))  # v = x + y*sqrt(d)
    y = property(lambda self: Fraction(self.b, self.c))

    # -- arithmetic ---------------------------------------------------------

    def _parts(self, other) -> tuple[int, int, int]:
        if isinstance(other, QuadraticReal):
            if other.d != self.d:
                raise ValueError("mixed quadratic fields")
            return other.a, other.b, other.c
        q = other if isinstance(other, (int, Fraction)) else Fraction(other)
        return q.numerator, 0, q.denominator

    def __add__(self, other):
        a, b, c = self._parts(other)
        return _reduced(self.a * c + a * self.c, self.b * c + b * self.c, self.c * c, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        a, b, c = self._parts(other)
        return _reduced(self.a * c - a * self.c, self.b * c - b * self.c, self.c * c, self.d)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return _reduced(-self.a, -self.b, self.c, self.d)

    def __mul__(self, other):
        a, b, c = self._parts(other)
        return _reduced(self.a * a + self.b * b * self.d, self.a * b + self.b * a, self.c * c, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b, c = self._parts(other)
        norm = a * a - b * b * self.d
        if norm == 0:
            raise ZeroDivisionError
        return _reduced(c * (self.a * a - self.b * b * self.d), c * (self.b * a - self.a * b),
                        self.c * norm, self.d)

    def sign(self) -> int:
        """The sign of a + b*sqrt(d): the common sign of a and b, else that of
        the larger of a^2 and b^2 d (never equal, as d is not a square)."""
        a, b = self.a, self.b
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sa == sb or not sb:
            return sa
        return sb if not sa or a * a < b * b * self.d else sa

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

    def _scaled_int(self, shift: int) -> int:
        """floor(self * 2^shift), exact.  b*sqrt(d)*2^shift is irrational
        unless b = 0, so its floor is one isqrt (less one when b < 0), and
        floor((a*2^shift + that floor) / c) is exact."""
        s = math.isqrt((self.b * self.b * self.d) << (2 * shift))
        return ((self.a << shift) + (-s - 1 if self.b < 0 else s)) // self.c

    def to_float(self) -> float:
        """The float nearest floor(self * 2^s) / 2^s, s = 64.  Where s = 64
        leaves fewer than 53 significant bits (below about 2^-11), s is
        raised until the scaled integer carries 64."""
        if not (self.a or self.b):
            return 0.0
        shift, m = 64, self._scaled_int(64)
        if abs(m).bit_length() < 53:
            while (bl := abs(m).bit_length()) < 64:
                shift += 65 - bl if bl > 1 else shift
                m = self._scaled_int(shift)
        return m / (1 << shift)  # int / int rounds correctly

    __float__ = to_float

    def floor(self) -> int:
        """floor(v), exact."""
        return self._scaled_int(0)

    __floor__ = floor

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def to_dyadic(self, precision_bits: int) -> DyadicReal:
        """floor(self * 2^precision_bits) / 2^precision_bits."""
        return DyadicReal(self._scaled_int(precision_bits), -precision_bits, precision_bits)


def _reduced(a: int, b: int, c: int, d: int) -> QuadraticReal:
    """(a + b*sqrt(d)) / c for c != 0, reduced to c > 0 and gcd(a, b, c) = 1."""
    g = math.gcd(c, a, b)  # the short c first: gcd(a, b, c) is far slower
    if c < 0:
        g = -g
    if g != 1:
        a, b, c = a // g, b // g, c // g
    v = object.__new__(QuadraticReal)
    v.__dict__.update(a=a, b=b, c=c, d=d)  # past the frozen dataclass guard
    return v


def dist_to_int(x):
    """||x||, the distance to the nearest integer: |x - j| with j =
    floor(x + 1/2).  Exact, and of the same type as x (QuadraticReal or
    Fraction).  One floor t = floor(2x) gives both j = floor((t + 1) / 2)
    and the sign of x - j, which is >= 0 exactly when t is even."""
    t = math.floor(2 * x)
    j = (t + 1) // 2
    return x - j if t % 2 == 0 else j - x


def affine_dist_to_int(v, n: int, s):
    """dist_to_int(v * n - s) for an integer n and exact v and s.  For a
    QuadraticReal v (and s rational or in v's field), x = v n - s is
    (A + B sqrt(d)) / C formed without a gcd, floor(2x) is
    (2A + floor(2B sqrt(d))) // C with one isqrt, and the distance is
    reduced once."""
    if not isinstance(v, QuadraticReal):
        return dist_to_int(v * n - s)
    sa, sb, sc = v._parts(s)
    a, b, c = v.a * n * sc - sa * v.c, v.b * n * sc - sb * v.c, v.c * sc
    r = math.isqrt(4 * b * b * v.d)
    t = (2 * a + (-r - 1 if b < 0 else r)) // c
    a -= (t + 1) // 2 * c
    return _reduced(a, b, c, v.d) if t % 2 == 0 else _reduced(-a, -b, c, v.d)


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


_LEHMER_BITS = 120  # bits of the leading parts that Lehmer's inner loop divides


def _expand_fraction(fr: Fraction, depth: int) -> ContinuedFraction:
    """The Euclidean algorithm on the fractional part of fr, stopped at depth
    quotients or when it terminates, by Lehmer's method (Knuth, TAOCP
    Vol. 2, 4.5.2, Algorithm L).

    Each round runs Euclid on x = floor(num / 2^k) and y = floor(den / 2^k),
    the leading _LEHMER_BITS bits of num, and keeps the cofactors
    (a, b, c, d) with the pair after the quotients so far being
    (a num + b den, c num + d den).  Since num / 2^k lies in [x, x + 1),
    den / 2^k in [y, y + 1) and the cofactors alternate in sign, the ratio
    of that pair lies between (x + a) / (y + c) and (x + b) / (y + d).  So a
    quotient k is accepted only when (x + a) // (y + c) and
    (x + b) // (y + d) agree, and it is the quotient plain Euclid takes.  The
    round then moves the full pair by its cofactors, one 2x2 update for all
    its quotients; a round that accepts none takes one quotient by divmod.
    The quotients and the final pair are those of the one-divmod-per-quotient
    loop."""
    a0 = math.floor(fr)
    num, den = (fr - a0).denominator, (fr - a0).numerator
    quotients = []
    while den and len(quotients) < depth:
        shift = max(num.bit_length() - _LEHMER_BITS, 0)
        x, y = num >> shift, den >> shift
        a, b, c, d = 1, 0, 0, 1
        room = depth - len(quotients)
        while room and y + c and y + d:
            k = (x + a) // (y + c)
            if k != (x + b) // (y + d):
                break
            quotients.append(k)
            room -= 1
            a, b, c, d = c, d, a - k * c, b - k * d
            x, y = y, x - k * y
        if b:
            num, den = a * num + b * den, c * num + d * den
        else:
            k, r = divmod(num, den)
            num, den = den, r
            quotients.append(k)
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
    if x.b == 0:
        return _expand_fraction(x.x, depth)
    # x = (a + b*sqrt(d)) / c; moving the sign s of b into Q and scaling by c
    # gives (P + sqrt(D)) / Q with Q = s*c^2 dividing D - P^2 = c^2 (b^2 d - a^2)
    s = 1 if x.b > 0 else -1
    P, Q, D = s * x.a * x.c, s * x.c * x.c, (x.b * x.c) ** 2 * x.d
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
        raise MalformedValueError(f"malformed-value: depth must be positive, got {depth}")
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
