"""Dyadic reals, dilated point sets on the unit torus, and gap statistics.

A dyadic real is a value, mantissa * 2**exponent with an odd (or zero)
mantissa, so the representation is unique; two dyadics are equal when their
values are, whatever precision_bits they carry.  Rounding happens only where
a rational becomes a dyadic, in from_fraction() (round-to-nearest-even).
Sorting and the maximal gap are exact integer arithmetic at a common
exponent.

A dilated point set {alpha * a_n} has one form, its residue vector: with
alpha = m * 2^-P, the dilates are the integers m * a_n mod 2^P at the common
exponent -P.  residues() is the only code that computes them: dilate() wraps
them in a DilatedSet, gap_report() sorts and differences the integers, and
the 64-bit scans and float views in lacuna.metric read them as they stream.
(The 64-bit scan of the doubling sequence 2^n reads windows of alpha's
binary expansion instead.)

residues() takes one recurrence for every ratio.  Given the sequence's rho,
the denominator q of its ratio (1 for integer ratios), each step
reads q * a_{n+1} = p_n * a_n + delta_n off one short division, and where
p_n and delta_n are short the next residue follows from the last by a short
multiply-add and an exact division by q.  Blocks of about sqrt(P) steps
start from one full product m * a; any step that is not short (a zero, a
negative or bumped term, a wrong q) falls back to that product.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from .errors import EmptyConfigurationError, PrecisionTooLowError

DEFAULT_PRECISION_BITS = 96

_LOG10_2 = math.log10(2)


def _ctz(n: int) -> int:
    """Count trailing zero bits of a nonzero integer."""
    return (n & -n).bit_length() - 1


@dataclass(frozen=True)
class DyadicReal:
    """mantissa * 2^exponent; equality and hash read the value only."""

    mantissa: int
    exponent: int
    precision_bits: int = field(default=DEFAULT_PRECISION_BITS, compare=False)

    def __post_init__(self):
        m, e = self.mantissa, self.exponent
        if m == 0:
            e = 0
        elif m % 2 == 0:
            s = _ctz(m)
            m >>= s
            e += s
        object.__setattr__(self, "mantissa", m)
        object.__setattr__(self, "exponent", e)
        if self.precision_bits <= 0:
            raise ValueError("precision_bits must be positive")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_fraction(cls, fr: Fraction, precision_bits: int = DEFAULT_PRECISION_BITS):
        """Round a rational to the nearest dyadic with precision_bits significant
        bits (ties to even)."""
        fr = Fraction(fr)
        if fr == 0:
            return cls(0, 0, precision_bits)
        p, q = fr.numerator, fr.denominator
        sign = -1 if p < 0 else 1
        p = abs(p)
        # scale so that the quotient has exactly precision_bits bits
        shift = precision_bits - (p.bit_length() - q.bit_length()) - 1
        if shift >= 0:
            num, den = p << shift, q
        else:
            num, den = p, q << (-shift)
        quot, rem = divmod(num, den)
        if quot.bit_length() != precision_bits:
            # off-by-one from the bit_length estimate
            shift += precision_bits - quot.bit_length()
            if shift >= 0:
                num, den = p << shift, q
            else:
                num, den = p, q << (-shift)
            quot, rem = divmod(num, den)
        # round to nearest, ties to even
        twice = 2 * rem
        if twice > den or (twice == den and quot % 2 == 1):
            quot += 1
        return cls(sign * quot, -shift, precision_bits)

    # -- value access -------------------------------------------------------

    def to_fraction(self) -> Fraction:
        if self.exponent >= 0:
            return Fraction(self.mantissa << self.exponent)
        return Fraction(self.mantissa, 1 << -self.exponent)

    def to_float(self) -> float:
        return dyadic_to_float(self.mantissa, self.exponent)

    def decimal_str(self, digits: int = 30) -> str:
        return format_decimal(self.to_fraction(), digits)

    def hex_pair(self) -> tuple[str, int]:
        """Lossless (hex mantissa, exponent) rendering."""
        m = self.mantissa
        s = ("-" if m < 0 else "") + hex(abs(m))
        return s, self.exponent

    def __repr__(self):
        return f"DyadicReal({self.decimal_str(12)})"


def dyadic_to_float(m: int, e: int) -> float:
    """m * 2^e as a float: m cut to its top 64 bits, then rounded once.

    The result depends only on the value, not on trailing zeros of m.
    """
    bl = m.bit_length()
    if bl > 64:
        m >>= bl - 64
        e += bl - 64
    return math.ldexp(m, e)


def format_decimal(fr: Fraction, digits: int = 30) -> str:
    """Decimal string of a rational with the given number of significant digits."""
    return format_ratio(fr.numerator, fr.denominator, digits)


def format_ratio(num: int, den: int, digits: int = 30) -> str:
    """format_decimal of num/den, den > 0, the pair not necessarily reduced:
    the string of the Decimal quotient num/den at precision digits.

    That quotient is num/den rounded half to even to digits significant
    digits, at the exponent e of its last digit; when num/den is exactly
    c * 10^e, the exponent rises, trailing zeros of c dropped, toward 0.  It
    comes from one short-quotient division c = num * 10^k // den, with c of
    digits + 1 to digits + 4 digits, and the remainder's test for zero:
    neither num nor den is ever converted to decimal whole."""
    if num == 0:
        return "0"
    n = abs(num)
    # log10(n/den) > (bits(n) - bits(den) - 1) * log10(2); one digit of
    # margin for the float product
    k = digits + 1 - math.floor((n.bit_length() - den.bit_length() - 1) * _LOG10_2)
    c, rem = divmod(n * 10**k, den) if k >= 0 else divmod(n, den * 10**-k)
    # keep digits + 1 digits, the last one a guard digit
    excess = len(str(c)) - digits - 1
    c, dropped = divmod(c, 10**excess)
    exact = not (rem or dropped)
    c, guard = divmod(c, 10)
    e = excess + 1 - k
    if guard > 5 or (guard == 5 and (c % 2 or not exact)):
        c += 1  # half to even
        if c == 10**digits:
            c, e = c // 10, e + 1
    elif guard == 0 and exact:
        while e < 0 and c % 10 == 0:
            c, e = c // 10, e + 1
    return str(Decimal(f"{'-' if num < 0 else ''}{c}E{e}"))


# ---------------------------------------------------------------------------
# gaps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapReport:
    """The maximal gap of a configuration on the torus, the wrap-around gap
    through 1 included, and its normalizations."""

    n_points: int
    max_gap: DyadicReal
    normalized: dict

    def to_json_dict(self, digits: int = 30) -> dict:
        return {
            "n": self.n_points,
            "max_gap": self.max_gap.decimal_str(digits),
            "normalized_log1": format_decimal(self.normalized.get(1.0, Fraction(0)), digits),
            "normalized_log2": format_decimal(self.normalized.get(2.0, Fraction(0)), digits),
        }


def _normalized_map(n: int, max_gap: Fraction) -> dict:
    """N*G / (ln N)^kappa for kappa in {1, 2}; empty when ln N == 0."""
    if n < 2:
        return {}
    ln_n = math.log(n)
    out = {}
    for kappa in (1.0, 2.0):
        out[kappa] = Fraction(n) * max_gap / Fraction.from_float(ln_n**kappa)
    return out


def gap_report(points: DilatedSet) -> GapReport:
    """Exact maximal gap, the wrap-around gap through 1 included, of a
    DilatedSet, read as its residues in one pass over the sorted integers."""
    if not points.residues:
        raise EmptyConfigurationError("empty-configuration")
    ints = sorted(points.residues)
    e = points.exponent
    one = 1 << -e
    inner = max(map(operator.sub, ints[1:], ints), default=0)
    max_i = max(inner, one - ints[-1] + ints[0])
    return GapReport(
        n_points=len(ints),
        max_gap=DyadicReal(max_i, e),
        normalized=_normalized_map(len(ints), Fraction(max_i, one)),
    )


# ---------------------------------------------------------------------------
# dilated point sets
# ---------------------------------------------------------------------------

GUARD_BITS = 32


def require_precision(x: DyadicReal, terms) -> None:
    """The precision gate of every dilation: x must carry at least
    bit_length(max |a|) + 32 bits over the terms a, so each gap of {x * a}
    is resolved at least 32 fractional bits past 1/a_max."""
    required = max(int(t).bit_length() for t in terms) + GUARD_BITS
    if x.precision_bits < required:
        raise PrecisionTooLowError(required, x.precision_bits)


ALPHA_GUARD_BITS = 64


def alpha_precision(terms) -> int:
    """The precision policy of every alpha built for a window of terms:
    bit_length(max |a|) + 64, which passes require_precision with 32 bits
    to spare."""
    return max(int(t).bit_length() for t in terms) + ALPHA_GUARD_BITS


def residue_bits(alpha: DyadicReal) -> int:
    """P with alpha * 2^P an integer; 0 when alpha is an integer."""
    return max(-alpha.exponent, 0)


# a relation rho * a = p * prev + delta is short when rho * a has at most this
# many bits more than prev and delta fits them: the test is one short
# division, and a step that reads the relation a short multiply-add
_RATIO_BITS = 64


def short_relation(prev: int, a: int, rho: int) -> tuple[int, int] | None:
    """(p, delta) = divmod(rho * a, prev) when prev > 0 and both are short,
    so that rho * a = p * prev + delta; None otherwise.

    The one test of whether a step may read its term from the one before:
    residues() takes its recurrence there, and the band search of
    lacuna.turan its short step."""
    if prev <= 0:
        return None
    ra = rho * a if rho != 1 else a
    if ra.bit_length() - prev.bit_length() > _RATIO_BITS:
        return None
    p, delta = divmod(ra, prev)
    return None if delta >> _RATIO_BITS else (p, delta)


def residues(alpha: DyadicReal, terms, q: int) -> Iterator[int]:
    """The dilates {alpha * a} of the terms, scaled by 2^P, one at a time:
    m * a mod 2^P for alpha = m * 2^-P, P = residue_bits(alpha).  Exact for
    every positive integer q.

    Each step reads p_n, delta_n = short_relation(a_n, a_{n+1}, q), one
    short division, so q * a_{n+1} = p_n * a_n + delta_n and, with
    X_n = m * a_n, q * X_{n+1} = p_n * X_n + delta_n * m.  Where the relation
    is short (every step of geometric_sequence when q is the denominator of
    its ratio, as 0 <= delta_n < q), X_{n+1} follows from X_n by a short
    multiply-add and an exact division by q = 2^s * q', q' odd: a shift by s,
    and for q' > 1 divmod(W, q) = (Q, R) and X_{n+1} = Q + (R >> s) * q'^-1
    mod 2^K, a short division and a short multiple.  Each shift loses s low
    bits of the modulus, so X is carried mod 2^K, K = P + s * b, and each
    block of b = max(isqrt(P) // s, 1) steps starts from one product
    m * a mod 2^K; that product is a small share of the block's cost.  Odd q
    (q = 1 for integer ratios) loses no bit and runs as one block.  Any
    other step (a_n <= 0, or no short relation: after a zero, a negative or
    bumped term, or with a q that is not the ratio's denominator) takes the
    product and starts a new block."""
    P = residue_bits(alpha)
    mask = (1 << P) - 1
    m = alpha.mantissa
    s = _ctz(q)
    odd = q >> s
    block = max(math.isqrt(P) // s, 1) if s else -1  # -1: the block never ends
    K = P + s * max(block, 0)
    wide = (1 << K) - 1
    inv = pow(odd, -1, 1 << K)
    scaled = q > 1
    prev = x = left = 0
    for a in map(int, terms):
        rel = short_relation(prev, a, q) if left else None
        if rel is not None:
            p, d = rel
            # X is now valid mod 2^(K - s * steps so far); the bits above it
            # are never read
            x = (p * x + d * m if d else p * x) & wide
            if scaled:
                if odd > 1:
                    x, r = divmod(x, q)
                    x += (r >> s) * inv
                else:
                    x >>= s
                left -= 1
        else:
            x = (m * a) & wide
            left = block
        prev = a
        yield x & mask if scaled else x


@dataclass(frozen=True)
class DilatedSet:
    """A dilated point set as residues at one exponent: point i is
    residues[i] * 2^exponent, with 0 <= residues[i] < 2^-exponent."""

    residues: tuple[int, ...]
    exponent: int

    def __len__(self) -> int:
        return len(self.residues)


def dilate(alpha: DyadicReal, seq, start: int = 1, stop: int | None = None) -> DilatedSet:
    """Fractional parts {alpha * a_n} of a LacunarySequence or a
    ThinnedSequence for n in [start, stop] (1-based, inclusive).

    Passes the window through require_precision first; its residues step by
    the sequence's rho.
    """
    window = seq.terms[start - 1 : stop]
    if window:
        require_precision(alpha, window)
    return DilatedSet(tuple(residues(alpha, window, seq.rho)), -residue_bits(alpha))
