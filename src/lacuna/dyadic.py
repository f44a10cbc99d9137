"""Dyadic reals, dilated point sets on the unit torus, and gap statistics.

A dyadic real is a value, mantissa * 2**exponent with an odd (or zero)
mantissa, so the representation is unique; two dyadics are equal when their
values are, whatever precision_bits they carry.  Rounding happens only where
a rational becomes a dyadic, in from_fraction() (round-to-nearest-even).
Sorting and the maximal gap are exact integer arithmetic at a common
exponent.

A dilated point set {alpha * a_n} has one form, its residue vector: with
alpha = m * 2^-P, the dilates are the integers m * a_n mod 2^P at the common
exponent -P.  residues() is the one way to them: the sequence walks its
stored recurrence q * a_{n+1} = p * a_n + delta_n
(lacuna.sequences.Recurrence.residues), never dividing a term by a term,
so each residue follows from the last by a multiply-add and an exact
division by q.  dilate() wraps them in a DilatedSet, gap_report() sorts and
differences the integers, and the float views in lacuna.metric read them as
they stream.  The 64-bit scans there read the top 64 bits of the same
residues from seq.keys, and the one of the doubling sequence 2^n from
windows of alpha's binary expansion.
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
        return cls.from_ratio(fr.numerator, fr.denominator, precision_bits)

    @classmethod
    def from_ratio(cls, num: int, den: int, precision_bits: int = DEFAULT_PRECISION_BITS):
        """from_fraction of num/den for integers den > 0, the pair not
        necessarily reduced, so no gcd runs.

        One division: with s = precision_bits - (bits(|num|) - bits(den)),
        |num| 2^s / den lies in [2^(precision_bits - 1), 2^(precision_bits + 1)),
        so its floor has precision_bits or precision_bits + 1 bits.  A surplus
        low bit moves into the remainder (over 2 den) before the round to
        nearest, ties to even."""
        if num == 0:
            return cls(0, 0, precision_bits)
        p = abs(num)
        shift = precision_bits - (p.bit_length() - den.bit_length())
        if shift >= 0:
            p <<= shift
        else:
            den <<= -shift
        quot, rem = divmod(p, den)
        if quot.bit_length() > precision_bits:
            low, quot, shift = quot & 1, quot >> 1, shift - 1
            # the remainder over 2 den is low den + rem: above the half iff
            # low and rem > 0, a tie iff low and rem == 0
            up = low and (rem or quot & 1)
        else:
            up = 2 * rem > den or (2 * rem == den and quot & 1)
        quot += bool(up)
        return cls(-quot if num < 0 else quot, -shift, precision_bits)

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
    bit_length(a) + 32 bits for a the last of the increasing terms, so each
    gap of {x * a} is resolved at least 32 fractional bits past 1/a_max."""
    required = int(terms[-1]).bit_length() + GUARD_BITS
    if x.precision_bits < required:
        raise PrecisionTooLowError(required, x.precision_bits)


ALPHA_GUARD_BITS = 64


def alpha_precision(terms) -> int:
    """The precision policy of every alpha built for a window of increasing
    terms: bit_length of the last + 64, which passes require_precision with
    32 bits to spare."""
    return int(terms[-1]).bit_length() + ALPHA_GUARD_BITS


def residue_bits(alpha: DyadicReal) -> int:
    """P with alpha * 2^P an integer; 0 when alpha is an integer."""
    return max(-alpha.exponent, 0)


def residues(alpha: DyadicReal, seq, start: int = 1, stop: int | None = None) -> Iterator[int]:
    """The dilates {alpha * a_n} of a_start..a_stop (1-based, inclusive;
    stop=None: to the last term) of a sequence (a lacuna.sequences
    Recurrence: a LacunarySequence or a ThinnedSequence), scaled by 2^P, one
    at a time: m * a_n mod 2^P for alpha = m * 2^-P, P = residue_bits(alpha),
    as seq.residues walks its stored recurrence."""
    return seq.residues(alpha.mantissa, residue_bits(alpha), start, stop)


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

    Passes the window through require_precision first; a window past the
    last term raises SequenceTooShortError.
    """
    window = seq.terms[start - 1 : stop]
    if window:
        require_precision(alpha, window)
    return DilatedSet(tuple(residues(alpha, seq, start, stop)), -residue_bits(alpha))
