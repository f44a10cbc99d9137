"""Dyadic reals, dilated point sets on the unit torus, and gap statistics.

A dyadic real is a value, mantissa * 2**exponent with an odd (or zero)
mantissa, so the representation is unique; two dyadics are equal when their
values are, whatever precision_bits they carry.  Rounding happens only where
a rational becomes a dyadic, in from_fraction() (round-to-nearest-even).
The maximal gap is decided by exact integer arithmetic at a common
exponent.

A dilated point set {alpha * a_n} has one form, its residue vector: with
alpha = m * 2^-P, the dilates are the integers m * a_n mod 2^P at the common
exponent -P.  residues() is the one way to them: it turns alpha into (m, P)
and returns the sequence's Walk of them (lacuna.sequences.Recurrence.residues),
a read-only view of the stored recurrence q * a_{n+1} = p * a_n + delta_n,
never dividing a term by a term, so each residue follows from the last by a
multiply-add and an exact division by q.  dilate() wraps that view in a
DilatedSet: it holds none of the residues.  The view's keys(), their top 64
bits in one uint64 array, come from the reader the window picks
(lacuna.sequences.Walk.keys): byte windows of m for powers of two, the key
walk at q = 2^s, or the exact walk.  gap_report() sorts the keys and
decides the exact gap from them: only the few pairs within one key unit of
the key maximum are resolved to exact residues, read from one exact walk
by the view's at() (gap_report's docstring proves the rule).  A tuple of
residues built by a caller is a DilatedSet as well, keyed by one shift per
residue.  The 64-bit scans of lacuna.metric print the gap of the keys
themselves, through the same sorted-key step (key_gaps), and the float
views there read the residues as they stream.

A GapReport holds the exact gap G of N points and nothing derived from it.
Only its printed form (to_json_dict) takes the normalizations
N*G/(ln N)^kappa, enclosed from lacuna.sequences.ln_bounds(N, 114), and
prints the digits on which both ends of the enclosure agree.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .errors import EmptyConfigurationError, PrecisionTooLowError
from .sequences import Walk, ln_bounds

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
    through 1 included."""

    n_points: int
    max_gap: DyadicReal

    def to_json_dict(self) -> dict:
        """The gap to 30 digits, and its normalizations N*G/(ln N)^kappa
        for kappa = 1, 2 to the digits their enclosure decides: ln_bounds(N,
        114) puts each between two rationals, and the longest rounding, at
        most 30 digits, that both ends share is printed.  Rounding is
        monotone, so that is the rounding of the ratio itself.  For N < 2,
        where ln N = 0, the ratios print as "0"."""
        n, ratios = self.n_points, ["0", "0"]
        if n >= 2:
            lo, hi = ln_bounds(n, 114)
            ng = n * self.max_gap.to_fraction()
            ratios = [_shared_rounding(ng / hi**kappa, ng / lo**kappa) for kappa in (1, 2)]
        return {
            "n": n,
            "max_gap": self.max_gap.decimal_str(30),
            "normalized_log1": ratios[0],
            "normalized_log2": ratios[1],
        }


def _shared_rounding(lo: Fraction, hi: Fraction) -> str:
    """The longest rounding to at most 30 significant digits that lo < hi
    share.  Two digit counts never both split an interval far narrower
    than 10^-30 of its ends, so 30 or 29 digits always agree."""
    return next(
        text for digits in range(30, 0, -1)
        if (text := format_decimal(lo, digits)) == format_decimal(hi, digits)
    )


def key_gaps(sorted_keys: np.ndarray) -> tuple[np.ndarray, int, int]:
    """(inner, wrap, top) of nonempty 64-bit keys in increasing order, in
    key units of 2^-64: the gaps between neighbours, the wrap-around gap
    2^64 - k_last + k_first, and the largest of them all, which is the
    maximal gap of the keys on the circle.  dispersion_scan prints top as
    its truncated gap; gap_report decides the exact gap from all three."""
    inner = np.diff(sorted_keys)
    wrap = (1 << 64) - int(sorted_keys[-1]) + int(sorted_keys[0])
    return inner, wrap, max(int(inner.max(initial=0)), wrap)


def gap_report(points: DilatedSet) -> GapReport:
    """Exact maximal gap, the wrap-around gap through 1 included, of a
    DilatedSet, decided on the 64-bit keys of its residues.

    With P = -exponent and t = P - 64, the key of a residue v is
    k = floor(v / 2^t), its top 64 bits.  A Walk reads the keys with the
    reader its window picks (Walk.keys), any other sequence with one shift
    per residue.
    The keys are sorted, and D is their largest gap in key units, the
    wrap-around gap included (key_gaps).

    For t <= 0 the keys are the residues times 2^-t, so the maximal gap is
    D * 2^t exactly.  For t > 0, measure gaps in units of 2^t.  v -> k is
    monotone, so sorting the residues sorts the keys, and each exact gap
    between neighbours is of one of two kinds:
      * inside a run of equal keys: below 1, both ends lying in one
        [k 2^t, (k + 1) 2^t);
      * across the key gap d between two neighbouring runs (or the wrap
        gap, lifted by 2^P): from the largest residue of the lower run to
        the smallest of the upper, in (d - 1, d + 1), since each end lies
        less than one unit above k 2^t.
    The key gaps sum to 2^64 over at most n runs, so D >= 2^64 / n >= 2,
    and the exact maximum G exceeds D - 1 >= 1 at the pair that holds D.
    A gap inside a run is below 1 <= D - 1 < G, and a pair with d <= D - 2
    is below d + 1 <= D - 1 < G, so neither holds G: G is the largest exact
    gap over the pairs with d >= D - 1.  Each such candidate is resolved to
    the exact ends of its two runs: the residues of those runs come from
    one exact walk (Walk.at), two per candidate unless keys tie, and
    only the least and the greatest of each run are kept."""
    res = points.residues
    n = len(res)
    if not n:
        raise EmptyConfigurationError("empty-configuration")
    e = points.exponent
    one = 1 << -e
    t = -e - 64
    if isinstance(res, Walk):
        keys, exact = res.keys(), res.at
    else:
        tops = (v >> t for v in res) if t >= 0 else (v << -t for v in res)
        keys, exact = np.fromiter(tops, dtype=np.uint64, count=n), lambda js: map(res.__getitem__, js)
    if t <= 0:
        max_i = key_gaps(np.sort(keys))[2] >> -t
    else:
        order = np.argsort(keys)
        ks = keys[order]
        inner, wrap, top = key_gaps(ks)
        # each candidate as (its lower run, its upper run, lift), a run of
        # equal keys named by its first position in key order
        js = np.flatnonzero(inner >= top - 1)
        pairs = [(lo, j + 1, 0) for lo, j in zip(np.searchsorted(ks, ks[js]).tolist(), js.tolist())]
        if wrap >= top - 1:
            pairs.append((int(np.searchsorted(ks, ks[-1])), 0, one))
        runs = sorted({run for lower, upper, _ in pairs for run in (lower, upper)})
        sizes = np.searchsorted(ks, ks[runs], "right") - runs
        members = np.concatenate([order[run : run + size] for run, size in zip(runs, sizes.tolist())])
        by_index = np.argsort(members)
        # the least and the greatest exact residue of each run, from one walk
        low, high = {}, {}
        for run, v in zip(np.repeat(runs, sizes)[by_index].tolist(), exact(members[by_index].tolist())):
            low[run] = min(low.get(run, v), v)
            high[run] = max(high.get(run, v), v)
        max_i = max(lift + low[upper] - high[lower] for lower, upper, lift in pairs)
    return GapReport(n_points=n, max_gap=DyadicReal(max_i, e))


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


def residues(alpha: DyadicReal, seq, start: int = 1, stop: int | None = None) -> Walk:
    """The dilates {alpha * a_n} of a_start..a_stop (1-based, inclusive;
    stop=None: to the last term) of a sequence (a lacuna.sequences
    Recurrence: a LacunarySequence or a ThinnedSequence), scaled by 2^P:
    the Walk of m * a_n mod 2^P for alpha = m * 2^-P, P = residue_bits(alpha),
    read on demand from the sequence's stored recurrence (seq.residues)."""
    return seq.residues(alpha.mantissa, residue_bits(alpha), start, stop)


@dataclass(frozen=True)
class DilatedSet:
    """A dilated point set as residues at one exponent: point i is
    residues[i] * 2^exponent, with 0 <= residues[i] < 2^-exponent.  The
    residues are any sequence of integers: dilate() gives the Walk of
    residues(), which computes them on demand, and a tuple serves as well."""

    residues: Sequence[int]
    exponent: int

    def __len__(self) -> int:
        return len(self.residues)


def dilate(alpha: DyadicReal, seq, start: int = 1, stop: int | None = None) -> DilatedSet:
    """Fractional parts {alpha * a_n} of a LacunarySequence or a
    ThinnedSequence for n in [start, stop] (1-based, inclusive), as the
    Walk of residues(): no residue is computed here.

    Passes the window through require_precision first; a window past the
    last term raises SequenceTooShortError.
    """
    window = seq.terms[start - 1 : stop]
    if window:
        require_precision(alpha, window)
    return DilatedSet(residues(alpha, seq, start, stop), -residue_bits(alpha))
