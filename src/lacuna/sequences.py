"""Lacunary (Hadamard) integer sequences and step-strided thinnings.

A sequence is lacunary with growth factor r > 1 when a_{n+1} >= r * a_n for all
n.  The thinned subsequence a~_n = a_{n*step} with step = l * floor(ln N) (l the
smallest integer with r^l > e) has consecutive ratios exceeding N^xi with
xi = l*ln r > 1, which is what makes small integer combinations of its terms
linearly independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import MalformedSequenceFileError, NBelowThresholdError, NotLacunaryError

_LN_DPS = 40
_LN_GUARD = Fraction(1, 1 << 60)


def mpf_fraction(x) -> Fraction:
    """The exact rational value of an mpmath number."""
    sign, man, exp, _ = mp.mpf(x)._mpf_
    man, exp = int(man), int(exp)  # may be gmpy2 types; keep Fractions pure
    val = Fraction(man) * Fraction(2) ** exp
    return -val if sign else val


def ln_bounds(x: Fraction | int) -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds on ln(x), tight to ~2^-60."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("ln of non-positive value")
    with mp.workdps(_LN_DPS):
        v = mpf_fraction(mp.log(mp.mpf(x.numerator) / x.denominator))
    return v - _LN_GUARD, v + _LN_GUARD


def ln_lower(x) -> Fraction:
    return ln_bounds(x)[0]


def ln_upper(x) -> Fraction:
    return ln_bounds(x)[1]


@dataclass(frozen=True)
class LacunarySequence:
    terms: tuple[int, ...]
    growth_factor_r: Fraction

    def __len__(self):
        return len(self.terms)

    def term(self, n: int) -> int:
        """1-based access: a_n."""
        return self.terms[n - 1]


@dataclass(frozen=True)
class ThinnedSequence:
    parent: LacunarySequence
    l: int
    step: int
    K: int
    terms: tuple[int, ...]
    xi: float
    index_offset: int = 0  # a~_n = parent term at index_offset + n*step (1-based)


def smallest_l(r: Fraction) -> int:
    """Smallest positive integer l with l * lo > 1, lo a positive lower
    bound on ln r, so r^l > e: lo = max(ln_lower(r), 1 - 1/r), since
    ln r >= 1 - 1/r > 0 keeps lo positive however close r is to 1."""
    r = Fraction(r)
    if r <= 1:
        raise NotLacunaryError(f"growth factor {r} is not > 1")
    lo = max(ln_lower(r), 1 - 1 / r)
    return math.floor(1 / lo) + 1


def verify_hadamard(terms, r: Fraction) -> tuple[bool, int | None]:
    """Check a_{n+1} >= r*a_n for every pair; returns (ok, first bad 1-based n+1)."""
    terms = list(terms)
    if not terms or any(t <= 0 for t in terms):
        raise NotLacunaryError("not-lacunary: terms must be nonempty and positive")
    r = Fraction(r)
    p, q = r.numerator, r.denominator
    for i in range(len(terms) - 1):
        # an integer ratio compares a_(n+1) itself, not a full-width a_(n+1)*1
        if (terms[i + 1] if q == 1 else terms[i + 1] * q) < p * terms[i]:
            return False, i + 2
    return True, None


def geometric_sequence(r: Fraction, n_terms: int) -> LacunarySequence:
    """Terms t_n = ceil(r * t_{n-1}) for n = 1..n_terms, t_0 = 1.

    This is the smallest sequence with t_n >= ceil(r^n) and the Hadamard
    condition t_n >= r * t_{n-1}, i.e. max(ceil(r^n), ceil(r * t_{n-1})):
    t_{n-1} >= r^{n-1} gives r * t_{n-1} >= r^n, so ceil(r * t_{n-1}) >=
    ceil(r^n), and t_n >= r * t_{n-1} >= r^n carries the induction on.  For
    an integer r the terms are exactly r^n.
    """
    r = Fraction(r)
    if r <= 1:
        raise NotLacunaryError(f"growth factor {r} is not > 1")
    p, q = r.numerator, r.denominator
    terms = []
    t = 1
    for _ in range(n_terms):
        t = p * t if q == 1 else -((-p * t) // q)  # ceil(r * t)
        terms.append(t)
    ok, bad = verify_hadamard(terms, r)
    if not ok:  # the construction is checked, not assumed
        raise NotLacunaryError(f"not-lacunary: construction violated Hadamard at {bad}")
    return LacunarySequence(tuple(terms), r)


def _floor_log(n: int) -> int:
    """floor(ln n), via high-precision evaluation."""
    with mp.workdps(_LN_DPS):
        return int(mp.floor(mp.log(n)))


def _floor_quotient(n: int, l: int) -> int:
    """floor(N / (l * ln N))."""
    with mp.workdps(_LN_DPS):
        return int(mp.floor(n / (l * mp.log(n))))


def thin(seq: LacunarySequence, N: int) -> ThinnedSequence:
    """Step-strided subsequence a~_n = a_{n*step}, step = l*floor(ln N).

    K = floor(N / (l*ln N)); rejects N too small for a positive step or a
    positive K instead of clamping.
    """
    return _thin(seq, N, 0)


def thin_block(seq: LacunarySequence, N: int) -> ThinnedSequence:
    """Thinning of the translated block (N, 2N]: a~_n = a_{N + n*step}."""
    return _thin(seq, N, N)


def _thin(seq: LacunarySequence, N: int, offset: int) -> ThinnedSequence:
    """a~_n = a_{offset + n*step} for n = 1..K, both sizes set by N alone."""
    if len(seq.terms) < offset + N:
        raise ValueError(f"sequence provides {len(seq.terms)} terms, need {offset + N}")
    l = smallest_l(seq.growth_factor_r)
    if N < 3:
        raise NBelowThresholdError(f"N-below-threshold: N={N}")
    step = l * _floor_log(N)
    K = _floor_quotient(N, l)
    if step < 1 or K < 1:
        raise NBelowThresholdError(f"N-below-threshold: N={N} gives step={step}, K={K}")
    terms = tuple(seq.term(offset + n * step) for n in range(1, K + 1))
    xi = l * float(ln_lower(seq.growth_factor_r))
    return ThinnedSequence(seq, l, step, K, terms, xi, index_offset=offset)


def save_sequence(path, seq: LacunarySequence) -> None:
    r = seq.growth_factor_r
    with open(path, "w") as fh:
        fh.write(f"# r={r.numerator}/{r.denominator}\n")
        for t in seq.terms:
            fh.write(f"{t}\n")


def load_sequence(path) -> LacunarySequence:
    """Read a file written by save_sequence.  Raises MalformedSequenceFileError
    when the '# r=<rational>' header or a term does not parse, and
    NotLacunaryError unless the ratio exceeds 1 and the terms are nonempty,
    positive and keep it."""
    with open(path) as fh:
        header = fh.readline().strip()
        try:
            if not header.startswith("# r="):
                raise ValueError("missing '# r=<rational>' header")
            r = Fraction(header[4:])
            terms = tuple(int(line) for line in fh if line.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedSequenceFileError(
                f"malformed-sequence-file: {path}: {exc}"
            ) from None
    if r <= 1:
        raise NotLacunaryError(f"growth factor {r} is not > 1")
    ok, bad = verify_hadamard(terms, r)
    if not ok:
        raise NotLacunaryError(f"a_{bad} < {r} * a_{bad - 1} in {path}")
    return LacunarySequence(terms, r)
