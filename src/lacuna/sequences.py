"""Lacunary (Hadamard) integer sequences and step-strided thinnings.

A sequence is lacunary with growth factor r > 1 when a_{n+1} >= r * a_n for all
n.  A LacunarySequence checks both when it is built, so every instance is
lacunary, and it is the one owner of what follows from its ratio: rho, the
denominator of r, is the q of the residue recurrence q * a_{n+1} =
p * a_n + delta_n (Recurrence.residues).

Both sequence types are stored as that recurrence (Recurrence): with r = p/q
a sequence keeps delta_n = q * a_{n+1} - p * a_n for n < N and a checkpoint
a_n at every stride-th term, stride = ceil(sqrt(N)), never the N wide terms.
So it holds O(N) short integers and O(sqrt(N)) wide ones.  One walk reads
them: from m times the checkpoint at or below the first term wanted, it
carries y_n = m * a_n exactly and steps y <- (p * y + m * delta_n) / q, a
shift for q = 2^s and one // otherwise.  With m = 1 it gives the terms
(seq.terms, a read-only view), and with any m masked to P bits the dilates
m * a_n mod 2^P (seq.residues), so no other module reads the checkpoints.
For a LacunarySequence a_{n+1} >= r * a_n is delta_n >= 0, N short
comparisons.  geometric_sequence streams its terms once and keeps only the
checkpoints.

The thinned subsequence a~_n = a_{n*step} with step = l * floor(ln N) (l the
smallest integer with r^l > e) has consecutive ratios exceeding N^xi with
xi = l*ln r > 1, which is what makes small integer combinations of its terms
linearly independent.  It is lacunary with ratio r^step, so a
ThinnedSequence is the same recurrence at r^step, with rho = q^step and
delta~_n = q^step * a~_{n+1} - p^step * a~_n.  A list of terms without a
parent is kept at ratio 1: delta_n = a_{n+1} - a_n, of any sign.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import mpmath as mp

from .errors import (
    MalformedSequenceFileError,
    NBelowThresholdError,
    NotLacunaryError,
    SequenceTooShortError,
)

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


def _require(have: int, need: int | None) -> None:
    """The one bounds check of a window: a sequence of have terms serves a
    window that ends at term need (1-based) only if need <= have."""
    if need is not None and need > have:
        raise SequenceTooShortError(have, need)


def _stride(n: int) -> int:
    """ceil(sqrt(n)): the distance between checkpoints of n terms."""
    return math.isqrt(n - 1) + 1 if n > 0 else 1


def _first_descent(deltas) -> int | None:
    """The 1-based n + 1 of the first delta_n < 0, i.e. the first a_{n+1} <
    r * a_n; None when every delta_n >= 0."""
    if not deltas or min(deltas) >= 0:
        return None
    return next(n + 2 for n, d in enumerate(deltas) if d < 0)


def _recurrence(terms, r: Fraction, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(deltas, checkpoints) of n integer terms at the ratio r = p/q, in one
    pass over them: delta_k = q * a_(k+1) - p * a_k, and every stride-th
    term from the first."""
    p, q = r.numerator, r.denominator
    c = _stride(n)
    deltas, checkpoints = [], []
    for i, a in enumerate(terms):
        if i:
            # an integer ratio takes a_(k+1) itself, not a full-width a_(k+1)*1
            deltas.append((a if q == 1 else q * a) - p * prev)
        if i % c == 0:
            checkpoints.append(a)
        prev = a
    return tuple(deltas), tuple(checkpoints)


@dataclass(frozen=True, init=False, repr=False)
class Recurrence:
    """Integer terms a_1..a_N kept as their recurrence at a ratio r = p/q:
    deltas[n - 1] = q * a_{n+1} - p * a_n, of any sign, and checkpoints[k] =
    a_{k * stride + 1}, stride = ceil(sqrt(N)).  Every ratio describes
    every list of integers; the ratio a list grows by keeps its deltas
    short.  Built from explicit terms, Recurrence(terms, r).  One walk of
    the recurrence (_stream) gives the terms, read through seq.terms
    (iterating seq reads them too), and the dilates m * a_n mod 2^P, read
    through seq.residues; only the walk reads the checkpoints and the
    stride."""

    growth_factor_r: Fraction
    deltas: tuple[int, ...]
    checkpoints: tuple[int, ...]

    def __init__(self, terms, growth_factor_r):
        r = Fraction(growth_factor_r)
        terms = tuple(terms)
        self._build(r, *_recurrence(terms, r, len(terms)))

    @classmethod
    def _from_recurrence(cls, r: Fraction, deltas, checkpoints):
        seq = cls.__new__(cls)
        seq._build(r, tuple(deltas), tuple(checkpoints))
        return seq

    def _build(self, r: Fraction, deltas, checkpoints) -> None:
        vars(self).update(growth_factor_r=r, deltas=deltas, checkpoints=checkpoints)

    @property
    def rho(self) -> int:
        """The denominator of the ratio: the q of the residue recurrence."""
        return self.growth_factor_r.denominator

    @property
    def stride(self) -> int:
        """The distance between checkpoints, ceil(sqrt(N))."""
        return _stride(len(self))

    def __len__(self):
        return len(self.deltas) + 1 if self.checkpoints else 0

    def __iter__(self):
        return iter(self.terms)

    def __repr__(self):
        return f"{type(self).__name__}(r={self.growth_factor_r}, N={len(self)})"

    @property
    def terms(self) -> TermsView:
        return TermsView(self, range(len(self)))

    def term(self, n: int) -> int:
        """1-based access: a_n, stepped from the checkpoint below it."""
        return self.terms[n - 1]

    def _stream(self, i: int, m: int = 1, mask: int | None = None) -> Iterator[int]:
        """y_n = m * a_n for n = i+1, ..., N (i 0-based), each from the one
        before by q * y_(n+1) = p * y_n + m * delta_n, starting from m times
        the checkpoint at or below a_(i+1); with a mask, y_n & mask.

        p * y_n + m * delta_n = q * m * a_(n+1) as integers, for every
        delta_n of either sign, so y is carried exactly and the division is
        exact, a negative y too: a shift for q = 2^s, one // otherwise.  For
        q = 1 nothing is divided, so a masked walk keeps y reduced."""
        p, q = self.growth_factor_r.numerator, self.growth_factor_r.denominator
        s = q.bit_length() - 1 if q & (q - 1) == 0 else None  # q = 2^s
        c = self.stride
        k = i - i % c
        y = m * self.checkpoints[i // c]
        for n, d in enumerate(islice(self.deltas, k, None), k):
            if n >= i:
                yield y if mask is None else y & mask
            y = p * y + m * d if d else p * y
            if s is None:
                y //= q
            elif s:
                y >>= s
            elif mask is not None:
                y &= mask
        yield y if mask is None else y & mask

    def residues(self, m: int, P: int, start: int = 1, stop: int | None = None) -> Iterator[int]:
        """m * a_n mod 2^P for a_start..a_stop (1-based, inclusive; stop=None:
        a_N), one at a time: the walk of the terms with y_n = m * a_n, each
        masked to its low P bits."""
        n = len(self)
        _require(n, stop)
        stop = n if stop is None else stop
        if start > stop:
            return iter(())
        return islice(self._stream(start - 1, m, (1 << P) - 1), stop - start + 1)


@dataclass(frozen=True, init=False, repr=False)
class LacunarySequence(Recurrence):
    """Positive terms with a_{n+1} >= r * a_n and r > 1, kept as their
    recurrence at r and checked here: r > 1, a_1 > 0 and every delta_n >= 0;
    NotLacunaryError names the first a_n that breaks the ratio.

    Built from explicit terms, LacunarySequence(terms, r)."""

    def _build(self, r: Fraction, deltas, checkpoints) -> None:
        if r <= 1:
            raise NotLacunaryError(f"growth factor {r} is not > 1")
        if not checkpoints or checkpoints[0] <= 0:
            raise NotLacunaryError("not-lacunary: terms must be nonempty and positive")
        bad = _first_descent(deltas)  # with a_1 > 0, every term is positive
        if bad is not None:
            raise NotLacunaryError(f"a_{bad} < {r} * a_{bad - 1}")
        super()._build(r, deltas, checkpoints)


class TermsView(Sequence):
    """The terms of a Recurrence at some indices, read-only and computed on
    demand: len, a_n by index (stepped from the checkpoint below it),
    iteration (one pass, each term from the one before) and forward slices,
    which are views again.  It equals any sequence of the same terms.  A
    slice that ends past the last term raises SequenceTooShortError naming
    both lengths, where a tuple would cut it short."""

    __slots__ = ("_seq", "_idx")

    def __init__(self, seq: Recurrence, idx: range):
        self._seq = seq
        self._idx = idx

    def __len__(self):
        return len(self._idx)

    def __getitem__(self, i):
        if isinstance(i, slice):
            if i.step is not None and i.step < 0:
                raise ValueError("a terms view steps forward only")
            _require(len(self._idx), i.stop)
            return TermsView(self._seq, self._idx[i])
        return next(self._seq._stream(self._idx[i]))

    def __iter__(self):
        idx = self._idx
        if not idx:
            return iter(())
        return islice(self._seq._stream(idx[0]), 0, idx[-1] - idx[0] + 1, idx.step)

    def __eq__(self, other):
        """Term by term against any sequence, as a tuple of the terms would."""
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self):
        return f"TermsView({self._seq!r}, {self._idx})"


@dataclass(frozen=True, init=False, repr=False)
class ThinnedSequence(Recurrence):
    """K terms a~_n = parent term index_offset + n*step (1-based), kept as
    their recurrence at the parent's ratio r^step, so rho = den(r)^step;
    without a parent, at ratio 1, so rho = 1 and delta_n = a~_(n+1) - a~_n.
    The terms are any iterable of K integers, read once."""

    parent: LacunarySequence | None
    l: int
    step: int
    K: int
    xi: float
    index_offset: int

    def __init__(self, parent, l, step, K, terms, xi, index_offset=0):
        r = parent.growth_factor_r**step if parent is not None else Fraction(1)
        self._build(r, *_recurrence(terms, r, K))
        if K < 1 or len(self) != K:
            raise ValueError(f"need K >= 1 terms, got {len(self)} for K = {K}")
        vars(self).update(parent=parent, l=l, step=step, K=K, xi=xi, index_offset=index_offset)


def smallest_l(r: Fraction) -> int:
    """Smallest positive integer l with l * lo > 1, lo a positive lower
    bound on ln r, so r^l > e: lo = max(ln_lower(r), 1 - 1/r), since
    ln r >= 1 - 1/r > 0 keeps lo positive however close r is to 1."""
    r = Fraction(r)
    if r <= 1:
        raise NotLacunaryError(f"growth factor {r} is not > 1")
    lo = max(ln_lower(r), 1 - 1 / r)
    return math.floor(1 / lo) + 1


def geometric_sequence(r: Fraction, n_terms: int) -> LacunarySequence:
    """Terms t_n = ceil(r * t_{n-1}) for n = 1..n_terms, t_0 = 1.

    This is the smallest sequence with t_n >= ceil(r^n) and the Hadamard
    condition t_n >= r * t_{n-1}, i.e. max(ceil(r^n), ceil(r * t_{n-1})):
    t_{n-1} >= r^{n-1} gives r * t_{n-1} >= r^n, so ceil(r * t_{n-1}) >=
    ceil(r^n), and t_n >= r * t_{n-1} >= r^n carries the induction on.  For
    an integer r the terms are exactly r^n.

    With r = p/q, ceil(p * t / q) = (p * t + delta) / q for delta =
    (-p * t) mod q, so the terms stream once, keeping each delta and every
    stride-th term; for an integer r every delta is 0 and the checkpoints
    are powers of r.
    """
    r = Fraction(r)
    if r <= 1:
        raise NotLacunaryError(f"growth factor {r} is not > 1")
    p, q = r.numerator, r.denominator
    c = _stride(n_terms)
    if q == 1:
        jump = p**c
        checkpoints = [p] if n_terms > 0 else []
        for _ in range(c, n_terms, c):
            checkpoints.append(checkpoints[-1] * jump)
        deltas = (0,) * max(n_terms - 1, 0)
    else:
        checkpoints, deltas = [], []
        t = 1
        for i in range(n_terms):
            t, rem = divmod(p * t, q)
            if rem:
                t += 1  # ceil(r * t)
            if i:
                deltas.append(q - rem if rem else 0)
            if i % c == 0:
                checkpoints.append(t)
    # the construction is checked, not assumed
    return LacunarySequence._from_recurrence(r, deltas, checkpoints)


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
    """a~_n = a_{offset + n*step} for n = 1..K, both sizes set by N alone;
    the window of N terms streams once."""
    window = seq.terms[offset : offset + N]
    l = smallest_l(seq.growth_factor_r)
    if N < 3:
        raise NBelowThresholdError(f"N-below-threshold: N={N}")
    step = l * _floor_log(N)
    K = _floor_quotient(N, l)
    if step < 1 or K < 1:
        raise NBelowThresholdError(f"N-below-threshold: N={N} gives step={step}, K={K}")
    xi = l * float(ln_lower(seq.growth_factor_r))
    return ThinnedSequence(seq, l, step, K, window[step - 1 : K * step : step], xi, offset)


def save_sequence(path, seq: LacunarySequence) -> None:
    r = seq.growth_factor_r
    with open(path, "w") as fh:
        fh.write(f"# r={r.numerator}/{r.denominator}\n")
        for t in seq.terms:
            fh.write(f"{t}\n")


def load_sequence(path) -> LacunarySequence:
    """Read a file written by save_sequence.  Raises MalformedSequenceFileError
    when the file cannot be read (naming the OS reason) or the
    '# r=<rational>' header or a term does not parse; LacunarySequence
    raises NotLacunaryError unless the ratio exceeds 1 and the terms are
    nonempty, positive and keep it."""
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if not header.startswith("# r="):
                raise ValueError("missing '# r=<rational>' header")
            r = Fraction(header[4:])
            terms = tuple(int(line) for line in fh if line.strip())
    except (OSError, ValueError, ZeroDivisionError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise MalformedSequenceFileError(f"malformed-sequence-file: {path}: {reason}") from None
    return LacunarySequence(terms, r)
