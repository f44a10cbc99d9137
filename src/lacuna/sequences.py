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
shift for q = 2^s and one // otherwise.  One read-only view, a Walk, reads
y_n over a window of terms: with m = 1 it is the terms (seq.terms), and with
any m masked to P bits the dilates m * a_n mod 2^P (seq.residues), so no
other module reads the checkpoints.  A window's keys(), the top 64 bits of
its dilates, come from one of three readers, chosen from the window alone
(Walk.keys).  When every term from the checkpoint at or below the window's
first term is a power of two, a_j = 2^(e_j) with e_j rising by log2(p), the
key of a_j is 64 bits of m read at a fixed offset, all of them from one
byte string (byte windows).  Otherwise a key walk for q = 2^s begins at that
checkpoint, jumps exactly every B terms and reads the keys in between from a
short window of the leading bits, taking a key from the exact walk only
where the window's carry bound could reach it; odd q > 1, a delta_n < 0 or a
P too short for the window take every key from the exact walk.  A window's
at() reads exact dilates at a few positions,
each stepped from the checkpoint below it, all within one exact walk: this
is how lacuna.dyadic.gap_report resolves the candidates its keys leave.
For a LacunarySequence a_{n+1} >= r * a_n is delta_n >= 0, N short
comparisons.  geometric_sequence streams its terms once and keeps only the
checkpoints.

The thinned subsequence a~_n = a_{offset + n*step} of a window of N terms
(offset 0 for the first N, N for the block (N, 2N]), with step =
l * floor(ln N) (l the smallest integer with r^l > e), has consecutive
ratios exceeding N^xi with xi = l*ln r > 1, which is what makes small
integer combinations of its terms linearly independent.  It is lacunary
with ratio r^step, so a ThinnedSequence is the same recurrence at r^step,
with rho = q^step and delta~_n = q^step * a~_{n+1} - p^step * a~_n.  thin
builds it from the parent's recurrence by one affine jump
(Recurrence.jump): C * a_(k+m) = A * a_k + S with A = p^m, C = q^m and S
a short sum of the deltas delta_k..delta_(k+m-1), so delta~_n is one such
S and each checkpoint after a~_1 one jump over the thinned stride.  A list
of terms without a parent is kept at ratio 1: delta_n = a_{n+1} - a_n, of
any sign.

Every transcendental value lacuna decides with (ln x here, the Littlewood
threshold (ln ln n)^(2+eps) / ln n in lacuna.littlewood, the printed
N*G/(ln N)^kappa of lacuna.dyadic) is evaluated once by libmp at PREC = 136
bits and enters through one rule, enclose(raw, width): the exact value v of
the rounded result, widened to (v - 2^-width, v + 2^-width), with a width
that must stay well above v's last place.  ln_bounds(x, width) is ln x so
enclosed, at width 60 by default; thin takes floor(ln N) and
floor(N / (l ln N)) where both ends of ln_bounds(N, 100) agree.
mpf_fraction, the exact value of an mpf, is the one converter.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np
from mpmath import libmp

from .errors import (
    MalformedSequenceFileError,
    NBelowThresholdError,
    NotLacunaryError,
    SequenceTooShortError,
)

PREC, RND = 136, libmp.round_nearest  # the precision of mpmath at 40 decimal digits
_ENCLOSE_GUARD = 16  # bits between an enclosure's half-width and its value's last place


def mpf_fraction(x) -> Fraction:
    """The exact rational value of an mpmath number or its raw mpf tuple,
    whatever the current mpmath context."""
    return Fraction(*libmp.to_rational(getattr(x, "_mpf_", x)))


def error_exponent(top: int) -> int:
    """The premise of the one enclosure rule: a value below 2^top in
    magnitude that a libmp evaluation rounded at PREC bits lies within
    2^error_exponent(top) of the exact value, _ENCLOSE_GUARD bits above its
    last place at PREC, taken no finer than 1's (every argument enters
    rounded to PREC bits, which alone moves a logarithm by up to 2^-PREC).
    The few roundings of one evaluation stay far inside that."""
    return _ENCLOSE_GUARD + max(top, 0) - PREC


def enclose(raw, width: int) -> tuple[Fraction, Fraction]:
    """(v - 2^-width, v + 2^-width) for v the exact value of a raw mpf that
    a libmp evaluation rounded at PREC bits: the one rule by which a
    transcendental value enters as a rational enclosure.  It holds the
    exact value when 2^-width is at least the premise 2^error_exponent(top)
    for v below 2^top (top = exp + bc of the raw mpf); a narrower enclosure
    raises ValueError."""
    _, _, exp, bc = raw
    if -width < error_exponent(exp + bc):
        raise ValueError(f"an enclosure of width 2^-{width} is below the precision of {PREC} bits")
    v, guard = mpf_fraction(raw), Fraction(1, 1 << width)
    return v - guard, v + guard


def ln_bounds(x: Fraction | int, width: int = 60) -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds on ln(x), 2^-width from ln x evaluated
    at PREC bits (enclose).  x is built as mpmath's mpf(num) / den builds
    it: the numerator rounded at PREC bits, the denominator exact."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("ln of non-positive value")
    num = libmp.from_int(x.numerator, PREC, RND)
    arg = libmp.mpf_div(num, libmp.from_int(x.denominator), PREC, RND)
    return enclose(libmp.mpf_log(arg, PREC, RND), width)


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


_JUMP_BITS = 512  # bits of p^B, the short factor of each exact jump of the key walk
_KEY_GUARD = 64  # bits of the key walk's window between its carry bound and the key


def _key_guard(p: int, s: int, B: int, dmax: int) -> int:
    """G, the bits of the key walk's window below the key: about _KEY_GUARD
    more than bits(E_(B-1)) for the carry bounds E_j of r = p/2^s with every
    delta <= dmax, which grow about as (p + dmax) j max(1, p/2^s)^j."""
    growth = max(0, (p**B).bit_length() - s * B)  # bits of (p/2^s)^B
    return _KEY_GUARD + (p + dmax).bit_length() + B.bit_length() + growth


def _carry_bounds(p: int, s: int, dmax: int, B: int) -> list[int]:
    """E_0..E_(B-1) of Recurrence._window_keys: E_0 = 0 and
    E_(j+1) = ceil((p E_j + p + dmax) / 2^s)."""
    E = [0]
    for _ in range(B - 1):
        E.append(-(-(p * E[-1] + p + dmax) >> s))
    return E


def _first_descent(deltas) -> int | None:
    """The 1-based n + 1 of the first delta_n < 0, i.e. the first a_{n+1} <
    r * a_n; None when every delta_n >= 0."""
    if not deltas or min(deltas) >= 0:
        return None
    return next(n + 2 for n, d in enumerate(deltas) if d < 0)


def _jump_sum(p: int, q: int, span) -> int:
    """S = sum_(j<m) p^(m-1-j) * q^j * span[j] for the m = len(span) deltas
    of one jump (Recurrence.jump), by Horner's rule; 0, with no step, when
    they are all 0."""
    S, qj = 0, 1
    if any(span):
        for d in span:
            S = p * S + qj * d
            qj *= q
    return S


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
    the recurrence (_stream) gives y_n = m * a_n, read through a Walk: the
    terms (seq.terms; iterating seq reads them too) and the dilates
    m * a_n mod 2^P (seq.residues); only the walk reads the checkpoints and
    the stride.  The top 64 bits of the dilates come from byte windows of
    m where every term is a power of two, from the key walk (_window_keys)
    at q = 2^s, with the exact walk as its fallback, and from the exact
    walk alone otherwise (Walk.keys)."""

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
    def terms(self) -> Walk:
        return Walk(self, range(len(self)))

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
        q = 1 nothing is divided, so a masked walk reduces y once at the
        start and once per step, and yields it as it is."""
        p, q = self.growth_factor_r.numerator, self.growth_factor_r.denominator
        s = q.bit_length() - 1 if q & (q - 1) == 0 else None  # q = 2^s
        c = self.stride
        k = i - i % c
        y = m * self.checkpoints[i // c]
        step_mask = mask if q == 1 else None  # the step keeps y reduced
        if step_mask is not None:
            y &= step_mask
            mask = None
        for n, d in enumerate(islice(self.deltas, k, None), k):
            if n >= i:
                yield y if mask is None else y & mask
            y = p * y + m * d if d else p * y
            if s is None:
                y //= q
            elif s:
                y >>= s
            elif step_mask is not None:
                y &= step_mask
        yield y if mask is None else y & mask

    def jump(self, k: int, m: int) -> tuple[int, int, int]:
        """(A, S, C) with C * y_(k+m) = A * y_k + S for the 0-based terms
        y_k = seq.terms[k]: A = p^m, C = q^m and
        S = sum_(j<m) p^(m-1-j) * q^j * delta_(k+j), by Horner's rule over
        the m deltas from delta_k, so no term is read.  S = 0 when they are
        all 0, as at an integer ratio."""
        _require(len(self), k + m + 1)
        p, q = self.growth_factor_r.numerator, self.growth_factor_r.denominator
        return p**m, _jump_sum(p, q, self.deltas[k : k + m]), q**m

    def residues(self, m: int, P: int, start: int = 1, stop: int | None = None) -> Walk:
        """The view of m * a_n mod 2^P for a_start..a_stop (1-based,
        inclusive; stop=None: a_N): the walk of the terms with y_n = m * a_n,
        each masked to its low P bits."""
        return Walk(self, range(len(self)), m, P)[start - 1 : stop]

    def _exact_at(self, m: int, mask: int | None):
        """The function i -> y_(i+1) & mask (_stream) for increasing 0-based
        i: it continues one exact walk, and restarts it from the checkpoint
        at or below i only when that checkpoint lies past the walk, so the
        calls together step at most once over each term."""
        c = self.stride
        walk, at = None, -1  # the walk's next value is that of index at

        def exact(i: int) -> int:
            nonlocal walk, at
            if at < i - i % c:
                walk, at = self._stream(i, m, mask), i
            y = next(islice(walk, i - at, None))
            at = i + 1
            return y

        return exact

    def _window_keys(self, m: int, P: int, k0: int, n: int, B: int, G: int, E: list[int]) -> Iterator[int]:
        """The key walk for r = p/2^s with every delta_k >= 0 and P >= 64 + G,
        over the terms k0 + 1..n (k0 0-based, at a checkpoint).

        Write Y_j = y_(k+j) for a block that starts at the term k, where the
        exact Y_0 is known: Y_j = m * a_(k+j), reduced mod 2^P when s = 0.
        The key of Y_j is bits [P - 64, P) of Y_j.  With L = P - 64 - G,
        the window is X_j = floor(Y_j / 2^L) mod 2^W, W = 64 + G + sB, and
        the key is bits [G, G + 64) of X_j.

        Window step.  Write m = M 2^L + mu and Y_j = X_j 2^L + eps_j with
        0 <= mu, eps_j < 2^L (M = floor(m / 2^L), m of either sign).  Then
        2^s Y_(j+1) = p Y_j + m delta_j gives
            floor(Y_(j+1) / 2^L) = floor((p X_j + M delta_j + f_j) / 2^s),
            f_j = (p eps_j + mu delta_j) / 2^L in [0, p + delta_j),
        and for s = 0 the same holds mod 2^(P - L), since 2^L divides 2^P.
        The walk steps H_(j+1) = floor((p H_j + M delta_j) / 2^s) from the
        exact H_0 = X_0.  Each step loses the s top bits of the window (the
        bits of Y_j from P + s(B - j) up depend on bits it dropped), so
        mod 2^W the bits of H_j below P - L + s(B - j) >= G + 64 are valid.

        Carry bound.  Let e_j = floor(Y_j / 2^L) - H_j, e_0 = 0.  Since
        floor((a + b) / c) - floor(a / c) lies in [0, ceil(b / c)] for real
        b >= 0, and b = p e_j + f_j < p E_j + p + delta_j,
            0 <= e_(j+1) <= E_(j+1) = ceil((p E_j + p + dmax) / 2^s)
        with dmax >= every delta_j (_carry_bounds).  So the key,
        floor((H_j + e_j) / 2^G) mod 2^64, is (H_j >> G) mod 2^64 whenever
        (H_j mod 2^G) + E_j < 2^G: no carry reaches bit G.  Any other key
        is read from the exact walk at that index (_exact_at), so all of
        them together cost at most one exact walk of the terms.

        Jump.  The first block starts at k0 from m times the checkpoint
        there.  After B steps, 2^(sB) Y_B = p^B Y_0 + m D_B with
        D_(j+1) = p D_j + 2^(sj) delta_(k+j), D_0 = 0, so the next block
        starts from the exact Y_B = (p^B Y_0 + m D_B) >> sB (mod 2^P for
        s = 0).  E_j grows like (p / 2^s)^j, and G leaves about _KEY_GUARD
        bits above E_(B-1), so for a random m a key is read from the exact
        walk about once in 2^_KEY_GUARD."""
        p, q = self.growth_factor_r.numerator, self.growth_factor_r.denominator
        s = q.bit_length() - 1
        L = P - 64 - G
        wmask, gmask = (1 << 64 + G + s * B) - 1, (1 << G) - 1
        kmask, pmask = (1 << 64) - 1, (1 << P) - 1
        M = m >> L
        limits = [(1 << G) - e for e in E]
        jump = p**B
        deltas = self.deltas
        exact = self._exact_at(m, pmask)
        y = m * self.checkpoints[k0 // self.stride]
        for k in range(k0, n, B):
            if k > k0:
                y = (jump * y + m * D) >> s * B
            if not s:
                y &= pmask
            h = (y >> L) & wmask
            D = 0
            for i, lim in enumerate(limits[: n - k], k):
                if h & gmask < lim:
                    yield (h >> G) & kmask
                else:
                    yield exact(i) >> (L + G)
                if i + 1 < n:
                    d = deltas[i]
                    if d:
                        h = ((p * h + M * d) >> s) & wmask
                        D = p * D + (d << s * (i - k))
                    else:
                        h = ((p * h) >> s) & wmask
                        D *= p


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


def _byte_window_keys(m: int, P: int, e0: int, t: int, n: int) -> np.ndarray:
    """The keys of m * 2^(e_j) mod 2^P for e_j = e0 + t j, j < n: bits
    [P - 64 - e_j, P - e_j) of m, zero below bit 0, so 0 once e_j >= P.

    Only bits [P - 64 - e_(n-1), P - e0) of m are read, as one big-endian
    byte string padded below to whole bytes and one spare byte; with
    e_j clamped at P, the key of j is the 64 bits at offset e_j - e0 from
    its top: the word at byte (e_j - e0) >> 3, shifted left by the rest,
    with the top bits of the byte after it shifted in."""
    first, last = min(e0, P), min(e0 + t * (n - 1), P)
    low, width = P - 64 - last, last - first + 64
    bits = (m >> low if low >= 0 else m << -low) & ((1 << width) - 1)
    size = (width + 15) // 8
    buf = (bits << (8 * size - width)).to_bytes(size, "big")
    offs = np.minimum(e0 + t * np.arange(n, dtype=np.int64), P) - first
    j, sh = offs >> 3, (offs & 7).astype(np.uint64)
    words = np.ndarray((size - 7,), ">u8", buf, 0, (1,))  # a big-endian word at every byte
    spare = np.frombuffer(buf, np.uint8)[j + 8].astype(np.uint64)
    return (words[j].astype(np.uint64) << sh) | (spare >> (np.uint64(8) - sh))


class Walk(Sequence):
    """y_n = m * a_n of a Recurrence at some 0-based term indices, masked to
    its low P bits when P is given, read-only and computed on demand: len,
    y_n by index (stepped from the checkpoint below it), iteration (one
    pass, each value from the one before) and forward slices, which are
    views again.  With m = 1 and no P it is the terms (seq.terms), with P
    the dilates m * a_n mod 2^P (seq.residues).  It equals any sequence of
    the same integers.  A slice that ends past the last term raises
    SequenceTooShortError naming both lengths, where a tuple would cut it
    short.  keys() and at() read a contiguous window only."""

    __slots__ = ("_seq", "_idx", "_m", "_P", "_mask")

    def __init__(self, seq: Recurrence, idx: range, m: int = 1, P: int | None = None):
        self._seq, self._idx, self._m, self._P = seq, idx, m, P
        self._mask = None if P is None else (1 << P) - 1

    def __len__(self):
        return len(self._idx)

    def __getitem__(self, i):
        if isinstance(i, slice):
            if i.step is not None and i.step < 0:
                raise ValueError("a walk steps forward only")
            _require(len(self._idx), i.stop)
            return Walk(self._seq, self._idx[i], self._m, self._P)
        return next(self._seq._stream(self._idx[i], self._m, self._mask))

    def __iter__(self):
        idx = self._idx
        if not idx:
            return iter(())
        walk = self._seq._stream(idx[0], self._m, self._mask)
        return islice(walk, 0, idx[-1] - idx[0] + 1, idx.step)

    def _window(self) -> range:
        if self._idx.step != 1:
            raise ValueError("keys and at read a contiguous window only")
        return self._idx

    def keys(self) -> np.ndarray:
        """The 64-bit keys of the window, in one uint64 array: the top 64
        bits of each dilate, floor((m * a_k mod 2^P) * 2^(64 - P)), equal
        bit for bit to those of the view's own values.  Each reader starts
        at the checkpoint at or below the window's first term, and the
        window picks one of three:
          * byte windows (_byte_window_keys) when every term from that
            checkpoint on is a power of two: q = 1, p a power of two >= 2,
            the checkpoint a power of two and every delta_k from it to the
            window's end 0.  Then a_k = 2^(e_k), e_k rising by log2(p), and
            the key is bits [P - 64 - e_k, P - e_k) of m, for any P;
          * the key walk (_window_keys) for q = 2^s, every delta_k >= 0 and
            P >= 64 + G: it carries the exact y = m * a_k only at every B-th
            term and reads the keys in between from a short window; B and G
            depend only on the ratio and the widest delta_k it steps over;
          * the exact walk, shifted, for every other window.
        Neither the exact dilates nor a list of the keys is held."""
        idx, seq, m, P = self._window(), self._seq, self._m, self._P
        if not idx:
            return np.empty(0, dtype=np.uint64)
        start, stop = idx.start, idx.stop  # the terms start + 1..stop
        p, q = seq.growth_factor_r.numerator, seq.growth_factor_r.denominator
        c = seq.stride  # k, the checkpoint at or below the first term, and a, its value
        k, a = start - start % c, seq.checkpoints[start // c]
        deltas = seq.deltas[k : stop - 1]
        t = p.bit_length() - 1  # log2(p) for a power of two p
        if q == 1 and t and p == 1 << t and a > 0 and a & (a - 1) == 0 and not any(deltas):
            return _byte_window_keys(m, P, a.bit_length() - 1 + t * (start - k), t, len(idx))
        s = q.bit_length() - 1
        block = max(1, _JUMP_BITS // p.bit_length())  # p^B has about _JUMP_BITS bits
        dmax = max(deltas, default=0)
        guard = _key_guard(p, s, block, dmax)
        if q != 1 << s or min(deltas, default=0) < 0 or P < 64 + guard:
            shift = P - 64
            keys = (r >> shift for r in self) if shift >= 0 else (r << -shift for r in self)
        else:
            keys = seq._window_keys(m, P, k, stop, block, guard, _carry_bounds(p, s, dmax, block))
            if start > k:
                keys = islice(keys, start - k, None)
        return np.fromiter(keys, dtype=np.uint64, count=len(idx))

    def at(self, positions) -> Iterator[int]:
        """The values at increasing 0-based positions of the window, one at
        a time, all from one exact walk (_exact_at): together they cost at
        most one walk between the first and the last, and positions far
        apart cost about a stride each."""
        first = self._window().start
        exact = self._seq._exact_at(self._m, self._mask)
        return (exact(first + j) for j in positions)

    def __eq__(self, other):
        """Value by value against any sequence, as a tuple of them would."""
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self):
        return f"Walk({self._seq!r}, {self._idx}, m={self._m}, P={self._P})"


@dataclass(frozen=True, init=False, repr=False)
class ThinnedSequence(Recurrence):
    """K terms a~_n = parent term index_offset + n*step (1-based), kept as
    their recurrence at the parent's ratio r^step, so rho = den(r)^step;
    without a parent, at ratio 1, so rho = 1 and delta_n = a~_(n+1) - a~_n.
    The terms are any iterable of K integers, read once, or None: then
    they come from the parent's recurrence, and no wide term but the
    checkpoints is formed.  delta~_n is the S of parent.jump from a~_n over
    step terms, a~_1 is one parent term, and each later checkpoint is one
    jump of the thinned recurrence over its stride from the one before:
    (A * a + S) / C, a shift when C is a power of two."""

    parent: LacunarySequence | None
    l: int
    step: int
    K: int
    xi: float
    index_offset: int

    def __init__(self, parent, l, step, K, terms, xi, index_offset=0):
        r = parent.growth_factor_r**step if parent is not None else Fraction(1)
        if terms is None:
            first = index_offset + step - 1  # a~_1, 0-based in the parent
            p, q = parent.growth_factor_r.numerator, parent.growth_factor_r.denominator
            # delta~_n, the S of parent.jump from a~_n over step terms
            starts = range(first, first + (K - 1) * step, step)
            deltas = tuple(_jump_sum(p, q, parent.deltas[i : i + step]) for i in starts)
            self._build(r, deltas, (parent.terms[first],))
            self._build(r, deltas, self._jumped_checkpoints())
        else:
            self._build(r, *_recurrence(terms, r, K))
        if K < 1 or len(self) != K:
            raise ValueError(f"need K >= 1 terms, got {len(self)} for K = {K}")
        vars(self).update(parent=parent, l=l, step=step, K=K, xi=xi, index_offset=index_offset)

    def _jumped_checkpoints(self) -> tuple[int, ...]:
        """The first checkpoint, then each next one by a jump over the stride."""
        c = self.stride
        checkpoints = [self.checkpoints[0]]
        for k in range(0, len(self) - c, c):
            A, S, C = self.jump(k, c)
            y = A * checkpoints[-1] + S
            checkpoints.append(y >> (C.bit_length() - 1) if C & (C - 1) == 0 else y // C)
        return tuple(checkpoints)


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
    elif q & (q - 1) == 0:
        # q = 2^s: delta = (-p t) mod 2^s is a mask and the division a shift
        s, low = q.bit_length() - 1, q - 1
        checkpoints, deltas = [], []
        t = 1
        for i in range(n_terms):
            pt = p * t
            d = -(pt & low) & low
            t = (pt + d) >> s
            if i:
                deltas.append(d)
            if i % c == 0:
                checkpoints.append(t)
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


def thin(seq: LacunarySequence, N: int, offset: int = 0) -> ThinnedSequence:
    """Step-strided subsequence a~_n = a_{offset + n*step} for n = 1..K of
    the N terms after the first offset: the first N terms at offset 0, the
    translated block (N, 2N] at offset N.

    step = l*floor(ln N) and K = floor(N / (l*ln N)), both set by N alone
    and each decided by both ends of ln_bounds(N, 100) (a floor they do not
    decide raises ArithmeticError); rejects N too small for a positive step
    or a positive K instead of clamping, and a window past the sequence's
    end (sequence-too-short).  The thinning is built from seq's recurrence
    (ThinnedSequence with terms None): it sums the window's short deltas
    and reads one parent term, so no wide term but its checkpoints is
    formed.
    """
    _require(len(seq), offset + N)
    l = smallest_l(seq.growth_factor_r)
    if N < 3:
        raise NBelowThresholdError(f"N-below-threshold: N={N}")
    lo, hi = ln_bounds(N, 100)
    step, K = l * math.floor(lo), N // (l * hi)
    if (step, K) != (l * math.floor(hi), N // (l * lo)):
        raise ArithmeticError(f"ln_bounds({N}, 100) does not decide step and K")
    if step < 1 or K < 1:
        raise NBelowThresholdError(f"N-below-threshold: N={N} gives step={step}, K={K}")
    xi = l * float(ln_lower(seq.growth_factor_r))
    return ThinnedSequence(seq, l, step, K, None, xi, offset)


def _term_line(t: int) -> str:
    """A term as one line of a sequence file: decimal, or 0x hex past
    str(int)'s digit limit, which hex does not have."""
    try:
        return f"{t}\n"
    except ValueError:
        return f"{t:#x}\n"


def _parse_term(line: str) -> int:
    """A term line of either form _term_line writes; base 16 parses in
    linear time and has no digit limit."""
    text = line.strip()
    return int(text, 16) if text[:2] in ("0x", "0X") else int(text)


def save_sequence(path, seq: LacunarySequence) -> None:
    """One '# r=p/q' header line, then one term per line (_term_line)."""
    r = seq.growth_factor_r
    with open(path, "w") as fh:
        fh.write(f"# r={r.numerator}/{r.denominator}\n")
        for t in seq.terms:
            fh.write(_term_line(t))


def load_sequence(path) -> LacunarySequence:
    """Read a file written by save_sequence, its terms decimal or 0x hex.
    Raises MalformedSequenceFileError when the file cannot be read (naming
    the OS reason) or the '# r=<rational>' header or a term does not parse;
    LacunarySequence raises NotLacunaryError unless the ratio exceeds 1 and
    the terms are nonempty, positive and keep it."""
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if not header.startswith("# r="):
                raise ValueError("missing '# r=<rational>' header")
            r = Fraction(header[4:])
            terms = tuple(_parse_term(line) for line in fh if line.strip())
    except (OSError, ValueError, ZeroDivisionError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise MalformedSequenceFileError(f"malformed-sequence-file: {path}: {reason}") from None
    return LacunarySequence(terms, r)
