"""Inhomogeneous approximation pipeline: convergent-steered lacunary
sequences for a fixed target pair (beta, zeta), and product scanners for
n * ||alpha n - eta|| * ||beta n - zeta||.

Sequence terms are residues of the convergent denominators: writing beta =
p_m/q_m + theta_m/q_m with theta_m = q_m beta - p_m, any n <= q_m with
n p_m = round(zeta q_m) (mod q_m) has ||beta n - zeta|| <= 1/(2 q_m) +
|theta_m|, so n * ||beta n - zeta|| < 3/2.  The builder only trusts this
after an exact recomputation of every emitted term; growth is forced into
the window 8^n < a_n (with a_{n+1} >= 8 a_n).

Every distance ||v n - s|| is one exact cf.affine_dist_to_int(v, n, s), with
v and s read once per scan as Fractions or QuadraticReals (a DyadicReal as
its rational value).
Every product is decided exactly: in one quadratic field, or rational, by
one sign; across two fields by signs in one field each.  Float views are
built from factors that stay O(1), never from n itself.

The brute scan over every n <= n_limit prefilters in 64-bit fixed point, in
chunks of _CHUNK values of n: n alpha - eta is taken exactly mod 2^64 from
the top 64 fractional bits of alpha and eta, which puts it within n units
of 2^-64 of the true value, and each chunk compares against one upper bound
on the threshold.  The margin of the keep rule is that error bound plus five
float roundings (_brute_candidates), so no solution is dropped, and every
kept n is confirmed exactly.

The threshold, ln ln n and the peak (s/e)^s are evaluated by libmp at the
one working precision, lacuna.sequences.PREC, and enter through its one
enclosure rule (lacuna.sequences.enclose) at width _THR_WIDTH = 50: the
threshold's lower end thr_lo = v - 2^-50 is the one the scan compares with
and prints.

The scan does not run that libmp chain for every candidate.  It walks its
candidates in order (_ThresholdWalk): ln n, ln ln n and the threshold are
integers at _F = 128 fractional bits, and a step to the next n of at most
n/8 moves each by a short atanh or exp series with a proved error.  The
first n, every CZ term, any n that does not increase and any longer step
re-anchor the walk on the chain, whose three values lie within the premise
of enclose (2^16 of their last place at PREC).  The walk's radius (the
anchor's premises plus the series' errors carried through every step) gives
an enclosure of thr_lo 2^-110 to 2^-106 wide in perfbench's scans.  Where
both its ends round to the same float, that float is float(thr_lo); where
they do not, the chain runs at that n.  Each product n ||an-e|| ||bn-z|| is
then decided from the float view that the report prints,
float(||an-e||) * float(n ||bn-z||), which lies within a factor 1 + 2^-50
of it (the truncation of QuadraticReal.to_float and three float roundings,
_view_at_most): at or below the enclosure's lower end by that factor it is
a solution, above its upper end by that factor it is not, and only in
between does the exact rule run, on the chain's thr_lo.  In perfbench's
(phi-1, phi-1) brute scan to 10^6 at eta = zeta = 1/4 that leaves 30
chain evaluations, where each of its 3,003 candidates took one, and no
exact confirmation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cf import ContinuedFraction, QuadraticReal, affine_dist_to_int, expand
from .dyadic import DyadicReal
from .errors import CzPoolExhaustedError, RationalBetaError
from .sequences import PREC, RND, enclose, error_exponent
from mpmath import libmp

_THR_WIDTH = 50  # the enclosures of the threshold are 2^-50 either side of it
_F = 128  # fractional bits of the threshold walk
_SHORT = 3  # a walk's step from n is short when it is at most n / 2^_SHORT
_CAP = _F - 64  # a walk re-anchors before its relative radius reaches 2^-64
_VIEW = 50  # a product's float view lies within a factor 1 + 2^-_VIEW of it
_NORMAL = sys.float_info.min  # the least normal float
_CHUNK = 1 << 16  # n per step of the brute prefilter
_ONE = 1 << 64  # fixed-point unit of the brute prefilter
# (1 - 2^-53)^-5, the rounding allowance of the prefilter's float product
_KEEP = 1 / (1 - Fraction(1, 1 << 53)) ** 5


# ---------------------------------------------------------------------------
# exact scalar helpers (QuadraticReal | Fraction | DyadicReal)
# ---------------------------------------------------------------------------


def _as_exact(value):
    if isinstance(value, QuadraticReal):
        return value
    if isinstance(value, DyadicReal):
        return value.to_fraction()
    return Fraction(value)


def _distance(value, n: int, shift):
    """||value * n - shift||, exact."""
    return affine_dist_to_int(_as_exact(value), n, _as_exact(shift))


def exact_product(value, n: int, shift):
    """n * ||value * n - shift||, exact."""
    return _distance(value, n, shift) * n


def _exponent(epsilon: Fraction):
    """2 + eps as mpmath builds it from mp.mpf(num) / den: the numerator
    rounded, the denominator exact."""
    return libmp.mpf_add(
        libmp.from_int(2),
        libmp.mpf_div(libmp.from_int(epsilon.numerator, PREC, RND),
                      libmp.from_int(epsilon.denominator), PREC, RND),
        PREC, RND,
    )


def _threshold_chain(n: int, exponent):
    """ln n, ln ln n and (ln ln n)^exponent / ln n as raw mpfs, each rounded
    at PREC bits: the libmp chain.  n converts to an mpf exactly, as
    mp.log(n) converts it, and ln n is taken once."""
    ln_n = libmp.mpf_log(libmp.from_int(n), PREC, RND)
    lnln = libmp.mpf_log(ln_n, PREC, RND)
    return ln_n, lnln, libmp.mpf_div(libmp.mpf_pow(lnln, exponent, PREC, RND), ln_n, PREC, RND)


def _threshold_bounds(n: int, exponent) -> tuple[Fraction, Fraction]:
    """The enclosure of (ln ln n)^exponent / ln n at width _THR_WIDTH."""
    return enclose(_threshold_chain(n, exponent)[2], _THR_WIDTH)


def littlewood_threshold_bounds(n: int, epsilon: Fraction) -> tuple[Fraction, Fraction]:
    """Rational enclosure of (ln ln n)^(2+eps) / ln n; domain n >= 3.  The
    value is the one mpmath gives at 40 decimal digits (PREC = 136 bits,
    round-nearest), enclosed 2^-_THR_WIDTH either side (enclose)."""
    if n < 3:
        raise ValueError("threshold defined for n >= 3")
    return _threshold_bounds(n, _exponent(Fraction(epsilon)))


def _peak_threshold(epsilon: Fraction) -> Fraction:
    """An upper bound on (ln ln n)^s / ln n over all n >= 3, s = 2 + eps.
    With L = ln ln n the threshold is g(L) = L^s e^-L, which rises for
    L < s and falls after, so its maximum is g(s) = (s/e)^s."""
    s = _exponent(epsilon)
    log_peak = libmp.mpf_mul(s, libmp.mpf_sub(libmp.mpf_log(s, PREC, RND), libmp.fone),
                             PREC, RND)
    return enclose(libmp.mpf_exp(log_peak, PREC, RND), _THR_WIDTH)[1]


def _chunk_threshold(n0: int, n1: int, epsilon: Fraction) -> Fraction:
    """An upper bound on the threshold over n0 <= n <= n1 (n0 >= 3): its
    value at n0 once ln ln n0 >= s (the falling side, where every chunk of
    a long scan lies, so one chain serves it), at n1 while ln ln n1 <= s
    (the rising side), and the peak (s/e)^s otherwise.  A side test that
    the enclosure of ln ln n leaves undecided takes the peak, which bounds
    every n."""
    s, exponent = 2 + epsilon, _exponent(epsilon)
    lnln, thr = (enclose(v, _THR_WIDTH) for v in _threshold_chain(n0, exponent)[1:])
    if lnln[0] >= s:
        return thr[1]
    lnln, thr = (enclose(v, _THR_WIDTH) for v in _threshold_chain(n1, exponent)[1:])
    if lnln[1] <= s:
        return thr[1]
    return _peak_threshold(epsilon)


# ---------------------------------------------------------------------------
# the threshold walked in fixed point
# ---------------------------------------------------------------------------


def _log_ratio(x0: int, x1: int) -> tuple[int, int]:
    """ln(x1 / x0) in units of 2^-_F, and a bound on its error in those
    units, for integers 0 < x0 <= x1 <= 3 x0.

    ln(x1/x0) = 2 atanh(z), z = (x1 - x0)/(x1 + x0) <= 1/2.  With u = 2^-_F
    the walk takes Z = floor(z/u), so 2 atanh moves by at most
    2u / (1 - z^2) < 3u.  The terms t_j = 2Z (Z u)^(2j) (units) are stepped
    as T_j = floor(T_(j-1) q u), q = floor(Z^2 u), from T_0 = 2Z.  Every
    floor rounds down, so 0 <= t_j - T_j, and
    t_j - T_j <= (t_(j-1) - T_(j-1)) (Z u)^2 + T_(j-1) u + 1 <= 4 by
    induction, as (Z u)^2 <= 1/4 and T_(j-1) u <= 2 Z u <= 1.  The sum adds
    floor(T_j / (2j + 1)), within 4/3 + 1 < 4 of t_j / (2j + 1), up to the
    first T_J = 0; then t_J <= 4 and the tail from J is at most
    t_J / (1 - (Z u)^2) < 8.  So the error is below 4(J - 1) + 8 + 3
    = 4J + 7."""
    z = ((x1 - x0) << _F) // (x1 + x0)
    q = z * z >> _F
    term = total = z << 1
    k = 1  # 2j + 1
    while term:
        k += 2
        term = term * q >> _F
        total += term // k
    return total, 2 * k + 5  # 4J + 7 with k = 2J + 1


def _exp(x: int) -> tuple[int, int]:
    """exp(x 2^-_F) in units of 2^-_F, and a bound on its error in those
    units, for |x| <= 2^(_F - 1).

    The terms t_j = 2^_F |x u|^j / j! are stepped on |x| as
    T_j = floor(floor(T_(j-1) |x| u) / j) from T_0 = 2^_F and added with
    the sign of x^j.  Every floor rounds down, so
    0 <= t_j - T_j <= (t_(j-1) - T_(j-1)) |x u| / j + 1/j + 1 <= 4, as
    |x u| <= 1/2; up to the first T_J = 0 each term is within 4, and the
    tail from J, whose ratios are at most 1/2, is at most 2 t_J <= 8.  So
    the error is at most 4(J - 1) + 8 = 4J + 4."""
    ax = abs(x)
    term = total = 1 << _F
    j = 0
    while term:
        j += 1
        term = (term * ax >> _F) // j
        total += -term if x < 0 and j & 1 else term
    return total, 4 * j + 4


class _ThresholdWalk:
    """thr_lo(n) = v(n) - 2^-_THR_WIDTH along a run of n, where v(n) is the
    libmp chain's value of thr(n) = (ln ln n)^s / ln n, s = 2 + eps.  The
    chain runs at an anchor; a short step from one n to the next runs three
    _log_ratio series and one _exp series in _F-bit fixed point instead
    (Ziv's rounding test: the cheap value decides wherever its proved error
    leaves nothing open, and the chain runs only where it does not).

    at(n) returns (lo, hi, thr) with lo <= thr_lo(n) 2^_F <= hi, and thr the
    exact thr_lo(n) where the chain ran at n, else None.  The step from the
    last n to n' = n + d is short when 1 <= d <= n / 2^_SHORT, so every
    walked n is at least 8, ln n > 2 and L = ln ln n > 1/2; then n'/n,
    ln n' / ln n and L'/L all lie in [1, 3], as _log_ratio needs.  Any
    other n (the first, every CZ term, any n that does not increase)
    re-anchors: the chain gives ln n, ln ln n and thr(n), each within its
    premise 2^error_exponent(top) of the exact value, the premise of
    lacuna.sequences.enclose, and their floors at _F bits start the walk.

    With u = 2^-_F, g(y) = s ln y - y (so thr = exp(g(L))) and
    G = 2 ceil|s| + 1, which bounds |s| and |g'(y)| = |s/y - 1| for
    y >= 1/2, the walk keeps integers A, B, C and radii a, b, c (units of
    u) with

        |A u - ln n| <= a u,  |B u - ln(A u)| <= b u,  |ln(C u) - g(B u)| <= c u.

    Anchor, with p_A, p_B, p_C the premises of ln n, ln ln n and thr in
    units and each floor within 1: a = p_A + 1; b = p_B + 1 + a, as
    |ln(A u) - ln ln n| <= a u / min(A u, ln n) <= a u; and
    c = floor(2^(_F + 1) (p_C + 1) / C) + 1 + G (p_B + 1), as
    |ln(C u) - ln thr| <= (p_C + 1) u / min(C u, thr) with min(C u, thr)
    >= C u / 2 (else c is set past the cap and no step leaves the anchor),
    and |B u - L| <= (p_B + 1) u.

    Step: ln n' = ln n + ln(n'/n), ln(A' u) = ln(A u) + ln(A'/A) and
    g(B' u) = g(B u) + s ln(B'/B) - (B' - B) u hold exactly, and _log_ratio
    gives each logarithm within its error e_1, e_2, e_3.  So
    A' = A + ln(n'/n) adds e_1 to a, and B' = B + ln(A'/A) adds e_2 to b.
    x = floor(s ln(B'/B)) - (B' - B) is within G e_3 + 1 of
    (g(B' u) - g(B u)) / u; E = _exp(x), within e_4 of exp(x u) >= 1/2,
    puts ln(E u) within 2 e_4 u of x u; and C' = floor(C E u) moves ln by at
    most 1/C' < 2^(2 - bitlength(C')), 2^(_F + 2 - bitlength(C')) units.
    So c grows by G e_3 + 2 e_4 + floor(2^(_F + 2 - bitlength(C'))) + 2.  A
    step with |x u| > 1/2 re-anchors.

    Bounds: |B u - L| <= b u + a u / min(A u, ln n) <= (a + b) u, so
    |ln(C u) - ln thr| <= eta u with eta = c + G (a + b).  A step after
    which eta reaches 2^_CAP re-anchors, so eta u < 2^-64 and
    |C u - thr| <= C u (e^(eta u) - 1) <= 2 eta u C u.  As v < C u + 1, v is
    below 2^t for t = bitlength(floor(C u) + 2), and the premise puts it
    within 2^error_exponent(t) of thr.  So
    r = floor(2 eta C u) + 1 + 2^(_F + error_exponent(t)) bounds
    |C - v / u|, and lo = C - r - 2^(_F - _THR_WIDTH), hi = lo + 2r."""

    def __init__(self, epsilon: Fraction):
        self.s = 2 + epsilon
        self.exponent = _exponent(epsilon)
        self.g = 2 * math.ceil(abs(self.s)) + 1
        self.n = None

    def at(self, n: int) -> tuple[int, int, Fraction | None]:
        if self.n is not None and 0 < n - self.n <= self.n >> _SHORT and self._step(n):
            return self._bounds() + (None,)
        return self._anchor(n)

    def _anchor(self, n: int) -> tuple[int, int, Fraction]:
        chain = _threshold_chain(n, self.exponent)
        A, B, C = (libmp.to_fixed(v, _F) for v in chain)
        p_a, p_b, p_c = (1 << _F + error_exponent(v[2] + v[3]) for v in chain)
        self.a = p_a + 1
        self.b = p_b + 1 + self.a
        if C >= 2 * (p_c + 1):
            self.c = ((p_c + 1) << _F + 1) // C + 1 + self.g * (p_b + 1)
        else:
            self.c = 1 << _F  # past the cap: no step leaves this anchor
        self.n, self.A, self.B, self.C = n, A, B, C
        self.eta = self.c + self.g * (self.a + self.b)
        lo = C - (1 << _F - _THR_WIDTH)  # floor(v / u) - 2^(_F - _THR_WIDTH)
        return lo, lo + 1, enclose(chain[2], _THR_WIDTH)[0]

    def _step(self, n: int) -> bool:
        d1, e1 = _log_ratio(self.n, n)
        A = self.A + d1
        d2, e2 = _log_ratio(self.A, A)
        B = self.B + d2
        d3, e3 = _log_ratio(self.B, B)
        x = self.s.numerator * d3 // self.s.denominator - d2
        if abs(x) > 1 << _F - 1:
            return False
        E, e4 = _exp(x)
        C = self.C * E >> _F
        a, b = self.a + e1, self.b + e2
        c = self.c + self.g * e3 + 2 * e4 + ((1 << _F + 2) >> C.bit_length()) + 2
        eta = c + self.g * (a + b)
        if eta >> _CAP:
            return False
        self.n, self.A, self.B, self.C = n, A, B, C
        self.a, self.b, self.c, self.eta = a, b, c, eta
        return True

    def _bounds(self) -> tuple[int, int]:
        C = self.C
        top = ((C >> _F) + 2).bit_length()
        r = (2 * self.eta * C >> _F) + 1 + (1 << _F + error_exponent(top))
        lo = C - r - (1 << _F - _THR_WIDTH)
        return lo, lo + 2 * r


# ---------------------------------------------------------------------------
# convergent-steered sequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CZSequence:
    beta: object
    zeta: Fraction
    terms: tuple[int, ...]

    def __len__(self):
        return len(self.terms)


def _steered_candidate(cf: ContinuedFraction, m: int, zeta: Fraction) -> int:
    """The unique n in [1, q_m] with n*p_m = round(zeta*q_m) mod q_m."""
    p, q = cf.p[m], cf.q[m]
    if q == 1:
        return 1
    target = round(zeta * q) % q
    if target == 0 and zeta == 0:
        return q
    n = target * pow(p, -1, q) % q
    return n if n else q


def cz_build(beta, zeta, n_max: int) -> CZSequence:
    """Greedy selection of steered candidates into the 8^n growth window.

    Every accepted term passes an exact product recheck <= 8; candidates that
    fail it or fall below the window are skipped.  One pass walks the
    convergent index m; when it reaches the end of the expansion the depth
    doubles (up to 2^14) and the walk carries on at m, since a deeper
    expansion keeps every earlier convergent.
    """
    if isinstance(beta, (int, Fraction)) or (isinstance(beta, QuadraticReal) and beta.b == 0):
        raise RationalBetaError(f"rational-beta: steering needs an irrational beta, not {beta}")
    zeta = Fraction(zeta)
    depth, max_depth = 128, 1 << 14
    cf = expand(beta, depth)
    terms = []
    m = 1
    while len(terms) < n_max:
        if m == len(cf.q):
            if depth >= max_depth:
                raise CzPoolExhaustedError(len(terms))
            depth *= 2
            cf = expand(beta, depth)
            continue
        a = _steered_candidate(cf, m, zeta)
        # strict lower bounds: the window 8^(n+1) and the step 8*a_n
        if a > max(8 ** (len(terms) + 1), 8 * terms[-1] if terms else 1):
            if exact_product(beta, a, zeta) <= 8:
                terms.append(a)
        m += 1
    return CZSequence(beta=beta, zeta=zeta, terms=tuple(terms))


def cz_recheck(seq: CZSequence) -> dict:
    """Independent full-precision validation of every emitted term.

    Checks, all exact: a_n * ||beta a_n - zeta|| <= 8; 8^n < a_n; the
    Hadamard step a_{n+1} >= 8 a_n.  Returns per-term booleans plus flags.
    """
    product_ok, window_ok = [], []
    for i, a in enumerate(seq.terms):
        product_ok.append(bool(exact_product(seq.beta, a, seq.zeta) <= 8))
        window_ok.append(8 ** (i + 1) < a)
    step_ok = all(
        seq.terms[i + 1] >= 8 * seq.terms[i] for i in range(len(seq.terms) - 1)
    )
    return {
        "product_ok": product_ok,
        "window_ok": window_ok,
        "step_ok": step_ok,
        "all_ok": all(product_ok) and all(window_ok) and step_ok,
    }


# ---------------------------------------------------------------------------
# product scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LittlewoodReport:
    epsilon: Fraction
    mode: str
    n_scanned: int
    solutions: tuple[tuple[int, float, float], ...]  # (n, product, threshold)
    block_counts: dict

    @property
    def solution_count(self) -> int:
        return len(self.solutions)

    def to_json_dict(self) -> dict:
        return {
            "epsilon": str(self.epsilon),
            "mode": self.mode,
            "n_scanned": self.n_scanned,
            "solution_count": self.solution_count,
            "solutions": [
                {"n": n, "product": p, "threshold": t} for n, p, t in self.solutions
            ],
            "block_counts": {str(k): v for k, v in sorted(self.block_counts.items())},
        }


def _product_at_most(pa, pb, t: Fraction) -> bool:
    """pa * pb <= t, exact.  When pa and pb lie in different quadratic
    fields and pb > 0 (a negative pb is made positive by negating both),
    write t / pb = x + y sqrt(d) in pb's field: pa * pb <= t iff v = pa - x,
    in pa's field, is at most y sqrt(d).  Where the two sides' signs differ
    they decide it; where they agree, so does the sign of v^2 - y^2 d, again
    in pa's field."""
    if not (isinstance(pa, QuadraticReal) and isinstance(pb, QuadraticReal) and pa.d != pb.d):
        return bool(pa * pb <= t)
    sb = pb.sign()
    if sb == 0:
        return t >= 0
    if sb < 0:
        pa, pb = -pa, -pb
    # t / pb = k * (a - b sqrt(d)) with k = t * c / (a^2 - b^2 d)
    k = t * pb.c / (pb.a * pb.a - pb.b * pb.b * pb.d)
    x, y = k * pb.a, -k * pb.b
    v = pa - x
    sv, sy = v.sign(), (y > 0) - (y < 0)
    if sv != sy:
        return sv < sy
    return sv * (v * v - y * y * pb.d).sign() <= 0


def _confirm_solution(alpha, beta, eta, zeta, n, thr_lo: Fraction) -> tuple[bool, float]:
    """Whether n ||an-e|| ||bn-z|| <= thr_lo for exact (_as_exact) alpha,
    beta, eta and zeta, decided exactly, and a float view built from
    ||an-e|| <= 1/2 and n ||bn-z|| only, so it never converts n itself."""
    da = affine_dist_to_int(alpha, n, eta)
    pa = da * n
    pb = affine_dist_to_int(beta, n, zeta) * n
    # n ||an-e|| ||bn-z|| = (n ||an-e||) * (n ||bn-z||) / n
    return _product_at_most(pa, pb, thr_lo * n), float(da) * float(pb)


def _view_at_most(da, pb, lo: int, hi: int) -> tuple[float, bool | None]:
    """The float view P = float(da) * float(pb) of the product
    da pb = n ||an-e|| ||bn-z||, and whether da pb <= thr_lo where the
    view decides it from lo <= thr_lo 2^_F <= hi, else None.

    da and pb are exact and at least 0.  float of a Fraction is correctly
    rounded, a factor 1 + th with |th| <= 2^-53; QuadraticReal.to_float
    rounds floor(x 2^k) / 2^k, which carries at least 53 bits, so it
    truncates by a factor 1 - ta with 0 <= ta < 2^-52 and then rounds.  With
    the product's rounding, P = da pb (1 - ta)(1 - tb)(1 + th_1)(1 + th_2)(1 + th_3)
    while every float is normal, so
    P / (1 + 2^-53)^3 <= da pb <= P / ((1 - 2^-52)^2 (1 - 2^-53)^3), and
    both factors lie within 1 + 2^-_VIEW:
    (1 + 2^-53)^3 <= 1 + 2^-50 and
    (1 - 2^-52)^2 (1 - 2^-53)^3 >= 1 - 7 2^-53 >= 1 / (1 + 2^-50).  So
    P (1 + 2^-_VIEW) <= lo 2^-_F makes n a solution and
    P > hi 2^-_F (1 + 2^-_VIEW) rules it out, both decided on integers.  An
    exact zero factor gives P = 0 = da pb; any other float below the normal
    range decides nothing."""
    fa, fb = float(da), float(pb)
    view = fa * fb
    if not (fa >= _NORMAL and fb >= _NORMAL and view >= _NORMAL or da == 0 or pb == 0):
        return view, None
    num, den = view.as_integer_ratio()
    num <<= _F
    if num * ((1 << _VIEW) + 1) <= lo * den << _VIEW:
        return view, True
    if num << _VIEW > hi * den * ((1 << _VIEW) + 1):
        return view, False
    return view, None


def littlewood_scan(
    alpha,
    beta,
    eta,
    zeta,
    epsilon,
    n_values=None,
    n_limit: int | None = None,
) -> LittlewoodReport:
    """Solutions of n*||alpha n - eta||*||beta n - zeta|| <= (ln ln n)^(2+eps)/ln n.

    Either along an explicit term list (CZ mode) or over every n <= n_limit
    (brute mode).  Brute mode sweeps n in chunks with a 64-bit fixed-point
    prefilter whose keep margin follows from a proved error bound, so it
    keeps every solution in flat memory (_brute_candidates).  Each kept n
    is then decided against thr_lo of the walk's enclosure
    (_ThresholdWalk) from its product's float view where the view's proved
    error leaves no doubt (_view_at_most), else exactly, also across two
    quadratic fields, so no solution can flip under any precision increase.
    """
    epsilon = Fraction(epsilon)
    if (n_values is None) == (n_limit is None):
        raise ValueError("give exactly one of n_values / n_limit")
    walk = _ThresholdWalk(epsilon)
    alpha, beta, eta, zeta = map(_as_exact, (alpha, beta, eta, zeta))
    solutions = []
    blocks = {}
    if n_values is not None:
        candidates = [int(n) for n in n_values if n >= 3]
        scanned = len(candidates)
    else:
        scanned = max(n_limit - 2, 0)
        candidates = _brute_candidates(alpha, beta, eta, zeta, epsilon, n_limit)
    unit = 1 << _F
    for n in candidates:
        lo, hi, thr_lo = walk.at(n)
        da = affine_dist_to_int(alpha, n, eta)
        view, ok = _view_at_most(da, affine_dist_to_int(beta, n, zeta) * n, lo, hi)
        # rounding is monotone: where both ends of the walk's enclosure round
        # to one float, so does thr_lo, and the chain runs only where they do
        # not or where the view leaves the product open
        if thr_lo is None and (ok is None or ok and lo / unit != hi / unit):
            thr_lo = _threshold_bounds(n, walk.exponent)[0]
        if ok is None:
            ok = _confirm_solution(alpha, beta, eta, zeta, n, thr_lo)[0]
        if ok:
            solutions.append((n, view, lo / unit if thr_lo is None else float(thr_lo)))
            b = 1 << (n.bit_length() - 1)
            blocks[b] = blocks.get(b, 0) + 1
    return LittlewoodReport(
        epsilon=epsilon,
        mode="explicit" if n_values is not None else "brute",
        n_scanned=scanned,
        solutions=tuple(sorted(solutions)),
        block_counts=blocks,
    )


def _float_up(x: Fraction) -> float:
    """The least float >= x."""
    f = float(x)
    return math.nextafter(f, math.inf) if f < x else f


def _fixed_point(value) -> np.uint64:
    """floor({value} * 2^64), exact: ||v n - s|| does not change when v or
    s moves by an integer."""
    return np.uint64(math.floor(_as_exact(value) * _ONE) % _ONE)


def _distance_units(n: np.ndarray, v: np.uint64, s: np.uint64, d: np.ndarray,
                    tmp: np.ndarray) -> np.ndarray:
    """A lower bound on ||v n - s|| * 2^64 for each n (uint64), from the
    fixed-point v and s of _fixed_point, written into d; tmp is scratch."""
    np.multiply(n, v, out=d)
    d -= s  # exact mod 2^64
    np.negative(d, out=tmp)
    np.minimum(d, tmp, out=d)
    np.maximum(d, n, out=d)
    d -= n
    return d


def _brute_candidates(alpha, beta, eta, zeta, epsilon, n_limit: int) -> list[int]:
    """Every 3 <= n <= n_limit that can satisfy n ||alpha n - eta||
    ||beta n - zeta|| <= thr(n), in chunks of _CHUNK values of n, so memory
    stays flat in n_limit.

    Fixed point: A = floor({alpha} 2^64) and E = floor({eta} 2^64), so
    {alpha} 2^64 = A + f_A and {eta} 2^64 = E + f_E with f_A, f_E in [0, 1).
    Then (alpha n - eta) 2^64 = x + (n f_A - f_E) mod 2^64, with
    x = n A - E taken exactly in uint64, and the error n f_A - f_E in
    (-1, n).  The distance to the nearest multiple of 2^64 moves by at
    most the error, so ||alpha n - eta|| 2^64 >= max(min(x, 2^64 - x) - n, 0)
    = D_a; the same for beta and zeta gives D_b.

    Product: P = D_a n D_b in float64 takes five roundings (D_a, D_b and n
    to float, two products), each within a factor 1 +- 2^-53, so
    P (1 - 2^-53)^5 <= n D_a D_b.  A solution's true product,
    n ||alpha n - eta|| ||beta n - zeta||, is at least n D_a D_b 2^-128
    and at most thr_lo(n) <= T, the chunk's upper bound on the threshold
    (_chunk_threshold, so no n takes a logarithm here).  So
    P <= 2^128 T / (1 - 2^-53)^5 = 2^128 T _KEEP, with T _KEEP rounded up
    to a float (the scaling by 2^128 is exact), keeps every solution.  Each
    kept n is confirmed exactly by the caller.  The chunk's buffers are
    made once and reused.
    """
    epsilon = Fraction(epsilon)
    a, b, e, z = map(_fixed_point, (alpha, beta, eta, zeta))
    size = min(_CHUNK, max(n_limit - 2, 0))
    n = np.arange(3, 3 + size, dtype=np.uint64)
    d, tmp, prod = np.empty_like(n), np.empty_like(n), np.empty(size)
    out = []
    for n0 in range(3, n_limit + 1, _CHUNK):
        n1 = min(n0 + _CHUNK - 1, n_limit)
        bound = _float_up(_chunk_threshold(n0, n1, epsilon) * _KEEP) * 2.0 ** 128
        if n1 - n0 + 1 < size:  # the last chunk, shorter
            m = n1 - n0 + 1
            n, d, tmp, prod = n[:m], d[:m], tmp[:m], prod[:m]
        prod[:] = _distance_units(n, a, e, d, tmp)
        prod *= n
        prod *= _distance_units(n, b, z, d, tmp)
        out.extend(n[prod <= bound].tolist())
        n += _CHUNK
    return out
