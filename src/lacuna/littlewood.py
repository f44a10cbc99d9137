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
enclosure rule (lacuna.sequences.enclose) at width _THR_WIDTH = 50.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cf import ContinuedFraction, QuadraticReal, affine_dist_to_int, expand
from .dyadic import DyadicReal
from .errors import CzPoolExhaustedError, RationalBetaError
from .sequences import PREC, RND, enclose
from mpmath import libmp

_THR_WIDTH = 50  # the enclosures of the threshold are 2^-50 either side of it
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


def _lnln_and_threshold(n: int, exponent):
    """ln ln n and (ln ln n)^exponent / ln n as raw mpfs, each rounded at
    PREC bits.  n converts to an mpf exactly, as mp.log(n) converts it, and
    ln n is taken once."""
    ln_n = libmp.mpf_log(libmp.from_int(n), PREC, RND)
    lnln = libmp.mpf_log(ln_n, PREC, RND)
    return lnln, libmp.mpf_div(libmp.mpf_pow(lnln, exponent, PREC, RND), ln_n, PREC, RND)


def _threshold_bounds(n: int, exponent) -> tuple[Fraction, Fraction]:
    """The enclosure of (ln ln n)^exponent / ln n at width _THR_WIDTH."""
    return enclose(_lnln_and_threshold(n, exponent)[1], _THR_WIDTH)


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
    value at n1 while ln ln n1 <= s (the rising side), at n0 once
    ln ln n0 >= s (the falling side), and the peak (s/e)^s otherwise.  A
    side test that the enclosure of ln ln n leaves undecided takes the
    peak, which bounds every n."""
    s, exponent = 2 + epsilon, _exponent(epsilon)
    lnln, thr = (enclose(v, _THR_WIDTH) for v in _lnln_and_threshold(n1, exponent))
    if lnln[1] <= s:
        return thr[1]
    lnln, thr = (enclose(v, _THR_WIDTH) for v in _lnln_and_threshold(n0, exponent))
    if lnln[0] >= s:
        return thr[1]
    return _peak_threshold(epsilon)


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
    is then confirmed exactly, also across two quadratic fields, so no
    solution can flip under any precision increase.
    """
    epsilon = Fraction(epsilon)
    if (n_values is None) == (n_limit is None):
        raise ValueError("give exactly one of n_values / n_limit")
    exponent = _exponent(epsilon)
    alpha, beta, eta, zeta = map(_as_exact, (alpha, beta, eta, zeta))
    solutions = []
    blocks = {}
    if n_values is not None:
        candidates = [int(n) for n in n_values if n >= 3]
        scanned = len(candidates)
    else:
        scanned = max(n_limit - 2, 0)
        candidates = _brute_candidates(alpha, beta, eta, zeta, epsilon, n_limit)
    for n in candidates:
        thr_lo = _threshold_bounds(n, exponent)[0]
        ok, prod_f = _confirm_solution(alpha, beta, eta, zeta, n, thr_lo)
        if ok:
            solutions.append((n, prod_f, float(thr_lo)))
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


def _distance_units(n: np.ndarray, v: np.uint64, s: np.uint64) -> np.ndarray:
    """A lower bound on ||v n - s|| * 2^64 for each n (uint64), from the
    fixed-point v and s of _fixed_point."""
    x = n * v - s  # exact mod 2^64
    d = np.minimum(x, -x)
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

    Product: P = n (D_a 2^-64)(D_b 2^-64) in float64 takes five roundings
    (D_a, D_b and n to float, two products; the scalings by 2^-64 are
    exact), each within a factor 1 +- 2^-53, so P (1 - 2^-53)^5 <=
    n D_a D_b 2^-128.  A solution's true product is at least that and at
    most thr_lo(n) <= T, the chunk's upper bound on the threshold
    (_chunk_threshold, so no n takes a logarithm here).  So P <= T /
    (1 - 2^-53)^5 = T * _KEEP, rounded up to a float, keeps every solution.
    Each kept n is confirmed exactly by the caller.
    """
    epsilon = Fraction(epsilon)
    a, b, e, z = map(_fixed_point, (alpha, beta, eta, zeta))
    out = []
    for n0 in range(3, n_limit + 1, _CHUNK):
        n1 = min(n0 + _CHUNK - 1, n_limit)
        bound = _float_up(_chunk_threshold(n0, n1, epsilon) * _KEEP)
        n = np.arange(n0, n1 + 1, dtype=np.uint64)
        prod = _distance_units(n, a, e).astype(np.float64)
        prod *= 2.0 ** -64
        prod *= n
        prod *= _distance_units(n, b, z)
        prod *= 2.0 ** -64
        out.extend(n[prod <= bound].tolist())
    return out
