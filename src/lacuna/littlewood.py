"""Inhomogeneous approximation pipeline: convergent-steered lacunary
sequences for a fixed target pair (beta, zeta), and product scanners for
n * ||alpha n - eta|| * ||beta n - zeta||.

Sequence terms are residues of the convergent denominators: writing beta =
p_m/q_m + theta_m/q_m with theta_m = q_m beta - p_m, any n <= q_m with
n p_m = round(zeta q_m) (mod q_m) has ||beta n - zeta|| <= 1/(2 q_m) +
|theta_m|, so n * ||beta n - zeta|| < 3/2.  The builder only trusts this
after an exact recomputation of every emitted term; growth is forced into
the window 8^n < a_n (with a_{n+1} >= 8 a_n).

Every distance ||v n - s|| is one exact cf.dist_to_int(v n - s), with v and
s read as Fractions or QuadraticReals (a DyadicReal as its rational value).
Every product is decided exactly: in one quadratic field, or rational, by
one sign; across two fields by signs in one field each.  Float views are
built from factors that stay O(1), never from n itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cf import ContinuedFraction, QuadraticReal, dist_to_int, expand
from .dyadic import DyadicReal
from .errors import CzPoolExhaustedError, RationalBetaError
from .sequences import mpf_fraction

import mpmath as mp

_THR_GUARD = Fraction(1, 1 << 50)


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
    return dist_to_int(_as_exact(value) * n - _as_exact(shift))


def exact_product(value, n: int, shift):
    """n * ||value * n - shift||, exact."""
    return _distance(value, n, shift) * n


def littlewood_threshold_bounds(n: int, epsilon: Fraction) -> tuple[Fraction, Fraction]:
    """Rational enclosure of (ln ln n)^(2+eps) / ln n; domain n >= 3."""
    if n < 3:
        raise ValueError("threshold defined for n >= 3")
    epsilon = Fraction(epsilon)
    with mp.workdps(40):
        e = 2 + mp.mpf(epsilon.numerator) / epsilon.denominator
        v = mpf_fraction(mp.log(mp.log(n)) ** e / mp.log(n))
    return v - _THR_GUARD, v + _THR_GUARD


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
    """Whether n ||an-e|| ||bn-z|| <= thr_lo, decided exactly, and a float
    view built from ||an-e|| <= 1/2 and n ||bn-z|| only, so it never
    converts n itself."""
    da = _distance(alpha, n, eta)
    pa = da * n
    pb = exact_product(beta, n, zeta)
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
    (brute mode, float-prefiltered with exact confirmation of each hit).
    The confirmation is exact, also across two quadratic fields, so no
    solution can flip under any precision increase.
    """
    epsilon = Fraction(epsilon)
    if (n_values is None) == (n_limit is None):
        raise ValueError("give exactly one of n_values / n_limit")
    solutions = []
    blocks = {}
    if n_values is not None:
        candidates = [int(n) for n in n_values if n >= 3]
        scanned = len(candidates)
    else:
        scanned = max(n_limit - 2, 0)
        candidates = _brute_candidates(alpha, beta, eta, zeta, epsilon, n_limit)
    for n in candidates:
        thr_lo, thr_hi = littlewood_threshold_bounds(n, epsilon)
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


def _brute_candidates(alpha, beta, eta, zeta, epsilon, n_limit: int) -> list[int]:
    """Float sweep over all n <= n_limit; keeps everything within a generous
    margin of the threshold for exact confirmation."""
    # the floats of {v} = v - floor(v), taken exactly: ||v n - s|| does not
    # change when v or s moves by an integer, and a float of the whole value
    # keeps fewer fractional bits the larger its integer part (and overflows
    # past 2^1024)
    exact = map(_as_exact, (alpha, beta, eta, zeta))
    af, bf, ef, zf = (float(x - math.floor(x)) for x in exact)
    n = np.arange(3, n_limit + 1, dtype=np.float64)
    da = np.abs((n * af - ef) - np.round(n * af - ef))
    db = np.abs((n * bf - zf) - np.round(n * bf - zf))
    prod = n * da * db
    lln = np.log(np.log(n))
    thr = lln ** (2 + float(Fraction(epsilon))) / np.log(n)
    keep = prod <= thr * (1 + 1e-6) + 1e-7
    return [int(v) for v in n[keep]]
