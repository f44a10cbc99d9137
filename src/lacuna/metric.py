"""Statistical dispersion scans and the smooth-counting apparatus.

Three layers:
  * Monte-Carlo: sample dilation factors (Lebesgue or bounded-quotient
    measures), tabulate normalized maximal gaps over dyadic ranges of N, fit
    the growth exponent of N*G against ln ln N.
  * Window counts: the bump-weighted number of dilates near a torus point t,
    computed both directly and through the truncated Fourier expansion; the
    two must agree up to the transform's tail.
  * Exponential moment: the L^1 norm of exp(omega*/(10R)) over the dilation
    factor, by composite Simpson when the oscillation budget allows and by an
    independence-justified factorization otherwise.

Scan tables use 64-bit truncated points: the maximal gap survives truncation
up to 2^-63, far below every tolerance used here, and the run cost drops by
orders of magnitude.  The exact gap of the first n dilates is
gap_report(dilate(alpha, seq, 1, n)).  Every view of the dilates here
(truncated, float) reads the residue stream of lacuna.dyadic.residues at
the sequence's rho; only the doubling sequence 2^e0, 2^(e0+1), ... takes its
truncated points from byte windows of alpha's binary expansion instead.
dispersion_scan recognises it from the ratio the sequence has checked: with
r >= 2 every step at least doubles, so a power-of-two a_1 and
a_n = a_1 * 2^(n-1) leave only exact doublings, and no term is compared.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bump import BumpFunction
from .dyadic import DyadicReal, dyadic_to_float, residue_bits, residues
from .errors import (
    FitUnderdeterminedError,
    MeasureUnsupportedError,
    QuadratureUnderresolvedError,
)
from .sequences import LacunarySequence, ThinnedSequence, mpf_fraction
import mpmath as mp

_TRUNC_SLACK = Fraction(1, 1 << 60)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricParameters:
    """Window/frequency scales derived from one shared ln N approximant.

    q = (ln N)^(1+2e), m = q^2 (exact dyadic square, so m = (ln N)^(2+4e)
    up to the single rounding in q), p = (ln N)^(2+3e).  The ratio r = m/p is
    carried as an exact rational of the stored dyadics, which is what makes
    the Taylor premise below an exact identity.
    """

    n: int
    epsilon: Fraction
    q: DyadicReal
    m: DyadicReal
    p: DyadicReal
    r_exact: Fraction

    @classmethod
    def for_n(cls, n: int, epsilon=Fraction(1, 20)):
        if n < 3:
            raise ValueError("need n >= 3 so ln n > 1")
        epsilon = Fraction(epsilon)
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        with mp.workdps(60):
            ln_n = mp.log(n)
            e = mp.mpf(epsilon.numerator) / epsilon.denominator
            q = DyadicReal.from_fraction(mpf_fraction(ln_n ** (1 + 2 * e)), 192)
            p = DyadicReal.from_fraction(mpf_fraction(ln_n ** (2 + 3 * e)), 192)
        m = DyadicReal(q.mantissa**2, 2 * q.exponent, q.precision_bits)
        r_exact = m.to_fraction() / p.to_fraction()
        return cls(n=n, epsilon=epsilon, q=q, m=m, p=p, r_exact=r_exact)

    @property
    def k_cut(self) -> int:
        """Truncation index floor(N/P) for the Fourier window count."""
        return int(Fraction(self.n) / self.p.to_fraction())

    def taylor_premise(self) -> Fraction:
        """(1/10r)*(m/n)*(2n/p); equals 1/5 exactly by construction."""
        return (
            Fraction(1, 10)
            / self.r_exact
            * (self.m.to_fraction() / self.n)
            * (2 * self.n / self.p.to_fraction())
        )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


_BOUNDED_CF = re.compile(r"bounded-cf(?::([0-9]+)|\(([0-9]+)\))")


def parse_measure(measure: str) -> tuple[str, int | None]:
    """The canonical spelling of a measure and its quotient bound:
    ("lebesgue", None) from "lebesgue", ("bounded-cf:B", B) from
    "bounded-cf:B" or "bounded-cf(B)", case and outer blanks ignored; any
    other form is unsupported."""
    m = measure.strip().lower()
    if m == "lebesgue":
        return m, None
    match = _BOUNDED_CF.fullmatch(m)
    if match is None:
        raise MeasureUnsupportedError(f"measure-unsupported: {measure!r}")
    b = int(match.group(1) or match.group(2))
    if b < 1:
        raise MeasureUnsupportedError(f"measure-unsupported: bound {b} must be >= 1")
    return f"bounded-cf:{b}", b


def _continuant_matrix(quotients):
    """M(c_1)...M(c_m) with M(c) = [[c, 1], [1, 0]], as the row-major tuple
    (a, b, c, d).

    A balanced product tree (binary splitting): both halves of a product are
    about equally wide, so CPython's Karatsuba multiply makes the whole
    product quasi-linear in its bits.  Runs of at most 16 quotients, whose
    entries are a few machine words, multiply in a plain loop.
    """
    if len(quotients) <= 16:
        a, b, c, d = 1, 0, 0, 1
        for x in quotients:
            a, b, c, d = a * x + b, a, c * x + d, c
        return a, b, c, d
    mid = len(quotients) // 2
    a, b, c, d = _continuant_matrix(quotients[:mid])
    e, f, g, h = _continuant_matrix(quotients[mid:])
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def sample_alpha(measure: str, rng_seed: int, precision_bits: int = 96) -> DyadicReal:
    """One dilation factor from the named measure, deterministic in the seed.

    bounded-cf:B (or bounded-cf(B)) draws i.i.d. partial quotients uniform on
    1..B.  It returns the first convergent p/q whose denominator has more
    than precision_bits + 16 bits, rounded to precision_bits bits.  This is a
    heuristic stand-in for sampling the badly-approximable numbers, not a
    certified measure; tables carry the label.

    The quotients are drawn in rounds.  With H = precision_bits + 16 and
    w = bit_length(B + 1), a round of m = max(1, (H - bit_length(q)) // w)
    quotients is multiplied out by ``_continuant_matrix``.  Since
    q_(k+1) <= (B + 1) q_k, a round of m >= 2 never passes H bits, so the stop
    falls in a round of one quotient, at the convergent where the
    one-quotient-at-a-time recurrence stops.
    """
    _, bound = parse_measure(measure)
    rng = random.Random(rng_seed)
    if bound is None:
        m = rng.getrandbits(precision_bits)
        return DyadicReal(m, -precision_bits, precision_bits)
    horizon = precision_bits + 16
    width = (bound + 1).bit_length()
    p, pm1, q, qm1 = 0, 1, 1, 0
    while q.bit_length() <= horizon:
        m = max(1, (horizon - q.bit_length()) // width)
        a, b, c, d = _continuant_matrix([rng.randint(1, bound) for _ in range(m)])
        p, pm1 = p * a + pm1 * c, p * b + pm1 * d
        q, qm1 = q * a + qm1 * c, q * b + qm1 * d
    return DyadicReal.from_fraction(Fraction(p, q), precision_bits)


# ---------------------------------------------------------------------------
# dispersion scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    alpha_id: int
    n: int
    max_gap: Fraction
    norm_log1: float
    norm_log2e: float


@dataclass(frozen=True)
class ScanTable:
    rows: tuple[ScanRow, ...]
    rng_seed: int | None
    measure_label: str
    epsilon: float

    def check_pigeonhole(self) -> bool:
        """Every max_gap at least 1/N, less the truncation slack."""
        return all(r.max_gap >= Fraction(1, r.n) - _TRUNC_SLACK for r in self.rows)

    def to_csv(self) -> str:
        lines = ["alpha_id,N,max_gap,norm_log1,norm_log2e"]
        for r in self.rows:
            lines.append(
                f"{r.alpha_id},{r.n},{float(r.max_gap)!r},{r.norm_log1!r},{r.norm_log2e!r}"
            )
        return "\n".join(lines) + "\n"


def _pow2_truncated_points(alpha: DyadicReal, e0: int, n_max: int) -> np.ndarray:
    """Top-64-bit windows of the binary expansion of alpha at offsets
    e0, e0+1, ..., e0+n_max-1: these are the truncated dilates by 2^(e0+i)."""
    s = e0 + n_max + 72
    s += (-s) % 8
    a = alpha.to_fraction()
    big = (a.numerator << s) // a.denominator % (1 << s)
    raw = np.frombuffer(big.to_bytes(s // 8, "big"), dtype=np.uint8)
    words = (
        sliding_window_view(raw, 8).astype(np.uint64)
        * (np.uint64(256) ** np.arange(7, -1, -1, dtype=np.uint64))
    ).sum(axis=1, dtype=np.uint64)
    offs = e0 + np.arange(n_max)
    j = offs >> 3
    sh = (offs & 7).astype(np.uint64)
    nxt = raw[j + 8].astype(np.uint64)
    vals = words[j] << sh
    with np.errstate(over="ignore"):
        vals |= np.where(sh > 0, nxt >> (np.uint64(8) - sh), np.uint64(0))
    return vals


def _truncated_points(alpha: DyadicReal, terms, q: int) -> np.ndarray:
    """floor({alpha * a} * 2^64) for each term: the top 64 bits of each exact
    residue, taken as it streams, so the exact vector is never held.  q is
    the sequence's rho, passed on to residues."""
    shift = residue_bits(alpha) - 64
    stream = residues(alpha, terms, q)
    if shift >= 0:
        tops = (r >> shift for r in stream)
    else:
        tops = (r << -shift for r in stream)
    return np.fromiter(tops, dtype=np.uint64, count=len(terms))


def _max_gap_u64(sorted_vals: np.ndarray) -> int:
    if len(sorted_vals) == 1:
        return 1 << 64
    d = np.diff(sorted_vals)
    inner = int(d.max()) if len(d) else 0
    wrap = (1 << 64) - int(sorted_vals[-1]) + int(sorted_vals[0])
    return max(inner, wrap)


def dispersion_scan(
    seq: LacunarySequence,
    alphas,
    n_list,
    eps: float = 0.05,
    rng_seed: int | None = None,
    measure_label: str = "explicit",
) -> ScanTable:
    """Gap table over (alpha, N) pairs with normalized columns N*G/(ln N)^kappa.

    The dilates are truncated to 64 fractional bits before sorting, which
    perturbs the maximal gap by at most 2^-63.
    """
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 1:
        raise ValueError("N values must be positive")
    n_max = n_list[-1]
    if len(seq.terms) < n_max:
        raise ValueError(f"sequence provides {len(seq.terms)} terms, need {n_max}")
    a1 = seq.terms[0]
    # a_(n+1) >= r * a_n >= 2 * a_n: a_N = a_1 * 2^(N-1) only if every step doubles
    pow2 = (seq.growth_factor_r >= 2 and not a1 & (a1 - 1)
            and seq.terms[n_max - 1] == a1 << (n_max - 1))
    rows = []
    for aid, alpha in enumerate(alphas):
        if pow2:
            vals = _pow2_truncated_points(alpha, a1.bit_length() - 1, n_max)
        else:
            vals = _truncated_points(alpha, seq.terms[:n_max], seq.rho)
        for n in n_list:
            g = Fraction(_max_gap_u64(np.sort(vals[:n])), 1 << 64)
            rows.append(_mk_row(aid, n, g, eps))
    return ScanTable(
        rows=tuple(rows),
        rng_seed=rng_seed,
        measure_label=measure_label,
        epsilon=eps,
    )


def _mk_row(aid: int, n: int, g: Fraction, eps: float) -> ScanRow:
    ln_n = math.log(n) if n > 1 else float("nan")
    return ScanRow(
        alpha_id=aid,
        n=n,
        max_gap=g,
        norm_log1=n * float(g) / ln_n if n > 1 else float("nan"),
        norm_log2e=n * float(g) / ln_n ** (2 + eps) if n > 1 else float("nan"),
    )


def iid_baseline(n: int, trials: int, rng_seed: int) -> dict:
    """Maximal-spacing statistics of i.i.d. uniforms: N*G/ln N summary."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng = np.random.default_rng(rng_seed)
    ln_n = math.log(n)
    ratios = np.empty(trials)
    for t in range(trials):
        u = np.sort(rng.random(n))
        g = max(np.diff(u).max(), 1.0 - u[-1] + u[0])
        ratios[t] = n * g / ln_n
    return {
        "n": n,
        "trials": trials,
        "seed": rng_seed,
        "mean": float(ratios.mean()),
        "median": float(np.median(ratios)),
        "p95": float(np.percentile(ratios, 95)),
    }


# ---------------------------------------------------------------------------
# smooth window counts
# ---------------------------------------------------------------------------


def _residue_floats(alpha: DyadicReal, terms, q: int) -> np.ndarray:
    """{alpha * a} as floats, rounded as DyadicReal.to_float rounds them; q
    is the sequence's rho, passed on to residues."""
    e = -residue_bits(alpha)
    floats = (dyadic_to_float(r, e) for r in residues(alpha, terms, q))
    return np.fromiter(floats, dtype=np.float64, count=len(terms))


def smooth_count_direct(
    alpha: DyadicReal,
    thinned: ThinnedSequence,
    t: float,
    params: MetricParameters,
    bump: BumpFunction,
) -> float:
    """Sum over n and integer shifts u of f((alpha*a~_n - t - u)/(M/N)).

    The window half-width M/N is below 1/2 at every supported N, so at most
    one shift u contributes per point.
    """
    width = params.m.to_float() / params.n
    x = _residue_floats(alpha, thinned.terms, thinned.rho)
    d = x - (t % 1.0)
    d -= np.round(d)  # representative in [-1/2, 1/2): the only candidate shift
    return float(np.sum(bump.value(d / width)))


def smooth_count_fourier(
    alpha: DyadicReal,
    thinned: ThinnedSequence,
    t: float,
    params: MetricParameters,
    bump: BumpFunction,
    k_max: int,
) -> float:
    """(M/N) * sum_{|k| <= k_max} Ff(Mk/N) * sum_n cos(2 pi k (alpha*a~_n - t))."""
    if k_max < params.k_cut:
        raise ValueError(f"k_max {k_max} below truncation floor N/P = {params.k_cut}")
    width = params.m.to_float() / params.n
    x = _residue_floats(alpha, thinned.terms, thinned.rho) - (t % 1.0)
    k = np.arange(1, k_max + 1)
    coeffs = bump.fourier(width * k)
    cos_sums = np.cos(2.0 * np.pi * np.outer(k, x)).sum(axis=1)
    return float(width * (len(x) + 2.0 * (coeffs * cos_sums).sum()))


def fourier_tail_bound(params: MetricParameters, bump: BumpFunction, k_max: int, count: int) -> float:
    """Bound on the direct-vs-Fourier discrepancy from the transform envelope
    ``bump.tail_bound``: (M/N) * count * 2 * sum_{k > k_max} |Ff(Mk/N)|."""
    width = params.m.to_float() / params.n
    total = 0.0
    k = k_max + 1
    while True:
        b = bump.tail_bound(width * k)
        total += b
        if b < 1e-22:
            break
        k += 1
    return width * count * 2.0 * total


def linear_independence_bound(thinned_terms, coeff: int) -> bool:
    """Exact check that no +-coeff combination of earlier terms reaches a~_n."""
    acc = 0
    for a in thinned_terms:
        if coeff * acc >= a:
            return False
        acc += a
    return True


# ---------------------------------------------------------------------------
# exponential moment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentCheck:
    lhs: float
    rhs: float
    passed: bool
    method: str
    k_cut: int


def _omega_weights(params: MetricParameters, bump: BumpFunction) -> np.ndarray:
    width = params.m.to_float() / params.n
    k = np.arange(1, params.k_cut + 1)
    return width * bump.fourier(width * k)


def exp_moment_check(
    thinned: ThinnedSequence,
    t: float,
    params: MetricParameters,
    bump: BumpFunction,
    quadrature_points: int = 1 << 14,
    method: str = "auto",
) -> MomentCheck:
    """Compare the alpha-average of exp(omega*/(10R)) against exp(Q/50R).

    omega* is the k-truncated window count with the constant (k = 0) term
    removed.  The Simpson path needs >= 8 quadrature points per oscillation
    of the fastest integrand frequency k_cut * a~_K, which caps feasible
    sizes; past that cap the factorized path integrates the single-frequency
    profile once and raises it to the K-th power, which is exact in the limit
    where the thinned frequencies admit no small integer relations (checked
    exactly below, never assumed).
    """
    weights = _omega_weights(params, bump)
    k_cut = params.k_cut
    ten_r = 10.0 * float(params.r_exact)
    rhs = math.exp(params.q.to_float() / (50.0 * float(params.r_exact)))
    terms = thinned.terms
    if not terms or k_cut == 0:
        return MomentCheck(1.0, rhs, True, "empty", k_cut)

    required = 8 * k_cut * int(terms[-1])
    can_simpson = required <= quadrature_points
    if method == "auto":
        method = "simpson" if can_simpson else "factorized"
    if method == "simpson":
        if not can_simpson:
            raise QuadratureUnderresolvedError(required, quadrature_points)
        lhs = _moment_simpson(terms, t, weights, ten_r, quadrature_points)
    elif method == "factorized":
        if not linear_independence_bound(terms, k_cut):
            raise QuadratureUnderresolvedError(required, quadrature_points)
        lhs = _moment_factorized(len(terms), weights, ten_r, k_cut)
    else:
        raise ValueError(f"unknown method {method!r}")
    return MomentCheck(
        lhs=lhs,
        rhs=rhs,
        passed=lhs <= 1.1 * rhs,
        method=method,
        k_cut=k_cut,
    )


def _moment_simpson(terms, t, weights, ten_r, n_q):
    if n_q % 2:
        n_q += 1
    # alpha = i/n_q makes every dilate an exact grid rational:
    # {alpha * a~_n} = (i * (a~_n mod n_q) mod n_q) / n_q
    mods = np.array([int(a) % n_q for a in terms], dtype=np.int64)
    i = np.arange(n_q + 1, dtype=np.int64)
    k = np.arange(1, len(weights) + 1)
    vals = np.zeros(n_q + 1)
    for rcount in np.unique(mods):
        mult = int((mods == rcount).sum())
        theta = ((i * int(rcount)) % n_q) / n_q - t
        vals += mult * 2.0 * (
            weights[:, None] * np.cos(2.0 * np.pi * np.outer(k, theta))
        ).sum(axis=0)
    return _simpson(np.exp(vals / ten_r), 1.0 / n_q)


def _moment_factorized(count, weights, ten_r, k_cut):
    m = max(4096, 64 * k_cut)
    theta = np.arange(m + 1) / m
    k = np.arange(1, len(weights) + 1)
    g = 2.0 * (weights[:, None] * np.cos(2.0 * np.pi * np.outer(k, theta))).sum(axis=0)
    return _simpson(np.exp(g / ten_r), 1.0 / m) ** count


def _simpson(y: np.ndarray, dx: float) -> float:
    """Composite Simpson on an odd number of samples spaced dx apart."""
    return float(np.sum(y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2]) * (dx / 3.0))


# ---------------------------------------------------------------------------
# exponent fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentFit:
    median: float
    q25: float
    q75: float
    per_alpha: dict = field(default_factory=dict)


def exponent_fit(table: ScanTable) -> ExponentFit:
    """Per-alpha least-squares slope of ln(N*G) against ln ln N, aggregated."""
    by_alpha = {}
    for r in table.rows:
        if r.n >= 3 and r.max_gap > 0:
            by_alpha.setdefault(r.alpha_id, []).append(r)
    n_distinct = len({r.n for rs in by_alpha.values() for r in rs})
    if n_distinct < 3 or len(by_alpha) < 10:
        raise FitUnderdeterminedError(
            f"fit-underdetermined: {len(by_alpha)} alphas, {n_distinct} N values"
        )
    slopes = {}
    for aid, rs in by_alpha.items():
        if len({r.n for r in rs}) < 3:
            continue
        xs = np.array([math.log(math.log(r.n)) for r in rs])
        ys = np.array([math.log(r.n * float(r.max_gap)) for r in rs])
        slopes[aid] = float(np.polyfit(xs, ys, 1)[0])
    if len(slopes) < 10:
        raise FitUnderdeterminedError("fit-underdetermined: too few usable alphas")
    vals = np.array(sorted(slopes.values()))
    return ExponentFit(
        median=float(np.median(vals)),
        q25=float(np.percentile(vals, 25)),
        q75=float(np.percentile(vals, 75)),
        per_alpha=slopes,
    )
