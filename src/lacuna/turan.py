"""Quantitative Kronecker machinery: lattice-gap certificates and a greedy,
a-posteriori-verified search for dilation factors.

The existence statement behind this module guarantees, for frequencies whose
small integer combinations cannot vanish (certified gap delta > 0), a dilation
factor alpha in any interval of length 4/delta with ||alpha*a~_n - x_n|| <= eps
for all n.  We realize it constructively: each constraint defines periodic
bands of width 2*eps/a~_n, and because consecutive frequency ratios dominate
1/eps + 2, every feasible interval contains a full band of the next constraint.
Every returned alpha is re-verified at full precision; nothing is trusted from
the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from .cf import dist_to_int
from .dyadic import DyadicReal, TorusPoint, format_decimal
from .errors import (
    DeltaUncertifiableError,
    EpsilonDomainError,
    InfeasibleAtStepError,
    IntervalTooShortError,
    NotSuperLacunaryError,
)
from .sequences import (
    LacunarySequence,
    ThinnedSequence,
    ln_lower,
    ln_upper,
    smallest_l,
    thin,
    thin_block,
)

# relative slack used during the search so that rounding the final midpoint to
# a dyadic cannot push any achieved distance past eps
_SEARCH_SLACK = Fraction(1, 1 << 12)


@dataclass(frozen=True)
class TuranParameters:
    K: int
    epsilon: Fraction
    M: int
    # certified lattice gap, or None when the domination hypothesis ("N
    # sufficiently large") fails and the search relies on greedy feasibility
    delta_lower: int | None


@dataclass(frozen=True)
class Constraint:
    frequency: int
    target: Fraction
    achieved: Fraction


@dataclass(frozen=True)
class DilationCertificate:
    alpha: DyadicReal
    search_interval: tuple[Fraction, Fraction]
    constraints: tuple[Constraint, ...]
    max_gap_bound: Fraction
    parameters: TuranParameters
    thinning: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        hex_m, exp = self.alpha.hex_pair()
        return {
            "alpha_hex_mantissa": hex_m,
            "alpha_exponent": exp,
            "alpha_decimal": self.alpha.decimal_str(40),
            "search_interval": [
                format_decimal(self.search_interval[0], 40),
                format_decimal(self.search_interval[1], 40),
            ],
            "epsilon": str(self.parameters.epsilon),
            "K": self.parameters.K,
            "M": self.parameters.M,
            "delta_lower": str(self.parameters.delta_lower),
            "max_gap_bound": format_decimal(self.max_gap_bound, 40),
            "thinning": {k: str(v) for k, v in self.thinning.items()},
            "constraints": [
                {
                    "frequency": str(c.frequency),
                    "target": str(c.target),
                    "achieved": format_decimal(c.achieved, 40),
                }
                for c in self.constraints
            ],
        }


def turan_M(epsilon: Fraction, K: int) -> int:
    """ceil((1/eps) * ln(K/eps)), logarithm rounded upward."""
    epsilon = Fraction(epsilon)
    if not (0 < epsilon < Fraction(1, 2)):
        raise EpsilonDomainError(f"epsilon-domain: {epsilon}")
    if K < 1:
        raise ValueError("K must be positive")
    val = ln_upper(Fraction(K) / epsilon) / epsilon
    return math.ceil(val)


def delta_lower_bound(thinned: ThinnedSequence, M: int) -> int:
    """Certified lower bound on min |sum m_j a~_j| over 0 < |m_j| <= M.

    Exact integer worst case: min_n (a~_n - M * sum_{j<n} a~_j), positive iff
    the domination condition holds at every index.
    """
    best = None
    prefix = 0
    for n, a in enumerate(thinned.terms, start=1):
        margin = a - M * prefix
        if margin <= 0:
            raise DeltaUncertifiableError(n)
        if best is None or margin < best:
            best = margin
        prefix += a
    if best is None:
        raise ValueError("thinned sequence has no terms")
    return best


def equidistant_targets(K: int, precision_bits: int = 96) -> list[TorusPoint]:
    """{j/K : j = 0..K-1} rounded to dyadics at the given precision."""
    if K < 1:
        raise ValueError("K must be positive")
    return [
        TorusPoint(DyadicReal.from_fraction(Fraction(j, K), precision_bits))
        for j in range(K)
    ]


def _greedy_band_search(
    frequencies,
    targets,
    epsilon: Fraction,
    lo: Fraction,
    hi: Fraction,
):
    """Intersect per-frequency bands ||alpha*a - x|| <= eps', keeping at each
    step the band whose center is nearest the current interval's center (ties
    toward lower alpha).  Returns the final feasible (lo, hi)."""
    eps = epsilon * (1 - _SEARCH_SLACK)
    for n, (a, x) in enumerate(zip(frequencies, targets), start=1):
        j_min = math.ceil(lo * a - x - eps)
        j_max = math.floor(hi * a - x + eps)
        if j_min > j_max:
            raise InfeasibleAtStepError(n)
        c = (lo + hi) / 2
        j_best = round(c * a - x)
        j_best = min(max(j_best, j_min), j_max)
        # ties toward lower alpha: prefer j_best-1 when equally close
        if j_best - 1 >= j_min:
            d_lo = abs((x + j_best - 1) / a - c)
            d_hi = abs((x + j_best) / a - c)
            if d_lo <= d_hi:
                j_best -= 1
        band_lo = (x + j_best - eps) / a
        band_hi = (x + j_best + eps) / a
        lo = max(lo, band_lo)
        hi = min(hi, band_hi)
        if lo > hi:
            raise InfeasibleAtStepError(n)
    return lo, hi


def _target_fractions(targets) -> list[Fraction]:
    out = []
    for t in targets:
        if isinstance(t, TorusPoint):
            out.append(t.value.to_fraction())
        elif isinstance(t, DyadicReal):
            out.append(t.to_fraction())
        else:
            out.append(Fraction(t))
    return out


def find_dilation(
    thinned: ThinnedSequence,
    targets,
    epsilon: Fraction,
    search_interval: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1)),
    precision_bits: int | None = None,
) -> DilationCertificate:
    """Greedy interval refinement realizing ||alpha*a~_n - x_n|| <= eps for all n.

    Preconditions (checked): |interval| >= 4/delta with delta certified by
    delta_lower_bound, and consecutive frequency ratios >= 1/eps + 2 so every
    feasible interval contains a full band of the next constraint.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise EpsilonDomainError(f"epsilon-domain: {epsilon}")
    xs = _target_fractions(targets)
    if len(xs) != thinned.K:
        raise ValueError(f"need {thinned.K} targets, got {len(xs)}")
    freqs = thinned.terms
    # ratio precondition for greedy feasibility
    need = 1 / epsilon + 2
    for n in range(len(freqs) - 1):
        if Fraction(freqs[n + 1], freqs[n]) < need:
            raise InfeasibleAtStepError(
                n + 2, f"frequency ratio at step {n + 2} below 1/eps + 2"
            )
    M = turan_M(min(epsilon, Fraction(499, 1000)), thinned.K)
    try:
        delta = delta_lower_bound(thinned, M)
    except DeltaUncertifiableError:
        # below the domination threshold; the greedy still succeeds whenever
        # the interval holds a full band of the first constraint
        delta = None
    lo, hi = Fraction(search_interval[0]), Fraction(search_interval[1])
    if delta is not None:
        if hi - lo < Fraction(4, delta):
            raise IntervalTooShortError(
                f"interval length {hi - lo} below 4/delta = 4/{delta}"
            )
    elif hi - lo < (1 + 2 * epsilon) / freqs[0]:
        raise IntervalTooShortError(
            f"interval length {hi - lo} below (1+2*eps)/a~_1"
        )
    flo, fhi = _greedy_band_search(freqs, xs, epsilon, lo, hi)
    alpha_frac = (flo + fhi) / 2
    if precision_bits is None:
        precision_bits = max(int(f).bit_length() for f in freqs) + 64
        if thinned.parent is not None:
            precision_bits = max(
                precision_bits, max(t.bit_length() for t in thinned.parent.terms) + 64
            )
    alpha = DyadicReal.from_fraction(alpha_frac, precision_bits)
    av = alpha.to_fraction()
    constraints = []
    for a, x in zip(freqs, xs):
        achieved = dist_to_int(av * a - x)
        if achieved > epsilon:
            raise InfeasibleAtStepError(
                0, f"postcondition violated: achieved {achieved} > eps {epsilon}"
            )
        constraints.append(Constraint(a, x, achieved))
    bound = Fraction(1, thinned.K) + 2 * epsilon
    return DilationCertificate(
        alpha=alpha,
        search_interval=(lo, hi),
        constraints=tuple(constraints),
        max_gap_bound=bound,
        parameters=TuranParameters(thinned.K, epsilon, M, delta),
        thinning={
            "l": thinned.l,
            "step": thinned.step,
            "K": thinned.K,
            "xi": thinned.xi,
            "index_offset": thinned.index_offset,
        },
    )


def block_epsilon(seq: LacunarySequence, N: int) -> Fraction:
    """eps = l*ln(N)/(2N), with the logarithm rounded downward."""
    l = smallest_l(seq.growth_factor_r)
    return Fraction(l) * ln_lower(N) / (2 * N)


def find_alpha(
    seq: LacunarySequence,
    N: int,
    search_interval: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1)),
) -> DilationCertificate:
    """Dilation factor for the first N terms with gap bound <= 3l*ln(N)/N.

    Thins the sequence, targets K equidistant points with eps = l*ln(N)/(2N);
    the full-set gap is at most 1/K + 2*eps by set monotonicity.
    """
    thinned = thin(seq, N)
    eps = block_epsilon(seq, N)
    targets = [Fraction(j, thinned.K) for j in range(thinned.K)]
    return find_dilation(thinned, targets, eps, search_interval)


def find_dilation_block(
    seq: LacunarySequence,
    N: int,
    search_interval: tuple[Fraction, Fraction],
) -> DilationCertificate:
    """Dilation factor for the translated block (N, 2N], searched inside an
    interval of length >= 4/a_N."""
    if len(seq.terms) < 2 * N:
        raise ValueError(f"sequence provides {len(seq.terms)} terms, need {2 * N}")
    lo, hi = Fraction(search_interval[0]), Fraction(search_interval[1])
    a_N = seq.term(N)
    if hi - lo < Fraction(4, a_N):
        raise IntervalTooShortError(
            f"interval-below-4-over-aN: length {hi - lo} < 4/{a_N}"
        )
    thinned = thin_block(seq, N)
    eps = block_epsilon(seq, N)
    targets = [Fraction(j, thinned.K) for j in range(thinned.K)]
    return find_dilation(thinned, targets, eps, (lo, hi))


def find_dilation_dense(
    terms,
    N: int,
    theta: Fraction,
    search_interval: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1)),
) -> DilationCertificate:
    """Super-lacunary case a_n >= N^theta * a_{n-1}: eps = 1/N, N equidistant
    targets, no thinning; gap bound 3/N."""
    theta = Fraction(theta)
    if theta <= 1:
        raise NotSuperLacunaryError(f"theta {theta} must exceed 1")
    terms = [int(t) for t in terms][:N]
    if len(terms) < N:
        raise ValueError(f"need {N} terms, got {len(terms)}")
    p, q = theta.numerator, theta.denominator
    for n in range(1, len(terms)):
        if terms[n] ** q < N**p * terms[n - 1] ** q:
            raise NotSuperLacunaryError(
                f"not-super-lacunary: a_{n + 1} < N^theta * a_{n}"
            )
    pseudo = ThinnedSequence(
        parent=None, l=1, step=1, K=N, terms=tuple(terms), xi=float(theta)
    )
    eps = Fraction(1, N)
    targets = [Fraction(j, N) for j in range(N)]
    cert = find_dilation(
        pseudo,
        targets,
        eps,
        search_interval,
        precision_bits=max(t.bit_length() for t in terms) + 64,
    )
    assert cert.max_gap_bound == Fraction(3, N)
    return cert
