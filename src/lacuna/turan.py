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

Every decision is an integer comparison; no Fraction is built per step.

- The ratio precondition a_{n+1}/a_n >= 1/eps + 2 is cross-multiplied:
  a_{n+1}*e_num >= a_n*(e_den + 2*e_num) for eps = e_num/e_den, a_n > 0.
  With the stored relation rho*a_{n+1} = P*a_n + d_n it reads d_n*e_num >=
  c*a_n for the short c = rho*(e_den + 2*e_num) - P*e_num, so a term is
  multiplied only where c > 0 or d_n < 0.
- The band search carries the interval as integers L, H over one shared,
  unreduced denominator Q = Qe*e_den*prev > 0, and every step from a_(n-1)
  to a_n reads one relation rho_n*a_n = P_n*prev + d_n.  When the interval
  is exactly the band of a_(n-1) (after every step but the first and the
  rare clipped or unchanged ones), prev = a_(n-1) and the relation is the
  pair's rho*a_n = P*a_(n-1) + d that the ThinnedSequence stores: P/rho is
  r^step for a thinning of a sequence of ratio r (1 for a list of terms),
  and d is its delta of any sign.  Otherwise prev = 1 and the relation is
  a_n = a_n*1 + 0.  With x = p/q, eps' = e_num/e_den (eps less the search
  slack) and R = rho_n*q*Q, the quantities lo*a - x - eps', hi*a - x + eps'
  and the centre's c*a - x are integers over R or 2R.  The first splits
  into a division by the short U = R/prev and one with the short quotient
  lo*d_n/rho_n: O(B) for B-bit frequencies when the relation is stored, not
  the O(B^2) of the one wide product of the trivial relation.  The band
  indices j_min, j_max come from floor division, j_best from the same
  half-to-even rounding round(Fraction) applies, and the tie toward lower
  alpha from comparing two integers scaled by 2R.  The chosen band is
  (p*e_den + j*q*e_den -+ e_num*q) / (q*e_den*a), and whether it holds lo
  or hi compares integers at scale R too.  Scaling by a positive integer
  preserves every floor, ceiling, rounding and order, so each decision is
  the one the rational arithmetic makes, and alpha is the same.
- The postcondition reads the residue stream: for alpha = m*2^-P and
  res = m*a mod 2^P, {alpha*a - x} = ((q*res - p*2^P) mod q*2^P) / (q*2^P),
  exact because q*m*a and q*res agree mod q*2^P.  Its distance to the
  nearest integer is compared with eps by cross-multiplication and kept
  unreduced in each Constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dyadic import (
    DyadicReal,
    alpha_precision,
    format_decimal,
    format_ratio,
    residue_bits,
    residues,
)
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
    """||alpha*a~_n - target|| = achieved_num/achieved_den for constraint n,
    kept unreduced; the Fraction is built only when read."""

    target: Fraction
    achieved_num: int
    achieved_den: int

    @property
    def achieved(self) -> Fraction:
        return Fraction(self.achieved_num, self.achieved_den)


@dataclass(frozen=True)
class DilationCertificate:
    alpha: DyadicReal
    search_interval: tuple[Fraction, Fraction]
    constraints: tuple[Constraint, ...]
    max_gap_bound: Fraction
    parameters: TuranParameters
    thinning: dict

    def to_json_dict(self) -> dict:
        hex_m, exp = self.alpha.hex_pair()
        # constraint n is the parent's term index_offset + n*step (1-based);
        # frequencies and delta can pass str(int)'s 4300-digit limit, so
        # neither goes through str()
        step, offset = self.thinning["step"], self.thinning["index_offset"]
        delta = self.parameters.delta_lower
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
            "delta_lower": "None" if delta is None else format_ratio(delta, 1, 40),
            "max_gap_bound": format_decimal(self.max_gap_bound, 40),
            "thinning": {k: str(v) for k, v in self.thinning.items()},
            "constraints": [
                {
                    "index": offset + n * step,
                    "target": str(c.target),
                    "achieved": format_ratio(c.achieved_num, c.achieved_den, 40),
                }
                for n, c in enumerate(self.constraints, start=1)
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


def delta_lower_bound(terms, M: int) -> int:
    """Certified lower bound on min |sum m_j a~_j| over 0 < |m_j| <= M, for
    the terms of a thinning (a ThinnedSequence iterates them).

    Exact integer worst case: min_n (a~_n - M * sum_{j<n} a~_j), positive iff
    the domination condition holds at every index.
    """
    best = None
    prefix = 0
    for n, a in enumerate(terms, start=1):
        margin = a - M * prefix
        if margin <= 0:
            raise DeltaUncertifiableError(n)
        if best is None or margin < best:
            best = margin
        prefix += a
    return best


def _greedy_band_search(
    frequencies,
    targets,
    epsilon: Fraction,
    lo: Fraction,
    hi: Fraction,
    ratio: Fraction,
    deltas,
):
    """Intersect per-frequency bands ||alpha*a - x|| <= eps', keeping at each
    step the band whose center is nearest the current interval's center (ties
    toward lower alpha).  Returns the final feasible (lo, hi).

    One step rule (see the module docstring): lo and hi are integers L, H
    over Q = Qe*e_den*prev for eps' = e_num/e_den, and the step to a_n
    reads a relation rho_n*a_n = P_n*prev + d_n.  When the interval is
    exactly the band of a_(n-1), it is the pair's relation rho*a_n =
    P*a_(n-1) + deltas[n - 2] for ratio = P/rho, as a ThinnedSequence
    stores it, exact for any integer delta; otherwise prev = 1 and it is
    a_n = a_n*1 + 0.  L, H and Q start scaled by e_den, so Q has that form
    from the first step.  Only which relation a step reads depends on the
    interval; every decision is the same exact integer comparison."""
    eps = epsilon * (1 - _SEARCH_SLACK)
    en, ed = eps.numerator, eps.denominator
    Qe = lo.denominator * hi.denominator
    L, H = lo.numerator * hi.denominator * ed, hi.numerator * lo.denominator * ed
    P, rho = ratio.numerator, ratio.denominator
    prev, banded = 1, False  # Q = Qe*ed*prev, prev = a_(n-1) when banded
    for n, (a, x) in enumerate(zip(frequencies, targets), start=1):
        p, q = x.numerator, x.denominator
        Pn, rn, d = (P, rho, deltas[n - 2]) if banded else (a, 1, 0)
        # At the scale R = rn*q*Q = U*prev, with rn*a = Pn*prev + d:
        # lo*a - x - eps' = base + rem/R with 0 <= rem < R,
        # (hi - lo)*a = dA/R and 2*eps' = E2/R, so that
        # hi*a - x + eps' = base + (rem + w)/R for w = dA + E2.
        # R*(lo*a - x - eps') is N*prev + L*q*d for N = L*q*Pn -
        # rn*Qe*(p*ed + en*q): N over U, and L*q*d over R with the short
        # quotient lo*d/rn; with 0 <= rem*prev <= R - prev and 0 <= r2 < R,
        # one carry suffices
        rq = rn * q
        U = rq * Qe * ed
        R = U * prev
        base, rem = divmod(L * (q * Pn) - rn * Qe * (p * ed + en * q), U)
        rem *= prev
        if d:
            i2, r2 = divmod(L * (q * d), R)
            base, rem = base + i2, rem + r2
            if rem >= R:
                base, rem = base + 1, rem - R
        dA = (rq * (H - L)) * a
        E2 = (2 * en * rq * Qe) * prev
        w = dA + E2
        j_min = base + (rem != 0)
        j_max = base + (rem + w) // R
        if j_min > j_max:
            raise InfeasibleAtStepError(n)
        # c*a - x = base + t/(2R) for the centre c = (lo + hi)/2
        t = 2 * rem + w
        two_r = 2 * R
        f, t_rem = divmod(t, two_r)
        j_best = base + f
        if 2 * t_rem > two_r or (2 * t_rem == two_r and j_best % 2 == 1):
            j_best += 1  # half to even, as round(Fraction) does
        j_best = min(max(j_best, j_min), j_max)
        # ties toward lower alpha: prefer j_best-1 when equally close, i.e.
        # |u - 2R| <= |u| for u = 2R*(j_best - (c*a - x))
        if j_best - 1 >= j_min:
            u = two_r * (j_best - base) - t
            if abs(u - two_r) <= abs(u):
                j_best -= 1
        # band [(x + j - eps)/a, (x + j + eps)/a] = [BL, BL + 2*en*q] / A
        # for A = q*ed*a
        BL = (p + j_best * q) * ed - en * q
        jR = (j_best - base) * R
        keep_lo = rem + E2 >= jR  # lo >= band_lo
        keep_hi = rem + dA <= jR  # hi <= band_hi
        banded = not (keep_lo or keep_hi)
        if banded:
            L, H, Qe, prev = BL, BL + 2 * en * q, q, a
        else:
            # the same Q over prev = 1
            Qe, prev = Qe * prev, 1
            if keep_lo != keep_hi:
                # one end clipped: bring both ends over Q*A (rare)
                A = q * ed * a
                L = L * A if keep_lo else BL * Qe * ed
                H = H * A if keep_hi else (BL + 2 * en * q) * Qe * ed
                Qe *= A
        if L > H:
            raise InfeasibleAtStepError(n)
    Q = Qe * ed * prev
    return Fraction(L, Q), Fraction(H, Q)


def find_dilation(
    thinned: ThinnedSequence,
    targets,
    epsilon: Fraction,
    search_interval: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1)),
) -> DilationCertificate:
    """Greedy interval refinement realizing ||alpha*a~_n - x_n|| <= eps for all n.

    Preconditions (checked): |interval| >= 4/delta with delta certified by
    delta_lower_bound, and consecutive frequency ratios >= 1/eps + 2 so every
    feasible interval contains a full band of the next constraint.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise EpsilonDomainError(f"epsilon-domain: {epsilon}")
    xs = [Fraction(t) for t in targets]
    if len(xs) != thinned.K:
        raise ValueError(f"need {thinned.K} targets, got {len(xs)}")
    freqs = tuple(thinned.terms)
    if any(a <= 0 for a in freqs):
        raise ValueError("frequencies must be positive")
    # ratio precondition for greedy feasibility: a_{n+1}/a_n >= 1/eps + 2,
    # i.e. a_{n+1}*e_num >= a_n*(e_den + 2*e_num), read from the relation
    # rho*a_{n+1} = P*a_n + d_n as d_n*e_num >= c*a_n; it holds without a
    # product where c <= 0 <= d_n
    en, ed = epsilon.numerator, epsilon.denominator
    ratio = thinned.growth_factor_r
    c = ratio.denominator * (ed + 2 * en) - ratio.numerator * en
    for n, d in enumerate(thinned.deltas):
        if (c > 0 or d < 0) and d * en < c * freqs[n]:
            raise InfeasibleAtStepError(
                n + 2, f"frequency ratio at step {n + 2} below 1/eps + 2"
            )
    M = turan_M(min(epsilon, Fraction(499, 1000)), thinned.K)
    try:
        delta = delta_lower_bound(freqs, M)
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
    flo, fhi = _greedy_band_search(freqs, xs, epsilon, lo, hi, ratio, thinned.deltas)
    # the frequencies increase (the ratio precondition) and are parent terms
    parent = thinned.parent
    precision = alpha_precision(parent.terms if parent is not None else freqs)
    alpha = DyadicReal.from_fraction((flo + fhi) / 2, precision)
    # postcondition on the residue stream: with alpha = m*2^-P and x = p/q,
    # {alpha*a - x} = ((q*res - p*2^P) mod q*2^P) / (q*2^P), res = m*a mod 2^P
    P = residue_bits(alpha)
    constraints = []
    for x, res in zip(xs, residues(alpha, thinned)):
        p, q = x.numerator, x.denominator
        den = q << P
        f = (q * res - (p << P)) % den
        dist = min(f, den - f)
        if dist * ed > en * den:
            raise InfeasibleAtStepError(
                0, f"postcondition violated: achieved {Fraction(dist, den)} > eps {epsilon}"
            )
        constraints.append(Constraint(x, dist, den))
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
    thinned = thin_block(seq, N)
    lo, hi = Fraction(search_interval[0]), Fraction(search_interval[1])
    a_N = seq.term(N)
    if hi - lo < Fraction(4, a_N):
        raise IntervalTooShortError(
            f"interval-below-4-over-aN: length {hi - lo} < 4/{a_N}"
        )
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
    cert = find_dilation(pseudo, targets, eps, search_interval)
    if cert.max_gap_bound != Fraction(3, N):
        raise InfeasibleAtStepError(
            0, f"postcondition violated: gap bound {cert.max_gap_bound} is not 3/{N}"
        )
    return cert
