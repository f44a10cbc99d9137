"""Quantitative Kronecker machinery: lattice-gap certificates and a greedy,
a-posteriori-verified search for dilation factors.

The existence statement behind this module guarantees, for frequencies whose
small integer combinations cannot vanish (certified gap delta > 0), a dilation
factor alpha in any interval of length 4/delta with ||alpha*a~_n - x_n|| <= eps
for all n.  We realize it constructively, one frequency at a time, by a
recurrence of band centres: c_0 is the midpoint of the search interval,

    j_n = ceil(a~_n*c_(n-1) - x_n - 1/2),    c_n = (x_n + j_n)/a~_n,

so c_n is the centre of the band ||alpha*a~_n - x_n|| <= eps' nearest
c_(n-1), ties toward lower alpha, and alpha is c_K rounded to a dyadic.
Two lemmas, resting on the two checks find_dilation makes, nest the bands
(eps' is any value in (eps/2, eps); the choice of j_n never reads it):

- First band.  |c_1 - c_0| <= 1/(2*a~_1) and the band's half width is
  eps'/a~_1, so the band lies strictly inside [lo, hi] whenever
  hi - lo >= (1 + 2*eps)/a~_1.
- Later bands.  a~_(n+1)/a~_n >= 1/eps + 2 > 1 + 1/(2*eps'), so
  1/(2*a~_(n+1)) + eps'/a~_(n+1) < eps'/a~_n: band n+1 lies strictly
  inside band n.

So a search that intersects the bands keeps each chosen band whole, and no
step clips the interval or leaves it unchanged.  Before rounding,
||c_K*a~_n - x_n|| <= a~_n * sum_(m>n) 1/(2*a~_m) <= eps/(2*(1 + eps)) by
the ratio check, and the rounding of alpha adds at most 2^-64.  Every
returned alpha is re-verified at full precision; nothing is trusted from
the construction.

Every decision is an integer comparison; no Fraction is built after the
search's first step.

- The ratio precondition a_{n+1}/a_n >= 1/eps + 2 is cross-multiplied:
  a_{n+1}*e_num >= a_n*(e_den + 2*e_num) for eps = e_num/e_den, a_n > 0.
  With the stored relation rho*a_{n+1} = P*a_n + d_n it reads d_n*e_num >=
  c*a_n for the short c = rho*(e_den + 2*e_num) - P*e_num, so the terms
  are walked only where c > 0 or some d_n < 0.  With a~_1 > 0 it makes
  every term positive.
- The band search carries c = u/(q*a) with x = p/q and u = p + j*q.  With
  the relation rho*a' = P*a + d that the ThinnedSequence stores (P/rho is
  r^step for a thinning of a sequence of ratio r, 1 for a list of terms,
  and d is of any sign), a'*c = P*u/(rho*q) + d*u/(rho*q*a): one division
  by the short rho*q and one with the short quotient d*c/rho, O(B) for
  B-bit terms, not the O(B^2) of the product a'*u.  j' is one floor
  division of O(B)-bit integers, exact for every integer d.
- The postcondition is decided from the 64-bit keys of the thinned
  residue walk, residues(alpha, thinned).keys(): for alpha = m*2^-P and
  res = m*a mod 2^P, key k puts {alpha*a} in [k/2^64, (k+1)/2^64), and
  ||. - x|| is 1-Lipschitz, so with d = ||k/2^64 - x||, taken as integers
  at q*2^64, d + 2^-64 <= eps proves ||alpha*a - x|| <= eps.  Every other
  constraint is read exactly (Walk.at): {alpha*a - x} =
  ((q*res - p*2^P) mod q*2^P) / (q*2^P), exact because q*m*a and q*res
  agree mod q*2^P, and compared with eps by cross-multiplication.  For
  P < 64 the keys are the residues shifted up, so the same rule holds.
  The certificate's constraints are a view over the same walk
  (Constraints): each distance is derived when read, never stored.

find_alpha is the one search for every block of the existence theorem: the
first N terms, and each translated block (N, 2N] (lacuna.nested), are the
window of N terms after an offset, thinned and searched alike.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
    Walk,
    ln_lower,
    ln_upper,
    smallest_l,
    thin,
)

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
    unreduced.  achieved_den = q*2^bits, for the target's denominator q and
    alpha's residue bits, is derived when read, as is the Fraction.  A
    certificate holds no Constraint: its Constraints view builds each one
    when it is read."""

    target: Fraction
    achieved_num: int
    bits: int

    @property
    def achieved_den(self) -> int:
        return self.target.denominator << self.bits

    @property
    def achieved(self) -> Fraction:
        return Fraction(self.achieved_num, self.achieved_den)


class Constraints(Sequence):
    """The constraints of a certificate, read-only and derived when read
    from the targets x_n and the thinned residue walk, m*a~_n mod 2^P for
    alpha = m*2^-P (a lacuna.sequences.Walk, which holds the short deltas
    and about sqrt(K) checkpoints): len, indexing (stepped from the
    checkpoint below), iteration in one exact walk, and forward slices, as
    tuples.  No P-bit integer is held per constraint."""

    __slots__ = ("_targets", "_residues", "_bits")

    def __init__(self, targets, residues: Walk, bits: int):
        self._targets, self._residues, self._bits = targets, residues, bits

    def __len__(self):
        return len(self._targets)

    def _at(self, x: Fraction, res: int) -> Constraint:
        """The constraint of x = p/q at res = m*a mod 2^P: {alpha*a - x} =
        ((q*res - p*2^P) mod q*2^P) / (q*2^P), exact because q*m*a and
        q*res agree mod q*2^P."""
        p, q, P = x.numerator, x.denominator, self._bits
        den = q << P
        f = (q * res - (p << P)) % den
        return Constraint(x, min(f, den - f), P)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._at, self._targets[i], self._residues[i]))
        return self._at(self._targets[i], self._residues[i])

    def __iter__(self):
        return map(self._at, self._targets, self._residues)


@dataclass(frozen=True)
class DilationCertificate:
    """alpha with its search interval, the certified gap bound, and the
    constraints ||alpha*a~_n - x_n|| <= eps as a Constraints view over the
    thinned residue walk."""

    alpha: DyadicReal
    search_interval: tuple[Fraction, Fraction]
    constraints: Constraints
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


def _greedy_band_search(seq: ThinnedSequence, targets, lo: Fraction, hi: Fraction) -> Fraction:
    """The last band centre c_K of the recurrence c_0 = (lo + hi)/2,
    j_n = ceil(a~_n*c_(n-1) - x_n - 1/2), c_n = (x_n + j_n)/a~_n over the
    terms of seq (see the module docstring).

    Under find_dilation's checks, hi - lo >= (1 + 2*eps)/a~_1 and
    a~_(n+1)/a~_n >= 1/eps + 2, every band lies strictly inside the one
    before, and the first inside [lo, hi]: c_K is the midpoint of the last
    band of the search that intersects them, and within eps/(2*(1 + eps))
    of every constraint.  The first step is one Fraction evaluation; each
    later one writes c = u/(q*a) and reads the stored relation
    rho*a' = P*a + d: a'*c = P*u/(rho*q) + d*u/(rho*q*a) is an integer
    A plus F/D, from a division by the short rho*q and one with a short
    quotient, and j' = A + ceil(F/D - x' - 1/2) is one floor division."""
    P, rho = seq.growth_factor_r.numerator, seq.growth_factor_r.denominator
    terms, xs = iter(seq.terms), iter(targets)
    a, x = next(terms), next(xs)
    q = x.denominator
    u = x.numerator + math.ceil(a * (lo + hi) / 2 - x - Fraction(1, 2)) * q
    for a2, x, d in zip(terms, xs, seq.deltas):
        D = rho * q * a
        A, F = divmod(P * u, rho * q)
        A2, F2 = divmod(d * u, D)
        A, F = A + A2, F * a + F2
        # ceil(F/D - p/q' - 1/2) = -floor(((2p + q')*D - 2q'*F) / (2q'*D))
        p, q = x.numerator, x.denominator
        j = A - ((2 * p + q) * D - 2 * q * F) // (2 * q * D)
        u, a = p + j * q, a2
    return Fraction(u, q * a)


def find_dilation(
    thinned: ThinnedSequence,
    targets,
    epsilon: Fraction,
    search_interval: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1)),
) -> DilationCertificate:
    """Nested band centres realizing ||alpha*a~_n - x_n|| <= eps for all n.

    Preconditions (checked, each a coded error): a~_1 > 0; consecutive
    ratios a~_(n+1)/a~_n >= 1/eps + 2, which with a~_1 > 0 makes every
    term positive and nests each band strictly inside the one before;
    hi - lo >= (1 + 2*eps)/a~_1, which puts the first band strictly inside
    the interval; and hi - lo >= 4/delta when delta_lower_bound certifies
    delta.  Under them the band centre c_K of _greedy_band_search is within
    eps/(2*(1 + eps)) of every constraint; alpha is c_K rounded to
    alpha_precision bits, and the residue postcondition, decided from
    keys and exact where they leave it open, is the guard.  Targets that
    are Fractions are kept as they are.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise EpsilonDomainError(f"epsilon-domain: {epsilon}")
    xs = [t if isinstance(t, Fraction) else Fraction(t) for t in targets]
    if len(xs) != thinned.K:
        raise ValueError(f"need {thinned.K} targets, got {len(xs)}")
    terms = thinned.terms
    a1 = terms[0]
    if a1 <= 0:
        raise ValueError("frequencies must be positive")
    # ratio precondition for nested bands: a_{n+1}/a_n >= 1/eps + 2, i.e.
    # a_{n+1}*e_num >= a_n*(e_den + 2*e_num), read from the relation
    # rho*a_{n+1} = P*a_n + d_n as d_n*e_num >= c*a_n; it holds without a
    # product where c <= 0 <= d_n, so then the terms are not walked
    en, ed = epsilon.numerator, epsilon.denominator
    ratio = thinned.growth_factor_r
    c = ratio.denominator * (ed + 2 * en) - ratio.numerator * en
    if c > 0 or min(thinned.deltas, default=0) < 0:
        for n, (a, d) in enumerate(zip(terms, thinned.deltas), start=2):
            if d * en < c * a:
                raise InfeasibleAtStepError(n, f"frequency ratio at step {n} below 1/eps + 2")
    M = turan_M(min(epsilon, Fraction(499, 1000)), thinned.K)
    try:
        delta = delta_lower_bound(terms, M)
    except DeltaUncertifiableError:
        # below the domination threshold; the bands still nest
        delta = None
    lo, hi = Fraction(search_interval[0]), Fraction(search_interval[1])
    if delta is not None and hi - lo < Fraction(4, delta):
        raise IntervalTooShortError(f"interval length {hi - lo} below 4/delta = 4/{delta}")
    if hi - lo < (1 + 2 * epsilon) / a1:
        raise IntervalTooShortError(f"interval length {hi - lo} below (1+2*eps)/a~_1")
    # the terms increase (the ratio precondition) and are parent terms
    parent = thinned.parent
    precision = alpha_precision(parent.terms if parent is not None else terms)
    alpha = DyadicReal.from_fraction(_greedy_band_search(thinned, xs, lo, hi), precision)
    # postcondition from the keys: key k puts {alpha*a} in [k/2^64, (k+1)/2^64)
    # and ||. - x|| is 1-Lipschitz, so d = ||k/2^64 - x|| with d + 2^-64 <= eps
    # decides it; every other constraint takes the exact rule
    P = residue_bits(alpha)
    walk = residues(alpha, thinned)
    undecided = []
    for n, (x, k) in enumerate(zip(xs, walk.keys().tolist())):
        p, q = x.numerator, x.denominator
        den = q << 64
        f = (q * k - (p << 64)) % den
        if (min(f, den - f) + q) * ed > en * den:
            undecided.append(n)
    constraints = Constraints(xs, walk, P)
    for n, res in zip(undecided, walk.at(undecided)):
        c = constraints._at(xs[n], res)
        if c.achieved_num * ed > en * c.achieved_den:
            raise InfeasibleAtStepError(
                0, f"postcondition violated: achieved {c.achieved} > eps {epsilon}"
            )
    bound = Fraction(1, thinned.K) + 2 * epsilon
    return DilationCertificate(
        alpha=alpha,
        search_interval=(lo, hi),
        constraints=constraints,
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
    offset: int = 0,
) -> DilationCertificate:
    """Dilation factor for the N terms after the first offset, with gap
    bound <= 3l*ln(N)/N: the first N terms at offset 0, the translated
    block (N, 2N] at offset N.

    Thins the window (thin), targets K equidistant points with
    eps = l*ln(N)/(2N); the window's gap is at most 1/K + 2*eps by set
    monotonicity.  For offset > 0 the interval must have length >=
    4/a_offset (interval-below-4-over-aN).
    """
    thinned = thin(seq, N, offset)
    lo, hi = Fraction(search_interval[0]), Fraction(search_interval[1])
    if offset:
        a = seq.term(offset)
        if hi - lo < Fraction(4, a):
            raise IntervalTooShortError(f"interval-below-4-over-aN: length {hi - lo} < 4/{a}")
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
