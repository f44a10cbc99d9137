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

Every decision is an integer comparison; no Fraction is built on the
search interval's ends or on a term.

- The ratio precondition a_{n+1}/a_n >= 1/eps + 2 is cross-multiplied:
  a_{n+1}*e_num >= a_n*(e_den + 2*e_num) for eps = e_num/e_den, a_n > 0.
  With the stored relation rho*a_{n+1} = P*a_n + d_n it reads d_n*e_num >=
  c*a_n for the short c = rho*(e_den + 2*e_num) - P*e_num, so the terms
  are walked only where c > 0 or some d_n < 0.  With a~_1 > 0 it makes
  every term positive.  The lattice gap bound is read from the same
  relation where it decides it (_delta_from_relation), and walked
  otherwise.
- The band search carries only the integer j_n.  The targets are
  x_n = p_n/D over one denominator D, and the relation rho*a' = P*a + d
  that the ThinnedSequence stores (P/rho is r^step for a thinning of a
  sequence of ratio r, 1 for a list of terms, and d is of any sign) gives
  a'*c = floor(P*j/rho) + (W + P*x + d*c)/rho with W = P*j mod rho, so
  j' = floor(P*j/rho) + e, where e reads only W, the two numerators, the
  short d and c, over the one denominator 2*rho*D: one multiply of j by
  the short P and one split by rho (a shift and a mask for rho = 2^s, one
  divmod otherwise), O(B) for B-bit terms.  e is exact on short integers where
  d = 0, as at every integer ratio.  Otherwise it comes from a view of c
  frozen once a~_m is wide enough, c_m to F bits, which every later c_n
  stays within 1/a~_(m+1) <= 2^-F of (each step moves c by at most
  1/(2*a~_n), and every ratio exceeds 2).  Where that range straddles an
  integer, and before the freeze, the step takes the exact rule with
  c = (p_n + j*D)/(D*a~_n), reading a~_n from one exact walk of the
  terms, so a list of terms (ratio 1, wide deltas) takes it at every
  step.  Only a~_1, a~_K and those steps read a term, and the centre c_K
  is returned as the unreduced pair (p_K + j_K*D, D*a~_K), which
  DyadicReal.from_ratio rounds without a gcd.  Scaling every p_n and D by
  one factor leaves every ceiling at the same rational, so alpha depends
  on the targets alone.
- The postcondition is decided from the 64-bit keys of the thinned
  residue walk, residues(alpha, thinned).keys(): for alpha = m*2^-P and
  res = m*a mod 2^P, key k puts {alpha*a} in [k/2^64, (k+1)/2^64), and
  ||. - x|| is 1-Lipschitz, so with d = ||k/2^64 - x||, taken as integers
  at D*2^64, d + 2^-64 <= eps proves ||alpha*a - x|| <= eps.  Every other
  constraint is read exactly (Walk.at): for x = p/q in lowest terms,
  {alpha*a - x} = ((q*res - p*2^P) mod q*2^P) / (q*2^P), exact because
  q*m*a and q*res agree mod q*2^P, and compared with eps by
  cross-multiplication.  For
  P < 64 the keys are the residues shifted up, so the same rule holds.
  The certificate's constraints are a view over the same walk
  (Constraints): each distance is derived when read, never stored.

find_alpha is the one search for every block of the existence theorem: the
first N terms, and each translated block (N, 2N] (lacuna.nested), are the
window of N terms after an offset, thinned and searched alike.

A list of N terms with a_(n+1)/a_n >= N + 2 is certified by the same call,
find_dilation(ThinnedSequence(None, 1, 1, N, terms, xi), range(N), N, 1/N,
interval): at eps = 1/N the ratio precondition is that ratio bound, and
the N targets j/N give a gap of at most 1/N + 2*eps = 3/N.
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
    printable,
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
    from the target numerators p_n over the denominator D and the thinned
    residue walk, m*a~_n mod 2^P for alpha = m*2^-P (a
    lacuna.sequences.Walk, which holds the short deltas and about sqrt(K)
    checkpoints): len, indexing (stepped from the checkpoint below),
    iteration in one exact walk, and forward slices, as tuples.  No P-bit
    integer is held per constraint, and a target's Fraction is built only
    when its constraint is read."""

    __slots__ = ("_nums", "_den", "_residues", "_bits")

    def __init__(self, numerators, denominator: int, residues: Walk, bits: int):
        self._nums, self._den, self._residues, self._bits = numerators, denominator, residues, bits

    def __len__(self):
        return len(self._nums)

    def _at(self, num: int, res: int) -> Constraint:
        """The constraint of x = num/D = p/q, in lowest terms, at
        res = m*a mod 2^P: {alpha*a - x} = ((q*res - p*2^P) mod q*2^P) /
        (q*2^P), exact because q*m*a and q*res agree mod q*2^P."""
        x = Fraction(num, self._den)
        p, q, P = x.numerator, x.denominator, self._bits
        den = q << P
        f = (q * res - (p << P)) % den
        return Constraint(x, min(f, den - f), P)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._at, self._nums[i], self._residues[i]))
        return self._at(self._nums[i], self._residues[i])

    def __iter__(self):
        return map(self._at, self._nums, self._residues)


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


def _below(lo: Fraction, hi: Fraction, num: int, den: int) -> bool:
    """hi - lo < num/den for den > 0, cross-multiplied: no Fraction is
    built on the interval's ends, whose denominators may be wide."""
    width = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    return width * den < num * lo.denominator * hi.denominator


_FREEZE_GUARD = 64  # bits by which the frozen view of c resolves d*c/rho


def _delta_from_relation(thinned: ThinnedSequence, a1: int, dmin: int, M: int) -> int:
    """delta_lower_bound(thinned, M) for a~_1 = a1 > 0 and dmin the least
    delta_n, read from the relation rho*a~_(n+1) = P*a~_n + delta_n where
    it decides the bound, and walked otherwise:
    - with c' = rho*(M + 1) - P <= 0 <= dmin every ratio is at least M + 1,
      so the margins a~_n - M*sum_(j<n) a~_j never fall (each rises by
      a~_(n+1) - (M + 1)*a~_n >= 0) and the bound is a~_1;
    - the margin at n = 2 is (P*a1 + delta_1)/rho - M*a1, so where
      (P - rho*M)*a1 + delta_1 <= 0 the walk fails at n = 2, and so does
      this, with the same DeltaUncertifiableError."""
    P, rho = thinned.growth_factor_r.numerator, thinned.rho
    if rho * (M + 1) - P <= 0 <= dmin:
        return a1
    if thinned.deltas and (P - rho * M) * a1 + thinned.deltas[0] <= 0:
        raise DeltaUncertifiableError(2)
    return delta_lower_bound(thinned, M)


def _greedy_band_search(seq: ThinnedSequence, nums, D: int, lo: Fraction, hi: Fraction) -> tuple[int, int]:
    """The last band centre c_K of the recurrence c_0 = (lo + hi)/2,
    j_n = ceil(a~_n*c_(n-1) - x_n - 1/2), c_n = (x_n + j_n)/a~_n over the
    terms of seq and the targets x_n = nums[n]/D (see the module
    docstring), as the unreduced pair (p_K + j_K*D, D*a~_K).

    Under find_dilation's checks, hi - lo >= (1 + 2*eps)/a~_1 and
    a~_(n+1)/a~_n >= 1/eps + 2, every band lies strictly inside the one
    before, and the first inside [lo, hi]: c_K is the midpoint of the last
    band of the search that intersects them, and within eps/(2*(1 + eps))
    of every constraint.

    Only j is carried.  The first step is cross-multiplied.  Each later one
    reads the stored relation rho*a' = P*a + d: a'*c = floor(P*j/rho) + V
    with V = (W + P*x + d*c)/rho and W = P*j mod rho, so
    j' = floor(P*j/rho) + ceil(V - x' - 1/2), and the ceiling is taken on
    short integers over the one denominator 2*rho*D: exactly where d = 0;
    from the frozen view of c where that decides it; and otherwise by the
    exact rule, which reads a~_n from one exact walk of the terms
    (Recurrence.exact_at).  The view is c_m = (x_m + j_m)/a~_m to F bits,
    F set so that it resolves d*c/rho to _FREEZE_GUARD bits for the widest
    d, frozen at the first exact step with bits(a~_m) >= F: every later
    c_n lies within sum_(k>m) 1/(2*a~_k) <= 1/a~_(m+1) <= 2^-F of it, as
    each step moves c by at most 1/(2*a~_k) and every ratio exceeds 2.
    Where the two ends of that range give different ceilings, the step
    takes the exact rule."""
    P, rho = seq.growth_factor_r.numerator, seq.growth_factor_r.denominator
    s = rho.bit_length() - 1 if rho & (rho - 1) == 0 else None  # rho = 2^s
    # the view's range for V is 3*|d|/(rho*2^F) < 2^(bits(d) + 3 - bits(rho) - F),
    # below 2^-_FREEZE_GUARD for every d at this F
    dbits = max(max(seq.deltas, default=0), -min(seq.deltas, default=0)).bit_length()
    F = max(dbits + _FREEZE_GUARD + 3 - rho.bit_length(), 1)
    exact = seq.exact_at(1, None)
    a, read = exact(0), 0  # the last term read and its index
    ps = iter(nums)
    p = next(ps)
    # j_1 = ceil(a~_1*(lo + hi)/2 - p/D - 1/2) over the denominator 2*L*D
    L, S = lo.denominator * hi.denominator, lo.numerator * hi.denominator + hi.numerator * lo.denominator
    j = -(((2 * p + D) * L - a * S * D) // (2 * L * D))
    den = 2 * rho * D
    view = None  # the least and the greatest c_n*2^F once frozen
    for i, (d, p2) in enumerate(zip(seq.deltas, ps)):
        W = P * j
        if rho == 1:  # no split: W >> 0 would copy W
            A, W = W, 0
        elif s is not None:
            A, W = W >> s, W & (rho - 1)
        else:
            A, W = divmod(W, rho)
        # V - x' - 1/2 = (Z + 2*D*d*c) / den
        Z = 2 * (W * D + P * p) - rho * (2 * p2 + D)
        if not d:
            e = -(-Z // den)
        else:
            e = None
            if view is not None:
                c_lo, c_hi = view if d > 0 else view[::-1]
                t, ZF, denF = 2 * D * d, Z << F, den << F
                e = -(-(ZF + t * c_lo) // denF)
                if e != -(-(ZF + t * c_hi) // denF):
                    e = None
            if e is None:
                if read != i:
                    a, read = exact(i), i
                u = p + j * D
                e = -(-(a * Z + 2 * d * u) // (den * a))
                if view is None and a.bit_length() >= F:
                    c = (u << F) // (D * a)  # c_i*2^F rounded down
                    view = c - 1, c + 2
        j = A + e
        p = p2
    if read != len(seq) - 1:
        a = exact(len(seq) - 1)
    return p + j * D, D * a


def find_dilation(
    thinned: ThinnedSequence,
    numerators,
    denominator: int,
    epsilon: Fraction,
    search_interval: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1)),
) -> DilationCertificate:
    """Nested band centres realizing ||alpha*a~_n - x_n|| <= eps for all n,
    for the targets x_n = numerators[n]/denominator: K integers over one
    denominator D >= 1, which need not be in lowest terms (scaling both by
    one factor gives the same certificate).

    Preconditions (checked, each a coded error): a~_1 > 0; consecutive
    ratios a~_(n+1)/a~_n >= 1/eps + 2, which with a~_1 > 0 makes every
    term positive and nests each band strictly inside the one before;
    hi - lo >= (1 + 2*eps)/a~_1, which puts the first band strictly inside
    the interval; and hi - lo >= 4/delta when delta_lower_bound certifies
    delta.  Under them the band centre c_K of _greedy_band_search is within
    eps/(2*(1 + eps)) of every constraint; alpha is c_K rounded to
    alpha_precision bits, and the residue postcondition, decided from
    keys and exact where they leave it open, is the guard.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise EpsilonDomainError(f"epsilon-domain: {epsilon}")
    nums, D = numerators, denominator
    if D < 1:
        raise ValueError(f"target denominator must be at least 1, got {D}")
    if len(nums) != thinned.K:
        raise ValueError(f"need {thinned.K} targets, got {len(nums)}")
    terms = thinned.terms
    a1 = terms[0]
    if a1 <= 0:
        raise ValueError("frequencies must be positive")
    # ratio precondition for nested bands: a_{n+1}/a_n >= 1/eps + 2, i.e.
    # a_{n+1}*e_num >= a_n*(e_den + 2*e_num), read from the relation
    # rho*a_{n+1} = P*a_n + d_n as d_n*e_num >= c*a_n; it holds without a
    # product where c <= 0 <= d_n, so then the terms are not walked
    en, ed = epsilon.numerator, epsilon.denominator
    dmin = min(thinned.deltas, default=0)
    c = thinned.rho * (ed + 2 * en) - thinned.growth_factor_r.numerator * en
    if c > 0 or dmin < 0:
        for n, (a, d) in enumerate(zip(terms, thinned.deltas), start=2):
            if d * en < c * a:
                raise InfeasibleAtStepError(n, f"frequency ratio at step {n} below 1/eps + 2")
    M = turan_M(min(epsilon, Fraction(499, 1000)), thinned.K)
    try:
        delta = _delta_from_relation(thinned, a1, dmin, M)
    except DeltaUncertifiableError:
        # below the domination threshold; the bands still nest
        delta = None
    lo, hi = Fraction(search_interval[0]), Fraction(search_interval[1])
    if delta is not None and _below(lo, hi, 4, delta):
        raise IntervalTooShortError(f"interval length {printable(hi - lo)} below 4/delta = 4/{printable(delta)}")
    if _below(lo, hi, ed + 2 * en, ed * a1):
        raise IntervalTooShortError(f"interval length {printable(hi - lo)} below (1+2*eps)/a~_1")
    # the terms increase (the ratio precondition) and are parent terms
    parent = thinned.parent
    precision = alpha_precision(parent.terms if parent is not None else terms)
    alpha = DyadicReal.from_ratio(*_greedy_band_search(thinned, nums, D, lo, hi), precision)
    # postcondition from the keys: key k puts {alpha*a} in [k/2^64, (k+1)/2^64)
    # and ||. - x|| is 1-Lipschitz, so d = ||k/2^64 - x|| with d + 2^-64 <= eps
    # decides it; every other constraint takes the exact rule
    P = residue_bits(alpha)
    walk = residues(alpha, thinned)
    undecided = []
    den = D << 64
    for n, (p, k) in enumerate(zip(nums, walk.keys().tolist())):
        f = (D * k - (p << 64)) % den
        if (min(f, den - f) + D) * ed > en * den:
            undecided.append(n)
    constraints = Constraints(nums, D, walk, P)
    for n, res in zip(undecided, walk.at(undecided)):
        c = constraints._at(nums[n], res)
        if c.achieved_num * ed > en * c.achieved_den:
            raise InfeasibleAtStepError(
                0, f"postcondition violated: achieved {printable(c.achieved)} > eps {epsilon}"
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
        if _below(lo, hi, 4, a):
            raise IntervalTooShortError(f"interval-below-4-over-aN: length {printable(hi - lo)} < 4/{printable(a)}")
    return find_dilation(thinned, range(thinned.K), thinned.K, block_epsilon(seq, N), (lo, hi))
