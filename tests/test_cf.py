import copy
import math
import pickle
import random
import re
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna.cf import (
    ContinuedFraction,
    QuadraticReal,
    affine_dist_to_int,
    dist_to_int,
    expand,
    lambda_estimate,
    levy_rate,
    parse_value_spec,
)
from lacuna.dyadic import DyadicReal
from lacuna.errors import CfPrecisionExhaustedError, InsufficientDepthError
from lacuna.littlewood import exact_product

PHI = QuadraticReal(Fraction(1, 2), Fraction(1, 2), 5)
PHI_M1 = QuadraticReal(Fraction(-1, 2), Fraction(1, 2), 5)
SQRT2 = QuadraticReal.sqrt(2)


class TestQuadraticReal:
    def test_rejects_square_discriminant(self):
        with pytest.raises(ValueError):
            QuadraticReal(Fraction(0), Fraction(1), 9)

    def test_field_arithmetic(self):
        x = SQRT2 * SQRT2
        assert x.x == 2 and x.y == 0
        assert (PHI * PHI) == PHI + 1  # golden ratio identity

    def test_copy_and_pickle(self):
        v = PHI_M1 / 7
        assert copy.copy(v) == pickle.loads(pickle.dumps(v)) == v
        assert (v.a, v.b, v.c, v.d) == (-1, 1, 14, 5)

    def test_division(self):
        inv = QuadraticReal(1, 0, 2) / SQRT2
        assert (inv * SQRT2).x == 1 and (inv * SQRT2).y == 0

    def test_comparisons(self):
        assert QuadraticReal(Fraction(7, 5), 0, 2) < SQRT2
        assert SQRT2 < Fraction(3, 2)
        assert PHI > 1 and PHI < 2

    @given(st.integers(-(10**6), 10**6), st.integers(1, 10**6))
    def test_floor_exact(self, p, q):
        v = SQRT2 * Fraction(p, q)
        fl = v.floor()
        assert fl <= v and v < fl + 1

    def test_floor_huge_coordinates(self):
        v = SQRT2 * (10**40) - Fraction(10**40)
        fl = v.floor()
        assert fl <= v < fl + 1

    def test_to_float_cancellation(self):
        n = 10**20
        v = SQRT2 * n - (SQRT2 * n).floor()
        # exact fractional part to ~2^-64; a naive float evaluation returns 0
        assert 0 < v.to_float() < 1
        assert abs(v.to_float() - float((SQRT2 * n - (SQRT2 * n).floor()).to_dyadic(96).to_fraction())) < 1e-15

    def test_to_dyadic(self):
        d = SQRT2.to_dyadic(96)
        assert abs(d.to_fraction() ** 2 - 2) < Fraction(1, 1 << 90)


def reference_floor(v: QuadraticReal) -> int:
    """floor(v) from an mpmath estimate of x + y*sqrt(d), 64 bits past the
    size of either term, corrected by reference_sign, so nothing here calls
    QuadraticReal's own floor."""
    x, y = v.x, v.y
    with mp.workprec(64 + abs(x.numerator).bit_length() + abs(y.numerator).bit_length()
                     + v.d.bit_length()):
        a = int(mp.floor(mp.mpf(x.numerator) / x.denominator
                         + mp.mpf(y.numerator) / y.denominator * mp.sqrt(v.d)))
    while reference_sign(v - a) < 0:
        a -= 1
    while reference_sign(v - (a + 1)) >= 0:
        a += 1
    return a


def reference_dist(x):
    """The earlier nearest-integer distance min(frac, 1 - frac)."""
    f = x - (reference_floor(x) if isinstance(x, QuadraticReal) else math.floor(x))
    g = 1 - f
    return f if f <= g else g


NON_SQUARES = st.sampled_from([2, 3, 5, 6, 7, 13, 19, 10**6 + 3])
RATIONALS = st.builds(
    Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**12)
)
QUADRATICS = st.builds(QuadraticReal, RATIONALS, RATIONALS, NON_SQUARES)
HALF_INTEGERS = st.integers(-(10**20), 10**20).map(lambda k: Fraction(2 * k + 1, 2))


class TestNearestIntegerDistance:
    @settings(max_examples=300)
    @given(QUADRATICS)
    def test_quadratic_matches_reference(self, x):
        d = dist_to_int(x)
        assert isinstance(d, QuadraticReal)
        assert d == reference_dist(x)
        assert 0 <= d <= Fraction(1, 2)

    @settings(max_examples=300)
    @given(st.one_of(st.fractions(), HALF_INTEGERS, RATIONALS))
    def test_fraction_matches_reference(self, x):
        d = dist_to_int(x)
        assert isinstance(d, Fraction)
        assert d == reference_dist(x)

    @given(HALF_INTEGERS, NON_SQUARES)
    def test_half_integers(self, x, d):
        assert dist_to_int(x) == Fraction(1, 2)
        assert dist_to_int(QuadraticReal(x, 0, d)) == Fraction(1, 2)

    @settings(max_examples=300)
    @given(QUADRATICS)
    def test_floor_matches_reference(self, v):
        fl = v.floor()
        assert fl == reference_floor(v) == math.floor(v)
        assert fl <= v < fl + 1

    @pytest.mark.parametrize("e", [40, 300, 2000])
    def test_floor_huge_coordinates_negative_y(self, e):
        big = 10**e
        for v in (
            Fraction(big) - SQRT2 * big,
            QuadraticReal(Fraction(big, 3), Fraction(-big, 7), 3),
            QuadraticReal(Fraction(-big + 1, 11), Fraction(big - 1, 13), 10**6 + 3),
            -(SQRT2 * big) + Fraction(1, 2),
        ):
            fl = v.floor()
            assert fl <= v < fl + 1
            assert fl == reference_floor(v)

    def test_to_float_at_small_magnitudes(self):
        cf = expand(SQRT2, 60)
        with mp.workdps(120):  # q_60 ~ 1e23 and ||sqrt(2) q_60|| ~ 4e-24
            for k in range(10, 61):
                q = cf.q[k]
                d = dist_to_int(SQRT2 * q)
                exact = abs(mp.sqrt(2) * q - mp.nint(mp.sqrt(2) * q))
                for v, ref in ((d, exact), (-d, -exact)):
                    assert abs(v.to_float() - ref) <= 1e-15 * exact

    @settings(max_examples=300)
    @given(QUADRATICS)
    def test_to_float_unchanged_from_2_to_the_minus_11(self, v):
        # the earlier conversion: the float nearest floor(v * 2^64) / 2^64
        m = reference_floor(v * (1 << 64))
        if abs(v) >= Fraction(1, 1 << 11) and m.bit_length() <= 512:
            assert v.to_float() == math.ldexp(m, -64)


def reference_sign(v: QuadraticReal) -> int:
    """The earlier QuadraticReal.sign: a case analysis on the signs of x and
    y, comparing x^2 with y^2 d when they differ."""
    x, y = v.x, v.y
    if y == 0:
        return (x > 0) - (x < 0)
    if x == 0:
        return (y > 0) - (y < 0)
    if x > 0 and y > 0:
        return 1
    if x < 0 and y < 0:
        return -1
    lhs, rhs = x * x, y * y * v.d
    if lhs == rhs:
        return 0
    big_x = lhs > rhs
    return (1 if x > 0 else -1) if big_x else (1 if y > 0 else -1)


def reference_expansion(v: QuadraticReal, depth: int) -> list[int]:
    """a0 and depth quotients of the Gauss map v -> 1 / (v - floor v) in
    field arithmetic; each floor is reference_floor."""
    one = QuadraticReal(1, 0, v.d)
    out = []
    for _ in range(depth + 1):
        a = reference_floor(v)
        out.append(a)
        v = one / (v - a)
    return out


def reference_dyadic_count(x: DyadicReal, depth: int) -> int:
    """Quotients the earlier dyadic loop produced before it raised: it
    stopped at quotient k + 1 once its running continuant q_k passed the
    horizon or Euclid ended."""
    fr = x.to_fraction()
    rem = fr - math.floor(fr)
    horizon = 1 << max((x.precision_bits - 32) // 2, 1)
    num, den = rem.denominator, rem.numerator
    count, qk, qk1 = 0, 1, 0
    while count < depth and den != 0 and qk <= horizon:
        a, r = divmod(num, den)
        num, den = den, r
        count += 1
        qk, qk1 = a * qk + qk1, qk
    return count


SMALL_RATIONALS = st.builds(
    Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**4)
)
NONZERO_RATIONALS = SMALL_RATIONALS.filter(lambda f: f != 0)
SMALL_NON_SQUARES = st.integers(2, 1000).filter(lambda d: math.isqrt(d) ** 2 != d)


def coordinates(v) -> tuple[Fraction, Fraction]:
    return (v.x, v.y) if isinstance(v, QuadraticReal) else (Fraction(v), Fraction(0))


@st.composite
def same_field_operands(draw):
    """(u, w, d): u a QuadraticReal over d, w a QuadraticReal over d, an int
    or a Fraction."""
    d = draw(NON_SQUARES)
    u = QuadraticReal(draw(RATIONALS), draw(RATIONALS), d)
    w = draw(st.one_of(
        st.builds(QuadraticReal, RATIONALS, RATIONALS, st.just(d)),
        st.integers(-(10**30), 10**30),
        RATIONALS,
    ))
    return u, w, d


class TestArithmetic:
    """Field arithmetic against the formulas on the rational coordinates
    x + y*sqrt(d), with each result in canonical integer form."""

    @staticmethod
    def check(v, x, y, d):
        assert isinstance(v, QuadraticReal) and v.d == d
        assert (v.x, v.y) == (x, y)
        assert v.c > 0 and math.gcd(v.a, v.b, v.c) == 1
        assert v == QuadraticReal(x, y, d) and hash(v) == hash(QuadraticReal(x, y, d))

    @settings(max_examples=300)
    @given(same_field_operands())
    def test_add_sub_mul(self, ops):
        u, w, d = ops
        (x1, y1), (x2, y2) = coordinates(u), coordinates(w)
        for v in (u + w, w + u):
            self.check(v, x1 + x2, y1 + y2, d)
        self.check(u - w, x1 - x2, y1 - y2, d)
        self.check(w - u, x2 - x1, y2 - y1, d)
        for v in (u * w, w * u):
            self.check(v, x1 * x2 + y1 * y2 * d, x1 * y2 + x2 * y1, d)
        self.check(-u, -x1, -y1, d)

    @settings(max_examples=300)
    @given(same_field_operands())
    def test_div(self, ops):
        u, w, d = ops
        (x1, y1), (x2, y2) = coordinates(u), coordinates(w)
        norm = x2 * x2 - y2 * y2 * d
        if norm == 0:
            with pytest.raises(ZeroDivisionError):
                u / w
            return
        self.check(u / w, (x1 * x2 - y1 * y2 * d) / norm, (y1 * x2 - x1 * y2) / norm, d)

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            SQRT2 + QuadraticReal.sqrt(3)


class TestSign:
    @settings(max_examples=300)
    @given(QUADRATICS)
    def test_matches_reference(self, v):
        assert v.sign() == reference_sign(v)

    @pytest.mark.parametrize(
        "v",
        [
            QuadraticReal(0, 0, 2),
            QuadraticReal(Fraction(-1, 10**30), 0, 3),
            QuadraticReal(Fraction(0), Fraction(-1, 7), 5),
            SQRT2 * 10**40 - Fraction(141421356237309504880168872420969807857, 1000),
            Fraction(10**40) - SQRT2 * 10**40,
        ],
    )
    def test_edge_cases(self, v):
        assert v.sign() == reference_sign(v)


class TestExpansion:
    @settings(max_examples=60, deadline=None)
    @given(SMALL_RATIONALS, NONZERO_RATIONALS, SMALL_NON_SQUARES)
    def test_quadratic_matches_reference_gauss_map(self, x, y, d):
        v = QuadraticReal(x, y, d)
        cf = expand(v, 64)
        assert [cf.a0, *cf.partial_quotients] == reference_expansion(v, 64)

    @pytest.mark.parametrize(
        "x, quotients",
        [
            (SQRT2 / 3, (2, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8)),
            (parse_value_spec("quad:1,7,5"), (1, 2, 1, 2, 4, 26, 4, 2, 1, 2, 4, 26)),
            (QuadraticReal.sqrt(3) * Fraction(2, 7), (2, 48, 4, 48, 4, 48, 4, 48, 4, 48, 4, 48)),
        ],
        ids=["sqrt2/3", "(1+sqrt7)/5", "2sqrt3/7"],
    )
    def test_period_after_a_preperiod(self, x, quotients):
        cf = expand(x, 12)
        assert cf.a0 == 0 and cf.partial_quotients == quotients

    @pytest.mark.parametrize(
        "x",
        [
            SQRT2.to_dyadic(48),
            SQRT2.to_dyadic(96),
            PHI_M1.to_dyadic(64),
            DyadicReal.from_fraction(Fraction(1, 2), 40),
            DyadicReal.from_fraction(Fraction(3, 8), 40),
            DyadicReal.from_fraction(Fraction(7, 10), 256),
        ],
    )
    def test_precision_exhausted_count(self, x):
        for depth in (1, 2, 3, 10, 40, 200):
            count = reference_dyadic_count(x, depth)
            if count == depth:
                cf = expand(x, depth)
                assert cf.depth == depth and not cf.rational_terminated
                continue
            with pytest.raises(CfPrecisionExhaustedError) as exc:
                expand(x, depth)
            assert re.search(r"after (\d+) quotients", str(exc.value)).group(1) == str(count)

    def test_golden_ratio_minus_one(self):
        cf = expand(PHI_M1, 6)
        assert cf.a0 == 0
        assert cf.partial_quotients == (1, 1, 1, 1, 1, 1)
        assert cf.q == (1, 1, 2, 3, 5, 8, 13)

    def test_sqrt2_minus_one(self):
        cf = expand(SQRT2 - 1, 5)
        assert cf.partial_quotients == (2, 2, 2, 2, 2)
        assert cf.q == (1, 2, 5, 12, 29, 70)

    def test_rational_three_sevenths(self):
        cf = expand(Fraction(3, 7), 10)
        assert cf.a0 == 0
        assert cf.partial_quotients == (2, 3)
        assert cf.q == (1, 2, 7)
        assert cf.rational_terminated

    def test_fibonacci_continuants_depth_50(self):
        cf = expand(PHI_M1, 50)
        fib = [1, 1]
        for _ in range(50):
            fib.append(fib[-1] + fib[-2])
        assert cf.q == tuple(fib[:51])

    def test_dyadic_expansion_matches_exact_prefix(self):
        x = SQRT2.to_dyadic(192)
        cf_d = expand(x, 20)
        cf_q = expand(SQRT2, 20)
        assert cf_d.partial_quotients == cf_q.partial_quotients

    def test_precision_horizon(self):
        x = SQRT2.to_dyadic(48)
        with pytest.raises(CfPrecisionExhaustedError):
            expand(x, 60)

    def test_value_specs(self):
        assert parse_value_spec("sqrt:2") == SQRT2
        assert parse_value_spec("rat:3/7") == Fraction(3, 7)
        q = parse_value_spec("quad:1,5,2")
        assert q == PHI


def plain_euclid(fr, depth):
    """The reference expansion: one divmod per quotient on the fractional
    part of fr, with the convergents from their recurrence.  Returns
    (a0, quotients, p, q, rational_terminated)."""
    a0 = math.floor(fr)
    num, den = (fr - a0).denominator, (fr - a0).numerator
    quotients = []
    while den and len(quotients) < depth:
        a, r = divmod(num, den)
        num, den = den, r
        quotients.append(a)
    p, q = [a0], [1]
    pm1, qm1 = 1, 0
    for c in quotients:
        p.append(c * p[-1] + pm1)
        q.append(c * q[-1] + qm1)
        pm1, qm1 = p[-2], q[-2]
    return a0, tuple(quotients), tuple(p), tuple(q), den == 0


def wide_fractions():
    """Fractions of 1-5000 bits of either sign: ratios, integers and 1/n."""
    wide = st.integers(1, 5000).flatmap(lambda bits: st.integers(1, 1 << bits))
    signs = st.sampled_from([1, -1])
    return st.one_of(
        st.builds(lambda s, n, d: Fraction(s * n, d), signs, wide, wide),
        st.builds(lambda s, n: Fraction(s * n), signs, wide),
        st.builds(lambda s, n: Fraction(s, n), signs, wide),
    )


class TestLehmerExpansion:
    """Lehmer's rounds take many quotients per full-width update; the
    quotients, convergents and termination must be those of one divmod per
    quotient, also where a round meets the depth or the end of Euclid."""

    @staticmethod
    def expanded(x, depth):
        cf = expand(x, depth)
        return cf.a0, cf.partial_quotients, cf.p, cf.q, cf.rational_terminated

    @settings(max_examples=150, deadline=None)
    @given(wide_fractions())
    def test_matches_plain_euclid_around_termination(self, fr):
        length = len(plain_euclid(fr, math.inf)[1])
        for depth in {max(length - 1, 1), max(length, 1), length + 1}:
            assert self.expanded(fr, depth) == plain_euclid(fr, depth)

    def test_wide_dyadic_to_depth_ten_thousand(self):
        x = DyadicReal(random.Random(3).getrandbits(40_000) | 1, -40_000, 40_000)
        a0, quotients, p, q, _ = plain_euclid(x.to_fraction(), 10**4)
        assert self.expanded(x, 10**4) == (a0, quotients, p, q, False)


class TestConvergentProperties:
    @pytest.mark.parametrize("x", [PHI, SQRT2, QuadraticReal.sqrt(7), QuadraticReal.sqrt(13)])
    def test_determinant_identity(self, x):
        cf = expand(x, 30)
        for k in range(1, len(cf.q)):
            det = cf.p[k] * cf.q[k - 1] - cf.p[k - 1] * cf.q[k]
            assert det == (-1) ** (k - 1)

    @pytest.mark.parametrize("x", [PHI, SQRT2, QuadraticReal.sqrt(7)])
    def test_convergent_quality(self, x):
        cf = expand(x, 25)
        for k in range(1, len(cf.q)):
            q = cf.q[k]
            dist = dist_to_int(x * q)
            assert dist * q < 1  # q_k ||q_k x|| < 1, exact comparison

    def test_continuants_strictly_increasing(self):
        cf = expand(SQRT2, 30)
        assert all(a < b for a, b in zip(cf.q[1:], cf.q[2:]))


class TestLambda:
    def test_golden_ratio(self):
        val = lambda_estimate(expand(PHI, 50))
        assert abs(val - math.log((1 + math.sqrt(5)) / 2)) < 0.01

    def test_sqrt2(self):
        val = lambda_estimate(expand(SQRT2, 50))
        assert abs(val - math.log(1 + math.sqrt(2))) < 0.01

    def test_running_max_nondecreasing(self):
        cf = expand(QuadraticReal.sqrt(19), 40)
        vals = []
        for depth in range(2, 40):
            prefix = expand(QuadraticReal.sqrt(19), depth)
            vals.append(lambda_estimate(prefix))
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_too_shallow(self):
        bare = ContinuedFraction(a0=1, partial_quotients=(), p=(1,), q=(1,))
        with pytest.raises(InsufficientDepthError):
            lambda_estimate(bare)
        with pytest.raises(InsufficientDepthError):
            levy_rate(bare)

    def test_levy_rate_equals_last_slope(self):
        cf = expand(PHI, 50)
        assert levy_rate(cf) == pytest.approx(math.log(cf.q[50]) / 50)


class TestInhomDistance:
    """||beta n - zeta|| through dist_to_int, and n times it through
    exact_product."""

    def test_fibonacci_denominators(self):
        cf = expand(PHI, 20)
        for k in range(2, 15):
            q = cf.q[k]
            assert dist_to_int(PHI * q - 0) <= Fraction(1, cf.q[k + 1])
            assert exact_product(PHI, q, 0) <= Fraction(q, cf.q[k + 1])

    def test_n_zero(self):
        assert dist_to_int(PHI * 0 - Fraction(1, 4)) == Fraction(1, 4)
        assert exact_product(PHI, 0, Fraction(1, 4)) == 0


class TestAffineDistance:
    @given(
        st.fractions(min_value=-10, max_value=10, max_denominator=60),
        st.fractions(min_value=-10, max_value=10, max_denominator=60),
        st.sampled_from([2, 3, 5, 7, 13]),
        st.integers(0, 1 << 40),
        st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 7)]),
    )
    def test_matches_the_generic_arithmetic(self, x, y, d, n, s):
        # one isqrt and one reduction against dist_to_int(v n - s) in
        # QuadraticReal arithmetic; y = 0 and a shift in v's field included
        v = QuadraticReal(x, y, d)
        for shift in (s, QuadraticReal(s, y / 3, d)):
            got, want = affine_dist_to_int(v, n, shift), dist_to_int(v * n - shift)
            assert (got.a, got.b, got.c, got.d) == (want.a, want.b, want.c, want.d)
        assert affine_dist_to_int(x, n, s) == dist_to_int(x * n - s)
