import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lacuna.cf import QuadraticReal
from lacuna.errors import CzPoolExhaustedError, RationalBetaError
from lacuna.littlewood import (
    _product_at_most,
    cz_build,
    cz_recheck,
    exact_product,
    littlewood_scan,
    littlewood_threshold_bounds,
)

SQRT2 = QuadraticReal.sqrt(2)
PHI = QuadraticReal(Fraction(1, 2), Fraction(1, 2), 5)


def upper_fraction(x: QuadraticReal, bits: int) -> Fraction:
    """A rational upper bound on x, tight to 2^-bits."""
    return x.to_dyadic(bits).to_fraction() + Fraction(1, 1 << bits)


def mp_value(x: QuadraticReal):
    """x at the working precision of mpmath."""
    return mp.mpf(x.x.numerator) / x.x.denominator + mp.mpf(
        x.y.numerator
    ) / x.y.denominator * mp.sqrt(x.d)


class TestExactProduct:
    def test_rational_value(self):
        assert exact_product(Fraction(1, 3), 4, 0) == Fraction(4, 3)

    def test_quadratic_value(self):
        # ||sqrt(2)*5|| = 7.071... - 7, so the product is 25*sqrt(2) - 35
        assert exact_product(SQRT2, 5, 0) == SQRT2 * 25 - 35

    def test_shift(self):
        assert exact_product(Fraction(1, 4), 2, Fraction(1, 2)) == 0

    def test_mixed_types_promoted(self):
        assert isinstance(exact_product(SQRT2, 3, Fraction(1, 2)), QuadraticReal)


class TestThreshold:
    def test_encloses_float_value(self):
        for n in (3, 10, 1000, 10**6):
            lo, hi = littlewood_threshold_bounds(n, Fraction(1, 20))
            ref = math.log(math.log(n)) ** 2.05 / math.log(n)
            assert float(lo) <= ref <= float(hi)
            assert hi - lo <= Fraction(1, 1 << 49)

    def test_domain(self):
        with pytest.raises(ValueError):
            littlewood_threshold_bounds(2, Fraction(1, 20))


class TestCzBuild:
    def test_sqrt2_homogeneous(self):
        seq = cz_build(SQRT2, 0, 12)
        assert len(seq) == 12
        chk = cz_recheck(seq)
        assert chk["all_ok"]
        assert chk["product_ok"] == [True] * 12

    def test_phi_inhomogeneous(self):
        seq = cz_build(PHI, Fraction(1, 2), 8)
        chk = cz_recheck(seq)
        assert chk["all_ok"]

    def test_growth_window(self):
        seq = cz_build(SQRT2, 0, 10)
        for i, a in enumerate(seq.terms):
            assert 8 ** (i + 1) < a
        for a, b in zip(seq.terms, seq.terms[1:]):
            assert b >= 8 * a

    def test_products_are_small(self):
        # the steering bound gives n||beta n - zeta|| < 3/2 at the candidate,
        # and selection only keeps terms passing the exact <= 8 recheck
        seq = cz_build(SQRT2, 0, 10)
        assert all(exact_product(SQRT2, a, 0) <= 8 for a in seq.terms)
        assert cz_recheck(seq)["product_ok"] == [True] * 10

    def test_rational_beta_rejected(self):
        # a rational beta's expansion ends, so its convergents run out
        for beta in (QuadraticReal(Fraction(3, 7), 0, 2), Fraction(1, 3), 2):
            with pytest.raises(RationalBetaError):
                cz_build(beta, 0, 4)

    def test_pool_exhaustion(self):
        # the expansion stops at 2^14 convergents, so the pool is finite
        with pytest.raises(CzPoolExhaustedError) as exc:
            cz_build(SQRT2, 0, 10**4)
        assert exc.value.achieved_terms == 5461


class TestLittlewoodScan:
    def test_brute_golden_pair_finds_solutions(self):
        rep = littlewood_scan(
            PHI - 1, SQRT2 - 1, 0, 0, Fraction(1, 20), n_limit=3000
        )
        assert rep.mode == "brute"
        assert rep.n_scanned == 2998
        assert rep.solution_count >= 20
        for n, prod, thr in rep.solutions:
            assert prod <= thr * (1 + 1e-9) + 1e-12

    def test_brute_scan_ignores_integer_shifts(self):
        # n ||alpha n - eta|| ||beta n - zeta|| is the same for alpha + 2^30
        # and eta + 2^40; a float of the whole value would keep too few
        # fractional bits and the prefilter would drop true solutions
        eps = Fraction(1, 10)
        want = littlewood_scan(PHI - 1, SQRT2, 0, 0, eps, n_limit=10**5).solutions
        assert len(want) == 149
        shifted = littlewood_scan(PHI - 1 + (1 << 30), SQRT2, 0, 0, eps, n_limit=10**5)
        assert shifted.solutions == want
        eta = Fraction(1, 3)
        want = littlewood_scan(PHI - 1, SQRT2, eta, 0, eps, n_limit=10**4).solutions
        shifted = littlewood_scan(PHI - 1, SQRT2, eta + (1 << 40), 0, eps, n_limit=10**4)
        assert shifted.solutions == want

    def test_explicit_mode_on_cz_terms(self):
        seq = cz_build(SQRT2, 0, 8)
        rep = littlewood_scan(
            PHI, SQRT2, 0, 0, Fraction(1, 20), n_values=seq.terms
        )
        assert rep.mode == "explicit"
        assert rep.n_scanned == 8

    def test_mode_exclusivity(self):
        with pytest.raises(ValueError):
            littlewood_scan(PHI, SQRT2, 0, 0, Fraction(1, 20))
        with pytest.raises(ValueError):
            littlewood_scan(PHI, SQRT2, 0, 0, Fraction(1, 20), n_values=[5], n_limit=10)

    def test_block_counts_partition_solutions(self):
        rep = littlewood_scan(PHI - 1, SQRT2 - 1, 0, 0, Fraction(1, 20), n_limit=2000)
        assert sum(rep.block_counts.values()) == rep.solution_count
        for b in rep.block_counts:
            assert b & (b - 1) == 0

    def test_solutions_confirmed_exactly(self):
        # every reported n satisfies the exact rational/quadratic inequality
        rep = littlewood_scan(PHI - 1, SQRT2 - 1, 0, 0, Fraction(1, 20), n_limit=500)
        for n, _, _ in rep.solutions:
            thr_lo, _ = littlewood_threshold_bounds(n, Fraction(1, 20))
            pa = exact_product(PHI - 1, n, 0)
            pb = exact_product(SQRT2 - 1, n, 0)
            assert upper_fraction(pa, 256) * upper_fraction(pb, 256) <= thr_lo * n * (
                1 + Fraction(1, 1 << 40)
            )

    def test_json_shape(self):
        rep = littlewood_scan(PHI - 1, SQRT2 - 1, 0, 0, Fraction(1, 20), n_limit=200)
        d = rep.to_json_dict()
        assert d["mode"] == "brute"
        assert d["solution_count"] == len(d["solutions"])


SMALL_RATIONALS = st.fractions(min_value=-8, max_value=8, max_denominator=50)
FIELDS = st.sampled_from([2, 3, 5, 6, 7, 8, 13])


class TestMixedFields:
    """Products across two quadratic fields are decided exactly."""

    def test_true_solution_just_below_threshold(self):
        pa, pb = SQRT2 - 1, QuadraticReal.sqrt(3) - 1
        with mp.workdps(250):
            scaled = mp_value(pa) * mp_value(pb) * mp.mpf(2) ** 310
            k = int(mp.floor(scaled))
            assert min(scaled - k, k + 1 - scaled) > mp.mpf(2) ** -100
        # 0 < t - pa * pb < 2^-310
        t = Fraction(k + 1, 1 << 310)
        assert upper_fraction(pa, 256) * upper_fraction(pb, 256) > t
        assert _product_at_most(pa, pb, t)
        assert not _product_at_most(pa, pb, Fraction(k, 1 << 310))

    @settings(max_examples=300, deadline=None)
    @given(
        SMALL_RATIONALS, SMALL_RATIONALS, FIELDS,
        SMALL_RATIONALS, SMALL_RATIONALS, FIELDS,
        st.integers(1, 900), st.integers(-2, 2),
    )
    def test_matches_mpmath(self, xa, ya, da, xb, yb, db, bits, offset):
        pa, pb = QuadraticReal(xa, ya, da), QuadraticReal(xb, yb, db)
        with mp.workdps(300):
            prod = mp_value(pa) * mp_value(pb)
            # t within a few 2^-bits of the product, on either side
            t = Fraction(int(mp.floor(prod * mp.mpf(2) ** bits)) + offset, 1 << bits)
            diff = prod - mp.mpf(t.numerator) / t.denominator
            assume(diff == 0 or abs(diff) > mp.mpf(10) ** -280)
            want = bool(diff <= 0)
        assert _product_at_most(pa, pb, t) == want


    def test_brute_scan_across_fields_matches_mpmath(self):
        eps = Fraction(1, 20)
        alpha, beta = SQRT2 - 1, QuadraticReal.sqrt(3) - 1
        rep = littlewood_scan(alpha, beta, 0, 0, eps, n_limit=3000)
        want = []
        with mp.workdps(60):
            a, b = mp_value(alpha), mp_value(beta)
            for n in range(3, 3001):
                thr_lo, _ = littlewood_threshold_bounds(n, eps)
                prod = n * abs(a * n - mp.nint(a * n)) * abs(b * n - mp.nint(b * n))
                if prod <= mp.mpf(thr_lo.numerator) / thr_lo.denominator:
                    want.append(n)
        assert [n for n, _, _ in rep.solutions] == want and want
