import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lacuna import littlewood
from lacuna.cf import QuadraticReal
from lacuna.errors import CzPoolExhaustedError, RationalBetaError
from lacuna.littlewood import (
    _brute_candidates,
    _chunk_threshold,
    _confirm_solution,
    _peak_threshold,
    _product_at_most,
    cz_build,
    cz_recheck,
    exact_product,
    littlewood_scan,
    littlewood_threshold_bounds,
)
from lacuna.sequences import mpf_fraction

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

    @pytest.mark.parametrize("epsilon", [Fraction(1, 20), Fraction(1, 10), Fraction(1)])
    def test_matches_the_mpmath_formula(self, epsilon):
        # the mp-context formula the raw libmp calls replace; 8^300 + 7 is a
        # CZ-term size, and at 2^137 + 251 an int rounded to 136 bits before
        # its log gives another threshold
        def oracle(n):
            with mp.workdps(40):
                e = 2 + mp.mpf(epsilon.numerator) / epsilon.denominator
                v = mpf_fraction(mp.log(mp.log(n)) ** e / mp.log(n))
            g = Fraction(1, 1 << 50)
            return v - g, v + g

        for n in (3, 4, 3519, 3520, 10**6, 2**64 + 1, 2**137 + 251, 8**300 + 7):
            assert littlewood_threshold_bounds(n, epsilon) == oracle(n)


    def test_values_are_pinned(self):
        # thr_lo = v - 2^-50 as printed before the threshold's refactors
        pins = {
            3: (39882273448034423177156093938637058421971, 142),
            4: (1584858593551270459011321795903510596145, 134),
            10**3: (24340199191363000394173639397540837337123, 135),
            10**6: (45624287987400679599199740220596022647739, 136),
            10**12: (73749826182120455828852927510900705115379, 137),
        }
        for n, (num, e) in pins.items():
            lo, hi = littlewood_threshold_bounds(n, Fraction(1, 20))
            assert lo == Fraction(num, 1 << e)
            assert hi == lo + Fraction(1, 1 << 49)


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


def exact_solutions(alpha, beta, eta, zeta, eps, n_limit):
    """Every 3 <= n <= n_limit that the exact confirmation accepts."""
    return [
        n for n in range(3, n_limit + 1)
        if _confirm_solution(alpha, beta, eta, zeta, n, littlewood_threshold_bounds(n, eps)[0])[0]
    ]


QUADRATIC = st.builds(
    QuadraticReal,
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.fractions(min_value=-3, max_value=3, max_denominator=12).filter(lambda y: y != 0),
    st.sampled_from([2, 3, 5, 13]),
)
SHIFT = st.builds(
    lambda q, k: q + k,
    st.fractions(min_value=0, max_value=1, max_denominator=40),
    st.integers(-(1 << 40), 1 << 40),
)
EPSILONS = st.sampled_from([Fraction(1, 20), Fraction(1, 10), Fraction(1)])


class TestBrutePrefilter:
    """The fixed-point prefilter keeps every n the exact confirmation
    accepts: its margin is an error bound, not a tolerance."""

    @settings(max_examples=30, deadline=None)
    @given(QUADRATIC, QUADRATIC, SHIFT, SHIFT, EPSILONS, st.integers(3, 3000))
    def test_keeps_every_solution(self, alpha, beta, eta, zeta, eps, n_limit):
        kept = _brute_candidates(alpha, beta, eta, zeta, eps, n_limit)
        assert kept == sorted(set(kept)) and all(3 <= n <= n_limit for n in kept)
        assert set(exact_solutions(alpha, beta, eta, zeta, eps, n_limit)) <= set(kept)

    def test_keeps_a_solution_at_the_threshold(self):
        # n* ||alpha n* || ||0 n* - 1/2|| equals thr_lo(n*) exactly, with
        # n* = 3 + 2^20 the first n of a chunk on the threshold's falling
        # side, where the chunk bound is thr_hi(n*).  A float64 sweep whose
        # keep rule was prod <= thr (1 + 1e-6) + 1e-7 dropped it: near
        # n = 2^20 a float of n alpha has an ulp of 2^-32, about 2^-12 of
        # ||alpha n*||.  Fixed point without the n-unit margin drops it too.
        eps = Fraction(1, 20)
        n_star = 3 + 16 * (1 << 16)
        thr_lo, _ = littlewood_threshold_bounds(n_star, eps)
        alpha = (648059 - 2 * thr_lo / n_star) / n_star
        zeta = Fraction(1, 2)
        assert exact_product(alpha, n_star, 0) * exact_product(0, n_star, zeta) / n_star == thr_lo
        assert n_star in _brute_candidates(alpha, 0, 0, zeta, eps, n_star)
        rep = littlewood_scan(alpha, 0, 0, zeta, eps, n_limit=n_star)
        assert rep.solutions[-1][0] == n_star
        # a product 2^-60 above thr_lo, inside the enclosure, is no solution
        alpha = (648059 - 2 * (thr_lo + Fraction(1, 1 << 60)) / n_star) / n_star
        assert littlewood_scan(alpha, 0, 0, zeta, eps, n_values=[n_star]).solutions == ()

    @pytest.mark.parametrize("chunks, extra", [(1, 2), (1, 3), (2, 2)])
    def test_chunk_edges(self, monkeypatch, chunks, extra):
        # chunks start at 3, so n_limit = chunks * CHUNK + extra ends a
        # chunk (extra 2) or opens one of a single n (extra 3); 64-wide
        # chunks from 2304 on cross the threshold's peak at n ~ 2366 for
        # eps = 1/20
        chunk = 64
        monkeypatch.setattr(littlewood, "_CHUNK", chunk)
        eps = Fraction(1, 20)
        for start in (0, 36 * chunk):
            n_limit = start + chunks * chunk + extra
            for alpha, beta, eta, zeta in ((PHI - 1, SQRT2 - 1, 0, 0),
                                           (SQRT2, QuadraticReal.sqrt(3), Fraction(1, 3), Fraction(1, 4))):
                kept = _brute_candidates(alpha, beta, eta, zeta, eps, n_limit)
                want = exact_solutions(alpha, beta, eta, zeta, eps, n_limit)
                assert want and set(want) <= set(kept)
                assert kept == sorted(set(kept)) and all(3 <= n <= n_limit for n in kept)
                rep = littlewood_scan(alpha, beta, eta, zeta, eps, n_limit=n_limit)
                assert [n for n, _, _ in rep.solutions] == want

    @pytest.mark.parametrize("eps, width", [(Fraction(1, 20), 120), (Fraction(1), 12)])
    def test_chunk_bound_covers_the_threshold(self, eps, width):
        # ln ln n = s at n* = e^(e^s); below it the threshold rises, above it
        # falls, so the chunks beside n* take their upper end's and their
        # lower end's value, and the chunk holding n* the peak (s/e)^s
        s = 2 + eps
        peak = _peak_threshold(eps)
        star = round(math.exp(math.exp(s)))
        chunks = [(star - width // 2, star + width // 2),
                  (star - 3 * width // 2, star - width // 2 - 1),
                  (star + width // 2 + 1, star + 3 * width // 2)]
        ends = [peak, littlewood_threshold_bounds(chunks[1][1], eps)[1],
                littlewood_threshold_bounds(chunks[2][0], eps)[1]]
        for (n0, n1), want in zip(chunks, ends):
            bound = _chunk_threshold(n0, n1, eps)
            assert bound == want
            for n in range(n0, n1 + 1):
                assert littlewood_threshold_bounds(n, eps)[1] <= bound
        with mp.workdps(60):
            g = (mp.mpf(s.numerator) / s.denominator / mp.e) ** (mp.mpf(s.numerator) / s.denominator)
            assert 0 < peak - mpf_fraction(g) <= Fraction(1, 1 << 49)

    def test_memory_is_flat_in_n(self):
        # numpy reports its buffers to tracemalloc: arrays of all n <= 2^20
        # would take tens of MB
        tracemalloc.start()
        try:
            _brute_candidates(PHI - 1, SQRT2 - 1, Fraction(1, 3), 0, Fraction(1, 20), 1 << 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
