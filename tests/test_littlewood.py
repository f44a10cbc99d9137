import math
import random
import tracemalloc
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lacuna import littlewood
from lacuna.cf import QuadraticReal, affine_dist_to_int
from lacuna.errors import CzPoolExhaustedError, RationalBetaError
from lacuna.littlewood import (
    _brute_candidates,
    _chunk_threshold,
    _confirm_solution,
    _peak_threshold,
    _product_at_most,
    _view_at_most,
    cz_build,
    cz_recheck,
    exact_product,
    littlewood_scan,
    littlewood_threshold_bounds,
)
from lacuna.sequences import mpf_fraction

SQRT2 = QuadraticReal.sqrt(2)
PHI = QuadraticReal(Fraction(1, 2), Fraction(1, 2), 5)
EPS_VALUES = [Fraction(1, 20), Fraction(1, 10), Fraction(1)]
WALK_ONE = 1 << littlewood._F  # the unit of the threshold walk's integers


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


def walk_sample(seed: int) -> list[int]:
    """A sorted sample up to 10^9: 1000 n uniform in [3, 10^9] (mostly long
    steps) and 2000 log-uniform n (mostly short ones)."""
    rng = random.Random(seed)
    ns = {rng.randrange(3, 10**9) for _ in range(1000)}
    ns |= {int(math.exp(rng.uniform(math.log(3), math.log(10**9)))) for _ in range(2000)}
    return sorted(n for n in ns if n >= 3)


# equal and decreasing n, short steps at CZ-term sizes, and n that round to
# 136 bits before their logarithm
ODD_RUN = [10**6, 10**6, 10**6 + 1, 999_999, 8**300 + 7, 8**300 + 8, 8**300 + 9 + 8**299,
           2**137 + 251, 2**137 + 252, 2**137 + 251 + 2**130, 5, 4, 3, 3, 20, 21]


class TestThresholdWalk:
    """The fixed-point walk of the threshold encloses thr_lo = v - 2^-50 of
    the 136-bit chain, and every float it decides is float(thr_lo)."""

    @pytest.mark.parametrize("epsilon", EPS_VALUES)
    @pytest.mark.parametrize("run", ["every n to 20000", "sample to 10^9", "odd run"])
    def test_encloses_the_chain(self, epsilon, run):
        ns = {"every n to 20000": range(3, 20001), "sample to 10^9": walk_sample(1729),
              "odd run": ODD_RUN}[run]
        walk = littlewood._ThresholdWalk(epsilon)
        walked = decided = 0
        for n in ns:
            lo, hi, thr = walk.at(n)
            want = littlewood_threshold_bounds(n, epsilon)[0]
            assert Fraction(lo, WALK_ONE) <= want <= Fraction(hi, WALK_ONE), n
            if thr is not None:
                assert thr == want
                continue
            walked += 1
            if lo / WALK_ONE == hi / WALK_ONE:
                decided += 1
                assert lo / WALK_ONE == float(want), n
        # the walk carries most of every run but the odd one, and decides
        # the float wherever it walks
        assert decided == walked
        assert walked >= {"every n to 20000": 19990, "sample to 10^9": 1900, "odd run": 4}[run]

    @pytest.mark.parametrize("widen", ["premise", "view", "float"])
    def test_wide_margin_leaves_the_report_unchanged(self, monkeypatch, widen):
        # premise: the walk's radius passes its cap, so every n re-anchors;
        # view: the float view decides no product, so every walked n takes
        # the chain and the exact rule; float: the walk's enclosure is 2^-52
        # wide, so a solution's float comes from the chain
        eps, q = Fraction(1, 10), Fraction(1, 4)
        alpha = PHI - 1
        cands = _brute_candidates(alpha, alpha, q, q, eps, 20000)
        want = littlewood_scan(alpha, alpha, q, q, eps, n_values=cands)
        brute = littlewood_scan(alpha, alpha, q, q, eps, n_limit=20000)
        assert len(want.solutions) > 50
        if widen == "premise":
            monkeypatch.setattr(littlewood, "error_exponent", lambda top: 64)
        elif widen == "view":
            monkeypatch.setattr(littlewood, "_view_at_most",
                                lambda da, pb, lo, hi: (float(da) * float(pb), None))
        else:
            bounds = littlewood._ThresholdWalk._bounds
            pad = 1 << littlewood._F - 52

            def wide(self):
                lo, hi = bounds(self)
                return lo - pad, hi + pad

            monkeypatch.setattr(littlewood._ThresholdWalk, "_bounds", wide)
        calls = count_chain(monkeypatch)
        assert littlewood_scan(alpha, alpha, q, q, eps, n_values=cands) == want
        if widen != "float":
            assert calls[0] == len(cands)
        assert littlewood_scan(alpha, alpha, q, q, eps, n_limit=20000) == brute


def count_chain(monkeypatch) -> list[int]:
    """Counts the calls of the libmp chain from now on."""
    calls = [0]
    chain = littlewood._threshold_chain

    def spy(n, exponent):
        calls[0] += 1
        return chain(n, exponent)

    monkeypatch.setattr(littlewood, "_threshold_chain", spy)
    return calls


def test_walk_spares_the_chain(monkeypatch):
    # perfbench's (phi-1, phi-1) scan at eta = zeta = 1/4: about 3,000
    # candidates, of which a few below 8 or after a long step re-anchor,
    # and one chain per prefilter chunk
    calls = count_chain(monkeypatch)
    alpha, q = PHI - 1, Fraction(1, 4)
    rep = littlewood_scan(alpha, alpha, q, q, Fraction(1, 10), n_limit=10**6)
    assert rep.solution_count > 2500
    assert calls[0] <= 48


def approx(x, bits: int = 300) -> Fraction:
    """x within 2^-bits, exact for a Fraction."""
    return x.to_dyadic(bits).to_fraction() if isinstance(x, QuadraticReal) else Fraction(x)


NONZERO = st.fractions(min_value=-3, max_value=3, max_denominator=12).filter(bool)


@st.composite
def view_cases(draw):
    """(da, pb, t): da = ||alpha n - eta|| and pb = n ||beta n - zeta|| with
    alpha and beta in one field, in two fields, or alpha rational with
    ||alpha n - eta|| = 0, and t within 2^-45 (relative) of da pb."""
    kind = draw(st.sampled_from(["one field", "two fields", "zero"]))
    n = draw(st.integers(3, 10**9))
    d_a, d_b = draw(st.permutations([2, 3, 5, 13]))[:2]
    if kind == "one field":
        d_b = d_a
    beta = QuadraticReal(draw(SMALL_RATIONALS), draw(NONZERO), d_b)
    zeta = draw(st.fractions(0, 1, max_denominator=40))
    if kind == "zero":
        alpha = draw(st.fractions(-4, 4, max_denominator=50))
        eta = alpha * n + draw(st.integers(-3, 3))
    else:
        alpha = QuadraticReal(draw(SMALL_RATIONALS), draw(NONZERO), d_a)
        eta = draw(st.fractions(0, 1, max_denominator=40))
    da = affine_dist_to_int(alpha, n, eta)
    pb = affine_dist_to_int(beta, n, zeta) * n
    # a relative offset of either sign at every scale from 2^-45 to 2^-64
    scale = Fraction(draw(st.integers(1 << 20, (1 << 21) - 1)), 1 << (20 + draw(st.integers(45, 64))))
    offset = draw(st.sampled_from([-1, 0, 1])) * scale
    prod = approx(da) * approx(pb)
    t = prod * (1 + offset) if prod else offset
    return da, pb, t


class TestFloatView:
    """The float view of a product decides it only where its error bound
    leaves nothing open, and then as the exact rule does."""

    @settings(max_examples=600, deadline=None)
    @given(view_cases(), st.integers(0, 3), st.integers(0, 3))
    def test_decisions_match_the_exact_rule(self, case, pad_lo, pad_hi):
        da, pb, t = case
        lo = math.floor(t * WALK_ONE) - pad_lo
        hi = math.ceil(t * WALK_ONE) + pad_hi
        view, ok = _view_at_most(da, pb, lo, hi)
        assert view == float(da) * float(pb)
        if ok is not None:
            assert ok == _product_at_most(da, pb, t)

    def test_decides_away_from_the_margin(self):
        # a product 2^-45 below or above t is decided; one at t is not
        da = affine_dist_to_int(PHI - 1, 10**6, Fraction(1, 4))
        pb = affine_dist_to_int(SQRT2 - 1, 10**6, 0) * 10**6
        prod = approx(da) * approx(pb)
        for factor, want in ((1 + Fraction(1, 1 << 45), True), (1 - Fraction(1, 1 << 45), False),
                             (1, None)):
            t = prod * factor
            assert _view_at_most(da, pb, math.floor(t * WALK_ONE), math.ceil(t * WALK_ONE))[1] == want
