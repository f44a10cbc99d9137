import math
from fractions import Fraction

import pytest

from lacuna.cf import QuadraticReal, expand
from lacuna.dyadic import DyadicReal
from lacuna.errors import CzPoolExhaustedError, PrecisionTooLowError
from lacuna.littlewood import (
    cz_build,
    cz_chain_constant,
    cz_recheck,
    dispersion_to_littlewood,
    exact_product,
    littlewood_scan,
    littlewood_threshold_bounds,
)

SQRT2 = QuadraticReal.sqrt(2)
PHI = QuadraticReal(Fraction(1, 2), Fraction(1, 2), 5)


class TestExactProduct:
    def test_rational_value(self):
        prod, f = exact_product(Fraction(1, 3), 4, 0)
        assert prod == Fraction(4, 3)
        assert f == pytest.approx(4 / 3)

    def test_quadratic_value(self):
        # ||sqrt(2)*5|| = |7.071... - 7|
        prod, f = exact_product(SQRT2, 5, 0)
        assert f == pytest.approx(5 * abs(math.sqrt(2) * 5 - 7), rel=1e-12)

    def test_shift(self):
        prod, f = exact_product(Fraction(1, 4), 2, Fraction(1, 2))
        assert prod == 0

    def test_mixed_types_promoted(self):
        prod, _ = exact_product(SQRT2, 3, Fraction(1, 2))
        assert isinstance(prod, QuadraticReal)


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
        assert max(seq.products) <= 8.0

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
        assert all(p <= 8.0 for p in seq.products)

    def test_upper_bound_flags(self):
        seq = cz_build(SQRT2, 0, 10)
        assert all(seq.upper_bound_ok)

    def test_rational_beta_rejected(self):
        with pytest.raises(ValueError):
            cz_build(QuadraticReal.rational(Fraction(3, 7), 2), 0, 4)

    def test_pool_exhaustion(self):
        # the expansion stops at 2^14 convergents, so the pool is finite
        with pytest.raises(CzPoolExhaustedError) as exc:
            cz_build(SQRT2, 0, 10**4)
        assert exc.value.achieved_terms == 5461

    def test_chain_constant_bounded(self):
        seq = cz_build(SQRT2, 0, 14)
        ratios = cz_chain_constant(seq, Fraction(1, 20))
        assert ratios
        assert all(r < 50 for _, r in ratios)


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
            pa, _ = exact_product(PHI - 1, n, 0)
            pb, _ = exact_product(SQRT2 - 1, n, 0)
            from lacuna.littlewood import _upper_fraction

            assert _upper_fraction(pa) * _upper_fraction(pb) <= thr_lo * n * (
                1 + Fraction(1, 1 << 40)
            )

    def test_json_shape(self):
        rep = littlewood_scan(PHI - 1, SQRT2 - 1, 0, 0, Fraction(1, 20), n_limit=200)
        d = rep.to_json_dict()
        assert d["mode"] == "brute"
        assert d["solution_count"] == len(d["solutions"])


class TestDispersionBridge:
    def test_blocks_cover_sequence(self):
        seq = cz_build(SQRT2, 0, 12)
        rows = dispersion_to_littlewood(PHI, 0, seq, Fraction(1, 20))
        assert [r["N"] for r in rows] == [1, 2, 4, 8]
        for r in rows:
            assert r["N"] < r["n"] <= 2 * r["N"]
            assert r["meets"] == (r["distance"] <= r["bound"])

    def test_precision_gate(self):
        seq = cz_build(SQRT2, 0, 10)
        alpha = DyadicReal.from_fraction(Fraction(7, 10), 40)
        with pytest.raises(PrecisionTooLowError):
            dispersion_to_littlewood(alpha, 0, seq, Fraction(1, 20))
