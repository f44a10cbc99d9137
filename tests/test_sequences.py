import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lacuna.errors import MalformedSequenceFileError, NBelowThresholdError, NotLacunaryError
from lacuna.sequences import (
    LacunarySequence,
    geometric_sequence,
    ln_bounds,
    ln_lower,
    load_sequence,
    save_sequence,
    smallest_l,
    thin,
    thin_block,
    verify_hadamard,
)


class TestLogBounds:
    @given(st.integers(2, 10**9))
    def test_enclosure(self, n):
        lo, hi = ln_bounds(n)
        assert float(lo) <= math.log(n) <= float(hi)
        assert hi - lo < Fraction(1, 1 << 58)


class TestSmallestL:
    def test_examples(self):
        assert smallest_l(Fraction(2)) == 2  # 2^2 = 4 > e
        assert smallest_l(Fraction(3)) == 1  # 3 > e
        assert smallest_l(Fraction(3, 2)) == 3  # 1.5^3 = 3.375 > e > 1.5^2

    def test_rejects_non_lacunary(self):
        with pytest.raises(NotLacunaryError):
            smallest_l(Fraction(1))

    @staticmethod
    def loop_reference(r):
        """The earlier linear search: the first l with l * ln_lower(r) > 1."""
        lo, l = ln_lower(r), 1
        p, q = lo.numerator, lo.denominator  # l * lo <= 1 as l * p <= q
        while l * p <= q:
            l += 1
        return l

    @pytest.mark.parametrize(
        "r",
        [Fraction(11, 10), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3),
         1 + Fraction(1, 1 << 20)],
    )
    def test_matches_linear_search(self, r):
        assert smallest_l(r) == self.loop_reference(r)

    def test_ratio_below_log_resolution(self):
        # ln_lower(r) <= 0 here; 1 - 1/r still bounds ln r from below
        r = 1 + Fraction(1, 1 << 70)
        assert ln_lower(r) <= 0
        assert smallest_l(r) == (1 << 70) + 2

    @given(st.fractions(min_value=Fraction(11, 10), max_value=Fraction(50)))
    def test_defining_property(self, r):
        l = smallest_l(r)
        assert float(r) ** l > math.e
        if l > 1:
            assert float(r) ** (l - 1) <= math.e * (1 + 1e-12)


class TestGeometric:
    def test_powers_of_two(self):
        assert geometric_sequence(Fraction(2), 5).terms == (2, 4, 8, 16, 32)

    def test_three_halves(self):
        assert geometric_sequence(Fraction(3, 2), 4).terms == (2, 3, 5, 8)

    def test_powers_of_ten(self):
        assert geometric_sequence(Fraction(10), 3).terms == (10, 100, 1000)

    def test_rejects_r_at_most_one(self):
        with pytest.raises(NotLacunaryError):
            geometric_sequence(Fraction(1), 5)

    @given(
        st.fractions(min_value=Fraction(11, 10), max_value=Fraction(20)),
        st.integers(1, 40),
    )
    def test_always_hadamard(self, r, n):
        seq = geometric_sequence(r, n)
        ok, bad = verify_hadamard(seq.terms, r)
        assert ok and bad is None

    def test_hadamard_check_survives_optimized_mode(self):
        # the construction rests on LacunarySequence's check: a failing one
        # raises a coded error naming the term, also under python -O
        code = (
            "from lacuna import sequences\n"
            "from lacuna.errors import NotLacunaryError\n"
            "sequences.verify_hadamard = lambda terms, r: (False, 3)\n"
            "try:\n"
            "    sequences.geometric_sequence(3, 5)\n"
            "except NotLacunaryError as exc:\n"
            "    print(exc.code, exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "not-lacunary a_3 < 3 * a_2"


def power_loop_geometric(r, n_terms):
    """The earlier construction: max(ceil(r^n), ceil(r * t_{n-1})) from a
    Fraction power loop, r^n itself for an integer r."""
    terms = []
    if r.denominator == 1:
        power = 1
        for _ in range(n_terms):
            power *= r.numerator
            terms.append(power)
        return terms
    power, prev = Fraction(1), None
    for _ in range(n_terms):
        power *= r
        t = -((-power.numerator) // power.denominator)
        if prev is not None:
            t = max(t, -((-r.numerator * prev) // r.denominator))
        terms.append(t)
        prev = t
    return terms


class TestGeometricRecurrence:
    @pytest.mark.parametrize(
        "r",
        [Fraction(2), Fraction(3), Fraction(3, 2), Fraction(5, 2), Fraction(7, 3), Fraction(11, 10)],
    )
    def test_matches_power_loop(self, r):
        assert list(geometric_sequence(r, 2000).terms) == power_loop_geometric(r, 2000)


class TestLacunarySequence:
    @pytest.mark.parametrize(
        "terms, r, bad",
        [
            ((1, 3, 4), Fraction(2), "a_3 < 2 \\* a_2"),
            ((2, 3, 5, 7), Fraction(3, 2), "a_4 < 3/2 \\* a_3"),
        ],
        ids=["integer-ratio", "rational-ratio"],
    )
    def test_non_hadamard_term_is_named(self, terms, r, bad):
        with pytest.raises(NotLacunaryError, match=bad) as exc:
            LacunarySequence(terms, r)
        assert exc.value.code == "not-lacunary"

    @pytest.mark.parametrize("r", [Fraction(1), Fraction(1, 2)])
    def test_ratio_at_most_one_rejected(self, r):
        with pytest.raises(NotLacunaryError, match=f"growth factor {r} is not > 1"):
            LacunarySequence((1, 2, 4), r)

    def test_rho_is_the_ratio_denominator(self):
        seq = geometric_sequence(Fraction(5, 2), 64)
        th = thin(seq, 64)
        assert seq.rho == 2 and th.rho == 2**th.step
        assert geometric_sequence(Fraction(3), 8).rho == 1


class TestVerifyHadamard:
    def test_good(self):
        assert verify_hadamard([2, 4, 8], Fraction(2)) == (True, None)

    def test_first_violation_reported(self):
        ok, bad = verify_hadamard([1, 2, 3], Fraction(2))
        assert not ok and bad == 3  # 3 < 2*2 at the pair ending at index 3

    def test_rational_ratio(self):
        assert verify_hadamard([2, 3, 5, 8], Fraction(3, 2)) == (True, None)

    @given(
        st.lists(st.integers(1, 10**30), min_size=1, max_size=12),
        st.sampled_from([Fraction(2), Fraction(3), Fraction(3, 2), Fraction(7, 3)]),
    )
    def test_first_violation_matches_fractions(self, terms, r):
        bad = next(
            (i + 2 for i in range(len(terms) - 1) if terms[i + 1] < r * terms[i]), None
        )
        assert verify_hadamard(terms, r) == (bad is None, bad)

    def test_rejects_empty_or_nonpositive(self):
        with pytest.raises(NotLacunaryError):
            verify_hadamard([], Fraction(2))
        with pytest.raises(NotLacunaryError):
            verify_hadamard([1, 0], Fraction(2))


class TestThin:
    def test_r2_n1024(self):
        seq = geometric_sequence(Fraction(2), 1024)
        th = thin(seq, 1024)
        assert th.l == 2 and th.step == 12 and th.K == 73
        assert th.terms[0] == seq.term(12)
        assert th.terms == tuple(seq.term(n * 12) for n in range(1, 74))

    def test_r3_n1024(self):
        seq = geometric_sequence(Fraction(3), 1024)
        th = thin(seq, 1024)
        assert th.l == 1 and th.step == 6 and th.K == 147

    def test_r2_n10(self):
        seq = geometric_sequence(Fraction(2), 10)
        th = thin(seq, 10)
        assert th.step == 4 and th.K == 2

    def test_small_n_rejected(self):
        seq = geometric_sequence(Fraction(2), 4)
        with pytest.raises(NBelowThresholdError):
            thin(seq, 2)

    def test_xi_exceeds_one(self):
        for r in (Fraction(2), Fraction(3), Fraction(3, 2)):
            th = thin(geometric_sequence(r, 64), 64)
            assert th.xi > 1

    def test_growth_separation(self):
        # a~_m <= N^(-xi (n-m)) a~_n, checked exactly on all pairs
        seq = geometric_sequence(Fraction(2), 256)
        th = thin(seq, 256)
        n_pow = Fraction(256) ** 1  # N^xi >= N since xi > 1
        for m in range(th.K):
            for n in range(m + 1, th.K):
                assert th.terms[m] * n_pow ** (n - m) <= th.terms[n]


class TestThinBlock:
    def test_offsets(self):
        seq = geometric_sequence(Fraction(3), 128)
        th = thin_block(seq, 64)
        assert th.index_offset == 64
        assert th.terms[0] == seq.term(64 + th.step)

    def test_needs_2n_terms(self):
        seq = geometric_sequence(Fraction(3), 64)
        with pytest.raises(ValueError):
            thin_block(seq, 64)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        seq = geometric_sequence(Fraction(3, 2), 20)
        path = tmp_path / "seq.txt"
        save_sequence(path, seq)
        back = load_sequence(path)
        assert back.terms == seq.terms
        assert back.growth_factor_r == Fraction(3, 2)

    def test_ratio_at_most_one_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# r=1\n1\n2\n4\n")
        with pytest.raises(NotLacunaryError, match="growth factor 1 is not > 1"):
            load_sequence(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n4\n8\n")
        with pytest.raises(MalformedSequenceFileError):
            load_sequence(path)
