import json
import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna.dyadic import (
    DilatedSet,
    DyadicReal,
    GapReport,
    alpha_precision,
    dilate,
    format_decimal,
    format_ratio,
    gap_report,
    require_precision,
    residue_bits,
    residues,
)
from lacuna.cf import dist_to_int
from lacuna.errors import (
    EmptyConfigurationError,
    NotLacunaryError,
    PrecisionTooLowError,
    SequenceTooShortError,
)
from lacuna.sequences import (
    LacunarySequence,
    Recurrence,
    Walk,
    geometric_sequence,
    load_sequence,
    save_sequence,
    thin,
)


def dy(num, den=1, bits=96):
    return DyadicReal.from_fraction(Fraction(num, den), bits)


def round_oracle(x: Fraction, bits: int) -> Fraction:
    """x rounded to bits significant bits, ties to even, in Fractions."""
    if x == 0:
        return x
    y = abs(x)
    k = y.numerator.bit_length() - y.denominator.bit_length()
    if Fraction(2) ** k > y:
        k -= 1  # 2^k <= y < 2^(k+1)
    ulp = Fraction(2) ** (k - bits + 1)
    m, rest = divmod(y, ulp)
    if rest > ulp / 2 or (rest == ulp / 2 and m % 2):
        m += 1
    return (m * ulp) if x > 0 else -(m * ulp)


ONE = DyadicReal(1, 0)


def explicit(terms, q=1):
    """Explicit terms read at any q, right or wrong for them: the recurrence
    at ratio 1/q, delta_n = q * a_(n+1) - a_n, so residues() divides by q at
    every step whatever the terms are."""
    return Recurrence(terms, Fraction(1, q))


def fraction_gaps(points):
    """Sorted gaps, the wrap-around gap last, of a list of Fractions in [0, 1)."""
    fr = sorted(points)
    return [b - a for a, b in zip(fr, fr[1:])] + [1 - fr[-1] + fr[0]]


class TestCanonicalForm:
    def test_even_mantissa_normalized(self):
        x = DyadicReal(12, 0)
        assert x.mantissa == 3 and x.exponent == 2

    def test_zero(self):
        x = DyadicReal(0, 17)
        assert x.mantissa == 0 and x.exponent == 0

    def test_uniqueness(self):
        assert DyadicReal(6, -1) == DyadicReal(3, 0)
        assert DyadicReal(6, -1).mantissa == DyadicReal(3, 0).mantissa

    def test_equality_ignores_precision(self):
        # a dyadic is its value: equality and hash read (mantissa, exponent)
        assert DyadicReal(1, 0, 8) == DyadicReal(4, -2, 200)
        assert hash(DyadicReal(1, 0, 8)) == hash(DyadicReal(4, -2, 200))
        assert DyadicReal(1, -1) != DyadicReal(3, -2)

    @given(st.integers(-(10**12), 10**12), st.integers(-64, 64))
    def test_value_preserved(self, m, e):
        x = DyadicReal(m, e)
        assert x.to_fraction() == Fraction(m) * Fraction(2) ** e


class TestRounding:
    def test_exact_dyadic_passthrough(self):
        assert dy(13, 64).to_fraction() == Fraction(13, 64)

    def test_round_to_nearest(self):
        # 1/3 at 4 significant bits: nearest is 11/32 = 0.34375
        x = DyadicReal.from_fraction(Fraction(1, 3), 4)
        assert x.to_fraction() == Fraction(11, 32)

    def test_ties_to_even(self):
        # 5/2 at 1 significant bit: between 2 and 4 (ulp 2), tie -> even mantissa
        x = DyadicReal.from_fraction(Fraction(3), 1)
        assert x.to_fraction() in (Fraction(2), Fraction(4))
        assert DyadicReal.from_fraction(Fraction(5), 2).to_fraction() == Fraction(4)
        assert DyadicReal.from_fraction(Fraction(7), 2).to_fraction() == Fraction(8)

    @given(
        st.fractions(
            min_value=Fraction(-1000), max_value=Fraction(1000)
        ).filter(lambda f: f != 0),
        st.integers(8, 128),
    )
    def test_rounding_error_bound(self, fr, bits):
        x = DyadicReal.from_fraction(fr, bits)
        ulp = Fraction(2) ** (abs(fr).numerator.bit_length() - abs(fr).denominator.bit_length() - bits + 2)
        assert abs(x.to_fraction() - fr) <= ulp

    @given(
        st.integers(-(1 << 200), 1 << 200),
        st.integers(1, 1 << 200),
        st.integers(1, 5),
        st.integers(1, 160),
    )
    def test_from_ratio_matches_the_fraction_oracle(self, num, den, g, bits):
        # num/den spans both signs and quotients far above 2^bits (a negative
        # shift) and far below; the pair need not be reduced
        want = round_oracle(Fraction(num, den), bits)
        x = DyadicReal.from_ratio(num * g, den * g, bits)
        assert x.to_fraction() == want and x.precision_bits == bits
        assert DyadicReal.from_fraction(Fraction(num, den), bits) == x

    @given(st.integers(1, 64), st.data(), st.integers(-90, 90), st.booleans(),
           st.sampled_from([1, 3, 5, 7]))
    def test_exact_halves_round_to_even(self, bits, data, e, negative, g):
        # (2m + 1) 2^e with m of bits bits lies halfway between m 2^(e+1)
        # and (m + 1) 2^(e+1).  Reduced, the tie is always in the surplus
        # bit; a common odd factor g can put it in the remainder instead
        m = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        x = (2 * m + 1) * Fraction(2) ** e * (-1 if negative else 1)
        want = (m + m % 2) * Fraction(2) ** (e + 1) * (-1 if negative else 1)
        assert round_oracle(x, bits) == want
        y = DyadicReal.from_ratio(x.numerator * g, x.denominator * g, bits)
        assert y.to_fraction() == want


class TestFracAndDistance:
    def test_dist_examples(self):
        # a dyadic's distance is that of its exact rational value
        assert dist_to_int(dy(11, 4).to_fraction()) == Fraction(1, 4)  # 2.75
        assert dist_to_int(dy(5).to_fraction()) == 0
        assert dist_to_int(dy(1, 2).to_fraction()) == Fraction(1, 2)


class TestGapReport:
    def test_single_point(self):
        rep = gap_report(DilatedSet((1,), -2))
        assert rep.max_gap == ONE

    def test_two_antipodal(self):
        rep = gap_report(DilatedSet((0, 1), -1))
        assert rep.max_gap == dy(1, 2)

    def test_five_dilates_of_seven_tenths(self):
        # {0.4, 0.8, 0.6, 0.2, 0.4}: wrap gap 0.8 -> 1.2 is maximal
        pts = DilatedSet(tuple(round(Fraction(n, 10) * 2**96) for n in (4, 8, 6, 2, 4)), -96)
        rep = gap_report(pts)
        # each point is a 96-bit rounding of n/10, so the wrap gap is 2/5 up
        # to two roundings
        assert abs(rep.max_gap.to_fraction() - Fraction(2, 5)) < Fraction(1, 1 << 90)

    def test_empty_rejected(self):
        with pytest.raises(EmptyConfigurationError):
            gap_report(DilatedSet((), 0))

    def test_duplicates_give_zero_gaps(self):
        # the inner gaps are zero; the wrap-around gap is the whole circle
        rep = gap_report(DilatedSet((1, 1, 1), -2))
        assert rep.max_gap == ONE
        assert rep.max_gap.to_fraction() == max(fraction_gaps([Fraction(1, 4)] * 3))

    def test_single_point_gap_is_one(self):
        rep = gap_report(DilatedSet((5,), -3))
        assert rep.n_points == 1 and rep.max_gap == ONE
        d = rep.to_json_dict()
        assert d["normalized_log1"] == d["normalized_log2"] == "0"

    @pytest.mark.parametrize(
        "r,n,alpha",
        [
            (Fraction(2), 2, Fraction(7, 10)),
            (Fraction(3), 5, Fraction(7, 10)),
            (Fraction(3), 1000, Fraction(7, 10)),
            (Fraction(3), 4096, Fraction(7, 10)),
            (Fraction(4, 3), 2048, Fraction(7, 10)),
            (Fraction(5, 2), 777, Fraction(3, 7)),
            (Fraction(2), 1024, Fraction(1, 2)),
            (Fraction(2), 1 << 14, Fraction(2, 3)),
        ],
    )
    def test_normalized_ratios_match_mpmath(self, r, n, alpha):
        # N*G/(ln N)^kappa at 200 bits takes a few roundings, each within
        # 2^-199 of its value, so 2^-190 either side encloses the ratio;
        # that enclosure decides the 30 digits the report must print
        seq = geometric_sequence(r, n)
        rep = gap_report(dilate(DyadicReal.from_fraction(alpha, alpha_precision(seq.terms)), seq))
        gap = rep.max_gap.to_fraction()
        for kappa in (1, 2):
            with mp.workprec(200):
                v = mp.mpf(n * gap.numerator) / gap.denominator / mp.log(n) ** kappa
                ends = [v * (1 + side * mp.mpf(2) ** -190) for side in (-1, 1)]
            lo, hi = (Fraction(*mp.libmp.to_rational(x._mpf_)) for x in ends)
            want = decimal_ratio(lo.numerator, lo.denominator, 30)
            assert want == decimal_ratio(hi.numerator, hi.denominator, 30)
            assert rep.to_json_dict()[f"normalized_log{kappa}"] == want

    @given(
        st.lists(
            st.integers(0, (1 << 20) - 1), min_size=1, max_size=40
        )
    )
    def test_gaps_sum_to_one_and_match_oracle(self, raw):
        # duplicates (zero gaps) and n = 1 (the wrap gap alone) included
        rep = gap_report(DilatedSet(tuple(raw), -20))
        oracle = fraction_gaps([Fraction(v, 1 << 20) for v in raw])
        assert sum(oracle) == 1
        assert rep.max_gap.to_fraction() == max(oracle)
        assert rep.n_points == len(raw)

    @given(st.lists(st.integers(0, 1023), min_size=2, max_size=30, unique=True))
    def test_adding_point_never_increases_gap(self, raw):
        g_all = gap_report(DilatedSet(tuple(raw), -10)).max_gap
        g_less = gap_report(DilatedSet(tuple(raw[:-1]), -10)).max_gap
        assert g_all.to_fraction() <= g_less.to_fraction()

    def test_pigeonhole(self):
        rep = gap_report(DilatedSet(tuple(i * 37 % 256 for i in range(20)), -8))
        assert rep.max_gap.to_fraction() >= Fraction(1, 20)


class TestDilate:
    def test_alpha_zero(self):
        seq = geometric_sequence(2, 6)
        assert dilate(dy(0, 1, 128), seq).residues == (0,) * 6
        assert len(dilate(dy(7, 10, 128), seq, 1, 0)) == 0

    def test_alpha_half_powers_of_two(self):
        seq = geometric_sequence(2, 4)
        pts = dilate(dy(1, 2, 128), seq)
        assert pts.residues == (0,) * 4

    def test_seven_tenths_matches_gap_example(self):
        seq = geometric_sequence(2, 5)
        alpha = dy(7, 10, 128)
        rep = gap_report(dilate(alpha, seq))
        assert abs(rep.max_gap.to_float() - 0.4) < 1e-30

    @pytest.mark.parametrize("r", [Fraction(5, 2), Fraction(3)])
    def test_window_is_a_slice_of_the_residues(self, r):
        # a window starts its recurrence at its own first term
        seq = geometric_sequence(r, 300)
        alpha = DyadicReal.from_fraction(Fraction(7, 10), alpha_precision(seq.terms))
        full = dilate(alpha, seq)
        # dilate computes nothing: its residues are the sequence's view of them
        assert isinstance(full.residues, Walk) and full.residues == tuple(residues(alpha, seq))
        for start, stop in [(1, 300), (2, 2), (57, 211), (120, 300)]:
            got = dilate(alpha, seq, start, stop)
            assert got == DilatedSet(full.residues[start - 1 : stop], full.exponent)

    def test_precision_gate(self):
        seq = geometric_sequence(2, 100)
        with pytest.raises(PrecisionTooLowError) as exc:
            dilate(dy(7, 10, 64), seq)
        assert exc.value.required_bits == (2**100).bit_length() + 32

    def test_precision_refinement_stability(self):
        # doubling precision moves the max gap by less than 2*a_N*2^-p
        seq = geometric_sequence(2, 30)
        a_n = seq.terms[-1]
        p = a_n.bit_length() + 40
        g1 = gap_report(dilate(DyadicReal.from_fraction(Fraction(7, 10), p), seq)).max_gap
        g2 = gap_report(dilate(DyadicReal.from_fraction(Fraction(7, 10), 2 * p), seq)).max_gap
        assert abs(g1.to_fraction() - g2.to_fraction()) < 2 * a_n * Fraction(2) ** (-p)


def full_sort_report(res, exponent):
    """The oracle of gap_report: every exact residue, sorted as integers and
    differenced, the wrap-around gap included."""
    ints = sorted(res)
    one = 1 << -exponent
    max_i = max([b - a for a, b in zip(ints, ints[1:])] + [one - ints[-1] + ints[0]])
    return GapReport(len(ints), DyadicReal(max_i, exponent))


GAP_RATIOS = [Fraction(2), Fraction(3), Fraction(5, 2), Fraction(4, 3)]


class TestKeyDecidedGap:
    """gap_report decides the exact gap from 64-bit keys and resolves only
    the candidates within one key unit of the key maximum; it must equal a
    full sort of the exact residues, ties among the keys included."""

    @settings(max_examples=120, deadline=None)
    @given(
        r=st.sampled_from(GAP_RATIOS),
        kind=st.sampled_from(["full", "few-bits", "few-bits-tail", "p-above-64"]),
        data=st.data(),
    )
    def test_windows_match_full_sort(self, r, kind, data):
        # r = 4/3 takes its keys from the exact walk; the others take the key
        # walk once P clears 64 + G, which the wide alphas here do
        n = data.draw(st.integers(1, 400))
        seq = geometric_sequence(r, n)
        start = data.draw(st.integers(1, n))
        stop = data.draw(st.integers(start, n))
        if kind == "full":
            P = seq.term(n).bit_length() + data.draw(st.integers(32, 2000))
            m = data.draw(st.integers(0, (1 << P) - 1))
        elif kind == "few-bits":  # P < 64: long runs of equal points
            P = data.draw(st.integers(1, 63))
            m = data.draw(st.integers(0, (1 << P) - 1))
        elif kind == "few-bits-tail":  # j/2^b plus a tail far below 2^-64
            P = data.draw(st.integers(65, 3000))
            b = data.draw(st.integers(1, 8))
            tail = data.draw(st.integers(0, 1 << data.draw(st.integers(0, 40))))
            m = (data.draw(st.integers(0, (1 << b) - 1)) << (P - b)) + tail
        else:
            P = data.draw(st.integers(65, 72))
            m = data.draw(st.integers(0, (1 << P) - 1))
        alpha = DyadicReal(m, -P, 1 << 16)
        pts = dilate(alpha, seq, start, stop)
        want = full_sort_report(residues(alpha, seq, start, stop), pts.exponent)
        assert gap_report(pts) == want
        assert gap_report(DilatedSet(tuple(pts.residues), pts.exponent)) == want

    @settings(max_examples=150, deadline=None)
    @given(
        P=st.sampled_from([65, 66, 70, 100, 300]),
        tops=st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_shared_top_bits(self, P, tops, data):
        # many residues share their top 64 bits, so the candidates' runs of
        # equal keys are long and their exact ends decide the gap
        t = P - 64
        lows = st.integers(0, (1 << t) - 1)
        raw = data.draw(st.lists(st.tuples(st.sampled_from(tops), lows), min_size=1, max_size=60))
        res = [(k << t) | low for k, low in raw]
        assert gap_report(DilatedSet(tuple(res), -P)) == full_sort_report(res, -P)
        # the same residues through a view: alpha = 2^-P over explicit terms
        pts = dilate(DyadicReal(1, -P, 1 << 16), explicit(res))
        assert pts.residues == res
        assert gap_report(pts) == full_sort_report(res, -P)

    @pytest.mark.parametrize("wrap", [False, True], ids=["inner", "wrap"])
    def test_the_maximum_one_key_unit_below_the_key_maximum(self, wrap):
        # P = 66, so a key unit is 4: the key gap D spans 4D - 3 exactly and
        # the key gap D - 1 spans 4D - 1, the maximum; the third gap, D - 4
        # key units, is neither.  D is the least with 3D - 5 >= 2^64.
        D = -(-((1 << 64) + 5) // 3)
        if wrap:  # keys 0, D, 2^64 - D + 1: the wrap gap is the D - 1 one
            res = [3, 4 * D, 4 * ((1 << 64) - D + 1)]
        else:  # keys 0, D, 2D - 1 with ends that widen the second gap
            res = [3, 4 * D, 4 * (2 * D - 1) + 3]
        want = full_sort_report(res, -66)
        assert want.max_gap.to_fraction() == Fraction(4 * D - 1, 1 << 66)
        assert gap_report(DilatedSet(tuple(res), -66)) == want
        assert gap_report(dilate(DyadicReal(1, -66, 1 << 16), explicit(res))) == want

    @pytest.mark.parametrize("P", [0, 3, 63, 64, 65, 300])
    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_one_point_and_all_points_equal(self, P, n):
        v = (1 << P) - 1 if P else 0
        rep = gap_report(DilatedSet((v,) * n, -P))
        assert rep == full_sort_report((v,) * n, -P)
        assert rep.max_gap == ONE and rep.n_points == n

    @pytest.mark.parametrize("r", GAP_RATIOS)
    def test_one_point_windows(self, r):
        seq = geometric_sequence(r, 50)
        alpha = DyadicReal.from_fraction(Fraction(7, 10), alpha_precision(seq.terms))
        for k in (1, 25, 50):
            assert gap_report(dilate(alpha, seq, k, k)).max_gap == ONE

    def test_gaps_of_one_half_at_r_2(self, capsys):
        # {a_n / 2} = 0 for every a_n = 2^n: all 64 points equal, gap 1
        from lacuna import cli

        assert cli.main(["gaps", "--r", "2", "--n", "64", "--alpha", "1/2"]) == 0
        out = json.loads(capsys.readouterr().out)
        seq = geometric_sequence(2, 64)
        alpha = DyadicReal.from_fraction(Fraction(1, 2), alpha_precision(seq.terms))
        assert list(residues(alpha, seq)) == [0] * 64
        want = full_sort_report([0] * 64, -residue_bits(alpha))
        assert out["max_gap"] == want.max_gap.decimal_str(30) == "1"
        assert out["n"] == 64

    @pytest.mark.parametrize("r", [Fraction(2), Fraction(3), Fraction(5, 2)])
    def test_reads_few_exact_residues(self, r):
        # a generic alpha has one candidate (and perhaps the wrap gap): the
        # exact step reads a residue at each of its ends, not the window
        # and steps to each from the checkpoint below it, not across the window
        seq = geometric_sequence(r, 2048)
        P = alpha_precision(seq.terms)
        read, steps = [], []
        real, stream = Walk.at, Recurrence._stream

        def spy(self, positions):
            positions = list(positions)
            read.extend(positions)
            return real(self, positions)

        def spy_stream(self, *args):
            for y in stream(self, *args):
                steps.append(1)
                yield y

        rng = random.Random(11)
        for _ in range(5):
            alpha = DyadicReal(rng.getrandbits(P) | 1, -P, P)
            pts = dilate(alpha, seq, 100, 2048)
            read.clear()
            steps.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Walk, "at", spy)
                mp.setattr(Recurrence, "_stream", spy_stream)
                rep = gap_report(pts)
            assert 2 <= len(read) <= 4
            assert len(steps) <= len(read) * seq.stride
            assert rep == full_sort_report(pts.residues, pts.exponent)


class TestGapReportMemory:
    """gap_report over a dilation holds keys, not residues: at r = 3 and
    N = 2^14 the residues alone would take N * P / 8 bytes, about 53 MB."""

    @pytest.mark.parametrize("alpha", ["generic", "7/10"])
    def test_peak_below_a_tenth_of_the_residues(self, alpha):
        n = 1 << 14
        seq = geometric_sequence(Fraction(3), n)
        P = alpha_precision(seq.terms)
        if alpha == "generic":
            alpha = DyadicReal(random.Random(3).getrandbits(P) | 1, -P, P)
        else:  # 3^n mod 10 takes four values: four clusters of tied keys
            alpha = DyadicReal.from_fraction(Fraction(7, 10), P)
        tracemalloc.start()
        try:
            rep = gap_report(dilate(alpha, seq, 1, n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.n_points == n
        assert peak < n * residue_bits(alpha) // 8 // 10


class TestResidueForm:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-(1 << 200), 1 << 200),
        st.integers(-300, 8),
        st.lists(st.integers(1, 1 << 256), min_size=1, max_size=20),
        st.integers(0, 21),
        st.integers(0, 21),
    )
    def test_matches_frac_oracle(self, m, e, terms, i, j):
        # the oracle is the fractional part {alpha * a} in Fractions; an
        # arbitrary term list takes the q = 1 stream
        alpha = DyadicReal(m, e, 512)
        oracle = [alpha.to_fraction() * a % 1 for a in terms]
        pts = DilatedSet(tuple(residues(alpha, explicit(terms))), -residue_bits(alpha))
        one = 1 << -pts.exponent
        assert len(pts) == len(terms)
        assert [Fraction(r, one) for r in pts.residues] == oracle
        window = DilatedSet(tuple(residues(alpha, explicit(terms[i:j]))), pts.exponent)
        assert window == DilatedSet(pts.residues[i:j], pts.exponent)
        if oracle[i:j]:
            assert gap_report(window).max_gap.to_fraction() == max(fraction_gaps(oracle[i:j]))

    def test_alpha_zero_slices(self):
        seq = geometric_sequence(3, 8)
        pts = dilate(DyadicReal(0, 0, 128), seq)
        assert pts.residues == (0,) * 8 and pts.exponent == 0
        window = dilate(DyadicReal(0, 0, 128), seq, 3, 5)
        assert window.residues == (0,) * 3
        assert gap_report(window).max_gap == ONE


def product_residues(alpha, terms):
    mask = (1 << residue_bits(alpha)) - 1
    return [(alpha.mantissa * int(a)) & mask for a in terms]


class TestResidueRecurrence:
    """residues() advances by b * x where a_{n+1} = b * a_n and falls back to
    m * a elsewhere; both must give m * a & mask."""

    ALPHA = DyadicReal.from_fraction(Fraction(7, 10), 4000)

    @pytest.mark.parametrize(
        "terms",
        [
            [3, 9, 27, 28, 84, 7, 21],
            [5, 0, 0, 10, 20, -40, 80, 1 << 100, 1 << 164, 1 << 165],
            geometric_sequence(Fraction(5, 2), 300).terms,
            geometric_sequence(Fraction(3), 300).terms,
            thin(geometric_sequence(Fraction(3), 2048), 2048).terms,
            thin(geometric_sequence(Fraction(2), 1024), 512, 512).terms,
        ],
    )
    def test_matches_products(self, terms):
        assert list(residues(self.ALPHA, explicit(terms))) == product_residues(self.ALPHA, terms)

    def test_loaded_file_with_one_bumped_term(self, tmp_path):
        path = tmp_path / "seq.txt"
        save_sequence(path, geometric_sequence(Fraction(3), 200))
        lines = path.read_text().splitlines()
        lines[101] = str(int(lines[101]) + 1)  # header is line 0: bumps a_101
        path.write_text("\n".join(lines) + "\n")
        # the bump breaks ratio 3 at a_102, so the file is not lacunary as
        # declared; it still keeps ratio 2
        with pytest.raises(NotLacunaryError, match="a_102 < 3 \\* a_101"):
            load_sequence(path)
        lines[0] = "# r=2/1"
        path.write_text("\n".join(lines) + "\n")
        seq = load_sequence(path)
        assert seq.terms[100] % seq.terms[99] != 0
        # the stored relation of a loaded file: delta_100 = a_101 - 2 * a_100
        # is as wide as the terms
        assert seq.deltas[99].bit_length() > 64
        got = list(residues(self.ALPHA, seq))
        assert got == product_residues(self.ALPHA, seq.terms)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-(1 << 300), 1 << 300),
        st.integers(-400, 4),
        st.integers(1, 1 << 80),
        st.lists(
            st.one_of(
                st.integers(-3, 1 << 70).map(lambda b: ("times", b)),
                st.integers(-(1 << 200), 1 << 200).map(lambda a: ("new", a)),
            ),
            max_size=25,
        ),
    )
    def test_chains_match_products(self, m, e, first, steps):
        terms = [first]
        for kind, v in steps:
            terms.append(terms[-1] * v if kind == "times" else v)
        alpha = DyadicReal(m, e, 1024)
        assert list(residues(alpha, explicit(terms))) == product_residues(alpha, terms)


RATIOS = [Fraction(5, 2), Fraction(3, 2), Fraction(7, 3), Fraction(11, 10), Fraction(3), Fraction(2)]

odd_mantissas = st.integers(-(1 << 900), 1 << 900).map(lambda m: m | 1)


class TestOneRecurrence:
    """residues(alpha, seq) carries y_n = m * a_n exactly from m times the
    checkpoint at or below the window's first term and steps by q * y_{n+1}
    = p * y_n + m * delta_n, a shift for q = 2^s and one // otherwise; every
    value must be m * a & mask, over the whole sequence and over a window
    from mid-sequence, on a sequence's stored relation, on explicit terms
    with the ratio's denominator, with a wrong q and on broken chains."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(RATIOS),
        st.integers(1, 400),
        odd_mantissas,
        st.one_of(st.just(0), st.integers(1, 63), st.integers(64, 900)),
        st.integers(1, 60),
        st.data(),
    )
    def test_geometric_matches_products(self, r, n, m, P, wrong_q, data):
        seq = geometric_sequence(r, n)
        terms = seq.terms
        alpha = DyadicReal(m, -P, 4096)
        assert residue_bits(alpha) == P
        want = product_residues(alpha, terms)
        start = data.draw(st.integers(1, n))
        stop = data.draw(st.integers(start - 1, n))
        for walked in (seq, explicit(terms, r.denominator), explicit(terms, wrong_q)):
            assert list(residues(alpha, walked)) == want
            assert list(residues(alpha, walked, start, stop)) == want[start - 1 : stop]

    @pytest.mark.parametrize("r", RATIOS)
    def test_several_blocks_at_the_dilation_precision(self, r):
        seq = geometric_sequence(r, 1200)
        terms = seq.terms
        P = alpha_precision(terms)
        s = (r.denominator & -r.denominator).bit_length() - 1
        if s:  # many more shifts than isqrt(P) // s: y_n grows to about 2P bits
            assert len(terms) > 5 * (math.isqrt(P) // s)
        alpha = DyadicReal.from_fraction(Fraction(7, 10), P)
        want = product_residues(alpha, terms)
        assert list(residues(alpha, seq)) == want
        assert list(residues(alpha, explicit(terms, r.denominator))) == want
        assert list(residues(alpha, explicit(terms))) == want

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(RATIOS),
        st.integers(2, 150),
        odd_mantissas,
        st.integers(0, 900),
        st.integers(1, 12),
        st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.sampled_from(["bump", "zero", "negate", "new"]),
                st.integers(-(1 << 300), 1 << 300),
            ),
            max_size=8,
        ),
        st.data(),
    )
    def test_broken_chains_match_products(self, r, n, m, P, q, edits, data):
        terms = list(geometric_sequence(r, n).terms)
        for i, kind, v in edits:
            i %= n
            if kind == "bump":
                terms[i] += 1 + abs(v) % 3
            elif kind == "zero":
                terms[i] = 0
            elif kind == "negate":
                terms[i] = -terms[i]
            else:
                terms[i] = v
        alpha = DyadicReal(m, -P, 4096)
        want = product_residues(alpha, terms)
        start = data.draw(st.integers(1, n))
        stop = data.draw(st.integers(start - 1, n))
        for walked in (explicit(terms, r.denominator), explicit(terms, q)):
            assert list(residues(alpha, walked)) == want
            assert list(residues(alpha, walked, start, stop)) == want[start - 1 : stop]

    def test_dilate_passes_the_ratio_denominator(self, monkeypatch):
        # a sequence steps by its ratio r and rho = den(r), a thinning by
        # r^step and den(r)^step; both give the residues of the q = 1 stream
        import lacuna.dyadic as dyadic

        seen = []
        real = dyadic.residues

        def spy(alpha, seq, *window):
            seen.append((seq.growth_factor_r, seq.rho))
            return real(alpha, seq, *window)

        monkeypatch.setattr(dyadic, "residues", spy)
        for r in (Fraction(9, 4), Fraction(5, 2)):
            seen.clear()
            seq = geometric_sequence(r, 2048)
            th = thin(seq, 2048)
            alpha = DyadicReal.from_fraction(Fraction(7, 10), alpha_precision(seq.terms))
            e = -residue_bits(alpha)
            assert dilate(alpha, seq) == DilatedSet(tuple(real(alpha, explicit(seq.terms))), e)
            assert dilate(alpha, th) == DilatedSet(tuple(real(alpha, explicit(th.terms))), e)
            assert seen == [(r, r.denominator), (r**th.step, r.denominator**th.step)]


class TestStoredRelation:
    """residues() of a LacunarySequence steps by its stored deltas at r, a
    ThinnedSequence by its deltas at r^step; both start from a checkpoint
    and never again.  Each window must equal the product oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(RATIOS),
        st.integers(1, 700),
        odd_mantissas,
        st.integers(0, 1300),
        st.data(),
    )
    def test_sequence_windows_match_products(self, r, n, m, P, data):
        seq = geometric_sequence(r, n)
        alpha = DyadicReal(m, -P, 4096)
        want = product_residues(alpha, seq.terms)
        assert list(residues(alpha, seq)) == want
        start = data.draw(st.integers(1, n))
        stop = data.draw(st.integers(start - 1, n))
        assert list(residues(alpha, seq, start, stop)) == want[start - 1 : stop]

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(RATIOS),
        st.integers(1, 1 << 100),
        st.lists(st.integers(0, 1 << 200), max_size=40),
        odd_mantissas,
    )
    def test_wide_deltas_match_products(self, r, first, extras, m):
        terms = [first]
        for e in extras:
            terms.append(-((-r.numerator * terms[-1]) // r.denominator) + e)
        seq = LacunarySequence(terms, r)
        alpha = DyadicReal(m, -(terms[-1].bit_length() + 64), 4096)
        assert list(residues(alpha, seq)) == product_residues(alpha, terms)

    @pytest.mark.parametrize("r", RATIOS)
    def test_thinnings_match_products(self, r):
        seq = geometric_sequence(r, 2048)
        alpha = DyadicReal.from_fraction(Fraction(7, 10), alpha_precision(seq.terms))
        for th in (thin(seq, 2048), thin(seq, 1024, 1024)):
            # every pair has its relation at r^step, at r = 11/10 too, where
            # p^step and rho = 10^step pass 64 bits
            p, rho = th.growth_factor_r.numerator, th.rho
            terms = list(th.terms)
            assert rho == r.denominator**th.step
            assert [rho * b - p * a for a, b in zip(terms, terms[1:])] == list(th.deltas)
            if r == Fraction(11, 10):
                assert p.bit_length() > 64 and rho.bit_length() > 64
            assert list(residues(alpha, th)) == product_residues(alpha, terms)

    def test_window_past_the_end(self):
        seq = geometric_sequence(Fraction(3), 10)
        th = thin(seq, 10)
        alpha = DyadicReal.from_fraction(Fraction(7, 10), 128)
        with pytest.raises(SequenceTooShortError, match="have 10 terms, need 11"):
            dilate(alpha, seq, 1, 11)
        with pytest.raises(SequenceTooShortError, match=f"have {th.K} terms"):
            dilate(alpha, th, 1, th.K + 1)


class TestPrecisionPolicy:
    def test_alpha_precision_passes_the_dilation_gate(self):
        terms = geometric_sequence(Fraction(3), 100).terms
        bits = alpha_precision(terms)
        assert bits == terms[-1].bit_length() + 64
        require_precision(DyadicReal.from_fraction(Fraction(1, 3), bits), terms)
        # the terms of a window increase: the last one sets the precision
        assert alpha_precision([3, 1 << 10]) == 11 + 64


def decimal_ratio(num, den, digits):
    """Reference for format_ratio: the Decimal quotient at precision digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(num) / Decimal(den))


class TestSerialization:
    @pytest.mark.parametrize(
        "num,den", [(0, 8), (2, 8), (10, 4), (-6, 9), (1, 3), (7 << 200, 21 << 150)]
    )
    def test_unreduced_ratio_formats_as_its_value(self, num, den):
        assert format_ratio(num, den, 40) == format_decimal(Fraction(num, den), 40)

    @pytest.mark.parametrize("digits", [1, 2, 5, 30, 40])
    def test_wide_pairs_match_decimal_division(self, digits):
        rng = random.Random(digits)
        for _ in range(12):
            num = rng.getrandbits(rng.randint(10_000, 14_000)) * rng.choice((1, -1))
            den = rng.getrandbits(rng.randint(10_000, 14_000)) | 1
            assert format_ratio(num, den, digits) == decimal_ratio(num, den, digits)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-(10**60), 10**60),
        st.integers(1, 10**30),
        st.sampled_from((1, 2, 3, 7, 40)),
    )
    def test_matches_decimal_division(self, num, den, digits):
        assert format_ratio(num, den, digits) == decimal_ratio(num, den, digits)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-(10**45), 10**45),
        st.integers(1, 10**12),
        st.sampled_from((1, 10, 1000, 10**20, 2**40, 5**30)),
        st.booleans(),
        st.sampled_from((1, 2, 3, 40)),
    )
    def test_exact_quotients(self, c, den, m, scale_up, digits):
        # num/den is exactly c*m or c/m: trailing zeros, exponents on either
        # side of 0, and digit strings longer and shorter than digits
        num, den = (c * den * m, den) if scale_up else (c * den, den * m)
        assert format_ratio(num, den, digits) == decimal_ratio(num, den, digits)

    @pytest.mark.parametrize(
        "num,den,digits",
        [
            (0, 1, 40),
            (0, 7 << 300, 40),
            (-1, 3, 40),
            (125, 1, 2),  # a tie: half to even rounds down
            (135, 1, 2),  # ... and up
            (-125, 1, 2),
            (9995, 1, 3),  # rounding up carries into a new digit
            (999, 1000, 2),
            (10**45, 1, 40),  # exact, longer than digits: 1.000...E+45
            (10**45 + 1, 1, 40),
            (120 * 10**50, 10**50, 40),
            (3, 2, 40),
            (1, 10**7, 40),  # below 10^-6: exponent notation
        ],
    )
    def test_edge_cases(self, num, den, digits):
        assert format_ratio(num, den, digits) == decimal_ratio(num, den, digits)

    def test_integers_longer_than_40_digits(self):
        # delta_lower goes out as format_ratio(delta, 1, 40)
        rng = random.Random(7)
        for bits in (140, 1_000, 14_320, 40_000):
            for _ in range(5):
                delta = rng.getrandbits(bits) | (1 << (bits - 1))
                assert format_ratio(delta, 1, 40) == decimal_ratio(delta, 1, 40)

    def test_json_dict_shape(self):
        rep = gap_report(DilatedSet((1, 3), -2))
        d = rep.to_json_dict()
        assert set(d) == {"n", "max_gap", "normalized_log1", "normalized_log2"}
        assert d["n"] == 2

    def test_decimal_has_30_digits(self):
        s = dy(1, 3).decimal_str(30)
        digits = s.replace("0.", "")
        assert len(digits) == 30

    def test_hex_pair_lossless(self):
        x = dy(7, 10, 96)
        m, e = x.hex_pair()
        assert DyadicReal(int(m, 16), e) == x
