import itertools
import math
import os
import random
import tempfile
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna import turan
from lacuna.cf import dist_to_int
from lacuna.dyadic import DyadicReal, alpha_precision, dilate, gap_report, residue_bits, residues
from lacuna.errors import (
    DeltaUncertifiableError,
    EpsilonDomainError,
    InfeasibleAtStepError,
    IntervalTooShortError,
)
from lacuna.sequences import (
    LacunarySequence,
    Recurrence,
    ThinnedSequence,
    geometric_sequence,
    load_sequence,
    save_sequence,
    thin,
)
from lacuna.turan import (
    _greedy_band_search,
    delta_lower_bound,
    find_alpha,
    find_dilation,
    turan_M,
)


def fraction_band_search(frequencies, targets, epsilon, lo, hi, kinds=None):
    """Reference band search in Fraction arithmetic (the construction the
    integer search must reproduce decision for decision).  kinds, if given,
    collects what each step did to the interval: "banded" (it is now the
    chosen band), "clipped" or "unchanged" (the band holds it)."""
    eps = epsilon * (1 - Fraction(1, 1 << 12))
    for n, (a, x) in enumerate(zip(frequencies, targets), start=1):
        j_min = math.ceil(lo * a - x - eps)
        j_max = math.floor(hi * a - x + eps)
        if j_min > j_max:
            raise InfeasibleAtStepError(n)
        c = (lo + hi) / 2
        j_best = round(c * a - x)
        j_best = min(max(j_best, j_min), j_max)
        if j_best - 1 >= j_min:
            d_lo = abs((x + j_best - 1) / a - c)
            d_hi = abs((x + j_best) / a - c)
            if d_lo <= d_hi:
                j_best -= 1
        band_lo = (x + j_best - eps) / a
        band_hi = (x + j_best + eps) / a
        if kinds is not None:
            inside = lo < band_lo and band_hi < hi
            holds = lo >= band_lo and hi <= band_hi
            kinds.append("banded" if inside else "unchanged" if holds else "clipped")
        lo = max(lo, band_lo)
        hi = min(hi, band_hi)
        if lo > hi:
            raise InfeasibleAtStepError(n)
    return lo, hi


def wide_band_search(frequencies, targets, epsilon, lo, hi):
    """Reference integer band search with one wide divmod at every step (the
    search before the short step), decision for decision the Fraction one."""
    eps = epsilon * (1 - Fraction(1, 1 << 12))
    en, ed = eps.numerator, eps.denominator
    L, H = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    Q = lo.denominator * hi.denominator
    for n, (a, x) in enumerate(zip(frequencies, targets), start=1):
        p, q = x.numerator, x.denominator
        R = Q * q * ed
        A = q * ed * a
        E = en * q * Q
        LA, dA = L * A, (H - L) * A
        s_lo = LA - (p * ed + en * q) * Q
        w = dA + 2 * E
        base, rem = divmod(s_lo, R)
        j_min = base + (rem != 0)
        j_max = base + (rem + w) // R
        if j_min > j_max:
            raise InfeasibleAtStepError(n)
        t = 2 * rem + w
        two_r = 2 * R
        f, t_rem = divmod(t, two_r)
        j_best = base + f
        if 2 * t_rem > two_r or (2 * t_rem == two_r and j_best % 2 == 1):
            j_best += 1
        j_best = min(max(j_best, j_min), j_max)
        if j_best - 1 >= j_min:
            u = two_r * (j_best - base) - t
            if abs(u - two_r) <= abs(u):
                j_best -= 1
        BL = (p + j_best * q) * ed - en * q
        BLQ = BL * Q
        keep_lo = LA >= BLQ
        keep_hi = LA + dA <= BLQ + 2 * E
        if not (keep_lo or keep_hi):
            L, H, Q = BL, BL + 2 * en * q, A
        elif keep_lo != keep_hi:
            L = LA if keep_lo else BLQ
            H = LA + dA if keep_hi else BLQ + 2 * E
            Q = Q * A
        if L > H:
            raise InfeasibleAtStepError(n)
    return Fraction(L, Q), Fraction(H, Q)


def over(xs):
    """Fraction targets as (numerators, D) over their lcm D, the form
    find_dilation and _greedy_band_search take."""
    D = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (D // x.denominator) for x in xs], D


def greedy(freqs, xs, lo, hi, ratio=Fraction(1)):
    """_greedy_band_search over explicit frequencies, kept as their
    recurrence at ratio (any ratio describes any list of integers)."""
    return Fraction(*_greedy_band_search(Recurrence(freqs, ratio), *over(xs), lo, hi))


def centre(interval):
    """The midpoint of a reference search's final interval."""
    lo, hi = interval
    return (lo + hi) / 2


def first_ratio_failure(freqs, eps):
    """The 1-based n of the first a_n/a_(n-1) < 1/eps + 2, in Fractions;
    None when every ratio passes."""
    pairs = zip(freqs, freqs[1:])
    return next((n for n, (a, b) in enumerate(pairs, start=2) if b < (1 / eps + 2) * a), None)


def passes_checks(freqs, eps, lo, hi):
    """find_dilation's two checks that nest the bands: every ratio
    a_(n+1)/a_n >= 1/eps + 2, and hi - lo >= (1 + 2*eps)/a_1."""
    return first_ratio_failure(freqs, eps) is None and hi - lo >= (1 + 2 * eps) / freqs[0]


def assert_rejected(freqs, xs, eps, lo, hi):
    """find_dilation rejects a list of positive frequencies that fails a
    check with that check's coded error: the first ratio failure, else a
    too-short interval."""
    step = first_ratio_failure(freqs, eps)
    if step is None:
        with pytest.raises(IntervalTooShortError) as exc:
            find_dilation(pseudo_thinned(freqs), *over(xs), eps, (lo, hi))
        assert exc.value.code == "interval-below-4-over-aN"
    else:
        with pytest.raises(InfeasibleAtStepError, match="frequency ratio") as exc:
            find_dilation(pseudo_thinned(freqs), *over(xs), eps, (lo, hi))
        assert exc.value.step == step


def search_outcome(search, *args):
    try:
        return search(*args)
    except InfeasibleAtStepError as exc:
        return ("infeasible", exc.step)


def pseudo_thinned(terms, K=None):
    terms = tuple(terms)
    return ThinnedSequence(
        parent=None, l=1, step=1, K=K or len(terms), terms=terms, xi=2.0
    )


def dense_targets(N):
    """The N targets j/N as find_dilation takes them: (numerators, N)."""
    return range(N), N


class TestTuranM:
    def test_examples(self):
        assert turan_M(Fraction(1, 4), 4) == 12
        assert turan_M(Fraction(2, 5), 2) == 5
        assert turan_M(Fraction(1, 4), 1) == 6

    def test_epsilon_domain(self):
        with pytest.raises(EpsilonDomainError):
            turan_M(Fraction(1, 2), 4)
        with pytest.raises(EpsilonDomainError):
            turan_M(Fraction(0), 4)

    @given(
        st.fractions(min_value=Fraction(1, 100), max_value=Fraction(49, 100)),
        st.integers(1, 1000),
    )
    def test_dominates_float_formula(self, eps, K):
        m = turan_M(eps, K)
        assert m >= (1 / float(eps)) * math.log(K / float(eps)) - 1e-6


class TestDeltaLowerBound:
    def test_examples(self):
        assert delta_lower_bound(pseudo_thinned((1, 1000, 1000000)), 10) == 1
        assert delta_lower_bound(pseudo_thinned((1, 2)), 1) == 1

    def test_domination_failure(self):
        with pytest.raises(DeltaUncertifiableError) as exc:
            delta_lower_bound(pseudo_thinned((1, 5)), 10)
        assert exc.value.index == 2

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 6),
        st.data(),
    )
    def test_sound_against_exhaustive_oracle(self, K, M, data):
        # grow terms fast enough that certification *may* hold, then compare
        # against complete enumeration of nonzero coefficient vectors
        terms = [data.draw(st.integers(1, 50))]
        for _ in range(K - 1):
            terms.append(terms[-1] * data.draw(st.integers(M + 1, 8 * M)) + data.draw(st.integers(0, 10)))
        th = pseudo_thinned(terms)
        try:
            delta = delta_lower_bound(th, M)
        except DeltaUncertifiableError:
            return
        true_min = min(
            abs(sum(m * a for m, a in zip(vec, terms)))
            for vec in itertools.product(range(-M, M + 1), repeat=K)
            if any(vec)
        )
        assert 0 < delta <= true_min


class TestFindDilation:
    def test_single_frequency_exact_hit(self):
        cert = find_dilation(pseudo_thinned((5,)), [0], 1, Fraction(1, 10))
        # band midpoint hits the target up to the dyadic rounding of alpha
        assert cert.constraints[0].achieved <= Fraction(1, 1 << 60)

    def test_three_decades(self):
        th = pseudo_thinned((1000, 10**6, 10**9))
        targets = [Fraction(0), Fraction(1, 3), Fraction(2, 3)]
        cert = find_dilation(th, *over(targets), Fraction(1, 100))
        av = cert.alpha.to_fraction()
        for a, x in zip(th.terms, targets):
            f = av * a - x
            f -= math.floor(f)
            assert min(f, 1 - f) <= Fraction(1, 100)

    def test_achieved_recorded_and_bounded(self):
        seq = geometric_sequence(Fraction(2), 1024)
        th = thin(seq, 1024)
        eps = Fraction(2) * Fraction(69, 10) / 1024  # ~ l ln N / (2N) scale
        cert = find_dilation(
            th, range(th.K), th.K, eps
        )
        assert all(c.achieved <= eps for c in cert.constraints)
        assert cert.max_gap_bound == Fraction(1, th.K) + 2 * eps

    def test_full_set_gap_below_bound(self):
        seq = geometric_sequence(Fraction(2), 1024)
        cert = find_alpha(seq, 1024)
        rep = gap_report(dilate(cert.alpha, seq, 1, 1024))
        assert rep.max_gap.to_fraction() <= cert.max_gap_bound

    def test_interval_too_short(self):
        th = pseudo_thinned((5,))
        with pytest.raises(IntervalTooShortError):
            find_dilation(
                th, [0], 1, Fraction(1, 10),
                (Fraction(0), Fraction(1, 100)),
            )

    def test_alpha_inside_interval(self):
        th = pseudo_thinned((1000, 10**6, 10**9))
        lo, hi = Fraction(3, 10), Fraction(7, 10)
        cert = find_dilation(
            th, [0, 1, 2], 3,
            Fraction(1, 100), (lo, hi),
        )
        assert lo <= cert.alpha.to_fraction() <= hi

    def test_first_band_checked_with_a_certified_delta(self):
        # K = 1, a~_1 = 10, eps = 2: delta = 10, and the interval passes
        # 4/delta = 2/5 but not (1 + 2*eps)/a~_1 = 1/2, which puts the
        # first band inside it
        with pytest.raises(IntervalTooShortError, match=r"\(1\+2\*eps\)/a~_1") as exc:
            find_dilation(pseudo_thinned((10,)), [0], 1, Fraction(2), (Fraction(0), Fraction(9, 20)))
        assert exc.value.code == "interval-below-4-over-aN"

    def test_interval_message_past_the_int_to_str_limit(self):
        # the length 2^-20000 and delta = 2^14300 pass str(int)'s digit
        # limit, so the message gives their binary magnitudes
        th = pseudo_thinned((1 << 14300, 1 << 14310, 1 << 14320))
        with pytest.raises(IntervalTooShortError) as exc:
            find_dilation(th, *dense_targets(3), Fraction(1, 3), (Fraction(0), Fraction(1, 1 << 20000)))
        assert exc.value.code == "interval-below-4-over-aN"
        assert str(exc.value) == "interval length ~2^-20000 below 4/delta = 4/~2^14300"


class TestFindAlpha:
    @pytest.mark.parametrize("r,N", [(2, 256), (2, 1024), (3, 256), (3, 1024)])
    def test_gap_within_3l_log_over_n(self, r, N):
        seq = geometric_sequence(Fraction(r), N)
        cert = find_alpha(seq, N)
        rep = gap_report(dilate(cert.alpha, seq, 1, N))
        l = 2 if r == 2 else 1
        assert rep.max_gap.to_fraction() <= Fraction(3 * l) * Fraction(
            math.log(N)
        ).limit_denominator(10**12) * Fraction(1, N) * Fraction(101, 100)

    def test_determinism(self):
        seq = geometric_sequence(Fraction(2), 512)
        a1 = find_alpha(seq, 512).alpha
        a2 = find_alpha(seq, 512).alpha
        assert a1 == a2


class TestFindDilationBlock:
    def test_interval_boundary_accepted(self):
        seq = geometric_sequence(Fraction(2), 512)
        a_n = seq.term(256)
        lo = Fraction(3, 10)
        cert = find_alpha(seq, 256, (lo, lo + Fraction(4, a_n)), 256)
        assert lo <= cert.alpha.to_fraction() <= lo + Fraction(4, a_n)
        # verify the block gap directly
        pts = dilate(cert.alpha, seq, 257, 512)
        rep = gap_report(pts)
        assert rep.max_gap.to_fraction() <= cert.max_gap_bound

    def test_short_interval_rejected(self):
        seq = geometric_sequence(Fraction(2), 512)
        a_n = seq.term(256)
        with pytest.raises(IntervalTooShortError, match="interval-below-4-over-aN"):
            find_alpha(seq, 256, (Fraction(0), Fraction(1, a_n)), 256)

    def test_short_interval_message_past_the_int_to_str_limit(self):
        # 3^-20000 and a_16384 = 3^16384 pass str(int)'s digit limit
        seq = geometric_sequence(Fraction(3), 32768)
        with pytest.raises(IntervalTooShortError) as exc:
            find_alpha(seq, 16384, (Fraction(0), Fraction(1, 3**20000)), 16384)
        assert exc.value.code == "interval-below-4-over-aN"
        e_len, e_a = -(3**20000).bit_length(), (3**16384).bit_length() - 1
        assert str(exc.value) == f"interval-below-4-over-aN: length ~2^{e_len} < 4/~2^{e_a}"


class TestFindDilationDense:
    """A list of N terms with ratios at least N + 2, certified as the turan
    module docstring says: eps = 1/N, targets j/N, gap bound 3/N."""

    def test_squares_exponent_tail(self):
        terms = [2 ** (n * n) for n in range(3, 11)]  # ratios 2^7 .. 2^19
        cert = find_dilation(pseudo_thinned(terms), *dense_targets(8), Fraction(1, 8))
        assert cert.max_gap_bound == Fraction(3, 8)
        alpha = cert.alpha.to_fraction()
        pts = [((alpha * t) % 1) for t in terms]
        pts.sort()
        gaps = [b - a for a, b in zip(pts, pts[1:])] + [1 - pts[-1] + pts[0]]
        assert max(gaps) <= Fraction(3, 8)

    def test_geometric_n_squared(self):
        terms = [256**n for n in range(1, 17)]
        cert = find_dilation(pseudo_thinned(terms), *dense_targets(16), Fraction(1, 16))
        assert cert.max_gap_bound == Fraction(3, 16)


small_fractions = st.fractions(
    min_value=Fraction(-3, 2), max_value=Fraction(5, 2), max_denominator=12
)


class TestTargetsOverOneDenominator:
    """find_dilation takes its targets as numerators over one denominator
    D; scaling both by a factor g leaves every decision at the same
    rational, so the certificate is the same."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.fractions(min_value=Fraction(1, 40), max_value=Fraction(1, 3), max_denominator=40),
        st.integers(2, 1 << 40),
        st.lists(st.tuples(st.integers(0, 30), st.integers(0, 1 << 40)), max_size=5),
        st.integers(1, 64),
        st.data(),
    )
    def test_scaled_denominator_gives_the_same_certificate(self, eps, first, steps, g, data):
        terms = [first]
        for f, e in steps:  # every ratio at least 1/eps + 2
            terms.append(terms[-1] * (math.ceil(1 / eps) + 2 + f) + e)
        # a certified delta is at least 1, so an interval of length 4 passes
        lo = data.draw(small_fractions)
        iv = (lo, lo + 4)
        assert passes_checks(terms, eps, *iv)
        nums, D = over([data.draw(small_fractions) for _ in terms])
        th = pseudo_thinned(terms)
        want = find_dilation(th, nums, D, eps, iv)
        got = find_dilation(th, [g * p for p in nums], g * D, eps, iv)
        assert got.alpha == want.alpha
        assert got.max_gap_bound == want.max_gap_bound
        rows = [(c.target, c.achieved) for c in got.constraints]
        assert rows == [(c.target, c.achieved) for c in want.constraints]

    @pytest.mark.parametrize("D", [0, -1])
    def test_denominator_below_one_rejected(self, D):
        with pytest.raises(ValueError, match="denominator"):
            find_dilation(pseudo_thinned((10, 1000)), [0, 1], D, Fraction(1, 10))

    @pytest.mark.parametrize("nums", [[0], [0, 1, 2]])
    def test_numerator_count_other_than_K_rejected(self, nums):
        with pytest.raises(ValueError, match="need 2 targets"):
            find_dilation(pseudo_thinned((10, 1000)), nums, 3, Fraction(1, 10))


class TestIntegerBandSearch:
    """The integer band search against the Fraction reference."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 80), small_fractions), min_size=1, max_size=5
        ),
        st.fractions(
            min_value=Fraction(1, 60), max_value=Fraction(1, 2), max_denominator=60
        ),
        small_fractions,
        st.fractions(min_value=Fraction(0), max_value=Fraction(2), max_denominator=12),
    )
    def test_matches_fraction_reference(self, steps, eps, lo, width):
        # where find_dilation's checks pass, every step of the reference
        # keeps a whole band and the centre is its last band's midpoint;
        # elsewhere find_dilation rejects the input with a coded error
        freqs = [a for a, _ in steps]
        xs = [x for _, x in steps]
        hi = lo + width
        if passes_checks(freqs, eps, lo, hi):
            kinds = []
            want = fraction_band_search(freqs, xs, eps, lo, hi, kinds)
            assert set(kinds) == {"banded"}
            assert greedy(freqs, xs, lo, hi) == centre(want)
        else:
            assert_rejected(freqs, xs, eps, lo, hi)

    @pytest.mark.parametrize(
        "freqs,xs,eps,lo,hi",
        [
            # c*a - x = 3/2: round() gives 2, the tie rule moves to the band at 1
            ((1,), (Fraction(0),), Fraction(1, 10), Fraction(0), Fraction(3)),
            # c*a - x = 5/2: round() gives 2, already the lower of the tie
            ((1,), (Fraction(0),), Fraction(1, 10), Fraction(0), Fraction(5)),
            # the band holds the whole interval: both ends kept
            ((4,), (Fraction(1, 3),), Fraction(1, 5), Fraction(3, 10), Fraction(7, 20)),
            # the band sticks out below lo: lo is kept, hi clipped
            ((1,), (Fraction(0),), Fraction(1, 10), Fraction(1, 20), Fraction(1, 2)),
            # the bands stick out above hi: lo clipped, hi kept, twice
            ((3, 7), (Fraction(0), Fraction(1, 2)), Fraction(1, 4), Fraction(1, 10), Fraction(1, 3)),
            # eps' = 1/10 exactly: the band at 1 touches hi in one point
            ((1,), (Fraction(0),), Fraction(4096, 40950), Fraction(17, 20), Fraction(9, 10)),
            # ... and the band at 0 touches lo in one point
            ((1,), (Fraction(0),), Fraction(4096, 40950), Fraction(1, 10), Fraction(3, 20)),
            # no band of the second frequency meets the first band
            ((5, 6), (Fraction(0), Fraction(1, 2)), Fraction(1, 40), Fraction(0), Fraction(1)),
            # the interval holds no band at all
            ((2,), (Fraction(1, 4),), Fraction(1, 100), Fraction(0), Fraction(1, 10)),
            # the first band sticks out below lo, then bands of ratio 30
            ((1, 30, 900, 27000, 810000), (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(0),
                                           Fraction(2, 3)), Fraction(1, 10), Fraction(1, 20), Fraction(1, 2)),
            # the bands of 3 and of 7 stick out above hi, then bands of 70, 700
            ((3, 7, 70, 700), (Fraction(0), Fraction(1, 2), Fraction(0), Fraction(0)), Fraction(1, 4),
             Fraction(1, 10), Fraction(1, 3)),
            # [0, 1/20] lies in the band [-1/10, 1/10] of a_1 = 1 at x = 0
            ((1, 100, 10**4), (Fraction(0), Fraction(1, 2), Fraction(0)), Fraction(1, 10), Fraction(0),
             Fraction(1, 20)),
            # ties at step 2, from c_1 = 1: c*a - x = 39/2 (round() gives 20,
            # the tie rule moves to 19) and 41/2 (round() gives 20)
            ((1, 20), (Fraction(0), Fraction(1, 2)), Fraction(1, 10), Fraction(0), Fraction(3)),
            ((1, 20), (Fraction(0), Fraction(-1, 2)), Fraction(1, 10), Fraction(0), Fraction(3)),
        ],
    )
    def test_ties_clips_and_failures(self, freqs, xs, eps, lo, hi):
        # the two ties pass find_dilation's checks and give the reference's
        # last band centre; every clipped, unchanged or infeasible interval
        # of the reference follows from an input that fails a check, and
        # find_dilation rejects it with that check's coded error
        if passes_checks(freqs, eps, lo, hi):
            assert greedy(freqs, xs, lo, hi) == centre(fraction_band_search(freqs, xs, eps, lo, hi))
        else:
            assert_rejected(freqs, xs, eps, lo, hi)

    def test_tie_goes_to_lower_alpha(self):
        assert greedy((1,), (Fraction(0),), Fraction(0), Fraction(3)) == 1

    @pytest.mark.parametrize("r,N", [(Fraction(3), 512), (Fraction(5, 2), 512), (Fraction(2), 256)])
    def test_find_alpha_bands_match_reference(self, r, N):
        seq = geometric_sequence(r, N)
        th = thin(seq, N)
        xs = [Fraction(j, th.K) for j in range(th.K)]
        eps = turan.block_epsilon(seq, N)
        lo, hi = Fraction(1, 7), Fraction(1, 7) + Fraction(1, 2)
        assert Fraction(*_greedy_band_search(th, *over(xs), lo, hi)) == centre(fraction_band_search(th.terms, xs, eps, lo, hi))


class TestRatioPrecondition:
    @pytest.mark.parametrize("second,ok", [(120, True), (119, False), (121, True)])
    def test_boundary_is_exact(self, second, ok):
        # a_2/a_1 against 1/eps + 2 = 12 exactly, for eps = 1/10
        th = pseudo_thinned((10, second))
        if ok:
            find_dilation(th, [0, 1], 2, Fraction(1, 10))
        else:
            with pytest.raises(InfeasibleAtStepError, match="frequency ratio") as exc:
                find_dilation(th, [0, 1], 2, Fraction(1, 10))
            assert exc.value.step == 2

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            find_dilation(pseudo_thinned((0, 100)), [0] * 2, 1, Fraction(1, 10))

    def test_later_nonpositive_term_fails_the_ratio_check(self):
        # only a~_1 is checked for sign: with a~_1 > 0 the ratio check makes
        # every later term positive, and a non-positive one fails it
        with pytest.raises(InfeasibleAtStepError, match="frequency ratio") as exc:
            find_dilation(pseudo_thinned((5, 100, -1)), [0] * 3, 1, Fraction(1, 10))
        assert exc.value.step == 3


class TestRatioPreconditionFromRelation:
    """find_dilation reads a~_(n+1)*e_num >= a~_n*(e_den + 2*e_num) from the
    stored relation rho*a~_(n+1) = P*a~_n + delta_n, multiplying a term only
    where it must; it fails at the step where the products fail, at ratios
    with either sign of c = rho*(e_den + 2*e_num) - P*e_num and deltas of
    either sign."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 1 << 40),
        st.lists(st.tuples(st.integers(1, 120), st.integers(0, 1 << 40)), min_size=1, max_size=5),
        st.sampled_from([Fraction(3), Fraction(5, 2), Fraction(11, 10), Fraction(200)]),
        st.integers(1, 3),
        st.fractions(min_value=Fraction(1, 50), max_value=Fraction(1, 3), max_denominator=50),
    )
    def test_fails_where_the_products_fail(self, first, steps, r, step, eps):
        terms = [first]
        for f, e in steps:
            terms.append(terms[-1] * f + e % terms[-1])
        th = ThinnedSequence(geometric_sequence(r, 2), 1, step, len(terms), terms, 2.0)
        en, ed = eps.numerator, eps.denominator
        pairs = zip(terms, terms[1:])
        want = next((n for n, (a, b) in enumerate(pairs, start=2) if b * en < a * (ed + 2 * en)), None)
        try:
            find_dilation(th, [0] * len(terms), 1, eps)
            got = None
        except InfeasibleAtStepError as exc:
            got = exc.step if "frequency ratio" in str(exc) else None
        except IntervalTooShortError:
            got = None
        assert got == want


class TestResiduePostcondition:
    @pytest.mark.parametrize("r,N", [(Fraction(3), 512), (Fraction(5, 2), 512), (Fraction(2), 256)])
    def test_achieved_is_distance_to_target(self, r, N):
        seq = geometric_sequence(r, N)
        cert = find_alpha(seq, N)
        av = cert.alpha.to_fraction()
        for c, a in zip(cert.constraints, thin(seq, N).terms, strict=True):
            assert c.achieved == dist_to_int(av * a - c.target)
            assert c.achieved <= cert.parameters.epsilon
            # the unreduced denominator q*2^P is derived from the target
            assert c.achieved_den == c.target.denominator << residue_bits(cert.alpha)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(small_fractions, min_size=3, max_size=3))
    def test_arbitrary_targets(self, xs):
        th = pseudo_thinned((1000, 10**6, 10**9))
        cert = find_dilation(th, *over(xs), Fraction(1, 100))
        av = cert.alpha.to_fraction()
        for c, a, x in zip(cert.constraints, th.terms, xs):
            assert c.target == x
            assert c.achieved == dist_to_int(av * a - x) <= Fraction(1, 100)

    def test_out_of_band_search_result_raises(self, monkeypatch):
        # a search that lands far from every band must fail the postcondition
        monkeypatch.setattr(
            turan, "_greedy_band_search", lambda *args: (1, 7)
        )
        th = pseudo_thinned((1000, 10**6, 10**9))
        with pytest.raises(InfeasibleAtStepError) as exc:
            find_dilation(th, [0, 1, 2], 3, Fraction(1, 100))
        assert exc.value.step == 0 and "postcondition violated" in str(exc.value)


class TestKeyPostcondition:
    """The postcondition decided from 64-bit keys against the exact rule on
    every constraint: alpha is set by replacing the band search, eps sits
    at the edge of a key's decision or of the exact distance, and alphas of
    few bits (P < 64) on terms divisible by a power of two tie in long runs."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 1 << 80),
        st.integers(0, 100),
        st.lists(st.tuples(st.integers(1, 16), st.integers(0, 1 << 60)), min_size=0, max_size=6),
        st.integers(0, 120).flatmap(lambda b: st.tuples(st.integers(0, 1 << b), st.just(b))),
        st.data(),
    )
    def test_matches_the_exact_rule(self, first, t, steps, alpha_bits, data):
        terms = [first << t]
        for f, e in steps:  # ratios past 2^68 > 1/eps + 2 for every eps drawn
            terms.append((terms[-1] * (f << 68) + e) << t)
        xs = [data.draw(small_fractions) for _ in terms]
        m, b = alpha_bits
        alpha = DyadicReal.from_fraction(Fraction(m, 1 << b), alpha_precision(terms))
        av = alpha.to_fraction()
        exact = [dist_to_int(av * a - x) for a, x in zip(terms, xs)]
        keyed = [dist_to_int(Fraction(math.floor((av * a) % 1 * (1 << 64)), 1 << 64) - x) for a, x in zip(terms, xs)]
        n = data.draw(st.integers(0, len(terms) - 1))
        edges = [exact[n], keyed[n], (exact[n] + keyed[n]) / 2, keyed[n] + Fraction(1, 1 << 64)]
        edge = data.draw(st.sampled_from(edges))
        eps = max(edge + data.draw(st.sampled_from([0, 1, -1])) * Fraction(1, 1 << 90), Fraction(1, 1 << 66))
        th = pseudo_thinned(terms)
        bad = next((d for d in exact if d > eps), None)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(turan, "_greedy_band_search", lambda *args: (av.numerator, av.denominator))
            if bad is None:
                cert = find_dilation(th, *over(xs), eps, (Fraction(0), Fraction(1 << 200)))
                assert cert.alpha == alpha
                assert [(c.target, c.achieved) for c in cert.constraints] == list(zip(xs, exact))
            else:
                with pytest.raises(InfeasibleAtStepError) as exc:
                    find_dilation(th, *over(xs), eps, (Fraction(0), Fraction(1 << 200)))
                assert str(exc.value).endswith(f"postcondition violated: achieved {bad} > eps {eps}")

    def test_constraints_view(self):
        seq = geometric_sequence(Fraction(5, 2), 1024)
        cert = find_alpha(seq, 1024)
        rows = list(cert.constraints)
        assert len(cert.constraints) == len(rows) == cert.parameters.K
        assert [cert.constraints[i] for i in (0, 5, -1)] == [rows[0], rows[5], rows[-1]]
        assert cert.constraints[3:9] == tuple(rows[3:9])
        assert all(c.bits == residue_bits(cert.alpha) for c in rows)


class TestCertificateJson:
    @pytest.mark.parametrize("r,N", [(Fraction(3), 512), (Fraction(5, 2), 512)])
    def test_index_names_the_term(self, r, N):
        seq = geometric_sequence(r, N)
        cert = find_alpha(seq, N)
        rows = cert.to_json_dict()["constraints"]
        assert [seq.term(row["index"]) for row in rows] == list(thin(seq, N).terms)
        assert [row["target"] for row in rows] == [str(c.target) for c in cert.constraints]

    def test_block_index_is_offset(self):
        seq = geometric_sequence(Fraction(3), 512)
        cert = find_alpha(seq, 256, (Fraction(0), Fraction(1)), 256)
        rows = cert.to_json_dict()["constraints"]
        assert rows[0]["index"] > 256
        assert [seq.term(row["index"]) for row in rows] == list(thin(seq, 256, 256).terms)

    def test_frequencies_past_the_int_to_str_limit(self):
        # 2^14300 has 4305 decimal digits, past Python's default limit of
        # 4300 for str(int); so has the lattice gap delta
        th = pseudo_thinned((1 << 14300, 1 << 14310, 1 << 14320))
        cert = find_dilation(th, *dense_targets(3), Fraction(1, 3))
        d = cert.to_json_dict()
        assert [row["index"] for row in d["constraints"]] == [1, 2, 3]
        delta = cert.parameters.delta_lower
        assert delta.bit_length() > 14300
        assert abs(Fraction(Decimal(d["delta_lower"])) - delta) * 10**39 <= delta


def short_chain(data, rho, first_bits, length, eps):
    """Terms whose neighbours satisfy rho*a_{k+1} = P*a_k + d with one P,
    P/rho at least 1/eps + 2, and d short: a_{k+1} = ceil((P*a_k + d)/rho).
    Returns the terms and P."""
    low = math.ceil(rho * (1 / eps + 2))
    P = data.draw(st.integers(low, 64 * low))
    terms = [data.draw(st.integers(1 << (first_bits - 1), 1 << first_bits))]
    for _ in range(length - 1):
        d = data.draw(st.integers(0, 1 << 40))
        terms.append(-(-(P * terms[-1] + d) // rho))
    return terms, P


class TestShortStep:
    """The band search's integer step against the wide-step reference: on
    every input that passes find_dilation's checks, the centre is the
    midpoint of the reference's last band."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from((1, 2, 4, 3, 9)),
        st.integers(1, 12),
        st.fractions(min_value=Fraction(1, 40), max_value=Fraction(1, 3), max_denominator=40),
        st.fractions(min_value=Fraction(0), max_value=Fraction(1), max_denominator=30),
        st.integers(8, 80),
        st.data(),
    )
    def test_short_relations_match_the_wide_search(self, rho, K, eps, lo, first_bits, data):
        terms, P = short_chain(data, rho, first_bits, K, eps)
        xs = [data.draw(small_fractions) for _ in terms]
        hi = lo + (1 + 2 * eps) / terms[0]
        # the chain's own ratio (short deltas), 1/rho (wide positive ones)
        # and (P + 1)/rho (wide negative ones)
        ratio = data.draw(st.sampled_from([Fraction(P, rho), Fraction(1, rho), Fraction(P + 1, rho)]))
        assert greedy(terms, xs, lo, hi, ratio) == centre(wide_band_search(terms, xs, eps, lo, hi))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(1, 1 << 24), min_size=1, max_size=8),
        st.lists(small_fractions, min_size=8, max_size=8),
        st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(5, 4), Fraction(7, 2)]),
        st.fractions(min_value=Fraction(1, 40), max_value=Fraction(1, 3), max_denominator=40),
        st.fractions(min_value=Fraction(0), max_value=Fraction(1), max_denominator=30),
        st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1), max_denominator=1000),
    )
    def test_any_chain_matches_the_wide_search(self, steps, xs, ratio, eps, lo, width):
        # terms growing by any factor, read at a ratio that fits them or
        # not: where find_dilation's checks pass the step is exact for every
        # integer delta, and elsewhere find_dilation rejects the chain
        terms = list(itertools.accumulate(steps))
        xs, hi = xs[: len(terms)], lo + width
        if passes_checks(terms, eps, lo, hi):
            assert greedy(terms, xs, lo, hi, ratio) == centre(wide_band_search(terms, xs, eps, lo, hi))
        else:
            assert_rejected(terms, xs, eps, lo, hi)

    def test_random_short_chains_take_the_short_step(self):
        # chains built as short_chain builds them, read at 1/rho, so every
        # delta is wide and positive
        rng = random.Random(3)
        for rho in (1, 2, 4, 3, 9):
            terms = [rng.getrandbits(64) | 1]
            for _ in range(30):
                terms.append(-(-(rng.randint(40 * rho, 400 * rho) * terms[-1] + rng.getrandbits(32)) // rho))
            xs = [Fraction(rng.randint(0, 9), 10) for _ in terms]
            want = wide_band_search(terms, xs, Fraction(1, 30), Fraction(0), Fraction(1))
            assert greedy(terms, xs, Fraction(0), Fraction(1), Fraction(1, rho)) == centre(want)

    @pytest.mark.parametrize("r", [Fraction(3), Fraction(2), Fraction(5, 2), Fraction(3, 2), Fraction(11, 10)])
    @pytest.mark.parametrize("N", [512, 8192])
    def test_find_alpha_bands_match_the_wide_search(self, r, N):
        # at r = 11/10 too, where step = 11*floor(ln N) and rho = 10^step
        # pass 64 bits
        seq = geometric_sequence(r, N)
        th = thin(seq, N)
        xs = [Fraction(j, th.K) for j in range(th.K)]
        eps = turan.block_epsilon(seq, N)
        assert th.rho == r.denominator ** th.step
        for lo, hi in [(Fraction(0), Fraction(1)), (Fraction(1, 7), Fraction(9, 14))]:
            want = wide_band_search(tuple(th.terms), xs, eps, lo, hi)
            assert Fraction(*_greedy_band_search(th, *over(xs), lo, hi)) == centre(want)

    @pytest.mark.parametrize("r", [Fraction(3), Fraction(5, 2), Fraction(3, 2)])
    def test_shifted_intervals_of_find_dilation_block(self, r, monkeypatch):
        seq = geometric_sequence(r, 2048)
        calls = []
        real = turan._greedy_band_search

        def spy(searched, nums, D, lo, hi):
            out = real(searched, nums, D, lo, hi)
            calls.append(((searched, [Fraction(p, D) for p in nums], lo, hi), out))
            return out

        monkeypatch.setattr(turan, "_greedy_band_search", spy)
        N = 1024
        a_N = seq.term(N)
        for lo in (Fraction(1, 3), Fraction(5, 7), Fraction(1, 10**6)):
            find_alpha(seq, N, (lo, lo + Fraction(4, a_N)), N)
        assert len(calls) == 3
        th = thin(seq, N, N)
        eps = turan.block_epsilon(seq, N)
        for (searched, xs, lo, hi), out in calls:
            assert searched.growth_factor_r == r**th.step
            assert searched.deltas == th.deltas
            assert Fraction(*out) == centre(wide_band_search(tuple(th.terms), xs, eps, lo, hi))

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from((1, 2, 4, 3, 9)),
        st.integers(1, 10),
        st.fractions(min_value=Fraction(1, 40), max_value=Fraction(1, 3), max_denominator=40),
        st.fractions(min_value=Fraction(0), max_value=Fraction(1), max_denominator=30),
        st.integers(8, 80),
        st.data(),
    )
    def test_interval_inside_a_band(self, rho, K, eps, lo, first_bits, data):
        # an interval that a band holds whole, at step 1 or mid-run, needs
        # an input that fails a check: a frequency repeated (ratio 1), or an
        # interval shorter than the first band; find_dilation rejects both
        terms, P = short_chain(data, rho, first_bits, K, eps)
        xs = [data.draw(small_fractions) for _ in terms]
        k = data.draw(st.integers(0, K - 1))  # the inside step is step k + 1
        if k == 0:
            a = terms[0]
            hi = lo + eps / a * data.draw(st.fractions(Fraction(1, 100), Fraction(1), max_denominator=100))
            iv = (lo, hi)
            assert_rejected(terms, xs, eps, lo, hi)
        else:
            a = terms[k - 1]
            hi = lo + (1 + 2 * eps) / terms[0]
            iv = fraction_band_search(terms[:k], xs[:k], eps, lo, hi)
        # the band of a centred on the interval: its half width eps'/a is
        # at least the interval's
        c = sum(iv) / 2
        x = c * a - math.floor(c * a)
        freqs, targets = [*terms[:k], a, *terms[k:]], [*xs[:k], x, *xs[k:]]
        kinds = []
        search_outcome(fraction_band_search, freqs, targets, eps, lo, hi, kinds)
        assert kinds[k] == "unchanged"
        assert first_ratio_failure(freqs, eps) == max(k + 1, 2)
        assert_rejected(freqs, targets, eps, lo, hi)

    def test_one_bumped_term_falls_back_to_the_wide_step(self):
        # one term raised by 2^100: the steps into and out of it read the
        # deltas 2^100 and -3^step * 2^100, exact as every other step
        seq = geometric_sequence(Fraction(3), 2048)
        th = thin(seq, 2048)
        terms = list(th.terms)
        k = len(terms) // 2
        terms[k] += 1 << 100
        xs = [Fraction(j, th.K) for j in range(th.K)]
        eps = turan.block_epsilon(seq, 2048)
        ratio = th.growth_factor_r
        want = wide_band_search(terms, xs, eps, Fraction(0), Fraction(1))
        assert greedy(terms, xs, Fraction(0), Fraction(1), ratio) == centre(want)
        bumped = ThinnedSequence(seq, th.l, th.step, th.K, tuple(terms), th.xi)
        assert bumped.deltas[k - 1] == 1 << 100
        assert bumped.deltas[k] == -ratio.numerator << 100
        # and the certificate of the bumped list passes its postcondition
        cert = find_dilation(bumped, *over(xs), eps)
        assert all(c.achieved <= eps for c in cert.constraints)


class TestNestedBands:
    """The two lemmas of the turan module docstring: on chains that pass the
    ratio check, with hi - lo >= (1 + 2*eps)/a~_1, every step of the
    interval search keeps the whole band it chooses, and the centre
    recurrence returns the midpoint of the last one."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from((1, 2, 4, 3, 9)),
        st.integers(1, 12),
        st.fractions(min_value=Fraction(1, 40), max_value=Fraction(400), max_denominator=40),
        small_fractions,
        st.fractions(min_value=Fraction(0), max_value=Fraction(2), max_denominator=30),
        st.integers(1, 80),
        st.data(),
    )
    def test_every_band_nests_and_the_centre_is_its_midpoint(self, rho, K, eps, lo, extra, first_bits, data):
        terms, P = short_chain(data, rho, first_bits, K, eps)
        xs = [data.draw(small_fractions) for _ in terms]
        hi = lo + (1 + 2 * eps) / terms[0] * (1 + extra)
        assert passes_checks(terms, eps, lo, hi)
        # deltas of either sign: short (P/rho), wide positive (1/rho and 1)
        # and wide negative ((P + 1)/rho)
        ratio = data.draw(st.sampled_from([Fraction(P, rho), Fraction(1, rho), Fraction(P + 1, rho), Fraction(1)]))
        kinds = []
        want = fraction_band_search(terms, xs, eps, lo, hi, kinds)
        assert kinds == ["banded"] * K
        assert greedy(terms, xs, lo, hi, ratio) == centre(want)


RATIOS = [Fraction(5, 2), Fraction(3, 2), Fraction(7, 3), Fraction(11, 10), Fraction(3), Fraction(2)]


def loaded_with_a_bump(n, pick, bump, block):
    """A file of the 2n terms 3^k, declared at ratio 2, loaded after the
    term that the thinning of N = n (at offset n if block, else 0) takes
    as a~_pick has been raised by bump; a~_pick + bump stays below
    3/2 * a~_pick, so the file keeps ratio 2."""
    plain = [3**k for k in range(1, 2 * n + 1)]
    th = thin(geometric_sequence(Fraction(2), 2 * n), n, n if block else 0)
    i = th.index_offset + pick * th.step - 1
    plain[i] += 1 + bump % max(plain[i] // 2, 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "seq.txt")
        save_sequence(path, LacunarySequence(plain, Fraction(2)))
        return load_sequence(path)


class TestThinnedRelation:
    """A thinning is its recurrence at r^step: rho*a~_(n+1) = p^step*a~_n +
    delta~_n holds for every pair, and residues() and the band search that
    read it match the product oracle and the wide-step search."""

    @pytest.mark.parametrize("block", [False, True], ids=["thin", "thin_block"])
    @pytest.mark.parametrize("r", RATIOS + [None], ids=[*map(str, RATIOS), "bumped-file"])
    @settings(max_examples=6, deadline=None)
    @given(
        st.sampled_from((64, 256, 1024)),
        st.integers(0, 1 << 900).map(lambda m: m | 1),
        st.fractions(min_value=Fraction(0), max_value=Fraction(1, 2), max_denominator=1 << 20),
        st.data(),
    )
    def test_relation_residues_and_bands(self, r, block, n, m, lo, data):
        if r is None:  # a loaded file with one bumped term
            pick = data.draw(st.integers(1, thin(geometric_sequence(Fraction(2), n), n).K))
            seq = loaded_with_a_bump(n, pick, data.draw(st.integers(0, 1 << 200)), block)
        else:
            seq = geometric_sequence(r, 2 * n)
        th = thin(seq, n, n if block else 0)
        terms = list(th.terms)
        first = th.index_offset + th.step
        assert terms == list(seq.terms[first - 1 : first + (th.K - 1) * th.step : th.step])
        ratio = seq.growth_factor_r**th.step
        p, rho = ratio.numerator, ratio.denominator
        assert th.growth_factor_r == ratio and th.rho == rho
        assert [rho * b - p * a for a, b in zip(terms, terms[1:])] == list(th.deltas)
        P = alpha_precision(seq.terms)
        alpha = DyadicReal(m, -P, P)
        assert list(residues(alpha, th)) == [(m * a) & ((1 << P) - 1) for a in terms]
        xs = [data.draw(small_fractions) for _ in terms]
        eps = turan.block_epsilon(seq, n)
        want = wide_band_search(terms, xs, eps, lo, lo + Fraction(1, 2))
        assert Fraction(*_greedy_band_search(th, *over(xs), lo, lo + Fraction(1, 2))) == centre(want)


class TestJStep:
    """The band search carries j alone: j' = floor(P*j/rho) + e, with e
    exact where d = 0, from the frozen view of c where that decides it, and
    by the exact rule elsewhere.  Its centre is the midpoint of both
    references' last band, at every rho, at the chain's own ratio (short
    deltas) and at ratios that make the deltas wide, of either sign.  The
    chains start at 2 to 40 bits with deltas up to 2^40, so the view is
    frozen partway along most of them."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from((1, 2, 8, 1 << 40, 3, 10)),
        st.integers(1, 40),
        st.fractions(min_value=Fraction(1, 40), max_value=Fraction(1, 3), max_denominator=40),
        st.fractions(min_value=Fraction(0), max_value=Fraction(1), max_denominator=30),
        st.data(),
    )
    def test_matches_both_references(self, rho, K, eps, lo, data):
        terms, P = short_chain(data, rho, data.draw(st.integers(2, 40)), K, eps)
        xs = [data.draw(small_fractions) for _ in terms]
        hi = lo + (1 + 2 * eps) / terms[0]
        # the chain's own ratio (short deltas); 1, a list of terms (wide
        # positive ones); 1/rho (wide positive) and (P + 1)/rho (wide negative)
        ratio = data.draw(st.sampled_from([Fraction(P, rho), Fraction(1), Fraction(1, rho), Fraction(P + 1, rho)]))
        got = greedy(terms, xs, lo, hi, ratio)
        assert got == centre(wide_band_search(terms, xs, eps, lo, hi))
        assert got == centre(fraction_band_search(terms, xs, eps, lo, hi))

    @pytest.mark.parametrize("guard", [1 << 20, -(1 << 20)], ids=["never-frozen", "frozen-at-once"])
    @pytest.mark.parametrize("r", [Fraction(3), Fraction(5, 2), Fraction(4, 3), Fraction(11, 10), Fraction(2)])
    def test_same_centres_without_the_frozen_view(self, r, guard, monkeypatch):
        # never frozen: every step with d != 0 takes the exact rule; frozen
        # at the first exact step and tried on every d: most steps straddle
        # an integer and fall back
        seq = geometric_sequence(r, 4096)
        th = thin(seq, 4096)
        xs = [Fraction(j, th.K) for j in range(th.K)]
        lo, hi = Fraction(1, 7), Fraction(9, 14)
        want = _greedy_band_search(th, *over(xs), lo, hi)
        monkeypatch.setattr(turan, "_FREEZE_GUARD", guard)
        assert _greedy_band_search(th, *over(xs), lo, hi) == want

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((1, 2, 3, 10)),
        st.integers(2, 30),
        st.fractions(min_value=Fraction(1, 40), max_value=Fraction(1, 3), max_denominator=40),
        st.sampled_from([1 << 20, -(1 << 20)]),
        st.data(),
    )
    def test_chains_without_the_frozen_view(self, rho, K, eps, guard, data):
        terms, P = short_chain(data, rho, data.draw(st.integers(2, 40)), K, eps)
        xs = [data.draw(small_fractions) for _ in terms]
        lo = Fraction(0)
        hi = (1 + 2 * eps) / terms[0]
        want = greedy(terms, xs, lo, hi, Fraction(P, rho))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(turan, "_FREEZE_GUARD", guard)
            assert greedy(terms, xs, lo, hi, Fraction(P, rho)) == want


def spy_term_walks(monkeypatch):
    """Record, for every walk of a ThinnedSequence's terms (m = 1, no
    mask), the indices it steps over from its checkpoint and those it
    yields: (stepped, read) lists, filled as the walks run."""
    stepped, read = [], []
    real = Recurrence._stream

    def spy(self, i, m=1, mask=None):
        walk = real(self, i, m, mask)
        if m != 1 or mask is not None:
            return walk
        stepped.extend(range(i - i % self.stride, i))

        def recorded():
            for n, y in enumerate(walk, i):
                stepped.append(n)
                read.append(n)
                yield y

        return recorded()

    monkeypatch.setattr(ThinnedSequence, "_stream", spy)
    return stepped, read


class TestTermReads:
    """find_alpha reads thinned terms only where a decision needs one."""

    def test_integer_ratio_reads_the_first_and_last_term(self, monkeypatch):
        seq = geometric_sequence(Fraction(3), 2**16)
        stepped, read = spy_term_walks(monkeypatch)
        cert = find_alpha(seq, 2**16)
        # a~_1 by find_dilation's checks and by the search's first step
        assert sorted(set(read)) == [0, cert.parameters.K - 1]
        assert len(stepped) <= 2 + thin(seq, 2**16).stride
        assert cert.parameters.delta_lower is None

    def test_fallbacks_stay_within_one_walk(self, monkeypatch):
        seq = geometric_sequence(Fraction(5, 2), 2**16)
        K = thin(seq, 2**16).K
        stepped, read = spy_term_walks(monkeypatch)
        cert = find_alpha(seq, 2**16)
        # a~_1, the few exact steps while a~ is short, and a~_K; the walks
        # together step over fewer terms than one walk of the K terms
        assert sorted(set(read))[0] == 0 and read[-1] == K - 1
        assert len(read) <= 32
        assert len(stepped) <= K
        assert cert.parameters.delta_lower == thin(seq, 2**16).terms[0]


def relation_chain(data, rho, M):
    """Terms with rho*a_(k+1) = P*a_k + d_k for one drawn P, so that
    c' = rho*(M + 1) - P takes either sign, and d_k of either sign."""
    P = data.draw(st.integers(1, 3 * rho * (M + 1)))
    terms = [data.draw(st.integers(1, 1 << 20))]
    for _ in range(data.draw(st.integers(0, 6))):
        d = data.draw(st.one_of(st.integers(0, 1 << 30), st.integers(-(1 << 30), 1 << 30)))
        terms.append((P * terms[-1] + d) // rho)
    return Recurrence(terms, Fraction(P, rho))


def delta_outcome(f, *args):
    try:
        return f(*args)
    except DeltaUncertifiableError as exc:
        return ("uncertifiable", exc.index)


class TestDeltaFromRelation:
    """find_dilation reads delta_lower_bound from the relation where it
    decides it: a~_1 where c' = rho*(M + 1) - P <= 0 <= min delta_n, the
    failure at n = 2 where the relation puts the second margin at or below
    0; the walk decides every other chain, and the outcome is the walk's."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from((1, 2, 3, 10)), st.integers(1, 12), st.data())
    def test_matches_the_walked_bound(self, rho, M, data):
        seq = relation_chain(data, rho, M)
        a1, dmin = seq.terms[0], min(seq.deltas, default=0)
        got = delta_outcome(turan._delta_from_relation, seq, a1, dmin, M)
        assert got == delta_outcome(delta_lower_bound, seq, M)

    @pytest.mark.parametrize("r", [Fraction(2), Fraction(5, 2), Fraction(11, 10), Fraction(3), Fraction(4, 3)])
    def test_find_alpha_thinnings(self, r, monkeypatch):
        walked = []
        monkeypatch.setattr(turan, "delta_lower_bound", lambda *args: walked.append(args) or delta_lower_bound(*args))
        seq = geometric_sequence(r, 4096)
        th = thin(seq, 4096)
        M = turan_M(turan.block_epsilon(seq, 4096), th.K)
        got = delta_outcome(turan._delta_from_relation, th, th.terms[0], min(th.deltas), M)
        assert got == delta_outcome(delta_lower_bound, th, M)
        # no thinning of a lacunary sequence here needs the walk
        assert walked == []
