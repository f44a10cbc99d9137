import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna.bump import standard_bump
from lacuna.dyadic import DyadicReal, alpha_precision, dilate, dyadic_to_float, gap_report
from lacuna.errors import (
    FitUnderdeterminedError,
    MeasureUnsupportedError,
    QuadratureUnderresolvedError,
)
from lacuna.metric import (
    MetricParameters,
    dispersion_scan,
    exp_moment_check,
    exponent_fit,
    fourier_tail_bound,
    iid_baseline,
    linear_independence_bound,
    sample_alpha,
    smooth_count_direct,
    smooth_count_fourier,
)
from lacuna.sequences import geometric_sequence, thin


def frac_float(alpha, a):
    """The float view of the fractional part {alpha * a}, from Fractions."""
    v = alpha.to_fraction() * a % 1
    return dyadic_to_float(v.numerator, 1 - v.denominator.bit_length())


@pytest.fixture(scope="session")
def bump():
    return standard_bump()


@pytest.fixture(scope="module")
def seq2():
    return geometric_sequence(Fraction(2), 4096)


class TestMetricParameters:
    def test_scales_at_n_4096(self):
        par = MetricParameters.for_n(4096)
        ln_n = math.log(4096)
        eps = 0.05
        assert par.q.to_float() == pytest.approx(ln_n ** (1 + 2 * eps), rel=1e-12)
        assert par.m.to_float() == pytest.approx(ln_n ** (2 + 4 * eps), rel=1e-12)
        assert par.p.to_float() == pytest.approx(ln_n ** (2 + 3 * eps), rel=1e-12)
        assert par.k_cut == int(4096 / ln_n ** 2.15)

    def test_taylor_premise_exact(self):
        for n in (64, 1024, 10**6):
            par = MetricParameters.for_n(n)
            assert par.taylor_premise() == Fraction(1, 5)
            assert par.m.to_fraction() == par.q.to_fraction() ** 2
            assert par.m.precision_bits == par.q.precision_bits

    def test_domain(self):
        with pytest.raises(ValueError):
            MetricParameters.for_n(2)
        with pytest.raises(ValueError):
            MetricParameters.for_n(100, epsilon=0)


def stepwise_bounded_cf(bound, seed, precision_bits):
    """The bounded-cf sampler one quotient at a time: the reference for
    sample_alpha's product-tree rounds.  Also returns bit_length(q_k) for
    every convergent k = 0, 1, ..."""
    rng = random.Random(seed)
    p, q = 0, 1
    pm1, qm1 = 1, 0
    bits = [1]
    while q.bit_length() <= precision_bits + 16:
        c = rng.randint(1, bound)
        p, pm1 = c * p + pm1, p
        q, qm1 = c * q + qm1, q
        bits.append(q.bit_length())
    return DyadicReal.from_fraction(Fraction(p, q), precision_bits), bits


class TestSampling:
    def test_lebesgue_deterministic(self):
        a = sample_alpha("lebesgue", 7)
        b = sample_alpha("lebesgue", 7)
        c = sample_alpha("lebesgue", 8)
        assert a == b and a != c
        assert Fraction(0) <= a.to_fraction() < 1

    def test_bounded_cf_has_bounded_quotients(self):
        from lacuna.cf import expand

        a = sample_alpha("bounded-cf:3", 11, precision_bits=160)
        cf = expand(a, 30)
        assert all(1 <= c <= 3 for c in cf.partial_quotients[:25])

    def test_bad_measure(self):
        with pytest.raises(MeasureUnsupportedError):
            sample_alpha("gauss", 1)
        with pytest.raises(MeasureUnsupportedError):
            sample_alpha("bounded-cf:0", 1)

    @pytest.mark.parametrize(
        "measure",
        [
            "bounded-cf(5", "bounded-cf:5)", "bounded-cf:5))", "bounded-cf(5))",
            "bounded-cf:(5)", "bounded-cf:", "bounded-cf()", "bounded-cf: 5",
            "bounded-cf:5x", "bounded-cf:-3", "bounded-cf5",
        ],
    )
    def test_malformed_bounded_cf_rejected(self, measure):
        with pytest.raises(MeasureUnsupportedError):
            sample_alpha(measure, 1)

    def test_both_bounded_cf_spellings(self):
        a = sample_alpha("bounded-cf:5", 3, 200)
        assert sample_alpha("bounded-cf(5)", 3, 200) == a
        assert sample_alpha(" Bounded-CF:5 ", 3, 200) == a


class TestBoundedCfRounds:
    @pytest.mark.parametrize("bound", [1, 2, 3, 5, 1000])
    @pytest.mark.parametrize("precision", [1, 96, 160, 192, 1100, 13049, 65601])
    def test_matches_the_stepwise_loop(self, bound, precision):
        for seed in range(5):
            want, _ = stepwise_bounded_cf(bound, seed, precision)
            assert sample_alpha(f"bounded-cf:{bound}", seed, precision) == want

    def test_multi_quotient_round_ending_at_the_horizon(self):
        # B = 1000, seed 2, 88 bits: horizon H = 104 and width w = 10.  One
        # round of two quotients lands on bit_length exactly H, which must not
        # stop the loop: the stop needs more than H bits.
        want, bits = stepwise_bounded_cf(1000, 2, 88)
        horizon, width = 88 + 16, (1000 + 1).bit_length()
        k, rounds = 0, []
        while bits[k] <= horizon:
            m = max(1, (horizon - bits[k]) // width)
            k += m
            rounds.append((m, bits[k]))
        assert (2, horizon) in rounds
        assert sample_alpha("bounded-cf:1000", 2, 88) == want


class TestDispersionScan:
    def test_truncated_matches_exact(self, seq2):
        alphas = [sample_alpha("lebesgue", s, 1100) for s in range(3)]
        ns = [256, 1024]
        table = dispersion_scan(seq2, alphas, ns)
        assert [(r.alpha_id, r.n) for r in table.rows] == [
            (aid, n) for aid in range(3) for n in ns
        ]
        for row in table.rows:
            exact = gap_report(dilate(alphas[row.alpha_id], seq2, 1, row.n))
            assert abs(row.max_gap - exact.max_gap.to_fraction()) <= Fraction(1, 1 << 62)

    def test_pow2_fast_path_matches_generic(self):
        seq = geometric_sequence(Fraction(2), 2048)
        alpha = sample_alpha("lebesgue", 42, 128)
        from lacuna.metric import _pow2_truncated_points, _truncated_points

        fast = _pow2_truncated_points(alpha, 1, 2048)
        slow = _truncated_points(alpha, seq.terms[:2048], seq.rho)
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("r", [Fraction(3), Fraction(5, 2)])
    def test_truncated_stream_is_top_bits_of_exact_residues(self, r):
        from lacuna.metric import _truncated_points

        seq = geometric_sequence(r, 300)
        alpha = sample_alpha("lebesgue", 5, 600)
        exact = dilate(alpha, seq)
        shift = -exact.exponent - 64
        assert shift > 0
        want = [v >> shift for v in exact.residues]
        assert _truncated_points(alpha, seq.terms, seq.rho).tolist() == want

    def test_five_halves_scan_reads_top_bits_of_exact_residues(self, monkeypatch):
        # dispersion_scan streams r = 5/2 through the q = 2 recurrence; every
        # truncated point must be the top 64 bits of m * a & mask
        from lacuna import metric

        seq = geometric_sequence(Fraction(5, 2), 1500)
        alphas = [sample_alpha("lebesgue", s, alpha_precision(seq.terms)) for s in (3, 4)]
        streams = []
        real = metric._truncated_points

        def spy(alpha, terms, q):
            streams.append((alpha, q, real(alpha, terms, q)))
            return streams[-1][2]

        monkeypatch.setattr(metric, "_truncated_points", spy)
        table = dispersion_scan(seq, alphas, [500, 1500])
        assert [q for _, q, _ in streams] == [2, 2]
        for alpha, _, vals in streams:
            P = -alpha.exponent
            want = [((alpha.mantissa * a) & ((1 << P) - 1)) >> (P - 64) for a in seq.terms]
            assert vals.tolist() == want
        for row in table.rows:
            tops = sorted(streams[row.alpha_id][2][: row.n].tolist())
            gaps = [b - a for a, b in zip(tops, tops[1:])] + [(1 << 64) - tops[-1] + tops[0]]
            assert row.max_gap == Fraction(max(gaps), 1 << 64)

    def test_doubling_path_is_read_from_the_ratio(self, monkeypatch, tmp_path, capsys):
        # r >= 2, a power-of-two a_1 and a_N = a_1 * 2^(N-1) take the byte
        # windows; the same terms under r = 3/2 take the residue stream and
        # print the same bytes
        from lacuna import cli, metric

        calls = []
        real = metric._pow2_truncated_points

        def spy(alpha, e0, n_max):
            calls.append(e0)
            return real(alpha, e0, n_max)

        monkeypatch.setattr(metric, "_pow2_truncated_points", spy)
        alpha = sample_alpha("lebesgue", 1, 128)
        dispersion_scan(geometric_sequence(Fraction(2), 64), [alpha], [64])
        assert calls == [1]

        def scan(header, terms, n_max):
            path = tmp_path / "seq.txt"
            path.write_text(header + "".join(f"{t}\n" for t in terms))
            calls.clear()
            argv = ["metric-scan", "--seq", str(path), "--n-min", "2",
                    "--n-max", str(n_max), "--alphas", "3"]
            assert cli.main(argv) == 0
            return capsys.readouterr().out, bool(calls)

        powers = [2**n for n in range(3, 67)]
        out_2, took_2 = scan("# r=2\n", powers, 64)
        out_3_2, took_3_2 = scan("# r=3/2\n", powers, 64)
        assert took_2 and not took_3_2
        assert out_2 == out_3_2
        assert scan("# r=2\n", [2, 4, 9, 18], 4)[1] is False

    def test_truncated_stream_of_short_alpha(self):
        from lacuna.metric import _truncated_points

        # alpha = 5/1024 has fewer than 64 fractional bits: residues move up
        alpha = DyadicReal(5, -10, 128)
        terms = geometric_sequence(Fraction(3), 40).terms
        want = [math.floor(Fraction(5 * a, 1024) % 1 * (1 << 64)) for a in terms]
        assert _truncated_points(alpha, terms, 1).tolist() == want

    def test_pigeonhole(self, seq2):
        alphas = [sample_alpha("lebesgue", s, 128) for s in range(5)]
        table = dispersion_scan(seq2, alphas, [64, 512, 4096])
        assert table.check_pigeonhole()

    def test_csv_shape(self, seq2):
        table = dispersion_scan(seq2, [sample_alpha("lebesgue", 1, 128)], [64])
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "alpha_id,N,max_gap,norm_log1,norm_log2e"
        assert len(lines) == 2

    def test_input_validation(self, seq2):
        alpha = sample_alpha("lebesgue", 1, 128)
        with pytest.raises(ValueError):
            dispersion_scan(seq2, [alpha], [])
        with pytest.raises(ValueError):
            dispersion_scan(seq2, [alpha], [1 << 20])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**30))
    def test_normalized_columns_consistent(self, seed):
        seq = geometric_sequence(Fraction(2), 256)
        table = dispersion_scan(seq, [sample_alpha("lebesgue", seed, 128)], [256])
        r = table.rows[0]
        assert r.norm_log1 == pytest.approx(256 * float(r.max_gap) / math.log(256))
        assert r.norm_log2e == pytest.approx(
            256 * float(r.max_gap) / math.log(256) ** 2.05
        )


class TestIidBaseline:
    def test_summary_near_one(self):
        stats = iid_baseline(4096, 200, rng_seed=5)
        assert 0.8 <= stats["mean"] <= 1.2
        assert stats["p95"] >= stats["median"] >= 0.5

    def test_deterministic(self):
        assert iid_baseline(512, 50, 3) == iid_baseline(512, 50, 3)


class TestSmoothCounts:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(-(1 << 300), 1 << 300),
        st.integers(-1200, 4),
        st.lists(st.integers(1, 1 << 1024), min_size=1, max_size=20),
    )
    def test_residue_floats_bit_identical_to_frac(self, m, e, terms):
        from lacuna.metric import _residue_floats

        alpha = DyadicReal(m, e, 128)
        want = np.array([frac_float(alpha, a) for a in terms])
        assert _residue_floats(alpha, terms, 1).tobytes() == want.tobytes()

    def test_thinned_floats_bit_identical_to_frac(self, seq2):
        from lacuna.metric import _residue_floats

        th = thin(seq2, 4096)
        alpha = sample_alpha("lebesgue", 13, 128)
        want = np.array([frac_float(alpha, int(a)) for a in th.terms])
        assert _residue_floats(alpha, th.terms, th.rho).tobytes() == want.tobytes()

    def test_five_halves_thinning_reads_its_rho(self, monkeypatch, bump):
        # the window counts step a thinning by rho = 2^step and count what
        # the q = 1 stream counts
        from lacuna import metric

        th = thin(geometric_sequence(Fraction(5, 2), 4096), 4096)
        par = MetricParameters.for_n(4096)
        alpha = sample_alpha("lebesgue", 13, alpha_precision(th.terms))
        seen = []
        real = metric.residues

        def spy(alpha, terms, q):
            seen.append(q)
            return real(alpha, terms, q)

        def counts():
            return (
                smooth_count_direct(alpha, th, 0.3, par, bump),
                smooth_count_fourier(alpha, th, 0.3, par, bump, par.k_cut),
            )

        monkeypatch.setattr(metric, "residues", spy)
        got = counts()
        assert seen == [2**th.step] * 2
        monkeypatch.setattr(metric, "residues", lambda alpha, terms, q: real(alpha, terms, 1))
        assert counts() == got

    def test_direct_counts_all_when_window_wide(self, seq2, bump):
        # widen artificially: every dilate within half-width contributes
        par = MetricParameters.for_n(4096)
        th = thin(seq2, 4096)
        alpha = sample_alpha("lebesgue", 9, 128)
        c = smooth_count_direct(alpha, th, 0.5, par, bump)
        assert c >= 0.0

    def test_fourier_matches_direct(self, seq2, bump):
        par = MetricParameters.for_n(4096)
        th = thin(seq2, 4096)
        alpha = sample_alpha("lebesgue", 13, 128)
        k_max = max(4 * par.k_cut, math.ceil(70 * par.n / par.m.to_float()))
        for t in (0.0, 0.3, 0.77):
            d = smooth_count_direct(alpha, th, t, par, bump)
            f = smooth_count_fourier(alpha, th, t, par, bump, k_max)
            bound = fourier_tail_bound(par, bump, k_max, th.K)
            assert bound <= 1e-6
            assert abs(d - f) <= bound + 1e-9

    def test_k_max_floor_enforced(self, seq2, bump):
        par = MetricParameters.for_n(4096)
        th = thin(seq2, 4096)
        alpha = sample_alpha("lebesgue", 13, 128)
        with pytest.raises(ValueError):
            smooth_count_fourier(alpha, th, 0.0, par, bump, par.k_cut - 1)

    def test_linear_independence(self):
        assert linear_independence_bound((1, 100, 100000), 10)
        assert not linear_independence_bound((1, 5), 10)


class TestExpMoment:
    def test_small_case_both_methods_agree(self, bump):
        par = MetricParameters.for_n(256)
        seq = geometric_sequence(Fraction(2), 256)
        th = thin(seq, 256)
        # the true thinned terms are far beyond Simpson reach; use a toy
        # surrogate with matching independence structure
        from lacuna.sequences import ThinnedSequence

        toy = ThinnedSequence(parent=None, l=1, step=1, K=3, terms=(11, 127, 1501), xi=2.0)
        sim = exp_moment_check(toy, 0.3, par, bump, quadrature_points=1 << 17, method="simpson")
        fac = exp_moment_check(toy, 0.3, par, bump, method="factorized")
        assert sim.lhs == pytest.approx(fac.lhs, rel=1e-10)

    def test_full_scale_passes(self, bump):
        par = MetricParameters.for_n(1024)
        seq = geometric_sequence(Fraction(2), 1024)
        th = thin(seq, 1024)
        chk = exp_moment_check(th, 1 / 3, par, bump)
        assert chk.method == "factorized"
        assert chk.passed
        assert chk.lhs <= 1.1 * chk.rhs

    def test_simpson_underresolved(self, bump):
        par = MetricParameters.for_n(1024)
        seq = geometric_sequence(Fraction(2), 1024)
        th = thin(seq, 1024)
        with pytest.raises(QuadratureUnderresolvedError) as exc:
            exp_moment_check(th, 0.0, par, bump, method="simpson")
        # 8 points per oscillation of the fastest frequency k_cut * a~_K
        assert exc.value.required_points == 8 * par.k_cut * th.terms[-1]
        assert th.terms[-1].bit_length() >= 62

    def test_dependent_terms_rejected_by_factorized(self, bump):
        from lacuna.sequences import ThinnedSequence

        par = MetricParameters.for_n(1024)
        toy = ThinnedSequence(parent=None, l=1, step=1, K=2, terms=(7, 14), xi=2.0)
        with pytest.raises(QuadratureUnderresolvedError):
            exp_moment_check(toy, 0.0, par, bump, method="factorized")


class TestExponentFit:
    def test_doubling_sequence_slope(self):
        seq = geometric_sequence(Fraction(2), 4096)
        alphas = [sample_alpha("lebesgue", s, 128) for s in range(12)]
        table = dispersion_scan(seq, alphas, [64, 256, 1024, 4096])
        fit = exponent_fit(table)
        assert 0.0 < fit.median < 10.0
        assert fit.q25 <= fit.median <= fit.q75
        assert len(fit.per_alpha) == 12

    def test_underdetermined(self):
        seq = geometric_sequence(Fraction(2), 256)
        alphas = [sample_alpha("lebesgue", s, 128) for s in range(3)]
        table = dispersion_scan(seq, alphas, [64, 128, 256])
        with pytest.raises(FitUnderdeterminedError):
            exponent_fit(table)
