import itertools
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna.errors import (
    MalformedSequenceFileError,
    NBelowThresholdError,
    NotLacunaryError,
    SequenceTooShortError,
)
from lacuna import sequences
from lacuna.sequences import (
    PREC,
    LacunarySequence,
    Recurrence,
    Walk,
    enclose,
    geometric_sequence,
    ln_bounds,
    ln_lower,
    load_sequence,
    mpf_fraction,
    save_sequence,
    smallest_l,
    thin,
)


class TestLogBounds:
    @given(st.integers(2, 10**9))
    def test_enclosure(self, n):
        lo, hi = ln_bounds(n)
        assert float(lo) <= math.log(n) <= float(hi)
        assert hi - lo < Fraction(1, 1 << 58)

    def test_converter_is_exact_in_any_context(self):
        # a 136-bit value converted at mpmath's default 53 bits
        with mp.workprec(PREC):
            x = mp.log(3)
        assert mp.mp.prec == 53
        assert mpf_fraction(x) == Fraction(*mp.libmp.to_rational(x._mpf_))

    def test_width_below_the_precision_raises(self):
        with mp.workprec(PREC):
            raw = mp.log(3)._mpf_
        lo, hi = enclose(raw, 60)
        assert hi - lo == Fraction(1, 1 << 59)
        with pytest.raises(ValueError):
            enclose(raw, PREC)
        with pytest.raises(ValueError):
            ln_bounds(3, PREC)


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
        terms = list(geometric_sequence(r, n).terms)
        assert all(b >= r * a for a, b in zip(terms, terms[1:]))

    def test_hadamard_check_survives_optimized_mode(self):
        # the construction rests on LacunarySequence's check of its deltas:
        # a failing one raises a coded error naming the term, also under
        # python -O
        code = (
            "from lacuna import sequences\n"
            "from lacuna.errors import NotLacunaryError\n"
            "sequences._first_descent = lambda deltas: 3\n"
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
        [
            Fraction(2), Fraction(3), Fraction(3, 2), Fraction(5, 2), Fraction(7, 3),
            Fraction(11, 10), Fraction(7, 4), Fraction(9, 8),
        ],
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
    """LacunarySequence(terms, r) is the one Hadamard check: delta_n =
    q * a_(n+1) - p * a_n >= 0 for r = p/q."""

    def test_good(self):
        assert LacunarySequence([2, 4, 8], Fraction(2)).deltas == (0, 0)

    def test_first_violation_reported(self):
        # 3 < 2*2 at the pair ending at index 3
        with pytest.raises(NotLacunaryError, match="a_3 < 2 \\* a_2"):
            LacunarySequence([1, 2, 3], Fraction(2))

    def test_rational_ratio(self):
        assert LacunarySequence([2, 3, 5, 8], Fraction(3, 2)).deltas == (0, 1, 1)

    @given(
        st.lists(st.integers(1, 10**30), min_size=1, max_size=12),
        st.sampled_from([Fraction(2), Fraction(3), Fraction(3, 2), Fraction(7, 3)]),
    )
    def test_first_violation_matches_fractions(self, terms, r):
        bad = next(
            (i + 2 for i in range(len(terms) - 1) if terms[i + 1] < r * terms[i]), None
        )
        if bad is None:
            assert list(LacunarySequence(terms, r).terms) == terms
        else:
            with pytest.raises(NotLacunaryError, match=f"a_{bad} < {r} \\* a_{bad - 1}$"):
                LacunarySequence(terms, r)

    def test_rejects_empty_or_nonpositive(self):
        with pytest.raises(NotLacunaryError, match="nonempty and positive"):
            LacunarySequence([], Fraction(2))
        with pytest.raises(NotLacunaryError, match="nonempty and positive"):
            LacunarySequence([0, 1], Fraction(2))
        with pytest.raises(NotLacunaryError, match="a_2 < 2 \\* a_1"):
            LacunarySequence([1, 0], Fraction(2))


class TestThin:
    def test_r2_n1024(self):
        seq = geometric_sequence(Fraction(2), 1024)
        th = thin(seq, 1024)
        assert th.l == 2 and th.step == 12 and th.K == 73
        assert th.terms[0] == seq.term(12)
        assert th.terms == tuple(seq.term(n * 12) for n in range(1, 74))
        # any window of N terms: a~_n is the parent's term offset + n*step
        longer = geometric_sequence(Fraction(2), 2048)
        for offset in (0, 1024, 517):
            th = thin(longer, 1024, offset)
            assert (th.index_offset, th.step, th.K) == (offset, 12, 73)
            assert th.terms == tuple(longer.term(offset + n * 12) for n in range(1, 74))
        with pytest.raises(SequenceTooShortError):
            thin(longer, 1024, 1025)

    def test_r3_n1024(self):
        seq = geometric_sequence(Fraction(3), 1024)
        th = thin(seq, 1024)
        assert th.l == 1 and th.step == 6 and th.K == 147

    def test_r2_n10(self):
        seq = geometric_sequence(Fraction(2), 10)
        th = thin(seq, 10)
        assert th.step == 4 and th.K == 2

    def test_floors_match_mpmath(self, monkeypatch):
        # step = l floor(ln N) and K = floor(N / (l ln N)) against mpmath at
        # 60 digits for every N < 2^16, at l = 1, 2 and 11.  Both floors are
        # non-decreasing in N in thin as in the oracle, so thin is called on
        # both sides of each step of the oracle's floors, the N = floor(e^k)
        # and ceil(e^k) among them; ThinnedSequence is replaced by its
        # arguments, so no window is walked
        monkeypatch.setattr(sequences, "ThinnedSequence", lambda _, l, step, K, *rest: (l, step, K))
        with mp.workdps(60):
            logs = {N: mp.log(N) for N in range(2, 1 << 16)}
            e_edges = {int(f(mp.e**k)) for k in range(1, 12) for f in (mp.floor, mp.ceil)}
        for r, l in ((Fraction(3), 1), (Fraction(2), 2), (Fraction(11, 10), 11)):
            seq = geometric_sequence(r, 1 << 16)
            with mp.workdps(60):
                want = {N: (l * int(mp.floor(ln)), int(mp.floor(N / (l * ln)))) for N, ln in logs.items()}
            edges = e_edges | {N for N in range(3, 1 << 16) if want[N] != want[N - 1]}
            for N in sorted(edges | {N - 1 for N in edges if N > 2} | {(1 << 16) - 1}):
                step, K = want[N]
                if step < 1 or K < 1:
                    with pytest.raises(NBelowThresholdError):
                        thin(seq, N)
                else:
                    assert thin(seq, N) == (l, step, K)

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


def full_width_thinning(seq, N, offset, step, K):
    """The reference thinning: step the window's terms at full width, keep
    every step-th, and subtract neighbouring terms at r^step."""
    window = list(seq.terms[offset : offset + N])
    terms = window[step - 1 : K * step : step]
    ratio = seq.growth_factor_r**step
    deltas = [ratio.denominator * b - ratio.numerator * a for a, b in zip(terms, terms[1:])]
    return deltas, terms[:: math.isqrt(K - 1) + 1]


class TestThinFromDeltas:
    """thin builds its recurrence from the parent's deltas and jumps; the
    full-width walk of the window is the oracle."""

    @pytest.mark.parametrize(
        "r", [Fraction(2), Fraction(3), Fraction(5, 2), Fraction(4, 3), Fraction(11, 10)], ids=str
    )
    def test_matches_the_full_width_walk(self, r):
        N = 1024
        seq = geometric_sequence(r, 2 * N)
        for offset in (0, N, random.Random(str(r)).randrange(1, N)):
            th = thin(seq, N, offset)
            deltas, checkpoints = full_width_thinning(seq, N, offset, th.step, th.K)
            assert list(th.deltas) == deltas
            assert list(th.checkpoints) == checkpoints

    def test_irregular_wide_deltas(self):
        terms = [5]
        for n in range(1, 600):
            terms.append(-(-7 * terms[-1] // 3) + (n * 7919) % 1009 * (1 << n % 90))
        seq = LacunarySequence(terms, Fraction(7, 3))
        for offset in (0, 37, 300):
            th = thin(seq, 300, offset)
            deltas, checkpoints = full_width_thinning(seq, 300, offset, th.step, th.K)
            assert list(th.deltas) == deltas and any(deltas)
            assert list(th.checkpoints) == checkpoints

    def test_steps_the_parent_at_most_one_stride(self):
        # the thinning reads one parent term (a~_1), stepped from the
        # checkpoint below it; a full-width walk of the window would step
        # 2^16 terms
        seq = geometric_sequence(Fraction(3), 1 << 16)
        stream, steps = seq._stream, []

        def spy(i, m=1, mask=None):
            steps.append(i % seq.stride)  # the steps up to the first value
            for y in stream(i, m, mask):
                yield y
                steps.append(1)

        vars(seq)["_stream"] = spy
        th = thin(seq, 1 << 16)
        assert th.K > 5000 and 0 < len(steps) and sum(steps) <= seq.stride


class TestJump:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([1, 2, 3, 10]),
        st.integers(1, 40),
        st.lists(st.integers(-(1 << 80), 1 << 80), min_size=1, max_size=40),
        st.data(),
    )
    def test_matches_m_steps_of_the_walk(self, q, p, terms, data):
        # any list of integers at any ratio: deltas of either sign
        if math.gcd(p, q) != 1:
            p = q + 1
        seq = Recurrence(terms, Fraction(p, q))
        k = data.draw(st.integers(0, len(terms) - 1))
        m = data.draw(st.integers(0, len(terms) - 1 - k))
        A, S, C = seq.jump(k, m)
        assert (A, C) == (p**m, q**m)
        walked = list(itertools.islice(seq._stream(k), m + 1))
        assert walked == terms[k : k + m + 1]
        assert C * walked[-1] == A * walked[0] + S
        with pytest.raises(SequenceTooShortError):
            seq.jump(k, len(terms) - k)


class TestThinBlock:
    def test_offsets(self):
        seq = geometric_sequence(Fraction(3), 128)
        th = thin(seq, 64, 64)
        assert th.index_offset == 64
        assert th.terms[0] == seq.term(64 + th.step)

    def test_needs_2n_terms(self):
        seq = geometric_sequence(Fraction(3), 64)
        with pytest.raises(SequenceTooShortError, match="have 64 terms, need 128"):
            thin(seq, 64, 64)


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

    def test_unreadable_file(self, tmp_path):
        for path, reason in [(tmp_path / "missing.txt", "No such file"), (tmp_path, "Is a directory")]:
            with pytest.raises(MalformedSequenceFileError, match=re.escape(f"{path}: {reason}")):
                load_sequence(path)

    def test_round_trip_past_the_int_to_str_limit(self, tmp_path):
        # 3^n has more than 4300 decimal digits, str(int)'s default limit,
        # from n = 9014 on: those terms are written as 0x hex lines
        seq = geometric_sequence(Fraction(3), 2**14)
        path = tmp_path / "seq.txt"
        save_sequence(path, seq)
        with open(path) as fh:
            lines = fh.read().split("\n")[1:-1]
        hex_from = next(n for n, line in enumerate(lines) if line.startswith("0x"))
        assert all(line.startswith("0x") for line in lines[hex_from:])
        assert not any(line.startswith("0x") for line in lines[:hex_from])
        assert 9000 <= hex_from < 9100
        back = load_sequence(path)
        assert back == seq and back.growth_factor_r == 3

    def test_hex_and_decimal_lines_mix(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("# r=2\n3\n0x7\n 0XF \n31\n")
        assert list(load_sequence(path).terms) == [3, 7, 15, 31]
        path.write_text("# r=2\n3\n0x7g\n")
        with pytest.raises(MalformedSequenceFileError):
            load_sequence(path)


VIEW_RATIOS = [Fraction(2), Fraction(3), Fraction(5, 2), Fraction(3, 2), Fraction(11, 10)]


def wide_delta_terms(r, first, extras):
    """Explicit lacunary terms a_(n+1) = ceil(r * a_n) + e_n: with wide e_n
    the stored delta_n are as wide as the terms."""
    terms = [first]
    for e in extras:
        terms.append(-((-r.numerator * terms[-1]) // r.denominator) + e)
    return terms


def top_bits(values, P):
    """The 64-bit keys of residues mod 2^P: floor(v 2^(64 - P)) for each v."""
    return [v >> (P - 64) if P >= 64 else v << (64 - P) for v in values]


class TestWalk:
    """seq.terms (m = 1, no mask) and seq.residues(m, P) are one view of the
    stored recurrence, y_n = m * a_n masked to P bits when P is given; every
    way of reading it must give the explicit values."""

    @staticmethod
    def check_view(seq, terms, data):
        n = len(terms)
        P = data.draw(st.one_of(st.none(), st.integers(0, terms[-1].bit_length() + 80)), label="P")
        if P is None:
            view, want = seq.terms, terms
        else:
            m = data.draw(st.integers(-(1 << P), 1 << P), label="m")
            view, want = seq.residues(m, P), [m * a & ((1 << P) - 1) for a in terms]
            with pytest.raises(SequenceTooShortError, match=f"have {n} terms, need {n + 1}"):
                seq.residues(m, P, 1, n + 1)
            empty = view[n:].keys()
            assert empty.dtype == np.uint64 and empty.size == 0
            assert view.keys().tolist() == top_bits(want, P)
        assert isinstance(view, Walk)
        assert len(view) == len(seq) == n
        assert list(view) == want
        # equal, value by value, to any sequence of the same integers
        assert view == want and view == tuple(want) and tuple(want) == view
        assert view != want[:-1] and view != [*want[:-1], want[-1] + 1]
        assert [view[i] for i in range(-n, n)] == want + want
        with pytest.raises(IndexError):
            view[n]
        for _ in range(3):
            i = data.draw(st.integers(-n - 2, n + 2))
            j = data.draw(st.one_of(st.none(), st.integers(-n - 2, n)))
            k = data.draw(st.sampled_from([None, 1, 2, 3]))
            part, sub = view[i:j:k], want[i:j:k]
            assert isinstance(part, Walk)
            assert len(part) == len(sub)
            assert list(part) == sub
            assert part[1:] == sub[1:]
            if k in (None, 1) and sub:
                picks = sorted(data.draw(st.sets(st.integers(0, len(sub) - 1), max_size=6)))
                assert list(part.at(picks)) == [sub[x] for x in picks]
                if P is not None:
                    assert part.keys().tolist() == top_bits(sub, P)
        with pytest.raises(ValueError, match="forward only"):
            view[::-1]
        with pytest.raises(SequenceTooShortError, match=f"have {n} terms, need {n + 1}"):
            view[: n + 1]
        # keys and at read a contiguous window; a stepped view has neither
        with pytest.raises(ValueError, match="contiguous"):
            view[::2].keys()
        with pytest.raises(ValueError, match="contiguous"):
            view[::2].at([0])
        assert [seq.term(k) for k in range(1, n + 1)] == terms
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "seq.txt"
            save_sequence(path, seq)
            assert path.read_text().split("\n")[1:-1] == [str(t) for t in terms]
            back = load_sequence(path)
        assert back == seq and list(back.terms) == terms

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(VIEW_RATIOS), st.integers(1, 300), st.data())
    def test_geometric_view_matches_explicit_terms(self, r, n, data):
        seq = geometric_sequence(r, n)
        want = power_loop_geometric(r, n)
        assert LacunarySequence(want, r) == seq
        self.check_view(seq, want, data)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(VIEW_RATIOS),
        st.integers(1, 1 << 100),
        st.lists(st.integers(0, 1 << 200), max_size=60),
        st.data(),
    )
    def test_loaded_view_with_wide_deltas(self, r, first, extras, data):
        want = wide_delta_terms(r, first, extras)
        seq = LacunarySequence(want, r)
        assert seq.deltas == tuple(
            r.denominator * b - r.numerator * a for a, b in zip(want, want[1:])
        )
        self.check_view(seq, want, data)


# q in {1, 2, 4, 8}: the ratios whose keys the key walk reads
KEY_RATIOS = [
    Fraction(3), Fraction(4), Fraction(5, 2), Fraction(3, 2), Fraction(7, 4), Fraction(9, 8),
]


def exact_keys(seq, m, P, n, start=1):
    """The oracle of the keys of seq.residues(m, P, start, n): the top bits
    of each exact residue."""
    return top_bits(seq.residues(m, P, start, n), P)


def key_walk_floor(seq, n, start=1):
    """64 + G: the least P at which the keys of a_start..a_n take the key
    walk, which steps from the checkpoint at or below a_start."""
    p, q = seq.growth_factor_r.numerator, seq.growth_factor_r.denominator
    k = (start - 1) - (start - 1) % seq.stride
    dmax = max(seq.deltas[k : n - 1], default=0)
    block = max(1, sequences._JUMP_BITS // p.bit_length())
    return 64 + sequences._key_guard(p, q.bit_length() - 1, block, dmax)


def takes_byte_windows(seq, n, start=1):
    """Whether the keys of a_start..a_n come from byte windows: at an
    integer ratio p, a power of two, every term from the checkpoint at or
    below a_start to a_n is a power of two, p times the one before."""
    p, q = seq.growth_factor_r.numerator, seq.growth_factor_r.denominator
    k = (start - 1) - (start - 1) % seq.stride
    terms = list(seq.terms[k:n])
    return (
        q == 1
        and p & (p - 1) == 0
        and all(a & (a - 1) == 0 for a in terms)
        and all(b == p * a for a, b in zip(terms, terms[1:]))
    )


class TestKeyWalk:
    """Walk.keys reads most keys from a window between exact jumps; every key
    must equal the top 64 bits of the exact residue, on the walk and off it."""

    @staticmethod
    def walk(seq, m, P, n, patch, start=1):
        """(keys, whether the key walk ran, terms the exact walk stepped to
        inside it)."""
        ran, steps = [], []
        window_keys, stream = Recurrence._window_keys, Recurrence._stream

        def spy_walk(self, *args):
            ran.append(True)
            for key in window_keys(self, *args):
                yield key

        def spy_stream(self, *args):
            for y in stream(self, *args):
                steps.append(ran[:1])
                yield y

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Recurrence, "_window_keys", spy_walk)
            mp.setattr(Recurrence, "_stream", spy_stream)
            patch(mp)
            keys = seq.residues(m, P, start, n).keys().tolist()
        return keys, bool(ran), sum(1 for inside in steps if inside)

    @settings(max_examples=80, deadline=None)
    @given(
        r=st.sampled_from(KEY_RATIOS),
        first=st.integers(1, 1 << 70),
        extras=st.one_of(
            st.none(),  # the geometric sequence
            st.lists(st.integers(0, 1 << 12), min_size=1, max_size=300),
            st.lists(st.integers(0, 1 << 200), min_size=1, max_size=40),
        ),
        # B = 1 at 1 bit, else about jump_bits / bits(p) terms per block
        jump_bits=st.sampled_from([None, 1, 8, 30, 200]),
        # a short G makes carries into the key common, and fallbacks with them
        guard=st.sampled_from([None, 0, 8, 24]),
        offset=st.one_of(st.integers(-2, 2), st.integers(3, 3000)),
        data=st.data(),
    )
    def test_matches_top_bits_of_residues(self, r, first, extras, jump_bits, guard, offset, data):
        if extras is None:
            terms = power_loop_geometric(r, data.draw(st.integers(1, 300)))
        else:
            terms = wide_delta_terms(r, first, extras)
        seq = LacunarySequence(terms, r)
        n = data.draw(st.integers(1, len(terms)))
        start = data.draw(st.one_of(st.just(1), st.integers(1, n)))  # a window from a_start

        def patch(mp):
            if jump_bits is not None:
                mp.setattr(sequences, "_JUMP_BITS", jump_bits)
            if guard is not None:
                mp.setattr(sequences, "_key_guard", lambda *args: guard)

        with pytest.MonkeyPatch.context() as mp:
            patch(mp)
            P = max(key_walk_floor(seq, n, start) + offset, 0)
        m = data.draw(st.integers(-(1 << P), 1 << P))
        keys, ran, steps = self.walk(seq, m, P, n, patch, start)
        assert keys == exact_keys(seq, m, P, n, start)
        assert ran == (offset >= 0 and not takes_byte_windows(seq, n, start))
        assert steps <= n  # the fallbacks share one exact walk

    @pytest.mark.parametrize("r", KEY_RATIOS)
    def test_every_key_from_the_exact_fallback(self, r):
        # carry bounds past 2^G fail every read from the window; the powers
        # of 4 take byte windows instead, and three times them the key walk
        geometric = geometric_sequence(r, 200)
        for seq in (geometric, LacunarySequence([3 * a for a in geometric.terms], r)):
            n, P = 187, key_walk_floor(seq, 187) + 50
            m = -(3**P % (1 << P))

            def patch(mp):
                bounds = sequences._carry_bounds
                mp.setattr(sequences, "_carry_bounds", lambda *a: [e + (1 << P) for e in bounds(*a)])

            keys, ran, steps = self.walk(seq, m, P, n, patch)
            windows = takes_byte_windows(seq, n)
            assert ran != windows and steps == (0 if windows else n)
            assert keys == exact_keys(seq, m, P, n)

    @pytest.mark.parametrize("r", KEY_RATIOS)
    def test_window_bounds_every_delta_from_its_checkpoint(self, r):
        # the walk of a window from a_5 steps from the checkpoint a_1, over
        # the one wide delta (a_1 to a_2); a carry bound read from the
        # window's own deltas would miss it and read wrong keys from H
        seq = LacunarySequence(wide_delta_terms(r, 1, [1 << 300] + [0] * 98), r)
        start, n = 5, len(seq)
        P = seq.term(n).bit_length() + 64
        m = 7**P % (1 << P)

        def patch(mp):
            mp.setattr(sequences, "_key_guard", lambda *args: 8)

        keys, ran, _ = self.walk(seq, m, P, n, patch, start)
        assert ran
        assert keys == exact_keys(seq, m, P, n, start)

    @pytest.mark.parametrize(
        "seq",
        [
            geometric_sequence(Fraction(4, 3), 300),  # odd q
            Recurrence([5, 9, 30, 80, 150, 600], Fraction(5, 2)),  # a delta < 0
            Recurrence([3, 9, 20, 61, 160, 500], Fraction(3)),
        ],
        ids=["r=4/3", "q=2 descent", "q=1 descent"],
    )
    def test_exact_walk_only(self, seq):
        n = len(seq)
        P = key_walk_floor(seq, n) + 100
        m = 7**P % (1 << P)
        keys, ran, _ = self.walk(seq, m, P, n, lambda mp: None)
        assert not ran
        assert keys == exact_keys(seq, m, P, n)


class TestByteWindows:
    """Walk.keys reads the keys of a window of powers of two,
    2^(e0 + t j) at r = 2^t, from byte windows of m; every key must equal
    the top 64 bits of the exact residue."""

    @staticmethod
    def keys(seq, m, P, start, stop):
        """(keys, whether the byte windows were read)."""
        calls = []
        real = sequences._byte_window_keys

        def spy(*args):
            calls.append(args)
            return real(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sequences, "_byte_window_keys", spy)
            keys = seq.residues(m, P, start, stop).keys().tolist()
        return keys, bool(calls)

    @settings(max_examples=150, deadline=None)
    @given(
        t=st.sampled_from([1, 2, 3]),
        e0=st.integers(0, 100),
        n=st.integers(1, 300),
        data=st.data(),
    )
    def test_matches_top_bits_of_residues(self, t, e0, n, data):
        seq = LacunarySequence([1 << e0 + t * i for i in range(n)], Fraction(1 << t))
        start = data.draw(st.integers(1, n), label="start")
        stop = data.draw(st.integers(start, n), label="stop")
        top = seq.term(stop).bit_length()
        P = data.draw(
            st.one_of(
                st.sampled_from([0, 1, 64]),
                st.integers(2, 63),
                st.integers(65, top + 64),
                st.integers(top + 64, top + 300),  # past the last term's bits
            ),
            label="P",
        )
        m = data.draw(st.integers(-(1 << P + 70), 1 << P + 70), label="m")  # wider than P
        keys, read = self.keys(seq, m, P, start, stop)
        assert read
        assert keys == exact_keys(seq, m, P, stop, start)

    @pytest.mark.parametrize(
        "terms, r, late",
        [
            ([3] + [1 << i for i in range(3, 51)], Fraction(2), True),  # a_1 = 3, then 2^i
            ([2] + [5 << i for i in range(49)], Fraction(2), False),  # a_1 = 2, then 5 * 2^i
            ([3**i for i in range(50)], Fraction(3), False),  # a_1 = 1 at an odd ratio
        ],
        ids=["odd first", "odd factor", "odd ratio"],
    )
    def test_reads_from_its_checkpoint(self, terms, r, late):
        # a window reads byte windows only at a power-of-two ratio, from a
        # power-of-two checkpoint with every delta 0 from there on; late:
        # whether the windows past the first checkpoint do
        seq = LacunarySequence(terms, r)
        P = seq.term(len(seq)).bit_length() + 70
        m = 7**P % (1 << P)
        for start in range(1, len(seq) + 1):
            keys, read = self.keys(seq, m, P, start, None)
            assert read == (late and start > seq.stride)
            assert keys == exact_keys(seq, m, P, len(seq), start)


class TestRecurrenceMemory:
    """A geometric sequence keeps its deltas and about sqrt(N) checkpoints,
    not N wide terms (those would be 256 MiB at r = 2, N = 2^16)."""

    @pytest.mark.parametrize("r, n", [(Fraction(2), 1 << 16), (Fraction(3), 1 << 15)])
    def test_retains_under_8_mb(self, r, n):
        tracemalloc.start()
        try:
            seq = geometric_sequence(r, n)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(seq) == n
        assert retained < 8 << 20

    def test_thinning_retains_under_4_mb(self):
        # a thinning keeps its deltas at r^step and about sqrt(K) checkpoints,
        # not its K wide terms (38 MB here)
        n = 1 << 16
        seq = geometric_sequence(Fraction(3), n)
        tracemalloc.start()
        try:
            th = thin(seq, n)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert th.K > 5000 and len(th.checkpoints) <= th.stride
        assert retained < 4 << 20
