import math
from fractions import Fraction

import pytest

from lacuna import nested
from lacuna.dyadic import DyadicReal, dilate, gap_report
from lacuna.errors import GapBoundExceededError, NOutOfRangeError
from lacuna.nested import build_nested_alpha, gap_bound, interpolate_gap_bound
from lacuna.sequences import geometric_sequence, ln_upper, smallest_l


@pytest.fixture(scope="module")
def chain_r3():
    seq = geometric_sequence(Fraction(3), 2 * 4**4)
    return seq, build_nested_alpha(seq, 3, 4)


class TestChainStructure:
    def test_block_schedule(self, chain_r3):
        _, chain = chain_r3
        assert [b.k for b in chain.blocks] == [3, 4]
        assert chain.blocks[0].n_k == 64 and chain.blocks[1].n_k == 256
        assert chain.block_indices(3) == (1, 64)
        assert chain.block_indices(4) == (257, 512)

    def test_nesting(self, chain_r3):
        _, chain = chain_r3
        for prev, cur in zip(chain.blocks, chain.blocks[1:]):
            lo, hi = prev.next_interval
            t_lo, t_hi = prev.tilde_interval
            assert t_lo <= lo and hi <= t_hi
            assert hi - lo <= (t_hi - t_lo) / 2

    def test_alpha_final_in_every_interval(self, chain_r3):
        _, chain = chain_r3
        av = chain.alpha_final.to_fraction()
        for b in chain.blocks:
            lo, hi = b.tilde_interval
            assert lo <= av <= hi

    def test_verified_gaps_meet_block_bounds(self, chain_r3):
        seq, chain = chain_r3
        l = chain.growth_l
        for b in chain.blocks:
            bound = Fraction(3 * l) * ln_upper(b.n_k) / b.n_k
            assert b.verified_gap <= bound

    def test_verified_gaps_are_recomputations(self, chain_r3):
        seq, chain = chain_r3
        b = chain.blocks[-1]
        start, stop = chain.block_indices(b.k)
        rep = gap_report(dilate(chain.alpha_final, seq, start, stop))
        assert rep.max_gap.to_fraction() == b.verified_gap


    def test_violated_block_bound_raises_coded_error(self, monkeypatch):
        # verify every block at alpha = 0 instead of the chain's alpha: gap 1
        zero = lambda alpha, seq, start, stop: dilate(
            DyadicReal(0, 0, alpha.precision_bits), seq, start, stop
        )
        monkeypatch.setattr(nested, "dilate", zero)
        seq = geometric_sequence(Fraction(3), 2 * 4**3)
        with pytest.raises(GapBoundExceededError) as info:
            build_nested_alpha(seq, 3, 3)
        assert info.value.code == "gap-bound-exceeded"
        detail = info.value.detail
        assert detail["k"] == 3 and detail["gap"] == 1
        assert detail["bound"] == gap_bound(smallest_l(Fraction(3)), 64) < 1


class TestDegenerateChain:
    def test_single_block(self):
        seq = geometric_sequence(Fraction(3), 2 * 4**3)
        chain = build_nested_alpha(seq, 3, 3)
        assert len(chain.blocks) == 1
        b = chain.blocks[0]
        rep = gap_report(dilate(chain.alpha_final, seq, 1, 64))
        bound = Fraction(3) * ln_upper(64) / 64
        assert rep.max_gap.to_fraction() <= bound

    def test_small_start_r2_still_builds(self):
        # thresholds at k_start = 1 evaluate to step 2, K = 1: the chain
        # degenerates but builds; bounds at N = 4 are vacuous (>= 1)
        seq = geometric_sequence(Fraction(2), 2 * 4**2)
        chain = build_nested_alpha(seq, 1, 2)
        assert len(chain.blocks) == 2


class TestInterpolation:
    def test_exact_block_sizes(self, chain_r3):
        seq, chain = chain_r3
        l = chain.growth_l
        assert interpolate_gap_bound(chain, 2 * 4**3) == Fraction(3 * l) * ln_upper(64) / 64
        assert interpolate_gap_bound(chain, 2 * 4**4) == Fraction(3 * l) * ln_upper(256) / 256

    def test_intermediate_n_dominates_gap(self, chain_r3):
        seq, chain = chain_r3
        n = 3 * 4**3  # between 2*4^3 and 2*4^4
        bound = interpolate_gap_bound(chain, n)
        rep = gap_report(dilate(chain.alpha_final, seq, 1, n))
        assert rep.max_gap.to_fraction() <= bound

    def test_out_of_range(self, chain_r3):
        _, chain = chain_r3
        with pytest.raises(NOutOfRangeError):
            interpolate_gap_bound(chain, 2 * 4**3 - 1)
        with pytest.raises(NOutOfRangeError):
            interpolate_gap_bound(chain, 2 * 4**4 + 1)


class TestSerialization:
    def test_json_round_structure(self, chain_r3):
        _, chain = chain_r3
        d = chain.to_json_dict()
        assert d["k_start"] == 3 and d["k_end"] == 4
        assert len(d["blocks"]) == 2
        assert all("tilde_interval_hex" in b for b in d["blocks"])

    def test_block_factors_print_losslessly(self, chain_r3):
        # each block's factor decodes to its DyadicReal, lies in the block's
        # printed tilde interval, and differs from the next block's
        _, chain = chain_r3
        d = chain.to_json_dict()

        def decode(pair):
            m, e = pair
            return int(m, 16) * Fraction(2) ** e

        alphas = []
        for b, block in zip(d["blocks"], chain.blocks):
            alpha = decode(b["alpha_k_hex"])
            assert alpha == block.alpha_k.to_fraction()
            lo, hi = map(decode, b["tilde_interval_hex"])
            assert lo <= alpha <= hi
            alphas.append(alpha)
        assert len(alphas) == 2
        assert all(x != y for x, y in zip(alphas, alphas[1:]))

    def test_printed_intervals_are_proper(self, chain_r3):
        # every printed interval keeps two distinct ends around alpha_final,
        # also where it is far narrower than 2^-192
        _, chain = chain_r3
        d = chain.to_json_dict()
        alpha = chain.alpha_final.to_fraction()

        def decode(end):
            m, e = end
            return int(m, 16) * Fraction(2) ** e

        printed = []
        for b in d["blocks"]:
            printed.append(b["tilde_interval_hex"])
            if b["next_interval_hex"] is not None:
                printed.append(b["next_interval_hex"])
        assert len(printed) == 3
        for iv in printed:
            lo, hi = map(decode, iv)
            assert lo < alpha < hi
