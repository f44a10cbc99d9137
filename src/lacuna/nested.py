"""Fixed dilation factor via nested intervals over dyadic blocks.

Block schedule: first 4^k_start terms, then translated blocks (4^k, 2*4^k] for
k = k_start+1..k_end.  Around each block's dilation factor there is a stability
interval of radius tau_k = ln(N_k)/(N_k * a_{N_k}); the next block is searched
inside a centered subinterval of length 4/a_{N_{k+1}}, which must fit in half
the current stability interval (reported as nesting-violated otherwise).  The
midpoint of the final interval works for every block simultaneously, and every
block gap is re-verified directly rather than trusted from the construction:
a block whose verified gap exceeds 3l*ln(N_k)/N_k raises gap-bound-exceeded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dyadic import DyadicReal, alpha_precision, dilate, gap_report
from .errors import GapBoundExceededError, NestingViolatedError, NOutOfRangeError
from .sequences import LacunarySequence, ln_lower, ln_upper, smallest_l
from .turan import find_alpha, find_dilation_block


@dataclass(frozen=True)
class NestedBlock:
    k: int
    n_k: int
    alpha_k: DyadicReal
    tilde_interval: tuple[Fraction, Fraction]
    next_interval: tuple[Fraction, Fraction] | None
    verified_gap: Fraction


@dataclass(frozen=True)
class NestedChain:
    k_start: int
    k_end: int
    blocks: tuple[NestedBlock, ...]
    alpha_final: DyadicReal
    growth_l: int

    def block_indices(self, k: int) -> tuple[int, int]:
        """1-based (start, stop) term indices verified for level k."""
        return _block_window(self.k_start, k)

    def to_json_dict(self) -> dict:
        hex_m, exp = self.alpha_final.hex_pair()
        bits = self.alpha_final.precision_bits

        def hx(iv):
            if iv is None:
                return None
            return [list(DyadicReal.from_fraction(end, bits).hex_pair()) for end in iv]
        return {
            "k_start": self.k_start,
            "k_end": self.k_end,
            "alpha_final_hex_mantissa": hex_m,
            "alpha_final_exponent": exp,
            "alpha_final_decimal": self.alpha_final.decimal_str(40),
            "blocks": [
                {
                    "k": b.k,
                    "n_k": b.n_k,
                    "alpha_k_hex": list(b.alpha_k.hex_pair()),
                    "tilde_interval_hex": hx(b.tilde_interval),
                    "next_interval_hex": hx(b.next_interval),
                    "verified_gap": float(b.verified_gap),
                }
                for b in self.blocks
            ],
        }


def _block_window(k_start: int, k: int) -> tuple[int, int]:
    """The first 4^k_start terms at level k_start, (4^k, 2*4^k] above it."""
    if k == k_start:
        return 1, 4**k
    return 4**k + 1, 2 * 4**k


def _tau(seq: LacunarySequence, n: int) -> Fraction:
    """Stability radius ln(N)/(N * a_N), rounded downward."""
    return ln_lower(n) / (n * seq.term(n))


def gap_bound(l: int, n: int) -> Fraction:
    """The certified gap bound 3*l*ln(N)/N at N = n, logarithm rounded upward."""
    return Fraction(3 * l) * ln_upper(n) / n


def _verified_gap(seq, alpha, start, stop) -> Fraction:
    return gap_report(dilate(alpha, seq, start, stop)).max_gap.to_fraction()


def build_nested_alpha(seq: LacunarySequence, k_start: int, k_end: int) -> NestedChain:
    """Nested-interval chain over blocks N_k = 4^k; returns the final midpoint
    with directly verified per-block gaps.  Raises GapBoundExceededError when
    a block's verified gap exceeds gap_bound(l, N_k)."""
    if not (1 <= k_start <= k_end):
        raise ValueError("need 1 <= k_start <= k_end")
    if len(seq.terms) < 2 * 4**k_end:
        raise ValueError(f"sequence provides {len(seq.terms)} terms, need {2 * 4**k_end}")
    l = smallest_l(seq.growth_factor_r)
    precision = alpha_precision(seq.terms[: 2 * 4**k_end])

    records = []  # (k, n_k, alpha_k, tilde, next_interval)
    n0 = 4**k_start
    cert = find_alpha(seq, n0)
    alpha_f = cert.alpha.to_fraction()
    tau = _tau(seq, n0)
    tilde = (max(alpha_f - tau, Fraction(0)), min(alpha_f + tau, Fraction(1)))
    records.append([k_start, n0, cert.alpha, tilde, None])

    for k in range(k_start + 1, k_end + 1):
        n = 4**k
        width = Fraction(4, seq.term(n))
        t_lo, t_hi = tilde
        if width > (t_hi - t_lo) / 2:
            raise NestingViolatedError(k)
        mid = (t_lo + t_hi) / 2
        nxt = (mid - width / 2, mid + width / 2)
        records[-1][4] = nxt
        cert = find_dilation_block(seq, n, nxt)
        alpha_f = cert.alpha.to_fraction()
        tau = _tau(seq, n)
        tilde = (max(alpha_f - tau, nxt[0]), min(alpha_f + tau, nxt[1]))
        records.append([k, n, cert.alpha, tilde, None])

    final_lo, final_hi = tilde
    alpha_final = DyadicReal.from_fraction((final_lo + final_hi) / 2, precision)

    blocks = []
    for k, n, alpha_k, tl, nxt in records:
        gap = _verified_gap(seq, alpha_final, *_block_window(k_start, k))
        bound = gap_bound(l, n)
        if gap > bound:
            raise GapBoundExceededError(k, gap, bound)
        blocks.append(
            NestedBlock(
                k=k,
                n_k=n,
                alpha_k=alpha_k,
                tilde_interval=tl,
                next_interval=nxt,
                verified_gap=gap,
            )
        )
    return NestedChain(k_start, k_end, tuple(blocks), alpha_final, l)


def interpolate_gap_bound(chain: NestedChain, N: int) -> Fraction:
    """Certified bound for G({alpha * a_n}_{n<=N}) with N between block sizes.

    Uses the largest verified level M_m = 2*4^m with M_m <= N; by set
    monotonicity the block bound 3*l*ln(N_m)/N_m dominates the gap at N.
    """
    lo_n = 2 * 4**chain.k_start
    hi_n = 2 * 4**chain.k_end
    if not (lo_n <= N <= hi_n):
        raise NOutOfRangeError(f"N-out-of-range: {N} not in [{lo_n}, {hi_n}]")
    m = chain.k_start
    while m + 1 <= chain.k_end and 2 * 4 ** (m + 1) <= N:
        m += 1
    return gap_bound(chain.growth_l, 4**m)
