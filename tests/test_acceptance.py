"""Acceptance gate: twelve end-to-end checks with pinned tolerances.

Each test prints exactly one PASS/FAIL line so a log scrape recovers the
whole verdict table.  Tolerances and runtime budgets are fixed here and
nowhere else; loosening them is a change of contract, not a bug fix.
"""

import math
import random
import statistics
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from lacuna.bump import standard_bump
from lacuna.cf import QuadraticReal, expand, lambda_estimate, levy_rate
from lacuna.cli import main as cli_main
from lacuna.dyadic import DilatedSet, dilate, gap_report
from lacuna.littlewood import (
    cz_build,
    cz_recheck,
    exact_product,
    littlewood_scan,
    littlewood_threshold_bounds,
)
from lacuna.metric import (
    MetricParameters,
    dispersion_scan,
    exp_moment_check,
    exponent_fit,
    fourier_tail_bound,
    iid_baseline,
    sample_alpha,
    smooth_count_direct,
    smooth_count_fourier,
)
from lacuna.nested import build_nested_alpha
from lacuna.sequences import ThinnedSequence, geometric_sequence, ln_upper, smallest_l, thin
from lacuna.turan import delta_lower_bound, find_alpha
from lacuna.errors import DeltaUncertifiableError

PHI = QuadraticReal(Fraction(1, 2), Fraction(1, 2), 5)
SQRT2 = QuadraticReal.sqrt(2)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdicts_reach_the_log(capsys):
    # the PASS/FAIL table must survive in any captured log
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def verdict(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {num:02d}] {label}: {status}" + (f" ({detail})" if detail else "")
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"acceptance {num:02d} {label} failed: {detail}"


def test_01_gap_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(20260823)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 1000)
        pts = DilatedSet(tuple(rng.getrandbits(48) for _ in range(n)), -48)
        rep = gap_report(pts)
        fr = sorted(Fraction(r, 1 << 48) for r in pts.residues)
        oracle = max(
            [b - a for a, b in zip(fr, fr[1:])] + [1 - fr[-1] + fr[0]]
        ) if n > 1 else Fraction(1)
        if rep.max_gap.to_fraction() != oracle:
            ok = False
            break
    elapsed = time.time() - t0
    verdict(1, "gap oracle equivalence, 500 configs", ok and elapsed < 10,
            f"elapsed {elapsed:.1f}s")


def test_02_dilation_search_log_over_n():
    t0 = time.time()
    worst = 0.0
    ok = True
    for r in (2, 3):
        l = smallest_l(Fraction(r))
        for N in (2**8, 2**10, 2**12, 2**14):
            seq = geometric_sequence(Fraction(r), N)
            cert = find_alpha(seq, N)
            rep = gap_report(dilate(cert.alpha, seq, 1, N))
            ratio = N * rep.max_gap.to_float() / math.log(N)
            worst = max(worst, ratio / (3 * l))
            if not rep.max_gap.to_fraction() * N <= Fraction(3 * l) * ln_upper(N):
                ok = False
    elapsed = time.time() - t0
    verdict(2, "constructed alpha meets 3l log(N)/N at four scales", ok and elapsed < 60,
            f"worst ratio/limit {worst:.3f}, elapsed {elapsed:.1f}s")


def test_03_delta_certificate_soundness():
    import itertools

    rng = random.Random(7)
    certified = tried = 0
    ok = True
    for K in range(1, 6):
        for M in range(1, 7):
            for _ in range(6):
                terms = [rng.randint(1, 30)]
                for _ in range(K - 1):
                    terms.append(terms[-1] * rng.randint(M + 1, 6 * M) + rng.randint(0, 5))
                th = ThinnedSequence(parent=None, l=1, step=1, K=K, terms=tuple(terms), xi=2.0)
                tried += 1
                try:
                    delta = delta_lower_bound(th, M)
                except DeltaUncertifiableError:
                    continue
                certified += 1
                true_min = min(
                    abs(sum(c * a for c, a in zip(vec, terms)))
                    for vec in itertools.product(range(-M, M + 1), repeat=K)
                    if any(vec)
                )
                if not (0 < delta <= true_min):
                    ok = False
    verdict(3, "delta certificates sound against exhaustive lattice oracle",
            ok and certified > 0, f"{certified}/{tried} certifiable")


def test_04_nested_alpha_all_blocks():
    t0 = time.time()
    seq = geometric_sequence(Fraction(3), 2 * 4**5)
    chain = build_nested_alpha(seq, 3, 5)
    l = chain.growth_l
    ok = True
    details = []
    for b in chain.blocks:
        start, stop = chain.block_indices(b.k)
        rep = gap_report(dilate(chain.alpha_final, seq, start, stop))
        bound = Fraction(3 * l) * ln_upper(b.n_k) / b.n_k
        details.append(f"k={b.k}: {rep.max_gap.to_float():.4f}<={float(bound):.4f}")
        if rep.max_gap.to_fraction() > bound:
            ok = False
    elapsed = time.time() - t0
    verdict(4, "single alpha meets every block bound k=3..5", ok and elapsed < 120,
            "; ".join(details) + f", elapsed {elapsed:.1f}s")


def test_05_statistical_scan_powers_of_two():
    seq = geometric_sequence(Fraction(2), 2**16)
    alphas = [sample_alpha("lebesgue", 5000 + i, 2**16 + 96) for i in range(100)]
    n_list = [2**k for k in range(10, 17)]
    table = dispersion_scan(seq, alphas, n_list, rng_seed=5000, measure_label="lebesgue")
    by_n = {n: [] for n in n_list}
    for r in table.rows:
        by_n[r.n].append(r.n * float(r.max_gap) / math.log(r.n) ** 2.1)
    p95 = [float(np.percentile(by_n[n], 95)) for n in n_list[-3:]]
    med1 = statistics.median(
        r.n * float(r.max_gap) / math.log(r.n) for r in table.rows
    )
    fit = exponent_fit(table)
    ok_a = p95[0] >= p95[1] >= p95[2]
    ok_b = 0.5 <= med1 <= 5
    ok_c = fit.median <= 2.2
    verdict(5, "doubling-sequence gap statistics", ok_a and ok_b and ok_c,
            f"p95 tail {p95[0]:.3f}>={p95[1]:.3f}>={p95[2]:.3f}, "
            f"median N*G/lnN {med1:.3f}, kappa median {fit.median:.3f}")


def test_06_iid_baseline():
    t0 = time.time()
    stats = iid_baseline(10**5, 200, rng_seed=99)
    elapsed = time.time() - t0
    ok = 0.8 <= stats["mean"] <= 1.2 and elapsed < 30
    verdict(6, "iid maximal spacing mean N*G/lnN in [0.8,1.2]", ok,
            f"mean {stats['mean']:.4f}, elapsed {elapsed:.1f}s")


def test_07_poisson_summation_agreement():
    bump = standard_bump()
    par = MetricParameters.for_n(4096)
    seq = geometric_sequence(Fraction(2), 4096)
    th = thin(seq, 4096)
    k_max = max(4 * par.k_cut, math.ceil(70 * par.n / par.m.to_float()))
    tail = fourier_tail_bound(par, bump, k_max, th.K)
    rng = random.Random(321)
    worst = 0.0
    for _ in range(100):
        alpha = sample_alpha("lebesgue", rng.getrandbits(32), 256)
        t = rng.random()
        d = smooth_count_direct(alpha, th, t, par, bump)
        f = smooth_count_fourier(alpha, th, t, par, bump, k_max)
        worst = max(worst, abs(d - f))
    verdict(7, "window count direct vs Fourier within 1e-6 on 100 pairs",
            worst <= 1e-6, f"worst |diff| {worst:.2e}, tail bound {tail:.2e}")


def test_08_exponential_moment():
    t0 = time.time()
    bump = standard_bump()
    ok = True
    details = []
    for N in (256, 1024, 4096):
        seq = geometric_sequence(Fraction(3), N)
        th = thin(seq, N)
        par = MetricParameters.for_n(N)
        for t in (0.0, 1 / 3, 0.77):
            chk = exp_moment_check(th, t, par, bump)
            if not chk.passed:
                ok = False
            details.append(f"N={N},t={t:.2f}: {chk.lhs:.3f}<=1.1*{chk.rhs:.3f}")
    elapsed = time.time() - t0
    verdict(8, "exp moment lhs <= 1.1 rhs for 9 (N,t) pairs", ok and elapsed < 300,
            f"elapsed {elapsed:.1f}s")


def test_09_continued_fraction_suite():
    cf = expand(PHI - 1, 50)
    fib = [1, 1]
    for _ in range(50):
        fib.append(fib[-1] + fib[-2])
    ok_fib = cf.q == tuple(fib[:51])
    lam_phi = lambda_estimate(expand(PHI, 50))
    ok_phi = abs(lam_phi - math.log((1 + math.sqrt(5)) / 2)) < 0.01
    rates = []
    for s in range(50):
        a = sample_alpha("lebesgue", 9000 + s, 40000)
        rates.append(levy_rate(expand(a, 10**4)))
    med = statistics.median(rates)
    target = math.pi**2 / (12 * math.log(2))
    ok_levy = abs(med - target) < 0.05
    verdict(9, "continuants exact, growth constants match", ok_fib and ok_phi and ok_levy,
            f"Lambda(phi) {lam_phi:.4f}, median rate {med:.4f} vs {target:.4f}")


def test_10_steered_sequence_postconditions():
    ok = True
    details = []
    for beta, zeta, n_max in ((SQRT2, Fraction(0), 20), (PHI, Fraction(1, 2), 10)):
        seq = cz_build(beta, zeta, n_max)
        chk = cz_recheck(seq)
        n_bad = sum(not b for b in chk["product_ok"]) + sum(
            not b for b in chk["window_ok"]
        )
        details.append(f"{n_max} terms, {n_bad} failures")
        if not chk["all_ok"]:
            ok = False
    verdict(10, "steered sequences pass exact product and window rechecks", ok,
            "; ".join(details))


def test_11_littlewood_brute_demo():
    t0 = time.time()
    eps = Fraction(1, 10)
    rep = littlewood_scan(PHI - 1, PHI - 1, 0, 0, eps, n_limit=10**5)
    confirmed = 0
    for n, _, _ in rep.solutions:
        thr_lo, _ = littlewood_threshold_bounds(n, eps)
        pa = exact_product(PHI - 1, n, 0)
        # doubled-precision confirmation: 512-bit one-sided rational bounds
        upper = pa.to_dyadic(512).to_fraction() + Fraction(1, 1 << 512)
        if upper**2 <= (thr_lo + Fraction(1, 1 << 128)) * n:
            confirmed += 1
    elapsed = time.time() - t0
    ok = rep.solution_count >= 20 and confirmed == rep.solution_count and elapsed < 60
    verdict(11, "brute product scan finds >= 20 confirmed solutions", ok,
            f"{rep.solution_count} found, {confirmed} confirmed, elapsed {elapsed:.1f}s")


def test_12_reproducibility(tmp_path):
    import contextlib
    import io

    args = ["metric-scan", "--n-min", "64", "--n-max", "512", "--alphas", "10",
            "--seed", "77"]
    f1, f2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        cli_main(args + ["--out", str(f1)])
        cli_main(args + ["--out", str(f2)])
    ok = f1.read_bytes() == f2.read_bytes() and f1.stat().st_size > 0
    verdict(12, "seeded runs emit byte-identical data files", ok,
            f"{f1.stat().st_size} bytes")
