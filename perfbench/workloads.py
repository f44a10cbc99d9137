"""Workloads of the lacuna benchmark: seeded job generators, the ops that run
each job through lacuna's public API, and the checks on every op's output.

An op is the sequence of computing calls that the matching ``lacuna.cli``
handler makes.  It stops before formatting or printing the payload.  Each
workload repeats a cycle that holds every kind of job it mixes a fixed
number of times, so the op mix of a run does not depend on the seed or on
where the run ends.  The seed only chooses parameters inside each kind, and
only parameters that leave an op's cost about the same; where a parameter
sets the cost, the cycles of a run take its values in turn.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from lacuna import (
    MetricParameters,
    build_nested_alpha,
    cz_build,
    cz_recheck,
    dilate,
    dispersion_scan,
    exp_moment_check,
    expand,
    find_alpha,
    gap_report,
    geometric_sequence,
    lambda_estimate,
    levy_rate,
    littlewood_scan,
    sample_alpha,
    smooth_count_direct,
    smooth_count_fourier,
    standard_bump,
    thin,
)
from lacuna.cf import QuadraticReal
from lacuna.littlewood import littlewood_threshold_bounds
from lacuna.sequences import ln_upper, smallest_l

PHI_1 = QuadraticReal(Fraction(-1, 2), Fraction(1, 2), 5)  # golden ratio - 1
SQRT2_1 = QuadraticReal.sqrt(2) - 1
SQRT3_1 = QuadraticReal.sqrt(3) - 1
VALUES = {"phi-1": PHI_1, "sqrt2-1": SQRT2_1, "sqrt3-1": SQRT3_1}
LITTLEWOOD_EPS = Fraction(1, 10)

# Sizes of every job.  "smoke" keeps each op well under a second, for the
# smoke test; "full" are the sizes the benchmark measures.
SIZES = {
    "full": {
        "find_alpha_n": (1 << 12, 1 << 13),
        "nested_k": (3, 6),
        "scan_n": (1 << 10, 1 << 13),
        "scan_alphas": 4,
        "doubling_n": (1 << 10, 1 << 16),
        "doubling_alphas": 8,
        "window_n": 4096,
        "window_pairs": 3,
        "moment_n": (1024, 4096, 16384),
        "brute_n": 10**6,
        "cz_terms": 300,
        "cf_bits": 40000,
        "cf_depth": 10**4,
    },
    "smoke": {
        "find_alpha_n": (1 << 8, 1 << 9),
        "nested_k": (3, 4),
        "scan_n": (1 << 6, 1 << 8),
        "scan_alphas": 2,
        "doubling_n": (1 << 6, 1 << 9),
        "doubling_alphas": 2,
        "window_n": 256,
        "window_pairs": 1,
        "moment_n": (256,),
        "brute_n": 10**4,
        "cz_terms": 10,
        "cf_bits": 4000,
        "cf_depth": 500,
    },
}


class CheckFailed(Exception):
    """An op returned an output that fails its check."""

    code = "check-failed"


class SetupFailed(Exception):
    """The workload's one-time set-up failed, so no op can run."""

    def __init__(self, layer: str, code: str):
        self.layer = layer
        self.code = code
        super().__init__(f"set-up failed in {layer}: {code}")


@dataclass(frozen=True)
class Job:
    kind: str  # the lacuna CLI subcommand the op mirrors
    key: str  # every parameter; reference digests are keyed by it
    params: tuple


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _doubling_list(lo: int, hi: int) -> list[int]:
    out, n = [], lo
    while n <= hi:
        out.append(n)
        n *= 2
    return out


# ---------------------------------------------------------------------------
# certify: find-alpha and nested-alpha
# ---------------------------------------------------------------------------


def cycle_certify(rng: random.Random, sz: dict, turn: int) -> list[Job]:
    # Three fast jobs (r=2, small N: 0.2 s) balance the three slow ones
    # (large N with r=3 and 5/2, and nested: 2-2.8 s).  So the median op
    # falls in the middle of the 0.4-0.6 s jobs, not at the gap above them.
    jobs = []
    small, large = sz["find_alpha_n"]
    ns = {Fraction(2): (small, small, small, large)}
    for r in (Fraction(2), Fraction(3), Fraction(5, 2)):
        for n in ns.get(r, (small, large)):
            lo = Fraction(rng.randrange(1 << 16), 1 << 17)
            jobs.append(Job("find-alpha", f"find-alpha r={r} n={n} lo={lo}", (r, n, lo)))
    k0, k1 = sz["nested_k"]
    jobs.append(Job("nested-alpha", f"nested-alpha r=3 k={k0}..{k1}", (Fraction(3), k0, k1)))
    rng.shuffle(jobs)
    return jobs


def op_find_alpha(tr, env, r, n, lo):
    seq = tr.call("sequences.geometric_sequence", geometric_sequence, r, n)
    cert = tr.call(
        "turan.find_alpha", find_alpha, seq, n, (lo, lo + Fraction(1, 2)),
        sizes=lambda c: {"K": c.parameters.K},
    )
    pts = tr.call(
        "dyadic.dilate", dilate, cert.alpha, seq, 1, n,
        sizes=lambda p: {"points": len(p), "bits": len(p) * cert.alpha.precision_bits},
    )
    rep = tr.call("dyadic.gap_report", gap_report, pts)
    bound = Fraction(3 * smallest_l(seq.growth_factor_r)) * ln_upper(n) / n
    return cert, rep, bound


def check_find_alpha(job, out):
    cert, rep, bound = out
    gap = rep.max_gap.to_fraction()
    _check(gap <= bound, f"{job.key}: verified gap above 3l ln(N)/N")
    _check(gap <= cert.max_gap_bound, f"{job.key}: verified gap above certificate bound")
    return None


def op_nested_alpha(tr, env, r, k0, k1):
    seq = tr.call("sequences.geometric_sequence", geometric_sequence, r, 2 * 4**k1)
    return tr.call("nested.build_nested_alpha", build_nested_alpha, seq, k0, k1)


def check_nested_alpha(job, chain):
    # the library records each block's verified gap but does not enforce it
    _check(len(chain.blocks) == chain.k_end - chain.k_start + 1, f"{job.key}: block count")
    for b in chain.blocks:
        bound = Fraction(3 * chain.growth_l) * ln_upper(b.n_k) / b.n_k
        _check(b.verified_gap <= bound, f"{job.key}: block k={b.k} gap above bound")
    return None


# ---------------------------------------------------------------------------
# scan and scan_doubling: metric-scan
# ---------------------------------------------------------------------------

SCAN_MEASURES = ("lebesgue", "bounded-cf:5")


def _scan_job(rng, r, n_range, n_alphas):
    seed = rng.getrandbits(32)
    lo, hi = n_range
    key = f"metric-scan r={r} n={lo}..{hi} alphas={n_alphas} seed={seed}"
    return Job("metric-scan", key, (r, lo, hi, n_alphas, seed))


def cycle_scan(rng, sz, turn):
    return [
        _scan_job(rng, r, sz["scan_n"], sz["scan_alphas"])
        for r in (Fraction(3), Fraction(5, 2))
    ]


def cycle_scan_doubling(rng, sz, turn):
    return [_scan_job(rng, Fraction(2), sz["doubling_n"], sz["doubling_alphas"])]


def op_metric_scan(tr, env, r, lo, hi, n_alphas, seed):
    n_list = _doubling_list(lo, hi)
    seq = tr.call("sequences.geometric_sequence", geometric_sequence, r, n_list[-1])
    prec = max(int(t).bit_length() for t in seq.terms[: n_list[-1]]) + 64
    # half of the alphas from each measure, interleaved, seeded as the CLI does
    alphas = [
        tr.call(
            "metric.sample_alpha", sample_alpha,
            SCAN_MEASURES[i % 2], seed * 1000003 + i, prec,
        )
        for i in range(n_alphas)
    ]
    return tr.call(
        "metric.dispersion_scan", dispersion_scan, seq, alphas, n_list,
        eps=0.05, rng_seed=seed, measure_label="+".join(SCAN_MEASURES),
        sizes=lambda t: {"points": len(alphas) * n_list[-1]},
    )


def check_metric_scan(job, table):
    r, lo, hi, n_alphas, seed = job.params
    _check(table.check_pigeonhole(), f"{job.key}: pigeonhole check failed")
    _check(len(table.rows) == n_alphas * len(_doubling_list(lo, hi)), f"{job.key}: row count")
    return digest(table.to_csv())


# ---------------------------------------------------------------------------
# window: smooth window counts and the exponential moment
# ---------------------------------------------------------------------------


def setup_window(tr) -> dict:
    """Build the bump once.  A failed build is kept, not retried: every op
    of the run then fails with it."""
    try:
        return {"bump": tr.call("bump.standard_bump", standard_bump)}
    except Exception as exc:  # recorded and reported as the ops' failure
        return {"setup_error": SetupFailed("bump.standard_bump", type(exc).__name__)}


def cycle_window(rng, sz, turn):
    jobs = []
    n = sz["window_n"]
    for _ in range(sz["window_pairs"]):
        seed, t = rng.getrandbits(32), rng.random()
        jobs.append(Job("window-count", f"window-count r=2 n={n} seed={seed} t={t!r}", (n, seed, t)))
    for n in sz["moment_n"]:
        t = rng.random()
        jobs.append(Job("moment-check", f"moment-check r=3 n={n} t={t!r}", (n, t)))
    return jobs


def _bump(env):
    if "setup_error" in env:
        raise env["setup_error"]
    return env["bump"]


def op_window_count(tr, env, n, seed, t):
    bump = _bump(env)
    seq = tr.call("sequences.geometric_sequence", geometric_sequence, Fraction(2), n)
    th = tr.call("sequences.thin", thin, seq, n)
    par = tr.call("metric.MetricParameters", MetricParameters.for_n, n)
    alpha = tr.call("metric.sample_alpha", sample_alpha, "lebesgue", seed, 256)
    k_max = max(4 * par.k_cut, math.ceil(70 * par.n / par.m.to_float()))
    d = tr.call("metric.smooth_count_direct", smooth_count_direct, alpha, th, t, par, bump)
    f = tr.call("metric.smooth_count_fourier", smooth_count_fourier, alpha, th, t, par, bump, k_max)
    return d, f


def check_window_count(job, out):
    d, f = out
    _check(abs(d - f) <= 1e-6, f"{job.key}: |direct - Fourier| = {abs(d - f):.3e}")
    return None


def op_moment_check(tr, env, n, t):
    bump = _bump(env)
    seq = tr.call("sequences.geometric_sequence", geometric_sequence, Fraction(3), n)
    th = tr.call("sequences.thin", thin, seq, n)
    par = tr.call("metric.MetricParameters", MetricParameters.for_n, n, Fraction(1, 20))
    return tr.call(
        "metric.exp_moment_check", exp_moment_check, th, t, par, bump,
        quadrature_points=1 << 14, method="auto",
        sizes=lambda res: {res.method: 1},
    )


def check_moment_check(job, res):
    _check(res.passed, f"{job.key}: lhs {res.lhs} > 1.1 * rhs {res.rhs}")
    return None


# ---------------------------------------------------------------------------
# diophantine: littlewood (brute and steered) and cf
# ---------------------------------------------------------------------------

BRUTE_PAIRS = (("phi-1", "phi-1"), ("sqrt2-1", "sqrt3-1"), ("sqrt2-1", "phi-1"))
SHIFTS = (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5))
# The equal shift of (phi-1, phi-1) sets its hit count, and so its time
# (1.4 s at 0 or 1/2, 1.9 s at 1/4).  It is the median op of `numeric`, so
# the cycles of a run take these four in turn, from a seeded start: a run of
# four cycles scans each of them once.
EQUAL_SHIFTS = SHIFTS[:4]
CZ_ZETAS = (Fraction(0), Fraction(1, 3), Fraction(2, 7))


def cycle_diophantine(rng, sz, turn):
    jobs = []
    for a, b in BRUTE_PAIRS:
        if a == b:
            # equal shifts keep this pair dominated by exact confirmation
            eta = zeta = EQUAL_SHIFTS[turn % len(EQUAL_SHIFTS)]
        else:
            eta, zeta = rng.choice(SHIFTS), rng.choice(SHIFTS)
        n_limit = sz["brute_n"]
        key = f"littlewood-brute alpha={a} beta={b} eta={eta} zeta={zeta} n_limit={n_limit}"
        jobs.append(Job("littlewood-brute", key, (a, b, eta, zeta, n_limit)))
    seed, bits, depth = rng.getrandbits(32), sz["cf_bits"], sz["cf_depth"]
    jobs.append(Job("cf", f"cf lebesgue bits={bits} seed={seed} depth={depth}", (seed, bits, depth)))
    rng.shuffle(jobs)
    return jobs


def cycle_numeric(rng, sz, turn):
    jobs = (cycle_scan(rng, sz, turn) + cycle_scan_doubling(rng, sz, turn)
            + cycle_diophantine(rng, sz, turn))
    rng.shuffle(jobs)
    return jobs


def cycle_steered(rng, sz, turn):
    zeta, terms = rng.choice(CZ_ZETAS), sz["cz_terms"]
    key = f"littlewood-cz alpha=phi-1 beta=sqrt2-1 eta=0 zeta={zeta} terms={terms}"
    return [Job("littlewood-cz", key, ("phi-1", "sqrt2-1", Fraction(0), zeta, terms))]


def op_littlewood_brute(tr, env, a, b, eta, zeta, n_limit):
    return tr.call(
        "littlewood.littlewood_scan", littlewood_scan,
        VALUES[a], VALUES[b], eta, zeta, LITTLEWOOD_EPS, n_limit=n_limit,
        variant="brute",
        sizes=lambda rep: {"n_scanned": rep.n_scanned, "solutions": rep.solution_count},
    )


CONFIRM_BITS = 512


def _dist_upper(v: QuadraticReal, n: int, shift: Fraction) -> Fraction:
    """Upper bound on ||v*n - shift||, within 3 * 2^-512, from integer square
    roots alone: independent of the library's quadratic-field arithmetic."""
    one = 1 << CONFIRM_BITS
    x = (v.x * n - shift) * one
    lo = hi = math.floor(x)
    hi += 1
    p, q = (v.y * n).numerator, (v.y * n).denominator
    r = math.isqrt(p * p * v.d * one * one)  # r <= |p| sqrt(d) 2^512 < r + 1
    if p >= 0:
        lo, hi = lo + r // q, hi + r // q + 1
    else:
        lo, hi = lo - r // q - 1, hi - r // q
    frac = lo % one
    return Fraction(min(frac, one - frac) + hi - lo, one)


def _reconfirm(alpha, beta, eta, zeta, n) -> bool:
    """n ||alpha n - eta|| ||beta n - zeta|| at or below the threshold's
    lower bound, decided on 512-bit upper bounds of both distances."""
    thr_lo, _ = littlewood_threshold_bounds(n, LITTLEWOOD_EPS)
    bound = n * _dist_upper(alpha, n, eta) * _dist_upper(beta, n, zeta)
    return bound <= thr_lo + Fraction(1, 1 << 128)


class BruteChecker:
    """Re-confirms every brute solution; a solution set already confirmed in
    this run for the same job is not confirmed again."""

    def __init__(self):
        self._done: set[tuple[str, str]] = set()

    def __call__(self, job, rep):
        a, b, eta, zeta, n_limit = job.params
        ns = [n for n, _, _ in rep.solutions]
        dg = digest(",".join(map(str, ns)))
        _check(rep.n_scanned == n_limit - 2, f"{job.key}: scanned {rep.n_scanned}")
        if (job.key, dg) not in self._done:
            for n in ns:
                _check(_reconfirm(VALUES[a], VALUES[b], eta, zeta, n), f"{job.key}: n={n} not confirmed")
            self._done.add((job.key, dg))
        return dg


def op_littlewood_cz(tr, env, a, b, eta, zeta, terms):
    alpha, beta = VALUES[a], VALUES[b]
    seq = tr.call("littlewood.cz_build", cz_build, beta, zeta, terms)
    rep = tr.call(
        "littlewood.littlewood_scan", littlewood_scan,
        alpha, beta, eta, zeta, LITTLEWOOD_EPS, n_values=seq.terms,
        variant="explicit",
        sizes=lambda rep: {"n_scanned": rep.n_scanned, "solutions": rep.solution_count},
    )
    recheck = tr.call("littlewood.cz_recheck", cz_recheck, seq)
    return seq, rep, recheck


def check_littlewood_cz(job, out):
    seq, rep, recheck = out
    terms = job.params[4]
    _check(len(seq.terms) == terms, f"{job.key}: {len(seq.terms)} terms")
    _check(recheck["all_ok"], f"{job.key}: cz_recheck failed")
    return digest(",".join(map(str, seq.terms)) + ";" + ",".join(str(n) for n, _, _ in rep.solutions))


def op_cf(tr, env, seed, bits, depth):
    x = tr.call("metric.sample_alpha", sample_alpha, "lebesgue", seed, bits)
    cf = tr.call(
        "cf.expand", expand, x, depth, sizes=lambda c: {"quotients": c.depth}
    )
    lam = tr.call("cf.lambda_estimate", lambda_estimate, cf)
    rate = tr.call("cf.levy_rate", levy_rate, cf)
    return x, cf, lam, rate


def check_cf(job, out):
    x, cf, lam, rate = out
    depth = job.params[2]
    _check(cf.depth == depth, f"{job.key}: depth {cf.depth}")
    # the deepest convergent p/q must satisfy |x - p/q| < 1/q^2, exactly
    p, q, xf = cf.p[-1], cf.q[-1], x.to_fraction()
    _check(abs(xf * q - p) * q < 1, f"{job.key}: last convergent too far")
    _check(0 < rate <= lam, f"{job.key}: growth rates {rate}, {lam}")
    return digest(f"{cf.a0};" + ",".join(map(str, cf.partial_quotients)))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

OPS = {
    "find-alpha": (op_find_alpha, check_find_alpha),
    "nested-alpha": (op_nested_alpha, check_nested_alpha),
    "metric-scan": (op_metric_scan, check_metric_scan),
    "window-count": (op_window_count, check_window_count),
    "moment-check": (op_moment_check, check_moment_check),
    "littlewood-brute": (op_littlewood_brute, None),  # checker holds run state
    "littlewood-cz": (op_littlewood_cz, check_littlewood_cz),
    "cf": (op_cf, check_cf),
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (random.Random, sizes, turn) -> list[Job]; turn counts the cycles of
    # a run from a seeded start, for parameters taken in turn
    cycle: object
    # typical wall seconds of one untraced cycle at full size, measured when
    # the benchmark was defined (shared 2-vCPU VM, Python 3.11, numpy 2.4)
    cycle_s: float
    setup: object = None  # (tracer) -> env dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify",
            "exact path: turan band search, dyadic dilation, gap_report and nested; "
            "no numpy scan, bump or Littlewood code",
            cycle_certify,
            9.0,
        ),
        Workload(
            "scan",
            "metric-scan on r=3 and r=5/2: generic truncated points, quadratic in N; no turan code",
            cycle_scan,
            5.0,
        ),
        Workload(
            "scan_doubling",
            "metric-scan on r=2: same metric layer through the doubling byte-window path",
            cycle_scan_doubling,
            2.0,
        ),
        Workload(
            "window",
            "bump build in set-up, window counts and the exponential moment in ops",
            cycle_window,
            10.0,  # a guess: at this commit set-up fails and no op runs
            setup_window,
        ),
        Workload(
            "diophantine",
            "littlewood brute scans (confirmation- and prefilter-bound pairs) and cf expansion; "
            "float arrays set peak memory",
            cycle_diophantine,
            2.8,
        ),
        Workload(
            "numeric",
            "scan, scan_doubling and diophantine ops in one cycle: metric scans on both "
            "truncated-point paths, Littlewood brute scans and cf",
            cycle_numeric,
            10.0,
        ),
        Workload(
            "steered",
            "littlewood steered sequence: cz_build, explicit scan and cz_recheck at 300 terms",
            cycle_steered,
            0.6,
        ),
    )
}


def checker_for(kind: str):
    """The output check for one kind of op, fresh for each run."""
    if kind == "littlewood-brute":
        return BruteChecker()
    return OPS[kind][1]
