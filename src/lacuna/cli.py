"""Command-line front end.

Subcommands: gaps, find-alpha, nested-alpha, metric-scan, moment-check, cf,
littlewood.  A plain key=value config file can supply defaults (flags win).
Output is deterministic JSON/CSV keyed only by the config and seed: no
timestamps, keys sorted, dyadic values rendered as 30-digit decimal plus a
lossless hex mantissa/exponent pair.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bump as bump_mod
from . import cf as cf_mod
from . import littlewood as lw
from . import metric
from .dyadic import DyadicReal, alpha_precision, dilate, gap_report
from .errors import (
    EpsilonDomainError,
    FileError,
    LacunaError,
    MalformedValueError,
    NOutOfRangeError,
)
from .nested import build_nested_alpha, chain_terms, gap_bound
from .sequences import geometric_sequence, load_sequence, smallest_l, thin
from .turan import find_alpha


def _dyadic_json(x: DyadicReal) -> dict:
    m, e = x.hex_pair()
    return {"decimal": x.decimal_str(30), "hex_mantissa": m, "exponent": e}


def _open(path, mode="r"):
    """open(path, mode); an OSError is the coded file-error naming the path
    and the OS reason."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise FileError(f"file-error: {path}: {exc.strerror}") from None


def _emit(render, out_path, as_csv=False):
    """Write the payload render() builds, as JSON or as the CSV text it is,
    to stdout and to out_path.  Its integers are lacuna's own results and
    print exactly: str()'s digit limit on int (4300 digits by default,
    absent before Python 3.10.7) is lifted while the payload renders and
    restored after, so parsing flags and --seq files keeps it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        payload = render()
        text = payload if as_csv else json.dumps(payload, indent=2, sort_keys=True) + "\n"
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    if out_path:
        with _open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _load_config_defaults(argv):
    """Pre-scan for --config and return its key=value pairs."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    ns, _ = pre.parse_known_args(argv)
    if not ns.config:
        return {}
    out = {}
    with _open(ns.config) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _build_seq(args, n_terms: int):
    if n_terms < 1:
        raise NOutOfRangeError(f"N-out-of-range: need N >= 1, got {n_terms}")
    if getattr(args, "seq", None):
        return load_sequence(args.seq)
    return geometric_sequence(_value(args.r), n_terms)


def _value(spec: str, real: bool = False):
    """A rational flag ('7/10', '0.25'); with real=True also a 'kind:' spec
    of cf.parse_value_spec.  A bad one raises malformed-value with its cause."""
    try:
        return cf_mod.parse_value_spec(spec) if real and ":" in spec else Fraction(spec)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedValueError(f"malformed-value {spec!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_gaps(a):
    seq = _build_seq(a, a.n)
    prec = max(alpha_precision(seq.terms[: a.n]), a.precision)
    alpha = DyadicReal.from_fraction(_value(a.alpha), prec)
    rep = gap_report(dilate(alpha, seq, 1, a.n))
    _emit(lambda: {"alpha": _dyadic_json(alpha), **rep.to_json_dict()}, a.out)
    return 0


def _cmd_find_alpha(a):
    seq = _build_seq(a, a.n)
    cert = find_alpha(seq, a.n)
    rep = gap_report(dilate(cert.alpha, seq, 1, a.n))
    bound = gap_bound(smallest_l(seq.growth_factor_r), a.n)
    met = bool(rep.max_gap.to_fraction() <= bound)
    _emit(
        lambda: {
            **cert.to_json_dict(),
            "verified_max_gap": rep.max_gap.decimal_str(30),
            "target_bound": float(bound),
            "bound_met": met,
        },
        a.out,
    )
    return 0 if met else 1


def _cmd_nested_alpha(a):
    seq = _build_seq(a, chain_terms(a.k_start, a.k_end))
    chain = build_nested_alpha(seq, a.k_start, a.k_end)
    _emit(chain.to_json_dict, a.out)
    return 0


def _cmd_metric_scan(a):
    if not 1 <= a.n_min <= a.n_max:
        raise NOutOfRangeError(
            f"N-out-of-range: need 1 <= --n-min <= --n-max, got {a.n_min} and {a.n_max}"
        )
    n_list = []
    n = a.n_min
    while n <= a.n_max:
        n_list.append(n)
        n *= 2
    seq = _build_seq(a, n_list[-1])
    prec = max(alpha_precision(seq.terms[: n_list[-1]]), a.precision)
    measure, _ = metric.parse_measure(a.measure)
    alphas = [
        metric.sample_alpha(measure, a.seed * 1000003 + i, prec)
        for i in range(a.alphas)
    ]
    table = metric.dispersion_scan(
        seq, alphas, n_list, eps=a.eps, rng_seed=a.seed, measure_label=measure
    )
    _emit(table.to_csv, a.out, as_csv=True)
    summary = {
        "measure": measure,
        "seed": a.seed,
        "rows": len(table.rows),
        "pigeonhole_ok": table.check_pigeonhole(),
    }
    try:
        fit = metric.exponent_fit(table)
        summary["kappa_median"] = fit.median
        summary["kappa_iqr"] = [fit.q25, fit.q75]
    except LacunaError:
        pass
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_moment_check(a):
    eps = _value(a.eps).limit_denominator(1000)
    if eps <= 0:
        raise EpsilonDomainError(f"epsilon-domain: --eps {a.eps} rounds to {eps}, need > 0")
    seq = _build_seq(a, a.n)
    thinned = thin(seq, a.n)
    params = metric.MetricParameters.for_n(a.n, eps)
    res = metric.exp_moment_check(
        thinned,
        # the moment is 1-periodic in t: t mod 1, taken exactly, is the
        # float view that keeps its fraction and never overflows
        float(_value(a.t) % 1),
        params,
        bump_mod.standard_bump(),
    )
    payload = {
        "n": a.n,
        "t": a.t,
        "lhs": res.lhs,
        "rhs": res.rhs,
        "passed": res.passed,
        "method": res.method,
        "k_cut": res.k_cut,
    }
    _emit(lambda: payload, a.out)
    return 0 if res.passed else 1


def _cmd_cf(a):
    value = _value(a.value, real=True)
    expansion = cf_mod.expand(value, a.depth)
    rates = {}
    if expansion.depth >= 2:
        rates["lambda_sup"] = cf_mod.lambda_estimate(expansion)
        rates["levy_rate"] = cf_mod.levy_rate(expansion)
    _emit(lambda: {**expansion.to_json_dict(), **rates}, a.out)
    return 0


def _cmd_littlewood(a):
    beta = _value(a.beta, real=True)
    alpha = (
        _value(a.alpha, real=True)
        if a.alpha
        else metric.sample_alpha("bounded-cf:5", a.seed, 192).to_fraction()
    )
    eta, zeta, eps = _value(a.eta), _value(a.zeta), _value(a.epsilon)
    if a.brute_n:
        report = lw.littlewood_scan(alpha, beta, eta, zeta, eps, n_limit=a.brute_n)
        _emit(report.to_json_dict, a.out)
        return 0
    seq = lw.cz_build(beta, zeta, a.terms)
    report = lw.littlewood_scan(alpha, beta, eta, zeta, eps, n_values=seq.terms)
    recheck = lw.cz_recheck(seq)
    _emit(
        lambda: {
            **report.to_json_dict(),
            "cz_recheck": recheck,
            "cz_terms": [str(t) for t in seq.terms],
        },
        a.out,
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser; a flag whose key (dashes as underscores) is in
    ``config`` takes the config string as its default and is not required."""
    config = config or {}
    p = argparse.ArgumentParser(prog="lacuna")
    p.add_argument("--config", help="key=value defaults file; flags win")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def subcommand(name, func):
        sp = sub.add_parser(name)
        sp.set_defaults(func=func)

        def flag(name, **kw):
            key = name[2:].replace("-", "_")
            if key in config:
                kw.update(default=config[key], required=False)
            sp.add_argument(name, **kw)

        return flag

    g = subcommand("gaps", _cmd_gaps)
    g("--r", default="2")
    g("--seq")
    g("--n", type=int, required=True)
    g("--alpha", required=True)
    g("--precision", type=int, default=0)
    g("--out")

    f = subcommand("find-alpha", _cmd_find_alpha)
    f("--r", default="2")
    f("--seq")
    f("--n", type=int, required=True)
    f("--out")

    na = subcommand("nested-alpha", _cmd_nested_alpha)
    na("--r", default="3")
    na("--seq")
    na("--k-start", type=int, default=3)
    na("--k-end", type=int, default=5)
    na("--out")

    ms = subcommand("metric-scan", _cmd_metric_scan)
    ms("--r", default="2")
    ms("--seq")
    ms("--n-min", type=int, default=1024)
    ms("--n-max", type=int, default=65536)
    ms("--alphas", type=int, default=100)
    ms(
        "--measure",
        default="lebesgue",
        help="lebesgue (uniform alpha in [0, 1)) or bounded-cf:B, also written "
        "bounded-cf(B): i.i.d. partial quotients uniform on 1..B",
    )
    ms("--seed", type=int, default=0)
    ms("--eps", type=float, default=0.05)
    ms("--precision", type=int, default=0)
    ms("--out")

    mc = subcommand("moment-check", _cmd_moment_check)
    mc("--r", default="3")
    mc("--seq")
    mc("--n", type=int, required=True)
    mc("--t", default="0")
    mc("--eps", default="1/20")
    mc("--out")

    cfp = subcommand("cf", _cmd_cf)
    cfp("--value", required=True)
    cfp("--depth", type=int, default=100)
    cfp("--out")

    lwp = subcommand("littlewood", _cmd_littlewood)
    lwp("--alpha")
    lwp("--beta", required=True)
    lwp("--eta", default="0")
    lwp("--zeta", default="0")
    lwp("--epsilon", default="1/10")
    lwp("--terms", type=int, default=30)
    lwp("--brute-n", type=int, default=0)
    lwp("--seed", type=int, default=0)
    lwp("--out")
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser(_load_config_defaults(argv)).parse_args(argv)
        return args.func(args)
    except LacunaError as exc:
        sys.stderr.write(f"error [{exc.code}]: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
