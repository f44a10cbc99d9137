#!/usr/bin/env python3
"""lacuna benchmark: CLI-equivalent jobs run back to back by one caller.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45 --trace 0

Run from a checkout: the program is imported from ``src`` next to this
directory.  A run is a closed loop with a single client and no worker
threads; BLAS is pinned to at most two threads.  The seed chooses every job
parameter.  Every op's output is checked.

``--trace 0`` measures the end-to-end metrics.  It first times several fresh
set-up processes and runs one untimed warm-up cycle at small sizes, then runs
whole cycles of the workload's op mix: as many as took ``--seconds`` when the
benchmark was defined, so that every run does the same work.  No cycle
starts after 1.25 times ``--seconds``.  Op-time percentiles are
Harrell-Davis estimates.
``--trace 1`` runs each job twice, once plain and once inside spans around
every public call, in alternating order.  It reports the per-layer metrics
and the tracing overhead, and writes the spans as JSON lines.

Reference output digests exist for seed 0 (the default) and for the
held-out seed 424242, which was not used while the benchmark was tuned.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the full report: units, sample counts, failures by layer and the
environment.  Both also go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("certify", "numeric", "scan", "scan_doubling", "diophantine", "window", "steered")
DEFAULT_SEED = 0
SETUP_PROBES = {"full": 3, "smoke": 1}
TAIL_MIN_BEYOND = 10  # the tail percentile keeps this many samples beyond it
CAP_FACTOR = 1.25  # no new cycle starts after this many times --seconds

# (name, unit) of the metrics on the last line; BENCHMARK.json lists the same
END_TO_END = (
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("cli.import_s", "s"),
    ("sequences.geometric_sequence.s", "s"),
    ("sequences.thin.s", "s"),
    ("turan.find_alpha.s", "s"),
    ("turan.find_alpha.K", "count"),
    ("nested.build_nested_alpha.s", "s"),
    ("dyadic.dilate.s", "s"),
    ("dyadic.dilate.points", "count"),
    ("dyadic.dilate.bits", "count"),
    ("dyadic.gap_report.s", "s"),
    ("metric.sample_alpha.s", "s"),
    ("metric.dispersion_scan.s", "s"),
    ("metric.dispersion_scan.points", "count"),
    ("metric.MetricParameters.s", "s"),
    ("metric.smooth_count_direct.s", "s"),
    ("metric.smooth_count_fourier.s", "s"),
    ("metric.exp_moment_check.s", "s"),
    ("metric.exp_moment_check.factorized", "count"),
    ("metric.exp_moment_check.simpson", "count"),
    ("bump.standard_bump.s", "s"),
    ("bump.standard_bump.failed", "count"),
    ("cf.expand.s", "s"),
    ("cf.expand.quotients", "count"),
    ("littlewood.littlewood_scan.brute.s", "s"),
    ("littlewood.littlewood_scan.explicit.s", "s"),
    ("littlewood.littlewood_scan.n_scanned", "count"),
    ("littlewood.littlewood_scan.solutions", "count"),
    ("littlewood.cz_build.s", "s"),
    ("littlewood.cz_recheck.s", "s"),
    ("trace.overhead_s", "s"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="job sizes; smoke is for the smoke test only")
    p.add_argument("--record-reference", type=int, metavar="CYCLES", default=0,
                   help="run this many cycles and store their output digests")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_blas() -> str:
    """Pin BLAS threads before numpy loads; returns the setting used."""
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in BLAS_ENV:
        os.environ[var] = threads
    return threads


def environment(args, blas_threads: str, loadavg: tuple) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "loadavg_start": list(loadavg),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
    }


# ---------------------------------------------------------------------------
# set-up time: fresh processes
# ---------------------------------------------------------------------------


def probe_setup(args) -> None:
    """Child side: import lacuna, run the workload's one-time set-up, signal."""
    import spans
    import workloads

    w = workloads.WORKLOADS[args.workload]
    if w.setup is not None:
        w.setup(spans.Direct())
    print("ready", flush=True)


def time_setup(args) -> float:
    """Seconds from spawning a fresh interpreter to its set-up being done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--probe-setup"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


# ---------------------------------------------------------------------------
# the measured loop
# ---------------------------------------------------------------------------


def failure_key(exc: BaseException) -> str:
    """'<layer>:<code>' for a failed op; the layer is the deepest lacuna
    module in the traceback, or the set-up step that failed."""
    import spans
    import workloads

    if isinstance(exc, workloads.SetupFailed):
        return f"{exc.layer}:{exc.code}"
    if isinstance(exc, workloads.CheckFailed):
        return "check:check-failed"
    layer = "bench"
    lacuna_dir = str(SRC / "lacuna")
    tb = exc.__traceback__
    while tb is not None:
        filename = tb.tb_frame.f_code.co_filename
        if filename.startswith(lacuna_dir):
            layer = Path(filename).stem
        tb = tb.tb_next
    return f"{layer}:{spans.error_code(exc)}"


class Run:
    """State of one measured run: samples, failures and check results."""

    def __init__(self, workload, sizes, seed, env, tracer, references):
        import spans
        import workloads

        self.w = workload
        self.sizes = sizes
        self.seed = seed
        self.env = env
        self.direct = spans.Direct()
        self.tracer = tracer
        self.references = references
        self.checkers = {kind: workloads.checker_for(kind) for kind in workloads.OPS}
        self.op_s: list[float] = []  # wall seconds of completed untraced ops
        self.traced_s = 0.0  # traced ops, paired with the untraced ones below
        self.paired_untraced_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.fail_messages: list[str] = []
        self.check_s = 0.0
        self.reference_checked = 0
        self.digests: dict[str, str] = {}
        self.cycles = 0

    def jobs(self, cycle: int):
        rng = random.Random(f"{self.w.name}:{self.seed}:{cycle}")
        start = random.Random(f"{self.w.name}:{self.seed}").randrange(1 << 16)
        return self.w.cycle(rng, self.sizes, start + cycle)

    def execute(self, job, tr) -> tuple[float, str | None] | None:
        """Run one op and check it: (wall seconds, digest), or None if it failed."""
        import workloads

        op, _ = workloads.OPS[job.kind]
        self.attempted += 1
        if tr is self.tracer:
            tr.op_id = self.attempted
        try:
            t0 = time.perf_counter()
            with tr.span(f"op.{job.kind}"):
                out = op(tr, self.env, *job.params)
            elapsed = time.perf_counter() - t0
            c0 = time.perf_counter()
            try:
                dg = self.checkers[job.kind](job, out)
                want = self.references.get(job.key)
                if want is not None:
                    self.reference_checked += 1
                    if dg != want:
                        raise workloads.CheckFailed(f"{job.key}: digest {dg} != reference {want}")
                seen = self.digests.setdefault(job.key, dg)
                if seen != dg:
                    raise workloads.CheckFailed(f"{job.key}: digest differs between runs")
            finally:
                self.check_s += time.perf_counter() - c0
        except Exception as exc:  # every failure is counted, never fatal
            self.failed += 1
            key = failure_key(exc)
            self.failures[key] = self.failures.get(key, 0) + 1
            if len(self.fail_messages) < 5:
                self.fail_messages.append(f"{job.key}: {type(exc).__name__}: {exc}")
            return None
        return elapsed, dg

    def cycle(self, index: int) -> None:
        for job in self.jobs(index):
            if self.tracer is None:
                res = self.execute(job, self.direct)
                if res is not None:
                    self.op_s.append(res[0])
                continue
            # traced and untraced execution of the same job, alternating order
            order = (self.direct, self.tracer) if index % 2 == 0 else (self.tracer, self.direct)
            results = {id(tr): self.execute(job, tr) for tr in order}
            plain, traced = results[id(self.direct)], results[id(self.tracer)]
            if plain is not None:
                self.op_s.append(plain[0])
            if plain is not None and traced is not None:
                self.paired_untraced_s += plain[0]
                self.traced_s += traced[0]

    def loop(self, cycles: int, cap_s: float) -> float:
        """Run ``cycles`` whole cycles, starting none after ``cap_s``."""
        start = time.perf_counter()
        while self.cycles < cycles and time.perf_counter() - start < cap_s:
            self.cycle(self.cycles)
            self.cycles += 1
            if "setup_error" in self.env:
                break  # every op fails at once; one cycle records that
        return time.perf_counter() - start


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics, the i-th weighted by the Beta((n+1)p, (n+1)(1-p)) mass on
    [(i-1)/n, i/n].  A run's ops mix kinds of very different cost, and a
    single order statistic jumps whenever two neighbouring samples swap;
    this weighted mean moves smoothly with them."""
    from scipy.special import betainc

    s = sorted(samples)
    n = len(s)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(s, cdf, cdf[1:]))


def warm_up(w, env) -> None:
    """One untimed cycle at the smoke sizes: every code path of the
    workload runs once, so that lazy imports and first calls are paid
    before timing starts."""
    import spans
    import workloads

    direct = spans.Direct()
    for job in w.cycle(random.Random(f"{w.name}:warm-up"), workloads.SIZES["smoke"], 0):
        try:
            workloads.OPS[job.kind][0](direct, env, *job.params)
        except Exception:  # the timed run counts and reports every failure
            pass


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with TAIL_MIN_BEYOND samples beyond it.  Below
    2 * TAIL_MIN_BEYOND samples that percentile would not exceed the median;
    the 75th percentile is reported instead, because the maximum of so few
    samples moves with every burst of machine load."""
    n = len(samples)
    p = 0.75 if n < 2 * TAIL_MIN_BEYOND else (n - TAIL_MIN_BEYOND) / n
    return quantile(samples, p), f"p{100 * p:.1f}"


def load_references(workload: str) -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {})


def measure(args, blas_threads: str) -> dict:
    loadavg = os.getloadavg()
    setup_samples = []
    if args.trace == 0:
        setup_samples = [time_setup(args) for _ in range(SETUP_PROBES[args.scale])]

    t0 = time.perf_counter()
    import lacuna  # noqa: F401  (timed: the import users pay on every CLI call)

    import_s = time.perf_counter() - t0
    env_info = environment(args, blas_threads, loadavg)
    import spans
    import workloads

    w = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    env = w.setup(tracer or spans.Direct()) if w.setup is not None else {}
    warm_up(w, env)
    run = Run(w, workloads.SIZES[args.scale], args.seed, env, tracer,
              load_references(args.workload) if args.scale == "full" else {})
    # --seconds sets the work, not a deadline: every run of a workload does
    # the same number of whole cycles, so its op mix never changes
    per_cycle_s = w.cycle_s * (2 if args.trace else 1)
    wall = run.loop(max(1, int(args.seconds // per_cycle_s)), CAP_FACTOR * args.seconds)
    completed = len(run.op_s)

    report = {
        "workload": w.name,
        "why": w.why,
        "trace": args.trace,
        "environment": env_info,
        "cycles": run.cycles,
        "wall_s": wall,
        "check_s": run.check_s,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "failure_examples": run.fail_messages,
        "reference_checked": run.reference_checked,
    }
    metrics = {"fail_ratio": {"value": run.failed / max(run.attempted, 1), "unit": "ratio",
                              "samples": run.attempted}}
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s",
                              "samples": len(setup_samples)}
        if completed:
            t, pct = tail(run.op_s)
            metrics["op_s.p50"] = {"value": quantile(run.op_s, 0.5), "unit": "s",
                                   "samples": completed}
            metrics["op_s.tail"] = {"value": t, "unit": "s", "samples": completed,
                                    "percentile": pct}
            metrics["ops_per_s"] = {"value": completed / (wall - run.check_s), "unit": "1/s",
                                    "samples": completed}
        metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "unit": "MB", "samples": 1}
        wanted = END_TO_END
    else:
        layer = tracer.layer_metrics()
        layer["cli.import_s"] = import_s
        traced_s, untraced_s = run.traced_s, run.paired_untraced_s
        layer["trace.overhead_s"] = traced_s - untraced_s
        layer["bench.check.s"] = run.check_s
        units = dict(PER_LAYER)
        for name in sorted(set(layer) | set(units)):
            unit = units.get(name) or ("s" if name.endswith("_s") or name.endswith(".s") else "count")
            metrics[name] = {"value": layer.get(name, 0), "unit": unit}
        report["trace_overhead_s"] = {
            "traced_s": traced_s, "untraced_s": untraced_s, "overhead_s": traced_s - untraced_s,
        }
        wanted = PER_LAYER
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"{w.name}-seed{args.seed}.spans.jsonl")
    report["metrics"] = metrics

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": unit}
            for name, unit in wanted
            if name in metrics
        },
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    return result


# ---------------------------------------------------------------------------
# every workload in one table
# ---------------------------------------------------------------------------


def run_all(args) -> dict:
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        rows[name] = json.loads(lines[-2])
    for name, rep in rows.items():
        print(f"== {name}: {rep['attempted']} ops attempted, {rep['failed']} failed"
              + (f" {rep['failures']}" if rep["failures"] else ""))
        for metric, m in sorted(rep["metrics"].items()):
            extra = f" ({m['percentile']})" if "percentile" in m else ""
            samples = f", n={m['samples']}" if "samples" in m else ""
            print(f"   {metric:40s} {m['value']:.6g} {m['unit']}{extra}{samples}")
    return {
        "correct": all(r["failed"] == 0 for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {
            f"{name}.{metric}": {"value": m["value"], "unit": m["unit"]}
            for name, rep in rows.items()
            for metric, m in rep["metrics"].items()
        },
    }


def record_reference(args) -> None:
    """Store the output digests of the first CYCLES cycles of one seed."""
    import spans
    import workloads

    w = workloads.WORKLOADS[args.workload]
    env = w.setup(spans.Direct()) if w.setup is not None else {}
    run = Run(w, workloads.SIZES["full"], args.seed, env, None, {})
    for i in range(args.record_reference):
        run.cycle(i)
    if run.failed:
        raise SystemExit(f"not recording: {run.failed} ops failed: {run.fail_messages}")
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    table = data.setdefault(w.name, {})
    table.update({k: v for k, v in run.digests.items() if v is not None})
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"{w.name}: {len(table)} reference digests")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lacuna" / "__init__.py").is_file():
        print(f"error: no lacuna sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    blas_threads = pin_blas()
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        probe_setup(args)
        return 0
    if args.record_reference:
        record_reference(args)
        return 0
    result = run_all(args) if args.workload == "all" else measure(args, blas_threads)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
