#!/usr/bin/env python3
"""The ellpar benchmark: one command, three workloads, reference-checked.

    python3 bench/run.py --workload dual-plane --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` (no install needed).  One client in one thread drives the library in
a closed loop (the next operation starts when the previous one has finished
and been checked); BLAS is pinned to one thread.  Every output is compared
with a reference known by construction; see each workload module for how.

``--trace 0`` prints the end-to-end metrics: throughput, latency p50/p99,
set-up time (median over fresh interpreters), peak memory, the share of
operations answered correctly, and the correct digits (-log10) of the p99
round-trip error of recovered coordinates.  Times are CPU times rescaled to
a reference speed by a kernel timed through the run (see harness.py); the
set-up spawns are spread over the run.  A workload may leave input classes
out of the p99 (``NOT_IN_P99``).  ``--trace 1`` runs every operation
twice, untraced and with every public library function wrapped
(``tracer.py``), and prints per-layer calls, self time and shares per
operation plus the tracing overhead.

Human-readable lines (environment, failures per input class, metrics with
sample counts) come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts every operation.  ``failed`` counts the operations that fail outside
the input classes a workload module lists as known defects of the library
(``KNOWN_DEFECTS``), and ``correct`` is false when it is not 0.  Failures in
the listed classes are the library's, present on every run in proportion to
its length; they are checked like any other output, printed per class, and
lower ``ok_frac``, the metric through which a fix or a regression of them
shows.

``--out FILE`` also writes the full result (environment, per-class tallies,
sample counts) as JSON, and ``--compare FILE`` prints each metric's ratio
against such a file from an earlier run.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import importlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = {"dual-plane": "dual_plane", "stability-scan": "stability_scan",
             "cli-batch": "cli_batch"}
SETUP_SPAWNS = 9
WARMUP_S = 1.0


def _child_env() -> dict:
    """The inherited environment with src/ prepended to PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class SetUp:
    """Fresh interpreters that import ellpar and finish the workload's first
    operation; for cli-batch, ``python -m ellpar.cli`` answering the first
    request on stdin.  Each spawn's time is the child's CPU time (user +
    system), rescaled like the operations by kernel samples taken just
    before and after it (see harness.py)."""

    def __init__(self, workload: str, seed: int, speed) -> None:
        op = next(importlib.import_module(WORKLOADS[workload]).ops(seed))
        if op.request is not None:
            self.cmd, self.stdin = [sys.executable, "-m", "ellpar.cli"], json.dumps(op.request)
        else:
            self.cmd = [sys.executable, str(BENCH / "run.py"), "--first-op", "--workload",
                        workload, "--seed", str(seed)]
            self.stdin = None
        self.check, self.speed, self.times = op.check, speed, []

    def spawn(self) -> None:
        import harness
        self.speed.sample()
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(self.cmd, input=self.stdin, capture_output=True, text=True,
                              cwd=ROOT, env=_child_env(), timeout=120)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.speed.sample()
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        kernel = sum(self.speed.kernel_ns[-2:]) / 2
        self.times.append(cpu * harness.KERNEL_REF_MS * 1e6 / kernel)
        if self.stdin is None:
            if proc.returncode != 0:
                raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-300:]}")
        else:
            try:
                self.check((proc.returncode, proc.stdout))
            except (harness.Mismatch, ValueError) as exc:
                raise RuntimeError(f"set-up request answered wrongly: {exc}") from None


def first_op(workload: str, seed: int) -> int:
    import harness
    op = next(importlib.import_module(WORKLOADS[workload]).ops(seed))
    stats = harness.RunStats()
    harness.run_one(op, stats)
    return 1 if stats.failed else 0


def quantile(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(stats, lat_ms: list, setup: list[float], rss_mb: float, not_in_p99=()) -> dict:
    n = len(lat_ms)
    tail_ms = [x for k, x in zip(stats.kinds, lat_ms) if k not in not_in_p99]
    return {
        # closed loop, one client: the reciprocal of the mean latency
        "ops_per_s": (n / (sum(lat_ms) / 1e3), "1/s", n),
        "latency_p50_ms": (statistics.median(lat_ms), "ms", n),
        "latency_p99_ms": (quantile(tail_ms, 99), "ms", len(tail_ms)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "ok_frac": (1 - stats.failed / stats.attempted, "fraction", stats.attempted),
        # digits, not the raw error: the p99 error itself swings by half
        # between seeds, its logarithm by about 1%
        "roundtrip_digits_p99": (-math.log10(max(quantile(stats.roundtrip, 99), 1e-17)),
                                 "digits", len(stats.roundtrip)),
    }


def tail(stats, lat_ms: list, p99: float, not_in_p99=()) -> str:
    """The input classes of the operations above the p99 latency."""
    kinds = collections.Counter(k for k, x in zip(stats.kinds, lat_ms)
                                if x > p99 and k not in not_in_p99)
    total = sum(kinds.values()) or 1
    return ", ".join(f"{k} {v / total:.0%}" for k, v in kinds.most_common())


def per_layer(tracer, traced, untraced) -> dict:
    from tracer import LAYERS
    sp = tracer.spans
    n = len(traced.latencies_ns)
    wall_ms = sum(traced.latencies_ns) / 1e6
    out = {}

    def calls(*names):
        return sum(sp[s].calls for s in names)

    def self_ms(*names):
        return sum(sp[s].self_ns for s in names) / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    def per_op(name, value, unit):
        out[name] = (value / n, unit, n)

    plane = [s for s in sp if s.startswith("weierstrass.plane.")]
    per_op("weierstrass.wp.calls", calls("weierstrass.wp"), "calls/op")
    per_op("weierstrass.wp.self_ms", self_ms("weierstrass.wp"), "ms/op")
    out["weierstrass.wp.share"] = (ratio(self_ms("weierstrass.wp"), wall_ms), "fraction", n)
    per_op("weierstrass.intersect_curve.self_ms", self_ms("weierstrass.intersect_curve"), "ms/op")
    per_op("weierstrass.embed.calls", calls("weierstrass.embed"), "calls/op")
    out["weierstrass.wp_per_intersect"] = (
        ratio(sp["weierstrass.wp"].nested, calls("weierstrass.intersect_curve")),
        "calls/intersect", calls("weierstrass.intersect_curve"))
    per_op("weierstrass.curve_invariants.calls", calls("weierstrass.curve_invariants"), "calls/op")
    per_op("weierstrass.curve_invariants.self_ms", self_ms("weierstrass.curve_invariants"),
           "ms/op")
    per_op("weierstrass.plane.self_ms", self_ms(*plane), "ms/op")
    per_op("weierstrass.close_to.calls",
           calls("weierstrass.plane.point_close_to", "weierstrass.plane.line_close_to"),
           "calls/op")
    per_op("parabolic.stability.calls", calls("parabolic.stability"), "calls/op")
    for name in ("parabolic.stability", "parabolic.locus", "parabolic.normalize_flag",
                 "bundles.classify_triple", "modspace.psi_plus", "modspace.sigma_cover_count",
                 "modspace.parametrization_rank", "monodromy.normal_form",
                 "monodromy.classify_bundle", "autgroup.act_plane", "cli.run", "cli.dump"):
        per_op(f"{name}.self_ms", self_ms(name), "ms/op")
    for name in ("jaclattice.equal", "bundles.tu_line", "bundles.subbundle_config"):
        per_op(f"{name}.calls", calls(name), "calls/op")
    out["monodromy.exotic_frac"] = (
        ratio(sp["monodromy.normal_form"].raised.get("ExoticPairError", 0),
              calls("monodromy.classify_bundle")), "fraction", calls("monodromy.classify_bundle"))
    out["autgroup.act_plane.embed_calls"] = (
        ratio(sp["weierstrass.embed"].nested, calls("autgroup.act_plane")), "calls/act_plane",
        calls("autgroup.act_plane"))
    out["cli.error_frac"] = (ratio(sp["cli.run"].errors, calls("cli.run")), "fraction",
                             calls("cli.run"))
    for layer in LAYERS:
        names = [s for s in sp if s.split(".")[0] == layer]
        per_op(f"{layer}.calls", calls(*names), "calls/op")
        per_op(f"{layer}.self_ms", self_ms(*names), "ms/op")
        out[f"{layer}.share"] = (ratio(self_ms(*names), wall_ms), "fraction", n)
    rate = [len(s.latencies_ns) / (sum(s.latencies_ns) / 1e9) for s in (traced, untraced)]
    out["trace.overhead_frac"] = (1 - rate[0] / rate[1], "fraction", n)
    return out


def environment(seed: int) -> dict:
    import numpy as np
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the full result as JSON to this file")
    ap.add_argument("--compare", help="print metric ratios against this earlier --out file")
    ap.add_argument("--first-op", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "ellpar" / "__init__.py").is_file():
        print(f"error: no ellpar sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ellpar
    if Path(ellpar.__file__).resolve().parent != SRC / "ellpar":
        print(f"error: imported ellpar from {ellpar.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.first_op:
        return first_op(args.workload, args.seed)

    import harness
    workload = importlib.import_module(WORKLOADS[args.workload])
    env = environment(args.seed)
    print("environment: " + json.dumps(env))
    if hasattr(os, "sched_setaffinity"):
        # one core for this process and its set-up children, so the kernel
        # samples time the core the measured work runs on (harness.py)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    harness.run_for(workload.ops(args.seed + 1_000_003), WARMUP_S, harness.RunStats(),
                    harness.Speed())
    if args.trace:
        from tracer import Tracer
        untraced, traced = harness.RunStats(), harness.RunStats()
        tracer = Tracer()
        tracer.install()
        tracer.enable()
        try:
            leaks = tracer.unwrapped_references()
        finally:
            tracer.disable()
        harness.run_paired(workload.ops(args.seed), args.seconds, untraced, traced, tracer)
        for leak in leaks:
            print(f"untraced binding: {leak}")
        runs = (untraced, traced)
        metrics = per_layer(tracer, traced, untraced)
    else:
        speed = harness.Speed()
        setup = SetUp(args.workload, args.seed, speed)
        stats = harness.RunStats()
        harness.run_for(workload.ops(args.seed), args.seconds, stats, speed,
                        setup.spawn, SETUP_SPAWNS)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        runs, leaks = (stats,), []
        lat_ms = speed.scale(stats)
        not_in_p99 = getattr(workload, "NOT_IN_P99", ())
        metrics = end_to_end(stats, lat_ms, setup.times, rss_mb, not_in_p99)
        raw_ms = [x / 1e6 for x in stats.latencies_ns]
        print(f"unscaled CPU time: ops_per_s {len(raw_ms) / sum(raw_ms) * 1e3:.6g}, "
              f"latency_p50_ms {statistics.median(raw_ms):.6g}, "
              f"latency_p99_ms {quantile(raw_ms, 99):.6g}; kernel median "
              f"{statistics.median(speed.kernel_ns) / 1e6:.4f} ms over "
              f"{len(speed.kernel_ns)} samples (reference {harness.KERNEL_REF_MS} ms)")
        print(f"classes above p99 latency: "
              f"{tail(stats, lat_ms, metrics['latency_p99_ms'][0], not_in_p99)}")
        print("set-up spawns, rescaled CPU s: " + " ".join(f"{x:.4f}" for x in setup.times))

    attempted = sum(r.attempted for r in runs)
    classes: dict = {}
    for r in runs:
        for kind, tally in r.classes.items():
            row = classes.setdefault(kind, {"attempted": 0, "failed": 0, "reasons": {}})
            row["attempted"] += tally.attempted
            row["failed"] += tally.failed
            for reason, k in tally.reasons.items():
                row["reasons"][reason] = row["reasons"].get(reason, 0) + k
    failed = sum(row["failed"] for k, row in classes.items() if k not in workload.KNOWN_DEFECTS)
    known = sum(row["failed"] for k, row in classes.items() if k in workload.KNOWN_DEFECTS)
    correct = attempted > 0 and not failed and not leaks

    print(f"{'input class':28s} {'attempted':>9s} {'failed':>7s}  top reason")
    for kind in sorted(classes):
        row = classes[kind]
        top = max(row["reasons"], key=row["reasons"].get) if row["reasons"] else ""
        note = " (known defect)" if kind in workload.KNOWN_DEFECTS else ""
        print(f"{kind:28s} {row['attempted']:9d} {row['failed']:7d}  {top}{note}")
    print(f"failed: {failed} outside known defects, {known} in them, of {attempted}")
    print(f"{'metric':40s} {'value':>14s} {'unit':16s} samples")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit:16s} {n}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            old = json.load(fh)["metrics"]
        print(f"{'metric':40s} {'before':>14s} {'after':>14s} {'after/before':>12s}")
        for name, m in result["metrics"].items():
            if name in old:
                base = old[name]["value"]
                r = f"{m['value'] / base:12.4f}" if base else f"{'n/a':>12s}"
                print(f"{name:40s} {base:14.6g} {m['value']:14.6g} {r}")
    if args.out:
        full = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                    known_defect_failed=known, environment=env, classes=classes,
                    samples={k: n for k, (_, _, n) in metrics.items()})
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(full, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
