#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the library).

    python3 bench/selftest.py

1. A short run of each workload, untraced and traced, prints every metric
   named in BENCHMARK.json with its unit and a sample count.
2. Reference checking is live: a wrong answer injected into the library
   counts as a failure and lowers ``ok_frac``, and ``correct`` turns false.
3. The tracer leaves no binding inside ``ellpar`` that reaches a traced
   function unwrapped, reports one planted on purpose, and sees all 16
   ``embed`` calls inside ``act_plane``.
4. The reference P function satisfies the cubic relation and agrees with
   the library's.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402  (pins BLAS threads before numpy is imported)
import harness  # noqa: E402
import refmath as rm  # noqa: E402
from tracer import Tracer  # noqa: E402

from ellpar import autgroup as ag  # noqa: E402
from ellpar import cli, modspace as ms, parabolic as pa  # noqa: E402
from ellpar import weierstrass as we  # noqa: E402
from ellpar.jaclattice import CurveSpec  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def short_runs() -> None:
    for w in SPEC["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", w["name"], "--seed", "7",
                 "--seconds", "2", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=170)
            check(proc.returncode == 0, f"{w['name']} trace={trace} exits 0 ({proc.stderr[-200:]})")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{w['name']} trace={trace} result keys")
            check(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
                  f"{w['name']} trace={trace} correct with {result['attempted']} operations, "
                  f"none failed outside known defects")
            table = {ln.split()[0]: ln.split() for ln in lines[:-1] if ln.strip()}
            for m in SPEC[group]:
                got = result["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"]
                      and isinstance(got["value"], (int, float)),
                      f"{w['name']} prints {m['name']} in {m['unit']}")
                row = table.get(m["name"])
                check(row is not None and row[-1].isdigit(),
                      f"{w['name']} lists {m['name']} with a sample count")


def injected_wrong_answers() -> None:
    wrong = {
        "dual_plane": (ms, "sigma_cover_count", lambda line, curve: 4),
        "stability_scan": (pa, "locus", lambda cls, flag: "Ugen"),
        "cli_batch": (cli, "_dump", lambda obj: json.dumps({"ok": False, "result": {}})),
    }
    for name, (module, attr, fake) in wrong.items():
        workload = __import__(name)
        ops = workload.ops(3)
        batch = [next(ops) for _ in range(80)]
        clean, bad = harness.RunStats(), harness.RunStats()
        for op in batch:
            harness.run_one(op, clean)
        original = getattr(module, attr)
        setattr(module, attr, fake)
        try:
            for op in batch:
                harness.run_one(op, bad)
        finally:
            setattr(module, attr, original)
        ok = run.end_to_end(bad, [x / 1e6 for x in bad.latencies_ns], [1.0], 1.0)["ok_frac"][0]
        unexpected = [k for k, t in bad.classes.items()
                      if t.failed and k not in workload.KNOWN_DEFECTS]
        check(bad.failed > clean.failed and ok < 1 and unexpected,
              f"{name}: injected wrong {attr} fails {bad.failed} of {bad.attempted} "
              f"(clean run: {clean.failed}); ok_frac {ok:.3f}")


def tracer_coverage() -> None:
    original = ms.intersect_curve
    tracer = Tracer()
    tracer.install()
    tracer.enable()
    try:
        leaks = tracer.unwrapped_references()
        check(not leaks, f"no unwrapped binding to a traced function ({leaks[:3]})")
        ms.planted_alias = original
        try:
            check(any("planted_alias" in x for x in tracer.unwrapped_references()),
                  "a planted unwrapped binding is reported")
        finally:
            del ms.planted_alias
        curve = CurveSpec(0.3 + 1.1j)
        ag.act_plane(ag.group_elements(curve)[4], curve)
        check(tracer.spans["weierstrass.embed"].nested == 16,
              f"all {tracer.spans['weierstrass.embed'].nested} embed calls in act_plane traced")
    finally:
        tracer.disable()
    check(not hasattr(we.wp, "__wrapped__"), "disable restores the library")


def reference_math() -> None:
    rng = random.Random(5)
    worst_cubic = worst_lib = 0.0
    for _ in range(50):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        g2, g3 = rm.invariants(tau)
        z = rm.point(rng.random(), rng.random(), tau)
        p, dp = rm.wp(z, tau)
        worst_cubic = max(worst_cubic, abs(dp * dp - (4 * p ** 3 - g2 * p - g3))
                          / max(1.0, abs(dp) ** 2))
        lp, _ = we.wp(z, CurveSpec(tau))
        worst_lib = max(worst_lib, abs(lp - p) / max(1.0, abs(p)))
    check(worst_cubic < 1e-10, f"reference P satisfies the cubic ({worst_cubic:.2g})")
    check(worst_lib < 1e-10, f"reference P agrees with the library ({worst_lib:.2g})")


if __name__ == "__main__":
    reference_math()
    tracer_coverage()
    injected_wrong_answers()
    short_runs()
    print("selftest passed")
