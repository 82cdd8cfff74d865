"""The closed-loop driver shared by the three workloads.

A workload is an endless stream of ``Op``s made from a seed.  One client in
one thread runs them back to back: the next operation starts only after the
previous one has finished and been checked.  Only ``Op.call`` is timed; input
generation and reference checking happen between operations.

An operation's latency is the CPU time of the process.  The library computes
in one thread (BLAS is pinned to one thread) and does no I/O, so on an idle
machine this equals its wall time; on a shared host it leaves out the time
the process waits descheduled.

CPU time still stretches when the host's cores are contended: on the
2-vCPU reference host a fixed piece of Python runs at one speed or about
1.35x slower, switching every 0.1 s to a few seconds, and the two cores
switch independently.  The benchmark process, and the set-up children it
starts, are therefore pinned to one core (run.py).  ``Speed`` therefore
times a fixed pure-Python kernel every ``Speed.INTERVAL_S`` of the run, and
``Speed.scale`` rescales each time measured between two kernel samples to
the speed at which the kernel takes ``KERNEL_REF_MS``: an operation's
reported latency is its CPU time times KERNEL_REF_MS / (local kernel time).
"""

from __future__ import annotations

import array
import bisect
import collections
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

# CPU time of one ``_kernel`` call at the host's uncontended speed (2-vCPU
# Xeon, Python 3.11); reported times are in milliseconds at that speed
KERNEL_REF_MS = 0.19


class Mismatch(Exception):
    """The library's output differs from the reference known by construction."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def cycle(rng: random.Random, mix: dict, first) -> Iterator:
    """Input classes in shuffled rounds of ``mix`` (class -> count per round);
    the first round starts with ``first``, so set-up time does not depend on
    the seed's first draw."""
    kinds = [k for k, n in mix.items() for _ in range(n)]
    rng.shuffle(kinds)
    kinds.remove(first)
    kinds.insert(0, first)
    while True:
        yield from kinds
        rng.shuffle(kinds)


def stratified(rng: random.Random, n: int) -> Iterator[float]:
    """Uniform draws in [0, 1), stratified: each run of ``n`` draws takes one
    from each of ``n`` equal slices, in random order."""
    while True:
        slices = list(range(n))
        rng.shuffle(slices)
        for k in slices:
            yield (k + rng.random()) / n


@dataclass
class Op:
    """One operation: ``call`` runs the library on generated inputs;
    ``check`` compares its output with the reference, raising ``Mismatch``
    on a wrong answer and returning the round-trip error (or None when the
    operation recovers no coordinates).  ``request`` is the JSON request of a
    command-line operation, which ``check`` also accepts answered by a
    separate ``python -m ellpar.cli`` process as (exit code, stdout)."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[float]]
    request: Any = None


@dataclass
class ClassTally:
    attempted: int = 0
    failed: int = 0
    reasons: collections.Counter = field(default_factory=collections.Counter)


@dataclass
class RunStats:
    # compact, so that peak memory does not grow with the operations run
    latencies_ns: array.array = field(default_factory=lambda: array.array("q"))
    started_ns: array.array = field(default_factory=lambda: array.array("q"))  # wall clock
    kinds: list = field(default_factory=list)                                  # interned
    roundtrip: array.array = field(default_factory=lambda: array.array("d"))
    classes: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(c.attempted for c in self.classes.values())

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.classes.values())


def _kernel() -> complex:
    """Fixed work in the style of the library: complex 3-vector arithmetic."""
    v = (0.3 + 0.1j, 0.2 - 0.4j, 1.0 + 0j)
    acc = 0j
    for _ in range(250):
        w = (v[2], v[0], v[1])
        v = (v[1] * w[2] - v[2] * w[1], v[2] * w[0] - v[0] * w[2], v[0] * w[1] - v[1] * w[0])
        n = abs(v[0]) + abs(v[1]) + abs(v[2])
        v = (v[0] / n + 0.1, v[1] / n, v[2] / n - 0.1j)
        acc += v[0]
    return acc


class Speed:
    """Kernel CPU times sampled through a run, and the rescaling they give."""

    INTERVAL_S = 0.03

    def __init__(self) -> None:
        self.at_ns = array.array("q")
        self.kernel_ns = array.array("q")
        self._next = 0.0

    def sample(self) -> None:
        """Record the median CPU time of three kernel calls."""
        times = []
        for _ in range(3):
            t0 = time.process_time_ns()
            _kernel()
            times.append(time.process_time_ns() - t0)
        self.kernel_ns.append(sorted(times)[1])
        self.at_ns.append(time.perf_counter_ns())
        self._next = time.perf_counter() + self.INTERVAL_S

    def maybe_sample(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def factor(self, at_ns: int) -> float:
        """KERNEL_REF_MS over the mean kernel time of the samples on either
        side of the wall-clock instant ``at_ns``."""
        i = bisect.bisect(self.at_ns, at_ns)
        near = self.kernel_ns[max(i - 1, 0):i + 1]
        return KERNEL_REF_MS * 1e6 * len(near) / sum(near)

    def scale(self, stats: RunStats) -> list:
        """The run's latencies in ms at the reference speed."""
        return [ns / 1e6 * self.factor(at) for ns, at in zip(stats.latencies_ns,
                                                             stats.started_ns)]


def run_one(op: Op, stats: RunStats) -> None:
    tally = stats.classes.setdefault(op.kind, ClassTally())
    tally.attempted += 1
    stats.started_ns.append(time.perf_counter_ns())
    stats.kinds.append(sys.intern(op.kind))
    t0 = time.process_time_ns()
    try:
        out = op.call()
    except Exception as exc:  # an unexpected library error is a failed operation
        stats.latencies_ns.append(time.process_time_ns() - t0)
        tally.failed += 1
        tally.reasons[f"raised {type(exc).__name__}: {str(exc)[:60]}"] += 1
        return
    stats.latencies_ns.append(time.process_time_ns() - t0)
    try:
        err = op.check(out)
    except Mismatch as exc:
        tally.failed += 1
        tally.reasons[f"wrong: {str(exc)[:60]}"] += 1
        return
    except (AttributeError, TypeError, ValueError, KeyError, IndexError) as exc:
        # output of the wrong shape for the reference comparison
        tally.failed += 1
        tally.reasons[f"malformed output: {type(exc).__name__}"] += 1
        return
    if err is not None:
        stats.roundtrip.append(err)


def run_for(ops: Iterator[Op], seconds: float, stats: RunStats, speed: Speed,
            side: Optional[Callable[[], None]] = None, side_count: int = 0) -> None:
    """Run operations from ``ops`` until ``seconds`` of wall time have passed,
    sampling ``speed`` as they go.  ``side`` is called ``side_count`` times,
    spread evenly over the run, between two operations."""
    start = time.perf_counter()
    due = [start + (k + 0.5) * seconds / side_count for k in range(side_count)]
    speed.sample()
    while time.perf_counter() < start + seconds:
        if due and time.perf_counter() >= due[0]:
            due.pop(0)
            side()
        speed.maybe_sample()
        run_one(next(ops), stats)
    for _ in due:
        side()
    speed.sample()


def run_paired(ops: Iterator[Op], seconds: float, plain: RunStats, traced: RunStats,
               tracer) -> None:
    """Run each operation twice, untraced and traced, alternating which goes
    first, so the tracing overhead is measured on identical inputs."""
    deadline = time.perf_counter() + seconds
    traced_first = False
    while time.perf_counter() < deadline:
        op = next(ops)
        for traced_turn in ((True, False) if traced_first else (False, True)):
            if traced_turn:
                tracer.enable()
                try:
                    run_one(op, traced)
                finally:
                    tracer.disable()
            else:
                run_one(op, plain)
        traced_first = not traced_first
