"""Smoke test of the benchmark's workloads: the first operations of each
workload, run in process and scored by the workload's own reference check,
fail only in the input classes the workload lists as known defects."""

import cmath
import importlib
import json
import math
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from ellpar import jaclattice as jl
from ellpar import modspace as ms
from ellpar import parabolic as pa
from ellpar import weierstrass as we
from ellpar.bundles import classify_triple
from ellpar.jaclattice import CurveSpec, JacPoint

from conftest import (close_to_reference, cluster_bits, cluster_reference, contains_reference,
                      cubic_roots_reference, equal_reference, frame_lambda,
                      invert_embedding_reference, make_weights_reference,
                      merge_triple_reference, wp_reference)

BENCH = Path(__file__).resolve().parent.parent / "bench"
OPS = 300


@pytest.mark.parametrize("workload", ["dual_plane", "stability_scan", "cli_batch"])
def test_workload_fails_only_in_known_defect_classes(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    harness = importlib.import_module("harness")
    module = importlib.import_module(workload)
    stats = harness.RunStats()
    for op in islice(module.ops(1), OPS):
        harness.run_one(op, stats)
    assert stats.attempted == OPS
    failed = {kind: dict(t.reasons) for kind, t in stats.classes.items()
              if t.failed and kind not in module.KNOWN_DEFECTS}
    assert failed == {}


def _outcome(op, with_lambda=True):
    """An operation's answer, every stored value by repr, or the error it raised;
    with_lambda=False leaves out the fiber coordinate."""
    try:
        out = op.call()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if not isinstance(out, tuple):
        return repr(out)
    n, cls, lam = out
    if hasattr(cls, "label"):
        cls = (cls.label, [(p.s, p.t) for p in cls.triple or (cls.point,)])
    return repr((n, cls, lam and with_lambda and (lam.num, lam.den)))


def test_dual_plane_answers_alike_from_a_memoised_and_a_fresh_line(monkeypatch):
    # each operation asks sigma_cover_count and then psi_plus about one line
    # object, so psi_plus reads the intersection its line keeps; given an
    # equal fresh line instead, it solves again and must answer the same
    monkeypatch.syspath_prepend(str(BENCH))
    batch = list(islice(importlib.import_module("dual_plane").ops(1), OPS))
    solves = []
    cubic_roots = we._cubic_roots
    monkeypatch.setattr(we, "_cubic_roots", lambda *a: solves.append(a) or cubic_roots(*a))
    memoised = [_outcome(op) for op in batch]
    memoised_solves = len(solves)
    psi_plus = ms.psi_plus
    monkeypatch.setattr(ms, "psi_plus", lambda ip, curve: psi_plus(
        ms.IncidencePoint(ip.x, we.PlaneLine(*ip.line.vec())), curve))
    fresh = [_outcome(op) for op in batch]
    assert memoised_solves < len(solves) - memoised_solves
    assert fresh == memoised


def test_dual_plane_lambda_on_the_benchmark_inputs_matches_the_frame_reference(monkeypatch):
    # psi_plus reads lambda in one chart of the line; on the benchmark's own
    # inputs it agrees with lambda from the parameters of the same solved
    # points in the frame p1, p2, and every other part of an answer (count,
    # class, coordinates, error type) equals a cold solve of a fresh line
    monkeypatch.syspath_prepend(str(BENCH))
    batch = list(islice(importlib.import_module("dual_plane").ops(1), 500))
    psi_plus = ms.psi_plus
    far = []
    checked_chords = 0

    def checked(ip, curve):
        nonlocal checked_chords
        cls, lam = psi_plus(ip, curve)
        if cls.label == "T1":
            checked_chords += 1
            pts = [p for _, p in sorted(we._solved(ip.line, curve).hits,
                                        key=lambda h: h[0].coords())]
            want = frame_lambda(pts, ip.x.vec())
            if not lam.close_to(want, tol=1e-9):
                far.append((ip, lam, want))
        return cls, lam

    monkeypatch.setattr(ms, "psi_plus", checked)
    memoised = [_outcome(op, with_lambda=False) for op in batch]
    monkeypatch.setattr(ms, "psi_plus", lambda ip, curve: psi_plus(
        ms.IncidencePoint(ip.x, we.PlaneLine(*ip.line.vec())), curve))
    cold = [_outcome(op, with_lambda=False) for op in batch]
    assert far == []
    assert cold == memoised
    assert checked_chords > 300


def test_dual_plane_inversions_take_at_most_five_agm_steps(monkeypatch):
    # the elliptic logs of the first operations, on the three benchmark
    # curves: an inversion takes two square roots before its AGM steps, one
    # per step, and one for the ordinate
    monkeypatch.syspath_prepend(str(BENCH))
    dual_plane = importlib.import_module("dual_plane")
    batch = list(islice(dual_plane.ops(1), OPS))
    inversions = []
    invert = we._invert_embedding
    with monkeypatch.context() as m:
        m.setattr(we, "_invert_embedding", lambda *a: inversions.append(a) or invert(*a))
        for op in batch:
            _outcome(op)
    assert {curve.tau for *_, curve in inversions} == set(dual_plane.CURVES)
    assert len(inversions) > 2 * OPS
    roots = []
    sqrt = cmath.sqrt
    steps = set()
    with monkeypatch.context() as m:
        m.setattr(cmath, "sqrt", lambda v: roots.append(v) or sqrt(v))
        for args in inversions:
            roots.clear()
            invert(*args)
            steps.add(len(roots) - 3)
    assert max(steps) <= 5


def _first_line_ops(monkeypatch) -> dict:
    """The first OPS dual-plane operations of seed 1 of each line class."""
    monkeypatch.syspath_prepend(str(BENCH))
    dual_plane = importlib.import_module("dual_plane")
    firsts = {kind: [] for kind in dual_plane.MIX if kind != "rank"}
    for op in dual_plane.ops(1):
        if op.kind in firsts and len(firsts[op.kind]) < OPS:
            firsts[op.kind].append(op)
        if all(len(ops) == OPS for ops in firsts.values()):
            return firsts


def test_dual_plane_root_clusters_equal_the_reference_loop_bit_for_bit(monkeypatch):
    # the roots _solve clusters on the lines of the first operations of each
    # line class: same clusters and same bits as the loop over lists
    firsts = _first_line_ops(monkeypatch)
    roots = []
    cubic_roots = we._cubic_roots
    monkeypatch.setattr(we, "_cubic_roots", lambda *a: roots.append(cubic_roots(*a)) or roots[-1])
    for ops in firsts.values():
        for op in ops:
            _outcome(op)
    # the flex tangent at the origin is the line at infinity, which solves no cubic
    assert len(roots) > (len(firsts) - 1) * OPS
    for r in roots:
        want = [(complex(sum(c) / len(c)), len(c)) for c in cluster_reference(r)]
        assert cluster_bits(we._clusters(r)) == cluster_bits(want), r


def test_dual_plane_solved_order_is_the_stable_sort_of_its_hits(monkeypatch):
    # _Solved orders a line's three hits by insertion: on the lines of the
    # first operations of each line class it is sorted's stable order, on
    # the tangents and flexes too, where one JacPoint is hit two and three times
    firsts = _first_line_ops(monkeypatch)
    solved = []
    solve = we._solve
    monkeypatch.setattr(we, "_solve", lambda *a: solved.append(solve(*a)) or solved[-1])
    for ops in firsts.values():
        for op in ops:
            _outcome(op)
    assert len(solved) > (len(firsts) - 1) * OPS
    repeats = set()
    for hits in solved:
        want = tuple(sorted(hits, key=lambda h: jl._sort_key(h[0])))
        got = we._Solved(hits).order
        assert len(got) == 3 and all(a is b for a, b in zip(got, want)), hits
        repeats.add(max(sum(z is y for y, _ in hits) for z, _ in hits))
    assert repeats == {1, 2, 3}


def test_cli_batch_answers_alike_with_the_reference_wp(monkeypatch):
    # wp's per-curve series table changes no bit of any response: the first
    # cli-batch requests dump to the same text with the reference wp
    monkeypatch.syspath_prepend(str(BENCH))
    batch = list(islice(importlib.import_module("cli_batch").ops(1), OPS))
    calls = []
    wp = we.wp
    monkeypatch.setattr(we, "wp", lambda z, c: calls.append(z) or wp(z, c))
    fast = [op.call() for op in batch]
    fast_calls = len(calls)
    monkeypatch.setattr(we, "wp", lambda z, c: calls.append(z) or wp_reference(z, c))
    assert [op.call() for op in batch] == fast
    assert fast_calls == len(calls) - fast_calls > 50


def test_cli_batch_answers_alike_with_the_reference_make_weights(monkeypatch):
    # weights on integer numerators change no byte of any response: the
    # first cli-batch requests dump to the same text with the Fraction
    # make_weights and grades
    monkeypatch.syspath_prepend(str(BENCH))
    batch = list(islice(importlib.import_module("cli_batch").ops(1), OPS))
    fast = [op.call() for op in batch]
    calls = []
    monkeypatch.setattr(pa, "make_weights",
                        lambda *raw: calls.append(raw) or make_weights_reference(*raw))
    assert [op.call() for op in batch] == fast
    assert len(calls) > 20


def _stored(x):
    """Every value x stores, recursively, by repr: equal iff bit-identical."""
    if isinstance(x, jl.Value):
        return [_stored(getattr(x, name)) for name in x._fields]
    if isinstance(x, (tuple, list)):
        return [_stored(v) for v in x]
    if isinstance(x, dict):
        return [(k, _stored(v)) for k, v in x.items()]
    return repr(x)


def test_stored_tells_apart_values_one_ulp_apart():
    # _stored recurses through a value's fields: JacPoint's repr prints a
    # float point to 6 digits, its stored coordinates keep every bit
    curve = CurveSpec(0.3 + 1.1j)
    p, q = JacPoint(curve, 0.25, 0.5), JacPoint(curve, math.nextafter(0.25, 1), 0.5)
    assert repr(p) == repr(q)
    assert _stored(p) != _stored(q)
    assert _stored(pa.Witness(1, p, 0)) != _stored(pa.Witness(1, q, 0))


def _stored_outcome(op):
    try:
        return _stored(op.call())
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _counted(f, calls):
    def counted(*args, **kwargs):
        calls.append(f.__name__)
        return f(*args, **kwargs)
    return counted


@pytest.mark.parametrize("workload", ["stability_scan", "dual_plane"])
def test_workload_answers_alike_with_the_reference_primitives(workload, monkeypatch):
    # plane incidence on attributes, the float path of equal, the line
    # cubic's written-out candidates and the in-place pairs of merge_triple
    # change no bit of any answer
    monkeypatch.syspath_prepend(str(BENCH))
    batch = list(islice(importlib.import_module(workload).ops(1), OPS))
    fast = [_stored_outcome(op) for op in batch]
    calls = []
    monkeypatch.setattr(we.PlaneLine, "contains", _counted(contains_reference, calls))
    monkeypatch.setattr(we.PlanePoint, "close_to", _counted(close_to_reference, calls))
    monkeypatch.setattr(we.PlaneLine, "close_to", _counted(close_to_reference, calls))
    monkeypatch.setattr(we, "_cubic_roots", _counted(cubic_roots_reference, calls))
    # the definition, which no other module binds: each caller reaches it there
    assert [name for name, module in sys.modules.items() if name.startswith("ellpar")
            and getattr(module, "equal", None) is jl.equal] == ["ellpar.jaclattice"]
    equal = _counted(equal_reference, calls)
    monkeypatch.setattr(jl, "equal", equal)
    # merge_triple is bound at its definition and in weierstrass; the
    # reference decides its pairs through the counted equal_reference
    bound = [name for name, module in sys.modules.items() if name.startswith("ellpar")
             and getattr(module, "merge_triple", None) is jl.merge_triple]
    assert bound == ["ellpar.jaclattice", "ellpar.weierstrass"]
    merge = _counted(merge_triple_reference, calls)
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "merge_triple",
                            lambda zs, tol=jl.EQ_TOL: merge(zs, tol, equal))
    assert [_stored_outcome(op) for op in batch] == fast
    used = {"stability_scan": {"close_to_reference", "contains_reference", "equal_reference",
                               "merge_triple_reference"},
            "dual_plane": {"contains_reference", "cubic_roots_reference", "equal_reference",
                           "merge_triple_reference"}}
    assert set(calls) == used[workload]


def _carlson_log(x, y, tables, curve):
    return invert_embedding_reference(x, y, [table[2] for table in tables], curve)


def _close_answers(a, b) -> bool:
    """Two answers of plain values alike: the same shape, strings, booleans
    and integers, and every float within 1e-12 of max(1, |float|)."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _close_answers(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_close_answers, a, b))
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= 1e-12 * max(1.0, abs(a))
    return type(a) is type(b) and a == b


def _answer(op):
    """An operation's verdict (None when its check passes, else "wrong" or
    the type of the error it raised) and its output as plain values: a
    dual-plane line's answer as its count and its class's label and points,
    a command-line one as its exit code and its JSON, a rank as it is.  A
    line's cross-ratio is left to the verdict: near-coincident points, as on
    a near-tangent line, amplify the roundoff of the points in it."""
    try:
        out = op.call()
    except Exception as exc:
        return type(exc).__name__, None
    try:
        op.check(out)
        verdict = None
    except Exception:
        verdict = "wrong"
    if not isinstance(out, tuple):
        return verdict, out
    if isinstance(out[1], str):
        return verdict, [out[0], json.loads(out[1])]
    n, cls, _ = out
    if hasattr(cls, "label"):
        cls = [cls.label] + [list(p.coords()) for p in cls.triple or (cls.point,)]
    return verdict, [n, cls]


@pytest.mark.parametrize("workload", ["dual_plane", "cli_batch"])
def test_workload_answers_alike_with_the_agm_and_the_carlson_logarithm(workload, monkeypatch):
    # the complex AGM replaced Carlson's R_F in the elliptic logarithm: the
    # first operations pass or fail alike, with the same counts, labels and
    # exit codes, and every point and coordinate within 1e-12
    monkeypatch.syspath_prepend(str(BENCH))
    batch = list(islice(importlib.import_module(workload).ops(1), 4 * OPS))
    agm = [_answer(op) for op in batch]
    calls = []
    monkeypatch.setattr(we, "_invert_embedding", _counted(_carlson_log, calls))
    carlson = [_answer(op) for op in batch]
    assert len(calls) > OPS
    for op, (verdict, out), (want_verdict, want) in zip(batch, agm, carlson):
        assert verdict == want_verdict, op.kind
        assert _close_answers(out, want), (op.kind, out, want)


def test_the_tracer_wraps_every_traced_primitive(monkeypatch):
    # the tier-1 copy of bench/selftest.py's coverage check: no binding in
    # ellpar bypasses a wrapper, a stability call is counted in its own span
    # and in the plane primitives it calls, and disable restores the library
    monkeypatch.syspath_prepend(str(BENCH))
    tracer_module = importlib.import_module("tracer")
    curve = CurveSpec(0.3 + 1.1j)
    zs = [JacPoint(curve, Fraction(1, 5), Fraction(0)), JacPoint(curve, Fraction(0), Fraction(1, 7))]
    cls = classify_triple(*zs, jl.neg(jl.add(*zs)))
    flag = pa.Flag(we.PlanePoint.of(1, 2, 3), we.PlaneLine.of(1, 1, -1))
    contains = we.PlaneLine.contains
    tracer = tracer_module.Tracer()
    tracer.install()
    tracer.enable()
    try:
        assert tracer.unwrapped_references() == []
        with monkeypatch.context() as m:  # an alias of a method is found too
            m.setattr(we, "planted_alias", contains, raising=False)
            assert tracer.unwrapped_references() == [
                "ellpar.weierstrass.planted_alias -> weierstrass.plane.contains"]
        verdict = pa.stability(cls, flag, pa.PROBE_MINUS)
        spans = {name: span.calls for name, span in tracer.spans.items() if span.calls}
    finally:
        tracer.disable()
    assert verdict.status == "Stable"
    assert spans["parabolic.stability"] == 1 and spans["weierstrass.plane.contains"] >= 1
    for mod, path in tracer_module.TRACED.values():
        owner = importlib.import_module(f"ellpar.{mod}")
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name)
        raw = vars(owner)[attr]
        assert not hasattr(getattr(raw, "__func__", raw), "__wrapped__"), path
