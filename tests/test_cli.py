import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest

from ellpar import cli
from ellpar import jaclattice as jl
from ellpar.jaclattice import CurveSpec

from conftest import holonomy_scalars

TAU = [0.3, 1.1]


def ok(command, payload):
    resp, code = cli.run({"command": command, "payload": payload})
    assert code == cli.EXIT_OK, resp
    assert resp["ok"]
    return resp["result"]


def test_classify_bundle_roundtrip():
    res = ok("classify-bundle", {
        "tau": TAU,
        "triple": [[1, 5, 0, 1], [0, 1, 1, 7], [4, 5, 6, 7]],
    })
    assert res["label"] == "T1"
    assert [1, 5, 0, 1] in res["triple"]


def test_graded_and_tu_line_agree_with_library():
    cls = {"label": "T21", "point": [1, 5, 0, 1]}
    g = ok("graded", {"tau": TAU, "class": cls})
    assert len(g["triple"]) == 3
    line = ok("tu-line", {"tau": TAU, "class": cls})["line"]
    pts = ok("intersect-line", {"tau": TAU, "line": line})
    assert sorted(pts["multiplicities"]) == [1, 2]


def test_type_facts_and_subbundles():
    tf = ok("type-facts", {"label": "T22"})
    assert tf == {"endo_dim": 5, "admits_stable": False, "sigma_count": None}
    cfg = ok("subbundles", {"tau": TAU, "class": {"label": "T33", "point": [1, 3, 0, 1]}})
    assert cfg["rank1"][0]["dim"] == 2


def test_classify_monodromy():
    A = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    B = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    res = ok("classify-monodromy", {"tau": TAU, "A": A, "B": B})
    assert res["label"] == "T31"
    assert res["point"] == [0, 1, 0, 1]


def test_classify_monodromy_decides_a_t1_zero_sum_once(monkeypatch):
    # the diagonal pair of the exact triple (1/5, 0), (0, 1/7), (4/5, 6/7):
    # one check that its points sum to 0, classify_bundle's own
    curve = CurveSpec(complex(*TAU))
    scalars = [holonomy_scalars(jl.canon((s, t), curve))
               for s, t in ((Fraction(1, 5), 0), (0, Fraction(1, 7)),
                            (Fraction(4, 5), Fraction(6, 7)))]
    A, B = ([[[x.real, x.imag] if i == j else 0 for j in range(3)] for i, x in enumerate(d)]
            for d in zip(*scalars))
    calls = []
    sums_to_zero = jl.sums_to_zero
    monkeypatch.setattr(jl, "sums_to_zero", lambda *a: calls.append(a) or sums_to_zero(*a))
    assert ok("classify-monodromy", {"tau": TAU, "A": A, "B": B})["label"] == "T1"
    assert len(calls) == 1


@pytest.mark.parametrize("tau, b1, b2", [(TAU, [0.7, 0.2], [1.3, -0.1]),
                                         # three distinct points, two eigenvalues
                                         # 1e-10 and 1e-12 apart
                                         ([0.3, 1], 1e-5, 1e-5 + 1e-10),
                                         ([0.3, 1], 1e-4, 1e-4 + 1e-12)])
def test_universal_family(tau, b1, b2):
    res = ok("universal-family", {"tau": tau, "b1": b1, "b2": b2})
    assert res["class"]["label"] == "T1"
    assert "config" in res
    assert len(res["config"]["rank1"]) == 3


def test_universal_family_lists_a_configuration_only_beside_a_t1_class():
    # as b2 = b1 (1 + d) leaves b1 the class goes T21, T22, T1: the three
    # loci are the configuration of three distinct points, so they come with
    # the class that reads three
    labels = set()
    for d in (0, 1e-9, 1e-8, 1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 1e-4):
        res = ok("universal-family", {"tau": TAU, "b1": [0.7, 0.2], "b2": [0.7 * (1 + d), 0.2]})
        label = res["class"]["label"]
        labels.add(label)
        assert ("config" in res) == (label == "T1"), (d, label)
    assert "T1" in labels and len(labels) > 1


def test_weights_accept_fraction_strings():
    res = ok("weights", {"raw": ["1/5", "1/10", "-3/10"]})
    assert res["chamber"] == "Pplus"
    assert res["weights"] == [0.2, 0.1, -0.3]


def test_stability_and_locus():
    payload = {
        "tau": TAU,
        "class": {"label": "T1", "triple": [[1, 5, 0, 1], [0, 1, 1, 7], [4, 5, 6, 7]]},
        "flag": {"P": [1, 1, 0], "L": [1, -1, -1]},
    }
    res = ok("stability", dict(payload, weights=["1/5", "-1/10", "-1/10"]))
    assert res["verdict"] == "Unstable"
    assert res["witness"]["rank"] == 2
    res = ok("stability", dict(payload, weights=["1/5", "1/10", "-3/10"]))
    assert res["verdict"] == "Stable" and "witness" not in res
    assert ok("locus", payload)["locus"] == "SigmaPlus"


def test_normalize_flag_and_flip():
    payload = {
        "tau": TAU,
        "class": {"label": "T1", "triple": [[1, 5, 0, 1], [0, 1, 1, 7], [4, 5, 6, 7]]},
        "flag": {"P": [1, 1, 1], "L": [-2, 1, 1]},
        "chamber": "Pminus",
    }
    res = ok("normalize-flag", payload)
    assert res["coord"] == [2.0, 1.0]
    assert ok("flip", {"t": 1})["lambda"] == "inf"
    assert ok("flip", {"t": "inf"})["lambda"] == [1.0, 1.0]
    assert ok("flip", {"t": [2, 1]})["lambda"] == [2.0, 1.0]


def test_psi_plus_and_sigma_count():
    line = ok("tu-line", {
        "tau": TAU,
        "class": {"label": "T1", "triple": [[1, 5, 0, 1], [0, 1, 1, 7], [4, 5, 6, 7]]},
    })["line"]
    assert ok("sigma-count", {"tau": TAU, "line": line})["count"] == 3


def test_covering_abel_torelli():
    res = ok("covering", {"z1": "2", "z2": "2"})
    assert res == {"F2": 12.0, "F3": 16.0, "on_cusp": True}
    res = ok("abel", {"tau": TAU, "pair": [[1, 5, 0, 1], [4, 5, 0, 1]]})
    assert res["point"] == [0, 1, 0, 1]
    assert ok("torelli", {"tau1": TAU, "tau2": [1.3, 1.1]})["isomorphic"]
    assert not ok("torelli", {"tau1": [0, 1], "tau2": [0, 2]})["isomorphic"]


AUT_ELEMENTS_STDOUT = (
    '{"diagnostics":[],"ok":true,"result":{"elements":['
    + ",".join('{"dual":%s,"shift":%s}' % (dual, shift)
               for dual in ("false", "true")
               for shift in ("[0,1,0,1]", "[0,1,1,3]", "[0,1,2,3]", "[1,3,0,1]", "[1,3,1,3]",
                             "[1,3,2,3]", "[2,3,0,1]", "[2,3,1,3]", "[2,3,2,3]"))
    + "]}}\n")


def test_aut_elements_prints_the_eighteen_shifts(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(
        {"command": "aut-elements", "payload": {"tau": TAU}})))
    assert cli.main([]) == cli.EXIT_OK
    assert capsys.readouterr().out == AUT_ELEMENTS_STDOUT


def test_exact_point_reduces_into_the_fundamental_domain():
    p = cli.parse_point([-1, 3, 4, 3], CurveSpec(complex(*TAU)))
    assert (p.s, p.t) == (Fraction(2, 3), Fraction(1, 3))
    assert type(p.s) is Fraction and type(p.t) is Fraction
    assert cli.parse_point([3, -4, 0, 5], CurveSpec(complex(*TAU))).s == Fraction(1, 4)


def test_aut_commands():
    els = ok("aut-elements", {"tau": TAU})["elements"]
    assert len(els) == 18
    g = {"shift": [0, 1, 0, 1], "dual": True}
    res = ok("aut-act", {"tau": TAU, "g": g,
                         "target": {"class": {"label": "T21", "point": [1, 5, 0, 1]}}})
    assert res["class"] == {"label": "T21", "point": [4, 5, 0, 1]}
    res = ok("aut-act", {"tau": TAU, "g": g, "target": "plane"})
    assert len(res["matrix"]) == 3
    res = ok("aut-act", {"tau": TAU, "g": g,
                         "target": {"class": {"label": "T21", "point": [1, 5, 0, 1]},
                                    "coord": [2, 1], "chamber": "Pminus"}})
    assert res["coord"] == [2.0, 1.0] and res["chamber"] == "Pminus"


AUT_CLASS = {"label": "T21", "point": [1, 5, 0, 1]}


@pytest.mark.parametrize("dual", ["false", "x", 1, 0, [], None], ids=repr)
def test_aut_act_reads_dual_only_as_a_json_boolean(dual):
    resp, code = cli.run({"command": "aut-act", "payload": {
        "tau": TAU, "g": {"shift": [0, 1, 0, 1], "dual": dual}, "target": {"class": AUT_CLASS}}})
    assert code == cli.EXIT_SCHEMA and resp["result"]["error"] == "SchemaViolation", resp


@pytest.mark.parametrize("chamber", ["bogus", "Wall", 1])
def test_aut_act_refuses_a_chamber_as_normalize_flag_does(chamber):
    act = {"command": "aut-act", "payload": {
        "tau": TAU, "g": {"shift": [0, 1, 0, 1], "dual": True},
        "target": {"class": AUT_CLASS, "coord": [2, 1], "chamber": chamber}}}
    normalize = {"command": "normalize-flag", "payload": {
        "tau": TAU, "class": AUT_CLASS, "flag": {"P": [1, 2, 3], "L": [1, 1, -1]},
        "chamber": chamber}}
    refused = ({"ok": False, "result": {"error": "ValueError",
                                        "message": "chamber must be Pminus or Pplus"},
                "diagnostics": []}, cli.EXIT_DOMAIN)
    assert cli.run(act) == refused and cli.run(normalize) == refused


AUT_TARGETS = ["plane",
               {"class": {"label": "T31", "point": [1, 3, 2, 3]}},
               {"class": {"label": "T32", "point": [0, 1, 1, 3]}},
               {"class": {"label": "T33", "point": [2, 3, 0, 1]}},
               {"class": {"label": "T21", "point": [0.2, 0.1]}},
               {"class": {"label": "T1", "triple": [[1, 5, 0, 1], [0, 1, 1, 7], [4, 5, 6, 7]]}},
               {"class": {"label": "T31", "point": [0, 1, 0, 1]}, "coord": [0.4, 1],
                "chamber": "Pplus"}]


def test_aut_act_answers_alike_for_an_exact_and_a_float_shift():
    # a shift sent as [a, 3, b, 3] and as the floats of a/3 + (b/3) tau names
    # one group element, so every target gets the same bytes back
    tau = complex(*TAU)
    for a in range(3):
        for b in range(3):
            z = a / 3 + b / 3 * tau
            for dual in (False, True):
                for target in AUT_TARGETS:
                    answers = [json.dumps(cli.run({"command": "aut-act", "payload": {
                        "tau": TAU, "g": {"shift": shift, "dual": dual}, "target": target}}))
                        for shift in ([a, 3, b, 3], [z.real, z.imag])]
                    assert answers[0] == answers[1], (a, b, dual, target)


# the five commands that decide at a threshold of the policy block, each on
# an input whose answer changes with a tol 100 times smaller or larger than
# the library default: (payload, default, the field of the result it decides)
THRESHOLD_READERS = {
    "classify-bundle": ({"tau": TAU, "triple": [[0.1, 0.2], [0.1 + 3e-7, 0.2],
                                                [-0.2 - 3e-7, -0.4]]}, jl.EQ_TOL, None),
    "classify-monodromy": ({"tau": TAU, "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                            "B": [[1, 5e-7, 0], [0, 1, 0], [0, 0, 1]]}, jl.EQ_TOL, None),
    "universal-family": ({"tau": TAU, "b1": 1.3, "b2": 1.3 + 1e-7, "kind": "decomposable"},
                         jl.EQ_TOL, "class"),
    "covering": ({"z1": 2.0001, "z2": 2}, jl.CUSP_TOL, "on_cusp"),
    "torelli": ({"tau1": TAU, "tau2": [0.3, 1.1 + 3e-8]}, jl.J_TOL, "isomorphic"),
}


def library_answer(command, payload, tol):
    """The library's decision on the payload at tol, in the CLI's form:
    curves_isomorphic takes it as rel_tol, and each other reader's module
    policy name (CUSP_TOL, or EQ_TOL of jaclattice or monodromy) is patched
    to it for the call."""
    from ellpar import bundles as bd
    from ellpar import modspace as ms
    from ellpar import monodromy as mo

    if command == "torelli":
        return ms.curves_isomorphic(cli.parse_complex(payload["tau1"]),
                                    cli.parse_complex(payload["tau2"]), rel_tol=tol)
    if command == "covering":
        with mock.patch.object(ms, "CUSP_TOL", tol):
            return ms.covering_invariants(payload["z1"], payload["z2"])[2]
    curve = cli.parse_curve(payload)
    if command == "classify-bundle":
        with mock.patch.object(jl, "EQ_TOL", tol):
            return cli.ser_class(bd.classify_triple(
                *cli.parse_points(payload["triple"], 3, curve, "a triple")))
    if command == "classify-monodromy":
        pair = mo.CommutingPair(cli.parse_matrix(payload["A"]), cli.parse_matrix(payload["B"]))
    else:
        pair = mo.universal_pair(payload["b1"], payload["b2"], payload["kind"])
    with mock.patch.object(mo, "EQ_TOL", tol):
        return cli.ser_class(mo.classify_bundle(pair, curve))


@pytest.mark.parametrize("command", sorted(THRESHOLD_READERS))
def test_a_threshold_reader_answers_at_the_library_default(command):
    payload, default, field = THRESHOLD_READERS[command]
    result = ok(command, payload)
    answer = result if field is None else result[field]
    assert answer == library_answer(command, payload, default)
    # the input sits near the threshold, so the answer tells which tol decided
    assert any(library_answer(command, payload, default * f) != answer for f in (0.01, 100))


def test_a_batch_answers_each_threshold_reader_as_a_single_request(tmp_path, capsys):
    reqs = [{"command": c, "payload": p} for c, (p, _, _) in sorted(THRESHOLD_READERS.items())]
    f = tmp_path / "batch.json"
    f.write_text(json.dumps(reqs))
    assert cli.main(["--file", str(f)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out) == [cli.run(r)[0] for r in reqs]


T1_CLASS = {"label": "T1", "triple": [[1, 5, 0, 1], [0, 1, 1, 7], [4, 5, 6, 7]]}
FLAG = {"P": [1, 1, 0], "L": [1, -1, -1]}

# a valid request of each command
EVERY_COMMAND = {
    "classify-bundle": {"tau": TAU, "triple": T1_CLASS["triple"]},
    "graded": {"tau": TAU, "class": {"label": "T21", "point": [1, 5, 0, 1]}},
    "tu-line": {"tau": TAU, "class": {"label": "T21", "point": [1, 5, 0, 1]}},
    "intersect-line": {"tau": TAU, "line": [1, 1, 1]},
    "subbundles": {"tau": TAU, "class": {"label": "T33", "point": [1, 3, 0, 1]}},
    "type-facts": {"label": "T1"},
    "classify-monodromy": {"tau": TAU, "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                           "B": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]},
    "universal-family": {"tau": TAU, "b1": [0.7, 0.2], "b2": [1.3, -0.1]},
    "weights": {"raw": ["1/5", "1/10", "-3/10"]},
    "stability": {"tau": TAU, "class": T1_CLASS, "flag": FLAG,
                  "weights": ["1/5", "1/10", "-3/10"]},
    "locus": {"tau": TAU, "class": T1_CLASS, "flag": FLAG},
    "normalize-flag": {"tau": TAU, "class": T1_CLASS, "flag": {"P": [1, 1, 1], "L": [-2, 1, 1]},
                       "chamber": "Pminus"},
    "flip": {"t": 1},
    "psi-plus": {"tau": TAU, "line": [1, 1, -1], "x": [1, 0, 1]},
    "covering": {"z1": "2", "z2": "2"},
    "sigma-count": {"tau": TAU, "line": [1, 1, 1]},
    "abel": {"tau": TAU, "pair": [[1, 5, 0, 1], [4, 5, 0, 1]]},
    "torelli": {"tau1": TAU, "tau2": [1.3, 1.1]},
    "aut-elements": {"tau": TAU},
    "aut-act": {"tau": TAU, "g": {"shift": [0, 1, 0, 1], "dual": True},
                "target": {"class": {"label": "T21", "point": [1, 5, 0, 1]}}},
}


def test_every_command_has_a_request():
    assert sorted(EVERY_COMMAND) == sorted(cli.COMMANDS)


@pytest.mark.parametrize("command", sorted(EVERY_COMMAND))
def test_every_command_answers_with_empty_diagnostics(command):
    # every command decides at the library defaults and reports no margins yet
    resp, code = cli.run({"command": command, "payload": EVERY_COMMAND[command]})
    assert code == cli.EXIT_OK and resp["ok"] and resp["diagnostics"] == [], resp


def test_schema_errors_exit_3():
    for req in [
        {"payload": {}},
        {"command": "no-such-command", "payload": {}},
        {"command": "classify-bundle", "payload": {"tau": TAU}},
        {"command": "classify-bundle", "payload": {"tau": TAU, "triple": [[1, 5]]}},
        {"command": "flip", "payload": {"t": "nope"}},
        # exact points need integer entries and nonzero denominators
        {"command": "graded", "payload": {"tau": TAU, "class": {"label": "T21",
                                                                 "point": [1.5, 2, 0, 1]}}},
        {"command": "graded", "payload": {"tau": TAU, "class": {"label": "T21",
                                                                 "point": ["a", 2, 0, 1]}}},
        {"command": "graded", "payload": {"tau": TAU, "class": {"label": "T21",
                                                                 "point": [1, 5, 1, 0]}}},
    ]:
        resp, code = cli.run(req)
        assert code == cli.EXIT_SCHEMA
        assert not resp["ok"]


@pytest.mark.parametrize("request_", [
    {"command": "weights", "payload": {"raw": ["abc", "1/3", "0"]}},
    {"command": "weights", "payload": {"raw": ["1/0", "1/3", "0"]}},
    {"command": "covering", "payload": {"z1": "x", "z2": 2}},
    {"command": "covering", "payload": {"z1": 2, "z2": "1/0"}},
], ids=["weights-text", "weights-zero-denominator", "covering-text",
        "covering-zero-denominator"])
def test_malformed_fraction_strings_are_schema_errors(request_):
    # a fraction string Fraction cannot read is malformed input, not a
    # question the library refuses
    resp, code = cli.run(request_)
    assert code == cli.EXIT_SCHEMA, resp
    assert resp["result"]["error"] == "SchemaViolation"


T1_CLASS = {"label": "T1", "triple": [[1, 5, 0, 1], [0, 1, 1, 7], [4, 5, 6, 7]]}
FLAG = {"P": [1, 2, 3], "L": [1, 1, -1]}
AUT = {"shift": [0, 1, 0, 1], "dual": True}


@pytest.mark.parametrize("command, payload, message", [
    ("graded", {"tau": TAU, "class": {"label": "T21", "point": "x"}},
     "expected a point as a 2- or 4-list, got 'x'"),
    ("psi-plus", {"tau": TAU, "line": [1, 1, -1], "x": [1, 2]},
     "plane point must be a 3-list of complex coordinates"),
    ("intersect-line", {"tau": TAU, "line": 5},
     "plane line must be a 3-list of complex coefficients"),
    ("graded", {"tau": TAU, "class": []}, "class must be an object with a 'label'"),
    ("graded", {"tau": TAU, "class": {"label": "T1", "triple": [[1, 5, 0, 1]]}},
     "T1 class needs a 3-element 'triple'"),
    ("graded", {"tau": TAU, "class": {"label": "T21"}}, "T21 class needs a 'point'"),
    ("graded", {"tau": TAU, "class": {"label": "T9", "point": [1, 5, 0, 1]}},
     "unknown class label 'T9'"),
    ("stability", {"tau": TAU, "class": T1_CLASS, "flag": [1]}, "flag must be an object {P, L}"),
    ("classify-monodromy", {"tau": TAU, "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "B": [[1, 0, 0]]},
     "matrix must be a 3x3 array"),
    ("classify-monodromy", {"tau": TAU, "A": [[1, 0, "x"], [0, 1], [0, 0, 1]], "B": []},
     "matrix must be a 3x3 array"),
    ("stability", {"tau": TAU, "class": T1_CLASS, "flag": FLAG, "weights": ["1/5", "-1/5"]},
     "weights must be a 3-list"),
    ("type-facts", {"label": "T9"}, "unknown label 'T9'"),
    ("abel", {"tau": TAU, "pair": [[1, 5, 0, 1]]}, "'pair' must be a 2-list of points"),
    ("aut-act", {"tau": TAU, "g": [], "target": "plane"},
     "automorphism must be an object {shift, dual}"),
    ("aut-act", {"tau": TAU, "g": AUT, "target": "x"}, "'target' must be 'plane' or an object"),
    ("aut-act", {"tau": TAU, "g": AUT, "target": {"coord": [2, 1]}},
     "'target' must be 'plane', {class}, or {class, coord, chamber}"),
], ids=["point", "plane-point", "plane-line", "class", "t1-triple", "class-point",
        "class-label", "flag", "matrix", "matrix-row", "weights", "type-facts-label", "pair",
        "automorphism", "target", "target-object"])
def test_each_malformed_shape_is_refused_with_its_message(command, payload, message):
    resp = {"ok": False, "result": {"error": "SchemaViolation", "message": message},
            "diagnostics": []}
    assert cli.run({"command": command, "payload": payload}) == (resp, cli.EXIT_SCHEMA)


STABILITY_JSON = ('{"command": "stability", "payload": {"tau": %s, "class": {"label": "T1", '
                  '"triple": [[1, 5, 0, 1], [0, 1, 1, 7], [4, 5, 6, 7]]}, "flag": '
                  '{"P": [1, 2, 3], "L": [1, 1, -1]}, "weights": ["1/5", "-1/10", "-1/10"]}}')


@pytest.mark.parametrize("request_json, numeric", [
    (STABILITY_JSON % "[false, true]", STABILITY_JSON % "[0, 1]"),
    ('{"command": "weights", "payload": {"raw": [true, 0.5, 0.25]}}',
     '{"command": "weights", "payload": {"raw": [1, 0.5, 0.25]}}'),
    ('{"command": "graded", "payload": {"tau": [0.3, 1.1], '
     '"class": {"label": "T21", "point": [true, 5, 0, 1]}}}',
     '{"command": "graded", "payload": {"tau": [0.3, 1.1], '
     '"class": {"label": "T21", "point": [1, 5, 0, 1]}}}'),
    ('{"command": "flip", "payload": {"t": true}}', '{"command": "flip", "payload": {"t": 1}}'),
], ids=["parse_complex", "_parse_weight_entry", "parse_point", "parse_proj"])
def test_json_booleans_are_not_numbers(request_json, numeric):
    # bool is a subclass of int, so each parser must refuse true/false itself
    assert cli.run(json.loads(numeric))[1] == cli.EXIT_OK
    resp, code = cli.run(json.loads(request_json))
    assert code == cli.EXIT_SCHEMA, resp
    assert resp["result"]["error"] == "SchemaViolation"


TORELLI_DIVERGENT = {"command": "torelli", "payload": {"tau1": [0, 0.001], "tau2": [0, 1]}}


def test_domain_errors_exit_2():
    # T21 requires a non-torsion point
    resp, code = cli.run({"command": "graded",
                          "payload": {"tau": TAU,
                                      "class": {"label": "T31", "point": [1, 5, 0, 1]}}})
    assert code == cli.EXIT_DOMAIN and not resp["ok"]
    resp, code = cli.run({"command": "classify-monodromy",
                          "payload": {"tau": TAU,
                                      "A": [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
                                      "B": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}})
    assert code == cli.EXIT_DOMAIN
    # the Eisenstein series does not converge this close to the real axis
    resp, code = cli.run(TORELLI_DIVERGENT)
    assert code == cli.EXIT_DOMAIN and resp["result"]["error"] == "ArithmeticError"
    # eigenvalues spread from 1e-5 to 1e10 are read too inaccurately to place
    # their points on a curve this close to the real axis
    resp, code = cli.run({"command": "universal-family",
                          "payload": {"tau": [0.3, 0.01], "b1": 1e-5, "b2": 1e-5 + 1e-10}})
    assert code == cli.EXIT_DOMAIN
    assert resp["result"]["error"] == "EigenvalueSeparationError", resp


def test_t21_and_t22_classes_need_a_point_off_the_3_torsion():
    for command, label, point in (("graded", "T21", [1, 3, 0, 1]),
                                  ("tu-line", "T22", [0, 1, 0, 1])):
        resp, code = cli.run({"command": command,
                              "payload": {"tau": TAU, "class": {"label": label, "point": point}}})
        assert code == cli.EXIT_DOMAIN and resp["result"]["error"] == "ValueError", resp
    for label in ("T21", "T22"):
        cls = {"label": label, "point": [1, 5, 0, 1]}
        g = ok("graded", {"tau": TAU, "class": cls})
        assert g["triple"] == [[1, 5, 0, 1], [1, 5, 0, 1], [3, 5, 0, 1]]
    t21, t22 = (ok("tu-line", {"tau": TAU, "class": {"label": label, "point": [1, 5, 0, 1]}})
                for label in ("T21", "T22"))
    assert t21 == t22


def test_a_coincident_triple_off_the_3_torsion_is_a_domain_error():
    # an exact point 1/30000000 past the flex 1/3, with two approximate points
    # that merge with it and sum to zero at EQ_TOL: an exact point never
    # moves, so the coincident triple is not 3-torsion
    s = float(Fraction(1, 3) + Fraction(1, 30000000))
    resp, code = cli.run({"command": "classify-bundle", "payload": {
        "tau": TAU, "triple": [[10000001, 30000000, 0, 1], [s - 1e-7, 0], [s - 2e-7, 0]]}})
    assert (code, resp["result"]) == (cli.EXIT_DOMAIN, {
        "error": "ValueError", "message": "coincident triple is not 3-torsion"})


def test_intersect_line_multiplicities_under_the_one_rule():
    # the chord through 0.5 +- 2e-6 is a chord under the one coincidence
    # rule, as sigma-count reads it
    from ellpar import weierstrass as we
    from ellpar.jaclattice import CurveSpec

    x = we.wp(0.5 + 2e-6, CurveSpec(complex(*TAU)))[0]
    req = {"command": "intersect-line",
           "payload": {"tau": TAU, "line": [1, 0, [-x.real, -x.imag]]}}
    resp, code = cli.run(req)
    assert code == cli.EXIT_OK and resp["result"]["multiplicities"] == [1, 1, 1]


def test_output_is_canonical_json():
    resp, _ = cli.run({"command": "type-facts", "payload": {"label": "T1"}})
    text = cli._dump(resp)
    assert text == cli._dump(json.loads(text))
    assert " " not in text


def run_cli(args, stdin_text):
    # the child inherits this environment: PYTHONPATH finds the package
    return subprocess.run([sys.executable, "-m", "ellpar.cli", *args],
                          input=stdin_text, capture_output=True, text=True)


def test_executable_stdin_roundtrip():
    proc = run_cli([], json.dumps({"command": "type-facts", "payload": {"label": "T31"}}))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["ok"] and out["result"]["sigma_count"] == 1


def test_executable_exit_codes():
    proc = run_cli([], "not json")
    assert proc.returncode == 3
    proc = run_cli([], json.dumps({"command": "bogus", "payload": {}}))
    assert proc.returncode == 3
    proc = run_cli([], json.dumps({"command": "graded",
                                   "payload": {"tau": TAU,
                                               "class": {"label": "T31",
                                                         "point": [1, 5, 0, 1]}}}))
    assert proc.returncode == 2


def refused(out: str) -> bool:
    resp = json.loads(out)
    return not resp["ok"] and resp["result"]["error"] == "SchemaViolation"


def test_a_batch_file_that_is_not_utf8_is_a_schema_error(tmp_path, capsys):
    f = tmp_path / "batch.json"
    f.write_bytes(b'[{"command": "type-facts", "payload": {"label": "T\xff"}}]')
    assert cli.main(["--file", str(f)]) == cli.EXIT_SCHEMA
    assert refused(capsys.readouterr().out)


def test_stdin_that_is_not_utf8_is_a_schema_error():
    env = {**os.environ, "PYTHONIOENCODING": "utf-8:strict"}
    proc = subprocess.run([sys.executable, "-m", "ellpar.cli"], input=b'{"command": "\xff"}',
                          capture_output=True, env=env)
    assert proc.returncode == 3, proc.stderr
    assert refused(proc.stdout)


@pytest.mark.parametrize("source", ["--file", "stdin"])
@pytest.mark.parametrize("text", ["[" * 5000 + "]" * 5000, "[" + "9" * 5000 + "]"],
                         ids=["nested", "long-integer"])
def test_json_past_the_decoder_limits_is_a_schema_error(text, source, tmp_path, monkeypatch,
                                                        capsys):
    # nested deeper than the decoder recurses, or an integer longer than
    # Python converts from a string
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        args = []
    else:
        (tmp_path / "batch.json").write_text(text)
        args = ["--file", str(tmp_path / "batch.json")]
    assert cli.main(args) == cli.EXIT_SCHEMA
    assert refused(capsys.readouterr().out)


def test_batch_file_mode(tmp_path):
    reqs = [{"command": "type-facts", "payload": {"label": "T1"}},
            {"command": "type-facts", "payload": {"label": "T99"}},
            {"command": "graded", "payload": {"tau": TAU, "class": {"label": "T21",
                                                                     "point": [1.5, 2, 0, 1]}}},
            {"command": "type-facts", "payload": {"label": "T31"}},
            TORELLI_DIVERGENT,
            {"command": "type-facts", "payload": {"label": "T22"}}]
    f = tmp_path / "batch.json"
    f.write_text(json.dumps(reqs))
    proc = run_cli(["--file", str(f)], "")
    assert proc.returncode == 3  # worst exit code of the batch
    out = json.loads(proc.stdout)
    assert out[0]["ok"] and not out[1]["ok"]
    assert out[2]["result"]["error"] == "SchemaViolation" and out[3]["ok"]
    assert out[4]["result"]["error"] == "ArithmeticError" and out[5]["ok"]


CLASSIFY_MONODROMY = {"command": "classify-monodromy",
                      "payload": EVERY_COMMAND["classify-monodromy"]}


@pytest.mark.parametrize("args, named", [(["--tol", "1e-16"], "--tol"), (["--file"], "--file")],
                         ids=["unknown-option", "file-without-value"])
def test_a_command_line_argument_error_exits_3(args, named):
    # answered in JSON on stdout before any request runs, as any other input
    # that cannot be read; --tol is an unknown option, as every command
    # answers at the library defaults
    proc = run_cli(args, json.dumps(CLASSIFY_MONODROMY))
    assert proc.returncode == 3, proc.stderr
    assert refused(proc.stdout) and named in json.loads(proc.stdout)["result"]["message"]
    assert proc.stderr == ""


def test_a_batch_file_of_one_request_object_exits_3(tmp_path, capsys):
    f = tmp_path / "batch.json"
    f.write_text(json.dumps(CLASSIFY_MONODROMY))
    assert cli.main(["--file", str(f)]) == cli.EXIT_SCHEMA
    out = json.loads(capsys.readouterr().out)
    assert out["result"] == {"error": "SchemaViolation",
                             "message": "--file expects a JSON array of requests"}


class UnreadStdin(io.StringIO):
    def read(self, *args):
        raise AssertionError("stdin was read")


@pytest.mark.parametrize("argv, message", [
    (["--tol", "1e-9"], "unrecognized arguments: --tol 1e-9"),
    (["--tol=1e-9"], "unrecognized arguments: --tol=1e-9"),
    (["--tol"], "unrecognized arguments: --tol"),
    (["-f", "x"], "unrecognized arguments: -f x"),
    (["extra"], "unrecognized arguments: extra"),
    (["--file", "batch.json", "extra"], "unrecognized arguments: extra"),
    (["--file"], "argument --file: expected one argument"),
], ids=["tol", "tol-equals", "tol-without-value", "short-option", "positional",
        "positional-after-file", "file-without-value"])
def test_main_refuses_an_argument_error_before_reading_input(argv, message, monkeypatch,
                                                             capsys):
    monkeypatch.setattr(sys, "stdin", UnreadStdin())
    assert cli.main(argv) == cli.EXIT_SCHEMA
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"ok": False, "diagnostics": [], "result": {
        "error": "SchemaViolation", "message": message}}
    assert captured.err == ""


def test_an_empty_file_name_is_refused_not_read_as_stdin(monkeypatch, capsys):
    # --file "" names a file that cannot be opened, not the absence of --file
    monkeypatch.setattr(sys, "stdin", UnreadStdin())
    for argv in (["--file", ""], ["--file="]):
        assert cli.main(argv) == cli.EXIT_SCHEMA
        assert refused(capsys.readouterr().out)


IMPORT_GATE = """
import io, json, sys
import ellpar, ellpar.cli, ellpar.modspace, ellpar.parabolic, ellpar.autgroup
from ellpar import cli
sys.stdin = io.StringIO(json.dumps({"command": "stability", "payload": {
    "tau": [0.3, 1.1],
    "class": {"label": "T1", "triple": [[1, 5, 0, 1], [0, 1, 1, 7], [4, 5, 6, 7]]},
    "flag": {"P": [1, 1, 0], "L": [1, -1, -1]}, "weights": ["1/5", "1/10", "-3/10"]}}))
code = cli.main([])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
resp, code = cli.run({"command": "classify-monodromy", "payload": {
    "tau": [0.3, 1.1], "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "B": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]}})
family, family_code = cli.run({"command": "universal-family", "payload": {
    "tau": [0.3, 1.1], "b1": [0.7, 0.2], "b2": [1.3, -0.1]}})
print(json.dumps({"code": code, "label": resp["result"].get("label"),
                  "family": [family_code, family["result"]["class"]["label"]],
                  "numpy": "numpy" in sys.modules}))
"""


def test_core_and_cli_import_without_numpy():
    # numpy is loaded only by act_plane and normal_form
    proc = subprocess.run([sys.executable, "-c", IMPORT_GATE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    answer, gate, monodromy = proc.stdout.splitlines()
    assert json.loads(answer)["result"]["verdict"] == "Stable"
    assert json.loads(gate) == {"code": 0, "numpy": False}
    assert json.loads(monodromy) == {"code": 0, "label": "T31", "family": [0, "T1"],
                                     "numpy": False}


STABILITY_REQUEST = {"command": "stability", "payload": {
    "tau": [0.3, 1.1],
    "class": {"label": "T1", "triple": [[1, 5, 0, 1], [0, 1, 1, 7], [4, 5, 6, 7]]},
    "flag": {"P": [1, 1, 0], "L": [1, -1, -1]}, "weights": ["1/5", "1/10", "-3/10"]}}
COLD_START = """
import json, sys
from ellpar import cli
code = cli.main([])
print(json.dumps({"code": code, "loaded": sorted(m for m in sys.modules if m.startswith("ellpar")),
                  "unused": sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)}))
"""


def test_cli_answers_stability_without_loading_modspace_or_autgroup():
    # a cold start loads only the modules its command uses, and neither
    # dataclasses nor inspect, which only dataclasses would load
    proc = subprocess.run([sys.executable, "-c", COLD_START], input=json.dumps(STABILITY_REQUEST),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    answer, loaded = proc.stdout.splitlines()
    assert json.loads(answer)["result"]["verdict"] == "Stable"
    assert json.loads(loaded) == {"code": 0, "loaded": [
        "ellpar", "ellpar.bundles", "ellpar.cli", "ellpar.jaclattice", "ellpar.parabolic",
        "ellpar.weierstrass"], "unused": []}


NO_ARGUMENTS = """
import json, sys
from ellpar import cli
sys.argv = ["ellpar"]
code = cli.main()
print(json.dumps({"code": code, "argparse": "argparse" in sys.modules}))
"""


def test_a_spawn_without_arguments_does_not_load_argparse():
    # main parses sys.argv[1:] when called without argv, and builds its
    # parser only when there are arguments to parse
    proc = subprocess.run([sys.executable, "-c", NO_ARGUMENTS], input=json.dumps(STABILITY_REQUEST),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    answer, loaded = proc.stdout.splitlines()
    assert json.loads(answer)["result"]["verdict"] == "Stable"
    assert json.loads(loaded) == {"code": 0, "argparse": False}


def test_help_prints_the_usage_of_the_one_option(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: ellpar [-h] [--file FILE]")


def test_matrices_in_and_out_of_the_cli():
    payload = {"tau": TAU, "class": {"label": "T1",
                                     "triple": [[1, 5, 0, 1], [0, 1, 1, 7], [4, 5, 6, 7]]},
               "flag": {"P": [1, 1, 1], "L": [-2, 1, 1]}, "chamber": "Pminus"}
    res = ok("normalize-flag", payload)
    assert res["gauge"] == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for A in ([[0, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 2, 3], [2, 4, 6], [0, 0, 1]]):
        resp, code = cli.run({"command": "classify-monodromy",
                              "payload": {"tau": TAU, "A": A, "B": A}})
        assert code == cli.EXIT_DOMAIN and not resp["ok"]


COVERING_JSON = '{"command": "covering", "payload": {"z1": %s, "z2": 0.5}}'
TORELLI_SELF = {"command": "torelli", "payload": {"tau1": [0, 1], "tau2": [0, 1]}}


@pytest.mark.parametrize("request_json, code, error", [
    ('{"command": "flip", "payload": {"t": [NaN, 1]}}', cli.EXIT_SCHEMA, "SchemaViolation"),
    (COVERING_JSON % "NaN", cli.EXIT_SCHEMA, "SchemaViolation"),
    (COVERING_JSON % "-Infinity", cli.EXIT_SCHEMA, "SchemaViolation"),
    # finite input whose F2 and F3 overflow to inf
    (COVERING_JSON % "1e200", cli.EXIT_DOMAIN, "ValueError"),
], ids=["nan-input", "nan-covering", "inf-covering", "overflowing-result"])
def test_non_finite_numbers_are_refused(request_json, code, error, monkeypatch, capsys):
    # json reads NaN and Infinity as floats, and a JSON answer cannot hold one
    monkeypatch.setattr(sys, "stdin", io.StringIO(request_json))
    assert cli.main([]) == code
    out = json.loads(capsys.readouterr().out)
    assert not out["ok"] and out["result"]["error"] == error


def test_a_non_finite_result_fails_only_its_own_batch_request(tmp_path, capsys):
    f = tmp_path / "batch.json"
    f.write_text("[%s, %s, %s]" % (json.dumps(TORELLI_SELF), COVERING_JSON % "1e200",
                                   json.dumps({"command": "flip", "payload": {"t": 1}})))
    assert cli.main(["--file", str(f)]) == cli.EXIT_DOMAIN
    first, middle, last = json.loads(capsys.readouterr().out)
    assert first["result"] == {"isomorphic": True} and last["result"] == {"lambda": "inf"}
    assert not middle["ok"] and middle["result"]["error"] == "ValueError"


def test_aut_act_prints_the_plane_pivot_as_one(monkeypatch, capsys):
    # this lift's pivot came out of x / x as 1 - 5.3e-17i and printed as a pair
    request = {"command": "aut-act", "payload": {
        "tau": TAU, "g": {"shift": [0, 1, 2, 3], "dual": False}, "target": "plane"}}
    matrix = ok("aut-act", request["payload"])["matrix"]
    assert matrix[1][2] == 1.0 and type(matrix[1][2]) is float
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(request)))
    assert cli.main([]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"]["matrix"] == matrix


NOT_FINITE = {"ok": False, "result": {"error": "ValueError", "message": "result is not finite"},
              "diagnostics": []}


def test_run_refuses_a_non_finite_result(tmp_path, capsys):
    # in process, as bench/cli_batch.py calls it, the response is a domain
    # error that dumps to JSON, and main --file prints that response
    request = json.loads(COVERING_JSON % "1e200")
    resp, code = cli.run(request)
    assert (resp, code) == (NOT_FINITE, cli.EXIT_DOMAIN)
    assert json.loads(cli._dump(resp)) == resp
    f = tmp_path / "batch.json"
    f.write_text(json.dumps([request]))
    assert cli.main(["--file", str(f)]) == cli.EXIT_DOMAIN
    assert json.loads(capsys.readouterr().out) == [NOT_FINITE]


def test_a_multiple_eigenvalue_that_cancels_to_zero_answers_a_separation_error():
    # the pair of test_monodromy's cancelling universal family, given as a
    # universal family and as its matrices: exit 2 with the library's error
    from ellpar import monodromy as mo

    tau, b = [0.30074659035418094, 1.9495753269156646], [4.687307916921878e-06,
                                                          -9.733593537360438e-07]
    pair = mo.universal_pair(complex(*b), complex(*b))
    requests = [("universal-family", {"tau": tau, "b1": b, "b2": b}),
                ("classify-monodromy", {"tau": tau, "A": cli.ser_matrix(pair.A),
                                        "B": cli.ser_matrix(pair.B)})]
    for command, payload in requests:
        resp, code = cli.run({"command": command, "payload": payload})
        assert code == cli.EXIT_DOMAIN
        assert resp["result"]["error"] == "EigenvalueSeparationError", resp
