import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from ellpar import cli
from ellpar.jaclattice import CurveSpec

TAU = [0.3, 1.1]


def ok(command, payload, tol=None):
    resp, code = cli.run({"command": command, "payload": payload}, tol)
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


def test_universal_family():
    res = ok("universal-family", {"tau": TAU, "b1": [0.7, 0.2], "b2": [1.3, -0.1]})
    assert res["class"]["label"] == "T1"
    assert "config" in res
    assert len(res["config"]["rank1"]) == 3


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


def test_intersect_line_multiplicities_ignore_tol():
    # the chord through 0.5 +- 2e-6 is a chord under the one coincidence
    # rule, whatever --tol says, as sigma-count reads it
    from ellpar import weierstrass as we
    from ellpar.jaclattice import CurveSpec

    x = we.wp(0.5 + 2e-6, CurveSpec(complex(*TAU)))[0]
    req = {"command": "intersect-line",
           "payload": {"tau": TAU, "line": [1, 0, [-x.real, -x.imag]]}}
    wide, code = cli.run(req, tol=1e-4)
    assert code == cli.EXIT_OK and wide["result"]["multiplicities"] == [1, 1, 1]
    assert wide["result"] == cli.run(req)[0]["result"]


def test_output_is_canonical_json():
    resp, _ = cli.run({"command": "type-facts", "payload": {"label": "T1"}})
    text = cli._dump(resp)
    assert text == cli._dump(json.loads(text))
    assert " " not in text


def run_cli(args, stdin_text):
    # The child inherits this environment (PYTHONPATH finds the package), but
    # not a TOL of the caller's: these tests expect the default tolerance.
    env = {k: v for k, v in os.environ.items() if k != "TOL"}
    return subprocess.run([sys.executable, "-m", "ellpar.cli", *args],
                          input=stdin_text, capture_output=True, text=True, env=env)


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


def test_tol_env_var(monkeypatch):
    req = json.dumps({"command": "type-facts", "payload": {"label": "T1"}})
    monkeypatch.setenv("TOL", "1e-9")
    proc = subprocess.run([sys.executable, "-m", "ellpar.cli"], input=req,
                          capture_output=True, text=True)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["diagnostics"] == ["tol=1e-09"]
    monkeypatch.setenv("TOL", "abc")
    proc = subprocess.run([sys.executable, "-m", "ellpar.cli"], input=req,
                          capture_output=True, text=True)
    assert proc.returncode == 3


TORELLI_SELF = {"command": "torelli", "payload": {"tau1": [0, 1], "tau2": [0, 1]}}


@pytest.mark.parametrize("source", ["--tol", "TOL"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "abc"])
def test_tolerance_must_be_finite_and_positive(value, source, monkeypatch, capsys):
    # refused by one check before any request runs, from either source: nan
    # would make a curve non-isomorphic to itself, inf make any two isomorphic
    # and 0 fall back to the default while echoed in diagnostics
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(TORELLI_SELF)))
    if source == "TOL":
        monkeypatch.setenv("TOL", value)
        code = cli.main([])
    else:
        monkeypatch.delenv("TOL", raising=False)
        code = cli.main([f"--tol={value}"])
    out = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_SCHEMA
    assert not out["ok"] and out["result"]["error"] == "SchemaViolation"
    assert value in out["result"]["message"]


def test_a_valid_tolerance_flag_wins_over_the_environment(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(TORELLI_SELF)))
    monkeypatch.setenv("TOL", "abc")
    assert cli.main(["--tol", "1e-6"]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["result"] == {"isomorphic": True} and out["diagnostics"] == ["tol=1e-06"]


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
    env = {k: v for k, v in os.environ.items() if k != "TOL"}
    proc = subprocess.run([sys.executable, "-c", IMPORT_GATE],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    answer, gate, monodromy = proc.stdout.splitlines()
    assert json.loads(answer)["result"]["verdict"] == "Stable"
    assert json.loads(gate) == {"code": 0, "numpy": False}
    assert json.loads(monodromy) == {"code": 0, "label": "T31", "family": [0, "T1"],
                                     "numpy": False}


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


@pytest.mark.parametrize("request_json, code, error", [
    ('{"command": "flip", "payload": {"t": [NaN, 1]}}', cli.EXIT_SCHEMA, "SchemaViolation"),
    (COVERING_JSON % "NaN", cli.EXIT_SCHEMA, "SchemaViolation"),
    (COVERING_JSON % "-Infinity", cli.EXIT_SCHEMA, "SchemaViolation"),
    # finite input whose F2 and F3 overflow to inf
    (COVERING_JSON % "1e200", cli.EXIT_DOMAIN, "ValueError"),
], ids=["nan-input", "nan-covering", "inf-covering", "overflowing-result"])
def test_non_finite_numbers_are_refused(request_json, code, error, monkeypatch, capsys):
    # json reads NaN and Infinity as floats, and a JSON answer cannot hold one
    monkeypatch.delenv("TOL", raising=False)
    monkeypatch.setattr(sys, "stdin", io.StringIO(request_json))
    assert cli.main([]) == code
    out = json.loads(capsys.readouterr().out)
    assert not out["ok"] and out["result"]["error"] == error


def test_a_non_finite_result_fails_only_its_own_batch_request(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("TOL", raising=False)
    f = tmp_path / "batch.json"
    f.write_text("[%s, %s, %s]" % (json.dumps(TORELLI_SELF), COVERING_JSON % "1e200",
                                   json.dumps({"command": "flip", "payload": {"t": 1}})))
    assert cli.main(["--file", str(f)]) == cli.EXIT_DOMAIN
    first, middle, last = json.loads(capsys.readouterr().out)
    assert first["result"] == {"isomorphic": True} and last["result"] == {"lambda": "inf"}
    assert not middle["ok"] and middle["result"]["error"] == "ValueError"
