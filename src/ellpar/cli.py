"""JSON command-line front end: one request on stdin (or a batch via --file),
one canonical-JSON response on stdout.

Exit codes: 0 ok, 2 domain error (valid request, library rejected the data),
3 schema error (malformed request or unknown command).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Any, Optional, Sequence

from . import autgroup as ag
from . import bundles as bd
from . import jaclattice as jl
from . import modspace as ms
from . import parabolic as pa
from . import weierstrass as we
from .jaclattice import CurveSpec, JacPoint
from .parabolic import ProjScalar


class SchemaError(ValueError):
    pass


EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_SCHEMA = 3


# ---------- parsing ----------

def _need(payload: dict, key: str):
    if key not in payload:
        raise SchemaError(f"missing required field '{key}'")
    return payload[key]


def _is_number(x) -> bool:
    # JSON true/false arrive as bool, a subclass of int, but are not numbers;
    # json reads NaN, Infinity and -Infinity as floats, which are not either
    if isinstance(x, float):
        return math.isfinite(x)
    return isinstance(x, int) and not isinstance(x, bool)


def parse_complex(v) -> complex:
    if _is_number(v):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)):
        return complex(v[0], v[1])
    raise SchemaError(f"expected a number or [re, im] pair, got {v!r}")


def parse_curve(payload: dict, key: str = "tau") -> CurveSpec:
    return CurveSpec(parse_complex(_need(payload, key)))


def parse_point(v, curve: CurveSpec) -> JacPoint:
    if not isinstance(v, list):
        raise SchemaError(f"expected a point as a 2- or 4-list, got {v!r}")
    if len(v) == 4:
        if not all(type(c) is int for c in v) or v[1] == 0 or v[3] == 0:  # no bool
            raise SchemaError(f"exact point needs integers with nonzero denominators, got {v!r}")
        return jl.canon((Fraction(v[0], v[1]), Fraction(v[2], v[3])), curve)
    if len(v) == 2:
        return jl.canon(parse_complex(v), curve)
    raise SchemaError(f"point must be [s_num, s_den, t_num, t_den] or [re, im], got {v!r}")


def ser_complex(z: complex) -> Any:
    z = complex(z)
    if z.imag == 0:
        return z.real
    return [z.real, z.imag]


def ser_point(p: JacPoint) -> list:
    if p.is_exact:
        return [p.s.numerator, p.s.denominator, p.t.numerator, p.t.denominator]
    z = p.value()
    return [z.real, z.imag]


def parse_plane_point(v) -> we.PlanePoint:
    if not (isinstance(v, list) and len(v) == 3):
        raise SchemaError("plane point must be a 3-list of complex coordinates")
    return we.PlanePoint.of(*(parse_complex(c) for c in v))


def parse_plane_line(v) -> we.PlaneLine:
    if not (isinstance(v, list) and len(v) == 3):
        raise SchemaError("plane line must be a 3-list of complex coefficients")
    return we.PlaneLine.of(*(parse_complex(c) for c in v))


def ser_plane_point(p: we.PlanePoint) -> list:
    return [ser_complex(p.x), ser_complex(p.y), ser_complex(p.z)]


def ser_plane_line(l: we.PlaneLine) -> list:
    return [ser_complex(l.u), ser_complex(l.v), ser_complex(l.w)]


def parse_class(payload: dict, curve: CurveSpec, key: str = "class") -> bd.BundleClass:
    v = _need(payload, key)
    if not isinstance(v, dict) or "label" not in v:
        raise SchemaError("class must be an object with a 'label'")
    label = v["label"]
    if label == "T1":
        triple = v.get("triple")
        if not (isinstance(triple, list) and len(triple) == 3):
            raise SchemaError("T1 class needs a 3-element 'triple'")
        pts = [parse_point(p, curve) for p in triple]
        return bd.classify_triple(*pts)
    if "point" not in v:
        raise SchemaError(f"{label} class needs a 'point'")
    z = parse_point(v["point"], curve)
    if label in ("T21", "T22"):
        return (bd.make_t21 if label == "T21" else bd.make_t22)(z)
    if label in ("T31", "T32", "T33"):
        return bd.make_t3x(label, z)
    raise SchemaError(f"unknown class label {label!r}")


def ser_class(cls: bd.BundleClass) -> dict:
    if cls.label == "T1":
        return {"label": "T1", "triple": [ser_point(p) for p in cls.triple]}
    return {"label": cls.label, "point": ser_point(cls.point)}


def parse_proj(v) -> ProjScalar:
    if v == "inf":
        return pa.PROJ_INF
    if _is_number(v):
        return ProjScalar(complex(v), 1)
    if isinstance(v, list) and len(v) == 2:
        return ProjScalar(parse_complex(v[0]), parse_complex(v[1]))
    raise SchemaError(f"projective scalar must be 'inf', a number, or [num, den]; got {v!r}")


def ser_proj(p: ProjScalar) -> Any:
    if p.is_inf:
        return "inf"
    return [ser_complex(p.num), 1.0]


def parse_flag(payload: dict, key: str = "flag") -> pa.Flag:
    v = _need(payload, key)
    if not isinstance(v, dict):
        raise SchemaError("flag must be an object {P, L}")
    return pa.Flag(parse_plane_point(_need(v, "P")), parse_plane_line(_need(v, "L")))


def parse_matrix(v) -> list:
    if not (isinstance(v, list) and len(v) == 3 and all(isinstance(r, list) and len(r) == 3 for r in v)):
        raise SchemaError("matrix must be a 3x3 array")
    return [[parse_complex(c) for c in row] for row in v]


def ser_matrix(M: Sequence[Sequence[complex]]) -> list:
    return [[ser_complex(c) for c in row] for row in M]


def _parse_weight_entry(x):
    if isinstance(x, str):
        return Fraction(x)
    if _is_number(x):
        return x
    raise SchemaError(f"weight must be a number or fraction string, got {x!r}")


def parse_weights(payload: dict, key: str = "weights") -> pa.Weights:
    v = _need(payload, key)
    if not (isinstance(v, list) and len(v) == 3):
        raise SchemaError("weights must be a 3-list")
    w, _ = pa.make_weights(*(_parse_weight_entry(x) for x in v))
    return w


def ser_weights(w: pa.Weights) -> list:
    return [float(w.mu1), float(w.mu2), float(w.mu3)]


def ser_locus_config(cfg: bd.SubbundleConfig) -> dict:
    def pt_loc(l: bd.PointLocus) -> dict:
        out: dict = {"dim": l.dim}
        if l.point is not None:
            out["point"] = ser_plane_point(l.point)
        if l.sweep is not None:
            out["sweep"] = ser_plane_line(l.sweep)
        return out

    def ln_loc(l: bd.LineLocus) -> dict:
        out: dict = {"dim": l.dim}
        if l.line is not None:
            out["line"] = ser_plane_line(l.line)
        if l.pencil is not None:
            out["pencil"] = ser_plane_point(l.pencil)
        return out

    return {"rank1": [pt_loc(l) for l in cfg.rank1],
            "rank2": [ln_loc(l) for l in cfg.rank2]}


# ---------- command handlers ----------

def _cmd_classify_bundle(payload, tol):
    curve = parse_curve(payload)
    triple = _need(payload, "triple")
    if not (isinstance(triple, list) and len(triple) == 3):
        raise SchemaError("'triple' must be a 3-list of points")
    pts = [parse_point(p, curve) for p in triple]
    cls = bd.classify_triple(*pts, tol=tol or jl.EQ_TOL)
    return ser_class(cls)


def _cmd_graded(payload, tol):
    curve = parse_curve(payload)
    cls = parse_class(payload, curve)
    return {"triple": [ser_point(p) for p in bd.graded(cls)]}


def _cmd_tu_line(payload, tol):
    curve = parse_curve(payload)
    cls = parse_class(payload, curve)
    return {"line": ser_plane_line(bd.tu_line(cls, curve))}


def _cmd_intersect_line(payload, tol):
    curve = parse_curve(payload)
    line = parse_plane_line(_need(payload, "line"))
    pts = we.intersect_curve(line, curve)
    return {"points": [ser_point(p) for p in pts],
            "multiplicities": we.multiplicities(pts)}


def _cmd_subbundles(payload, tol):
    curve = parse_curve(payload)
    cls = parse_class(payload, curve)
    return ser_locus_config(bd.subbundle_config(cls))


def _cmd_type_facts(payload, tol):
    label = _need(payload, "label")
    if label not in bd.LABELS:
        raise SchemaError(f"unknown label {label!r}")
    endo, admits, count = bd.type_facts(label)
    return {"endo_dim": endo, "admits_stable": admits, "sigma_count": count}


def _cmd_classify_monodromy(payload, tol):
    from . import monodromy as mo

    curve = parse_curve(payload)
    pair = mo.CommutingPair(parse_matrix(_need(payload, "A")),
                            parse_matrix(_need(payload, "B")))
    cls = mo.classify_bundle(pair, curve, tol=tol or jl.EQ_TOL)
    return ser_class(cls)


def _cmd_universal_family(payload, tol):
    from . import monodromy as mo

    curve = parse_curve(payload)
    b1 = parse_complex(_need(payload, "b1"))
    b2 = parse_complex(_need(payload, "b2"))
    kind = payload.get("kind", "generic")
    pair = mo.universal_pair(b1, b2, kind)
    cls = mo.classify_bundle(pair, curve, tol=tol or jl.EQ_TOL)
    out = {"A": ser_matrix(pair.A), "B": ser_matrix(pair.B), "class": ser_class(cls)}
    if kind == "generic":
        try:
            out["config"] = ser_locus_config(mo.universal_config(b1, b2))
        except ValueError:
            pass
    return out


def _cmd_weights(payload, tol):
    raw = _need(payload, "raw")
    if not (isinstance(raw, list) and len(raw) == 3):
        raise SchemaError("'raw' must be a 3-list")
    w, chamber = pa.make_weights(*(_parse_weight_entry(x) for x in raw))
    return {"weights": ser_weights(w), "chamber": chamber}


def _cmd_stability(payload, tol):
    curve = parse_curve(payload)
    cls = parse_class(payload, curve)
    flag = parse_flag(payload)
    w = parse_weights(payload)
    v = pa.stability(cls, flag, w)
    out: dict = {"verdict": v.status}
    if v.witness is not None:
        wit = v.witness
        locus = (ser_plane_point(wit.locus) if isinstance(wit.locus, we.PlanePoint)
                 else ser_plane_line(wit.locus))
        out["witness"] = {"rank": wit.rank, "locus": locus, "pardeg": float(wit.pardeg)}
    return out


def _cmd_locus(payload, tol):
    curve = parse_curve(payload)
    cls = parse_class(payload, curve)
    flag = parse_flag(payload)
    return {"locus": pa.locus(cls, flag)}


def _cmd_normalize_flag(payload, tol):
    curve = parse_curve(payload)
    cls = parse_class(payload, curve)
    flag = parse_flag(payload)
    chamber = _need(payload, "chamber")
    coord, gauge = pa.normalize_flag(cls, flag, chamber)
    return {"coord": ser_proj(coord), "gauge": ser_matrix(gauge)}


def _cmd_flip(payload, tol):
    t = parse_proj(_need(payload, "t"))
    return {"lambda": ser_proj(pa.flip(t))}


def _cmd_psi_plus(payload, tol):
    curve = parse_curve(payload)
    line = parse_plane_line(_need(payload, "line"))
    x = parse_plane_point(_need(payload, "x"))
    cls, lam = ms.psi_plus(ms.IncidencePoint(x, line), curve)
    return {"class": ser_class(cls), "lambda": ser_proj(lam)}


def _cmd_covering(payload, tol):
    z1 = _need(payload, "z1")
    z2 = _need(payload, "z2")

    def conv(z):
        if isinstance(z, str):
            return Fraction(z)
        return parse_complex(z)

    f2, f3, cusp = ms.covering_invariants(conv(z1), conv(z2), tol=tol or 1e-9)
    return {"F2": ser_complex(complex(f2)), "F3": ser_complex(complex(f3)),
            "on_cusp": bool(cusp)}


def _cmd_sigma_count(payload, tol):
    curve = parse_curve(payload)
    line = parse_plane_line(_need(payload, "line"))
    return {"count": ms.sigma_cover_count(line, curve)}


def _cmd_abel(payload, tol):
    curve = parse_curve(payload)
    pair = _need(payload, "pair")
    if not (isinstance(pair, list) and len(pair) == 2):
        raise SchemaError("'pair' must be a 2-list of points")
    sp = ms.SymPair(parse_point(pair[0], curve), parse_point(pair[1], curve))
    return {"point": ser_point(ms.abel(sp))}


def _cmd_torelli(payload, tol):
    t1 = parse_complex(_need(payload, "tau1"))
    t2 = parse_complex(_need(payload, "tau2"))
    return {"isomorphic": ms.curves_isomorphic(t1, t2, rel_tol=tol or 1e-6)}


def _ser_auto(g: ag.ModularAuto) -> dict:
    return {"shift": ser_point(g.shift), "dual": g.dual}


def _parse_auto(v, curve: CurveSpec) -> ag.ModularAuto:
    if not isinstance(v, dict):
        raise SchemaError("automorphism must be an object {shift, dual}")
    return ag.ModularAuto(parse_point(_need(v, "shift"), curve), bool(_need(v, "dual")))


def _cmd_aut_elements(payload, tol):
    curve = parse_curve(payload)
    return {"elements": [_ser_auto(g) for g in ag.group_elements(curve)]}


def _cmd_aut_act(payload, tol):
    curve = parse_curve(payload)
    g = _parse_auto(_need(payload, "g"), curve)
    target = _need(payload, "target")
    if target == "plane":
        return {"matrix": ser_matrix(ag.act_plane(g, curve))}
    if not isinstance(target, dict):
        raise SchemaError("'target' must be 'plane' or an object")
    if "class" in target and "coord" in target:
        cls = parse_class(target, curve)
        coord = parse_proj(target["coord"])
        chamber = target.get("chamber", pa.CHAMBER_MINUS)
        ncls, ncoord, nch = ag.act_parabolic(g, cls, coord, chamber)
        return {"class": ser_class(ncls), "coord": ser_proj(ncoord), "chamber": nch}
    if "class" in target:
        return {"class": ser_class(ag.act_class(g, parse_class(target, curve)))}
    raise SchemaError("'target' must be 'plane', {class}, or {class, coord, chamber}")


COMMANDS = {
    "classify-bundle": _cmd_classify_bundle,
    "graded": _cmd_graded,
    "tu-line": _cmd_tu_line,
    "intersect-line": _cmd_intersect_line,
    "subbundles": _cmd_subbundles,
    "type-facts": _cmd_type_facts,
    "classify-monodromy": _cmd_classify_monodromy,
    "universal-family": _cmd_universal_family,
    "weights": _cmd_weights,
    "stability": _cmd_stability,
    "locus": _cmd_locus,
    "normalize-flag": _cmd_normalize_flag,
    "flip": _cmd_flip,
    "psi-plus": _cmd_psi_plus,
    "covering": _cmd_covering,
    "sigma-count": _cmd_sigma_count,
    "abel": _cmd_abel,
    "torelli": _cmd_torelli,
    "aut-elements": _cmd_aut_elements,
    "aut-act": _cmd_aut_act,
}


def run(request: dict, tol: Optional[float] = None) -> tuple[dict, int]:
    """Dispatch one request; returns (response, exit_code)."""
    diagnostics: list[str] = []
    if tol is not None:
        diagnostics.append(f"tol={tol!r}")
    try:
        if not isinstance(request, dict):
            raise SchemaError("request must be a JSON object")
        command = request.get("command")
        if not isinstance(command, str):
            raise SchemaError("missing 'command' string")
        handler = COMMANDS.get(command)
        if handler is None:
            return ({"ok": False, "result": {"error": "UnknownCommand",
                                             "message": f"unknown command {command!r}"},
                     "diagnostics": diagnostics}, EXIT_SCHEMA)
        payload = request.get("payload", {})
        if not isinstance(payload, dict):
            raise SchemaError("'payload' must be a JSON object")
        result = handler(payload, tol)
        return ({"ok": True, "result": result, "diagnostics": diagnostics}, EXIT_OK)
    except SchemaError as exc:
        return ({"ok": False, "result": {"error": "SchemaViolation", "message": str(exc)},
                 "diagnostics": diagnostics}, EXIT_SCHEMA)
    except (ValueError, ArithmeticError) as exc:
        return ({"ok": False, "result": {"error": type(exc).__name__, "message": str(exc)},
                 "diagnostics": diagnostics}, EXIT_DOMAIN)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _answer(resp: dict, code: int) -> tuple[str, int]:
    """The canonical text of one response; a result that JSON cannot hold
    (a non-finite number, as from an overflow) is answered as a domain error."""
    try:
        return _dump(resp), code
    except ValueError:
        return _dump({"ok": False, "result": {"error": "ValueError",
                                              "message": "result is not finite"},
                      "diagnostics": resp["diagnostics"]}), EXIT_DOMAIN


def _refuse(message: str) -> int:
    """Answer input refused before any request runs: SchemaViolation, exit 3."""
    print(_dump({"ok": False, "result": {"error": "SchemaViolation", "message": message},
                 "diagnostics": []}))
    return EXIT_SCHEMA


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ellpar",
        description="JSON oracle interface to the parabolic-moduli library")
    parser.add_argument("--tol", default=None,
                        help="override the default tolerance, a finite number > 0 "
                             "(also via TOL env var)")
    parser.add_argument("--file", type=str, default=None,
                        help="read a JSON array of requests from a file instead of stdin")
    args = parser.parse_args(argv)

    raw = args.tol if args.tol is not None else os.environ.get("TOL") or None
    try:
        tol = None if raw is None else float(raw)
    except ValueError:
        tol = math.nan  # refused below with the other non-finite values
    if tol is not None and not 0 < tol < math.inf:
        return _refuse(f"tol must be a finite number > 0, got {raw!r}")

    try:
        if args.file:
            with open(args.file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = json.load(sys.stdin)
    except (OSError, json.JSONDecodeError) as exc:
        return _refuse(str(exc))

    if args.file:
        if not isinstance(data, list):
            return _refuse("--file expects a JSON array of requests")
        texts = []
        worst = EXIT_OK
        for req in data:
            text, code = _answer(*run(req, tol))
            texts.append(text)
            worst = max(worst, code)
        print("[" + ",".join(texts) + "]")
        return worst

    text, code = _answer(*run(data, tol))
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
