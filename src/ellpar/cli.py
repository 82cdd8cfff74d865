"""JSON command-line front end: one request on stdin (or a batch via --file),
one canonical-JSON response on stdout.

Exit codes: 0 ok, 2 domain error (valid request, library rejected the data),
3 schema error (malformed request, unknown command, or a command-line
argument that is not `--file FILE`).  Every command decides at the library
defaults, the thresholds of the jaclattice policy block.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from fractions import Fraction
from typing import Any, Optional, Sequence

from . import bundles as bd
from . import jaclattice as jl
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


# the two shape checks: v itself when it has the shape, else a SchemaError with message

def _list(v, n: int, message: str) -> list:
    if isinstance(v, list) and len(v) == n:
        return v
    raise SchemaError(message)


def _object(v, message: str) -> dict:
    if isinstance(v, dict):
        return v
    raise SchemaError(message)


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


def parse_curve(payload: dict) -> CurveSpec:
    return CurveSpec(parse_complex(_need(payload, "tau")))


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
    """z as JSON: a number when real, else [re, im].  Every computed value of
    a result passes here (lattice coordinates, weights and parabolic degrees
    are finite by construction), and JSON cannot hold a non-finite one, as
    from an overflow: that is a ValueError, which run answers as a domain
    error."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError("result is not finite")
    if z.imag == 0:
        return z.real
    return [z.real, z.imag]


def parse_points(v, n: int, curve: CurveSpec, message: str) -> list:
    return [parse_point(p, curve) for p in _list(v, n, message)]


def ser_point(p: JacPoint) -> list:
    if p.is_exact:
        return [p.s.numerator, p.s.denominator, p.t.numerator, p.t.denominator]
    z = p.value()
    return [z.real, z.imag]


def parse_plane_point(v) -> we.PlanePoint:
    v = _list(v, 3, "plane point must be a 3-list of complex coordinates")
    return we.PlanePoint.of(*(parse_complex(c) for c in v))


def parse_plane_line(v) -> we.PlaneLine:
    v = _list(v, 3, "plane line must be a 3-list of complex coefficients")
    return we.PlaneLine.of(*(parse_complex(c) for c in v))


def ser_plane(p) -> list:
    """A PlanePoint's coordinates or a PlaneLine's coefficients."""
    a, b, c = p.vec()
    return [ser_complex(a), ser_complex(b), ser_complex(c)]


def parse_class(payload: dict, curve: CurveSpec) -> bd.BundleClass:
    v = _need(payload, "class")
    if not isinstance(v, dict) or "label" not in v:
        raise SchemaError("class must be an object with a 'label'")
    label = v["label"]
    if label == "T1":
        return bd.classify_triple(*parse_points(v.get("triple"), 3, curve,
                                                "T1 class needs a 3-element 'triple'"))
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


def parse_flag(payload: dict) -> pa.Flag:
    v = _object(_need(payload, "flag"), "flag must be an object {P, L}")
    return pa.Flag(parse_plane_point(_need(v, "P")), parse_plane_line(_need(v, "L")))


def parse_matrix(v) -> list:
    message = "matrix must be a 3x3 array"
    rows = [_list(r, 3, message) for r in _list(v, 3, message)]  # every shape before any entry
    return [[parse_complex(c) for c in row] for row in rows]


def ser_matrix(M: Sequence[Sequence[complex]]) -> list:
    return [[ser_complex(c) for c in row] for row in M]


def parse_fraction(v: str) -> Fraction:
    """A fraction string such as "1/3"; one Fraction cannot read is a schema error."""
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"expected a fraction string, got {v!r}") from None


def _parse_weight_entry(x):
    if isinstance(x, str):
        return parse_fraction(x)
    if _is_number(x):
        return x
    raise SchemaError(f"weight must be a number or fraction string, got {x!r}")


def parse_weights(v, message: str) -> tuple[pa.Weights, str]:
    """The weights and chamber of a 3-list of raw weights, as make_weights gives them."""
    return pa.make_weights(*(_parse_weight_entry(x) for x in _list(v, 3, message)))


def ser_weights(w: pa.Weights) -> list:
    return [float(w.mu1), float(w.mu2), float(w.mu3)]


def ser_locus_config(cfg: bd.SubbundleConfig) -> dict:
    def ser_locus(l) -> dict:
        # a PointLocus or LineLocus: its dim, then each of its plane fields that is set
        out: dict = {"dim": l.dim}
        for name in l._fields[1:]:
            p = getattr(l, name)
            if p is not None:
                out[name] = ser_plane(p)
        return out

    return {"rank1": [ser_locus(l) for l in cfg.rank1],
            "rank2": [ser_locus(l) for l in cfg.rank2]}


# ---------- command handlers ----------

def _cmd_classify_bundle(payload):
    curve = parse_curve(payload)
    pts = parse_points(_need(payload, "triple"), 3, curve, "'triple' must be a 3-list of points")
    return ser_class(bd.classify_triple(*pts))


def _cmd_graded(payload):
    curve = parse_curve(payload)
    cls = parse_class(payload, curve)
    return {"triple": [ser_point(p) for p in bd.graded(cls)]}


def _cmd_tu_line(payload):
    curve = parse_curve(payload)
    cls = parse_class(payload, curve)
    return {"line": ser_plane(bd.tu_line(cls, curve))}


def _cmd_intersect_line(payload):
    curve = parse_curve(payload)
    line = parse_plane_line(_need(payload, "line"))
    pts = we.intersect_curve(line, curve)
    return {"points": [ser_point(p) for p in pts],
            "multiplicities": we.multiplicities(pts)}


def _cmd_subbundles(payload):
    curve = parse_curve(payload)
    cls = parse_class(payload, curve)
    return ser_locus_config(bd.subbundle_config(cls))


def _cmd_type_facts(payload):
    label = _need(payload, "label")
    if label not in bd.LABELS:
        raise SchemaError(f"unknown label {label!r}")
    endo, admits, count = bd.type_facts(label)
    return {"endo_dim": endo, "admits_stable": admits, "sigma_count": count}


def _cmd_classify_monodromy(payload):
    from . import monodromy as mo

    curve = parse_curve(payload)
    pair = mo.CommutingPair(parse_matrix(_need(payload, "A")),
                            parse_matrix(_need(payload, "B")))
    return ser_class(mo.classify_bundle(pair, curve))


def _cmd_universal_family(payload):
    from . import monodromy as mo

    curve = parse_curve(payload)
    b1 = parse_complex(_need(payload, "b1"))
    b2 = parse_complex(_need(payload, "b2"))
    kind = payload.get("kind", "generic")
    pair = mo.universal_pair(b1, b2, kind)
    cls = mo.classify_bundle(pair, curve)
    out = {"A": ser_matrix(pair.A), "B": ser_matrix(pair.B), "class": ser_class(cls)}
    if kind == "generic" and cls.label == "T1":
        out["config"] = ser_locus_config(mo.universal_config(b1, b2))
    return out


def _cmd_weights(payload):
    w, chamber = parse_weights(_need(payload, "raw"), "'raw' must be a 3-list")
    return {"weights": ser_weights(w), "chamber": chamber}


def _cmd_stability(payload):
    curve = parse_curve(payload)
    cls = parse_class(payload, curve)
    flag = parse_flag(payload)
    w, _ = parse_weights(_need(payload, "weights"), "weights must be a 3-list")
    v = pa.stability(cls, flag, w)
    out: dict = {"verdict": v.status}
    if v.witness is not None:
        wit = v.witness
        out["witness"] = {"rank": wit.rank, "locus": ser_plane(wit.locus),
                          "pardeg": float(wit.pardeg)}
    return out


def _cmd_locus(payload):
    curve = parse_curve(payload)
    cls = parse_class(payload, curve)
    flag = parse_flag(payload)
    return {"locus": pa.locus(cls, flag)}


def _cmd_normalize_flag(payload):
    curve = parse_curve(payload)
    cls = parse_class(payload, curve)
    flag = parse_flag(payload)
    chamber = _need(payload, "chamber")
    coord, gauge = pa.normalize_flag(cls, flag, chamber)
    return {"coord": ser_proj(coord), "gauge": ser_matrix(gauge)}


def _cmd_flip(payload):
    t = parse_proj(_need(payload, "t"))
    return {"lambda": ser_proj(pa.flip(t))}


def _cmd_psi_plus(payload):
    from . import modspace as ms

    curve = parse_curve(payload)
    line = parse_plane_line(_need(payload, "line"))
    x = parse_plane_point(_need(payload, "x"))
    cls, lam = ms.psi_plus(ms.IncidencePoint(x, line), curve)
    return {"class": ser_class(cls), "lambda": ser_proj(lam)}


def _cmd_covering(payload):
    from . import modspace as ms

    z1 = _need(payload, "z1")
    z2 = _need(payload, "z2")

    def conv(z):
        if isinstance(z, str):
            return parse_fraction(z)
        return parse_complex(z)

    f2, f3, cusp = ms.covering_invariants(conv(z1), conv(z2))
    return {"F2": ser_complex(complex(f2)), "F3": ser_complex(complex(f3)),
            "on_cusp": bool(cusp)}


def _cmd_sigma_count(payload):
    from . import modspace as ms

    curve = parse_curve(payload)
    line = parse_plane_line(_need(payload, "line"))
    return {"count": ms.sigma_cover_count(line, curve)}


def _cmd_abel(payload):
    from . import modspace as ms

    curve = parse_curve(payload)
    sp = ms.SymPair(*parse_points(_need(payload, "pair"), 2, curve,
                                  "'pair' must be a 2-list of points"))
    return {"point": ser_point(ms.abel(sp))}


def _cmd_torelli(payload):
    from . import modspace as ms

    t1 = parse_complex(_need(payload, "tau1"))
    t2 = parse_complex(_need(payload, "tau2"))
    return {"isomorphic": ms.curves_isomorphic(t1, t2)}


def _cmd_aut_elements(payload):
    from . import autgroup as ag

    curve = parse_curve(payload)
    return {"elements": [{"shift": ser_point(g.shift), "dual": g.dual}
                         for g in ag.group_elements(curve)]}


def _cmd_aut_act(payload):
    from . import autgroup as ag

    curve = parse_curve(payload)
    v = _object(_need(payload, "g"), "automorphism must be an object {shift, dual}")
    dual = _need(v, "dual")
    if not isinstance(dual, bool):
        raise SchemaError(f"'dual' must be true or false, got {dual!r}")
    g = ag.ModularAuto(parse_point(_need(v, "shift"), curve), dual)
    target = _need(payload, "target")
    if target == "plane":
        return {"matrix": ser_matrix(ag.act_plane(g, curve))}
    target = _object(target, "'target' must be 'plane' or an object")
    if "class" not in target:
        raise SchemaError("'target' must be 'plane', {class}, or {class, coord, chamber}")
    cls = parse_class(target, curve)
    if "coord" not in target:
        return {"class": ser_class(ag.act_class(g, cls))}
    chamber = target.get("chamber", pa.CHAMBER_MINUS)
    ncls, ncoord, nch = ag.act_parabolic(g, cls, parse_proj(target["coord"]), chamber)
    return {"class": ser_class(ncls), "coord": ser_proj(ncoord), "chamber": nch}


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


def _failure(error: str, message: str) -> dict:
    return {"ok": False, "result": {"error": error, "message": message}, "diagnostics": []}


def run(request: dict) -> tuple[dict, int]:
    """Dispatch one request; returns (response, exit_code)."""
    try:
        command = _object(request, "request must be a JSON object").get("command")
        if not isinstance(command, str):
            raise SchemaError("missing 'command' string")
        handler = COMMANDS.get(command)
        if handler is None:
            return _failure("UnknownCommand", f"unknown command {command!r}"), EXIT_SCHEMA
        payload = _object(request.get("payload", {}), "'payload' must be a JSON object")
        return {"ok": True, "result": handler(payload), "diagnostics": []}, EXIT_OK
    except SchemaError as exc:
        return _failure("SchemaViolation", str(exc)), EXIT_SCHEMA
    except (ValueError, ArithmeticError) as exc:
        return _failure(type(exc).__name__, str(exc)), EXIT_DOMAIN


# the encoder json.dumps would build for these arguments on every call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _dump(obj) -> str:
    return _ENCODER.encode(obj)


def _refuse(message: str) -> int:
    """Answer input refused before any request runs: SchemaViolation, exit 3."""
    print(_dump(_failure("SchemaViolation", message)))
    return EXIT_SCHEMA


def _file(argv: Sequence[str]) -> Optional[str]:
    """The --file of the command line, None without arguments: argparse is
    imported only to parse some.  An argument error (an unknown option, a
    --file without a value) is a SchemaError, not argparse's exit 2."""
    if not argv:
        return None
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise SchemaError(message)

    parser = Parser(prog="ellpar",
                    description="JSON oracle interface to the parabolic-moduli library")
    parser.add_argument("--file", help="read a JSON array of requests from a file instead of stdin")
    return parser.parse_args(argv).file


def main(argv: Optional[list[str]] = None) -> int:
    try:
        file = _file(sys.argv[1:] if argv is None else argv)
        if file is not None:
            with open(file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = json.load(sys.stdin)
        if file is not None and not isinstance(data, list):
            raise SchemaError("--file expects a JSON array of requests")
    except (OSError, ValueError, RecursionError) as exc:
        # a refused argument or batch, no file, bytes that are not UTF-8, or
        # text that is not JSON or nests deeper than the decoder allows
        return _refuse(str(exc))

    texts, codes = [], [EXIT_OK]
    for req in data if file is not None else [data]:
        resp, code = run(req)
        texts.append(_dump(resp))
        codes.append(code)
    print("[" + ",".join(texts) + "]" if file is not None else texts[0])
    return max(codes)  # a batch exits with its worst code


if __name__ == "__main__":
    sys.exit(main())
