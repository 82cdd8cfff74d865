"""Hygiene of the library modules: every name a module imports at module
level is used in it, every module-level private name is referenced
somewhere in the package, every public one and every public method in the
package, the scripts, the README or the acceptance tests, no memo is
unbounded, no small float literal stands outside a module-level name, no
membership test of the Jacobian is composed outside jaclattice, no call
outside jaclattice passes EQ_TOL or rounds a coordinate into a Fraction,
only nine distance comparisons take a tol (or rel_tol) parameter,
no frozen value is built through object.__setattr__, no module imports
dataclasses, no module reads the environment, and every command of the
CLI takes its payload alone and binds no tol.  No linter is part of the
toolchain, so this test is the check."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ellpar"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_module_level_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [u for p in modules for u in _unused_imports(p)]
    assert unused == []


def _definitions(tree: ast.Module, methods: bool = False) -> set[str]:
    """The module-level names a module defines, and with methods the names
    of its classes' methods, dunders left out."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if methods and isinstance(node, ast.ClassDef):
            names.update(f.name for f in node.body if isinstance(f, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("__")}


def _references(tree: ast.Module) -> set[str]:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs


def test_no_module_level_private_name_without_a_reference():
    # a private helper no code in the package calls is dead code
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    refs = set().union(*(_references(t) for t in trees.values()))
    orphans = [f"{name}:{d}" for name, t in trees.items()
               for d in sorted(_definitions(t)) if d.startswith("_") and d not in refs]
    assert orphans == []


def _code_names(markdown: str) -> set[str]:
    """The identifiers in the code blocks and `code` spans of a Markdown text."""
    blocks = re.findall(r"```.*?```", markdown, flags=re.S)
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", markdown, flags=re.S))
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(blocks + spans)))


def test_no_public_name_without_a_user():
    # a public helper that only its own tests call is dead code as well:
    # each, and each public method of a library class (matched by name), is
    # used by the package, a script or an acceptance criterion, or named as
    # API in the README
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    users = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    refs = set().union(*(_references(ast.parse(p.read_text(encoding="utf-8"))) for p in users))
    refs |= _code_names((ROOT / "README.md").read_text(encoding="utf-8"))
    orphans = [f"{name}:{d}" for name, t in trees.items()
               for d in sorted(_definitions(t, methods=True))
               if not d.startswith("_") and d not in refs]
    assert orphans == []


def _unbounded_memos(path: Path) -> list[str]:
    """functools.cache, and lru_cache(maxsize=None) or lru_cache(None),
    however imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "cache"
                and getattr(node.value, "id", None) == "functools"
                or isinstance(node, ast.ImportFrom) and node.module == "functools"
                and any(a.name == "cache" for a in node.names)):
            found.append(f"{path.name}:{node.lineno} functools.cache")
        elif isinstance(node, ast.Call):
            f = node.func
            if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) != "lru_cache":
                continue
            size = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(isinstance(v, ast.Constant) and v.value is None for v in size):
                found.append(f"{path.name}:{node.lineno} lru_cache(maxsize=None)")
    return found


def test_no_unbounded_memo():
    # a memo that grows with the operations run grows the process with them
    unbounded = [u for p in sorted(SRC.glob("*.py")) for u in _unbounded_memos(p)]
    assert unbounded == []


def _unnamed_small_floats(path: Path) -> list[str]:
    """Float and complex literals of modulus in (0, 1e-3) outside a module-level
    assignment, default arguments included."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    named = {id(n) for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
             for n in ast.walk(node)}
    return [f"{path.name}:{n.lineno} {n.value!r}" for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and type(n.value) in (float, complex)
            and 0 < abs(n.value) < 1e-3 and id(n) not in named]


def test_no_small_float_literal_outside_a_module_level_name():
    # a decision threshold is named once, in the tolerance policy block of
    # jaclattice, and a method constant (a series break, a pivot, a step) as
    # a module-level name with its reason; a small literal anywhere else is
    # a threshold or constant without a name
    unnamed = [u for p in sorted(SRC.glob("*.py")) for u in _unnamed_small_floats(p)]
    assert unnamed == []


def _is_zero_calls(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "is_zero"]


def test_no_is_zero_call_outside_jaclattice():
    # zero-sum and torsion tests go through jaclattice.sums_to_zero and
    # is_torsion, which decide exact points on integers: one implementation
    # of each membership test
    paths = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    calls = [c for p in sorted(paths) if p.name != "jaclattice.py" for c in _is_zero_calls(p)]
    assert calls == []


def _eq_tol_arguments(path: Path) -> list[str]:
    """Calls given the name EQ_TOL (or jl.EQ_TOL) as an argument, positional
    or keyword; an expression such as ``tol or jl.EQ_TOL`` is not the name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Call)
            for a in [*n.args, *(k.value for k in n.keywords)]
            if (a.id if isinstance(a, ast.Name) else getattr(a, "attr", None)) == "EQ_TOL"]


def test_no_call_outside_jaclattice_passes_eq_tol():
    # EQ_TOL is the default of the distance predicates that take a tol and
    # the name every decider reads at call time: a caller that passes it
    # states it a second time
    calls = [c for p in sorted(SRC.glob("*.py")) if p.name != "jaclattice.py"
             for c in _eq_tol_arguments(p)]
    assert calls == []


def _tol_parameters(path: Path) -> set[tuple[str, str]]:
    """(module.qualified name, parameter) of each function or lambda with a
    parameter named tol or rel_tol."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                if not isinstance(child, ast.ClassDef):
                    a = child.args
                    found.update((name, p.arg) for p in [*a.posonlyargs, *a.args, *a.kwonlyargs]
                                 if p.arg in ("tol", "rel_tol"))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem + ".")
    return found


# the distance comparisons a caller measures with at its own radius, and the
# two a caller passes a threshold to: every decision reads its policy name
# (EQ_TOL, CUSP_TOL) at call time instead, so that one value decides it
TOL_PARAMETERS = {
    ("jaclattice.JacPoint.is_zero", "tol"), ("jaclattice.equal", "tol"),
    ("weierstrass.PlanePoint.close_to", "tol"), ("weierstrass.PlaneLine.close_to", "tol"),
    ("weierstrass.PlaneLine.contains", "tol"), ("parabolic.ProjScalar.close_to", "tol"),
    ("modspace.curves_isomorphic", "rel_tol"), ("modspace.parametrization_rank", "tol"),
    ("monodromy._is_zero", "tol"),
}


def test_only_the_distance_comparisons_take_a_tol():
    found = set().union(*(_tol_parameters(p) for p in SRC.glob("*.py")))
    assert found == TOL_PARAMETERS


def _rounded_fractions(path: Path) -> list[str]:
    """Calls of Fraction (or x.Fraction) with a round(...) call anywhere in
    their arguments."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Call)
            and (getattr(n.func, "id", None) or getattr(n.func, "attr", None)) == "Fraction"
            and any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "round"
                    for a in [*n.args, *(k.value for k in n.keywords)] for c in ast.walk(a))]


def test_no_torsion_point_is_rounded_outside_jaclattice():
    # jaclattice.snap_to_torsion is the one rule that builds the torsion point
    # nearest an approximate one; a Fraction of a rounded float elsewhere is
    # a second copy of it
    calls = [c for p in sorted(SRC.glob("*.py")) if p.name != "jaclattice.py"
             for c in _rounded_fractions(p)]
    assert calls == []


def _setattr_calls(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == "__setattr__"
            and getattr(n.value, "id", None) == "object"]


def test_no_object_setattr_in_the_library():
    # a frozen value fills its instance dict in a hand-written __init__,
    # which validates its arguments first: one construction idiom
    calls = [c for p in sorted(SRC.glob("*.py")) for c in _setattr_calls(p)]
    assert calls == []


def _dataclasses_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
            if isinstance(n, ast.Import) and any(a.name == "dataclasses" for a in n.names)
            or isinstance(n, ast.ImportFrom) and n.module == "dataclasses"]


def test_no_dataclasses_import_in_the_library():
    # the value classes derive from jaclattice.Value: importing dataclasses
    # (and the inspect it loads) and exec-compiling its generated methods
    # cost a fifth of a cold start of the CLI
    imports = [i for p in sorted(SRC.glob("*.py")) for i in _dataclasses_imports(p)]
    assert imports == []


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(path: Path) -> list[str]:
    """os.environ and os.getenv (and their bytes forms), as attributes of os
    or imported from it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr in _ENVIRONMENT
            and getattr(n.value, "id", None) == "os"
            or isinstance(n, ast.ImportFrom) and n.module == "os"
            and any(a.name in _ENVIRONMENT for a in n.names)]


def test_no_module_reads_the_environment():
    # each option of the library has one source, the CLI's arguments: an
    # environment variable would be a second, set unseen by the calling shell
    reads = [r for p in sorted(SRC.glob("*.py")) for r in _environment_reads(p)]
    assert reads == []


def _cli_handler_shapes() -> dict[str, list[str]]:
    """The parameters of each handler of cli.COMMANDS, by command."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    defs = {n.name: n.args for n in tree.body if isinstance(n, ast.FunctionDef)}
    table = next(n.value for n in tree.body if isinstance(n, ast.Assign)
                 and [getattr(t, "id", None) for t in n.targets] == ["COMMANDS"])
    return {k.value: [a.arg for a in ast.walk(defs[v.id]) if isinstance(a, ast.arg)]
            for k, v in zip(table.keys, table.values)}


def _tol_bindings(path: Path) -> list[str]:
    """Each name tol the module binds: an assignment, a parameter or a keyword
    argument."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
            if isinstance(n, ast.Name) and n.id == "tol" and not isinstance(n.ctx, ast.Load)
            or isinstance(n, (ast.arg, ast.keyword)) and n.arg == "tol"]


def test_every_cli_command_takes_its_payload_alone():
    # every command answers at the policy values of the library defaults: a
    # handler with a second parameter, or a tol bound in the CLI, would be a
    # per-request override of them
    shapes = _cli_handler_shapes()
    assert len(shapes) == 20
    assert {c: a for c, a in shapes.items() if a != ["payload"]} == {}
    assert _tol_bindings(SRC / "cli.py") == []


def _policy_block() -> list[str]:
    """The *_TOL names jaclattice assigns at module level before TWO_PI_I,
    in order."""
    names = []
    for node in ast.parse((SRC / "jaclattice.py").read_text(encoding="utf-8")).body:
        targets = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if targets == ["TWO_PI_I"]:
            return names
        names += [t for t in targets if t.endswith("_TOL")]
    raise AssertionError("jaclattice assigns no TWO_PI_I")


def test_the_readme_lists_the_policy_block():
    # the README's jaclattice row counts and names the thresholds of the
    # policy block: a name added to the block or retired from it is so in
    # the row too
    row = next(line for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
               if line.startswith("| `ellpar.jaclattice` |"))
    count, listed = re.search(r"it has (\d+) names: (.*?)(?: \(|\s*\|)", row).groups()
    names = re.findall(r"`(\w+)`", listed)
    assert names == _policy_block()
    assert int(count) == len(names)


def _reads(path: Path) -> set[str]:
    """The names a module reads: loaded as a name or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_every_threshold_of_the_policy_block_is_read():
    # a threshold no site reads decides nothing; its assignment is a store,
    # and an import is no read
    read = set().union(*(_reads(p) for p in SRC.glob("*.py")))
    unread = [name for name in _policy_block() if name not in read]
    assert _policy_block() and unread == []
