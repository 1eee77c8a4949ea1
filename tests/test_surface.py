"""The library carries no code that only the tests call, and its modules
keep their private names, the Gauss rule source and the two-body solve to
themselves.

Every top-level function and class of `src/qftscat/` must be named (as a
Python name token), and every method of such a class read as an attribute
(`.name`) or called (`name(...)`), somewhere in `src/` or `perfbench/` outside
its own definition: a bare name shared with a parameter or a local is no use
of a method. Dunder methods are reached by the language, not by name, and are
left out.
"""
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qftscat"
SCANNED = [ROOT / "src", ROOT / "perfbench"]

# entry points that only the tests call, each with its reason
ALLOWED = {
    "hermiticity_identity_check": "acceptance criterion 8",
    "sokhotsky_check": "acceptance criterion 4",
    "riemann_lebesgue_decay": "acceptance criterion 5",
    "l1_fourier_bound": "acceptance criterion 6",
    "apply_leg_multiplier": "acceptance criterion 2",
    "truncate_bilinear": "acceptance criterion 2",
    "bilinear_from_functional": "acceptance criterion 2",
    "BorchersVector.scaled": "the vector algebra's scalar action, with __add__",
}


def _definitions(tree):
    """(qualified name, bare name, first line, last line) of every top-level
    function and class and every method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield (f"{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def _name_lines(path, accessed=False):
    """{name: [line numbers]} of every name token in a Python file; with
    accessed, of those read as an attribute (`.name`) or called (`name(`,
    not in a def or class statement)."""
    with open(path, "rb") as fh:
        source = fh.read()
    skip = (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT)
    toks = [t for t in tokenize.tokenize(io.BytesIO(source).readline) if t.type not in skip]
    out = {}
    # every name token sits between the ENCODING and ENDMARKER tokens
    for prev, tok, nxt in zip(toks, toks[1:], toks[2:]):
        if tok.type == tokenize.NAME and (not accessed or prev.string == "." or (
                nxt.string == "(" and prev.string not in ("def", "class"))):
            out.setdefault(tok.string, []).append(tok.start[0])
    return out


def unreferenced():
    files = sorted({p for d in SCANNED for p in d.rglob("*.py")})
    names = {p: _name_lines(p) for p in files}
    accesses = {p: _name_lines(p, accessed=True) for p in files}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for qualname, name, first, last in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            uses = accesses if "." in qualname else names
            used = any(line < first or line > last if p == path else True
                       for p in files for line in uses[p].get(name, ()))
            if not used:
                found.append(qualname)
    return found


def test_no_library_code_only_the_tests_call():
    assert sorted(set(unreferenced()) - set(ALLOWED)) == []


def test_allowlist_names_only_unreferenced_definitions():
    # a name that gains a library caller leaves the allowlist
    assert sorted(set(ALLOWED) - set(unreferenced())) == []


def private_imports():
    """'module <- owner.name' for every underscore name (dunders aside) that
    one module of the package imports from another."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == PACKAGE.name):
                found += [f"{path.stem} <- {node.module}.{alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
    return sorted(found)


def test_no_private_names_across_modules():
    assert private_imports() == []


def test_only_kinematics_builds_gauss_rules():
    # every Gauss-Legendre rule comes from kinematics.gauss_rule
    users = sorted(p.stem for p in PACKAGE.glob("*.py") if "leggauss" in _name_lines(p))
    assert users == ["kinematics"]


def test_only_structure_solves_two_body_kinematics():
    # every r -> n-r configuration is closed by structure.complete_configurations
    users = sorted(p.stem for p in PACKAGE.glob("*.py") if "two_body_solutions" in _name_lines(p))
    assert users == ["structure"]
