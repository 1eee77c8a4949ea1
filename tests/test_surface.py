"""The library carries no code that only the tests call, and its modules
keep their private names, the Gauss rule source and the two-body solve to
themselves.

Every top-level function and class of `src/qftscat/` must be named (as a
Python name token), and every method of such a class read as an attribute
(`.name`) or called (`name(...)`), somewhere in `src/` or `perfbench/` outside
its own definition: a bare name shared with a parameter or a local is no use
of a method. An attribute read counts only for the receiver's class and the
classes it inherits from or passes to, where the syntax names that class:
`self` and `cls` in its methods, the class itself, or a parameter annotated
with it. Dunder methods are reached by the language, not by name, and are
left out. Every field of a user-settable config dataclass must likewise be
read as an attribute outside its own class: a setting nothing reads only
looks like a knob.
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
    "ModelParams.d": "configs state the dimension; only 2 is implemented, and the "
                     "README and perfbench configs name it",
}

# the config dataclasses a user sets from the command line or the library
CONFIGS = ("ModelParams", "QuadratureSettings", "FitConfig")


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


def _name_lines(path):
    """{name: [line numbers]} of every name token in a Python file."""
    with open(path, "rb") as fh:
        source = fh.read()
    out = {}
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type == tokenize.NAME:
            out.setdefault(tok.string, []).append(tok.start[0])
    return out


def _package_classes():
    """{class: set of its package bases, itself included, transitively} for
    every top-level class of the package."""
    nodes = {node.name: node for path in PACKAGE.glob("*.py")
             for node in ast.parse(path.read_text()).body if isinstance(node, ast.ClassDef)}

    def lineage(name):
        return {name}.union(*(lineage(b.id) for b in nodes[name].bases
                              if isinstance(b, ast.Name) and b.id in nodes))

    return {name: lineage(name) for name in nodes}


def _method_uses(path, classes):
    """{name: [(class or None, line)]} of every attribute read (`.name`) and
    bare call (`name(...)`, class None) in a Python file. The class is the
    receiver's where the syntax names it (see the module docstring), else None."""
    uses = {}

    def named(expr):
        label = expr.id if isinstance(expr, ast.Name) else getattr(expr, "value", None)
        return label if label in classes else None

    def visit(node, owner, annotated):
        if isinstance(node, ast.ClassDef):
            owner = node.name if node.name in classes else None
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            annotated = {**annotated, **{a.arg: a.annotation and named(a.annotation)
                                         for a in params}}
        if isinstance(node, ast.Attribute):
            receiver = node.value.id if isinstance(node.value, ast.Name) else None
            cls = owner if receiver in ("self", "cls") else (
                receiver if receiver in classes else annotated.get(receiver))
            uses.setdefault(node.attr, []).append((cls, node.lineno))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            uses.setdefault(node.func.id, []).append((None, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, annotated)

    visit(ast.parse(path.read_text()), None, {})
    return uses


class _Scan:
    """The scanned files' name tokens and attribute reads, and the package's classes."""

    def __init__(self):
        self.files = sorted({p for d in SCANNED for p in d.rglob("*.py")})
        self.classes = _package_classes()
        self.names = {p: _name_lines(p) for p in self.files}
        self.methods = {p: _method_uses(p, self.classes) for p in self.files}

    def read(self, owner, name, path, first, last):
        """Whether attribute `name` of class owner (defined on lines first..last
        of path) is read outside those lines; a read through a subclass or a
        base may reach it."""
        classes = self.classes
        return any(cls is None or owner in classes[cls] or cls in classes[owner]
                   for p in self.files for cls, line in self.methods[p].get(name, ())
                   if p != path or not first <= line <= last)


def unreferenced():
    scan = _Scan()
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for qualname, name, first, last in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if "." in qualname:
                used = scan.read(qualname.split(".")[0], name, path, first, last)
            else:
                used = any(line < first or line > last if p == path else True
                           for p in scan.files for line in scan.names[p].get(name, ()))
            if not used:
                found.append(qualname)
    return found


def config_fields():
    """(path, class node, field name) of every field of the CONFIGS dataclasses."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in CONFIGS:
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield path, node, item.target.id


def unread_fields():
    scan = _Scan()
    return [f"{node.name}.{name}" for path, node, name in config_fields()
            if not scan.read(node.name, name, path, node.lineno, node.end_lineno)]


def test_no_library_code_only_the_tests_call():
    assert sorted(set(unreferenced()) - set(ALLOWED)) == []


def test_every_config_field_is_read():
    assert {node.name for _, node, _ in config_fields()} == set(CONFIGS)
    assert sorted(set(unread_fields()) - set(ALLOWED)) == []


def test_allowlist_names_only_unreferenced_definitions():
    # a name that gains a library caller or reader leaves the allowlist
    assert sorted(set(ALLOWED) - set(unreferenced()) - set(unread_fields())) == []


def test_attribute_reads_resolve_their_receiver(tmp_path):
    # a method named like another class's attribute is not hidden by reads
    # whose receiver is known to be that other class
    path = tmp_path / "m.py"
    path.write_text("class A:\n"
                    "    def f(self):\n"
                    "        return self.size + A.n\n"
                    "\n"
                    "def g(a: 'A', b):\n"
                    "    return a.size, b.size, size()\n")
    uses = _method_uses(path, {"A": {"A"}})
    assert sorted(uses["size"], key=str) == [("A", 3), ("A", 6), (None, 6), (None, 6)]
    assert uses["n"] == [("A", 3)]


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
    # every on-shell pair is solved by one core: for shell_integral and g_j
    # in _solved_pair_terms, and for the fit sampler in complete_configurations
    assert callers("_pair_roots") == ["structure._solved_pair_terms",
                                      "structure.complete_configurations"]


def test_one_grid_rules_every_on_shell_leg_product():
    # the product grid of legs on their packet rules is built in one place
    assert callers("_ruled_legs") == ["structure._lone_leg_term", "structure._onshell_sum",
                                      "structure.shell_integral"]


def callers(name):
    """'module.function' of every function of the package that calls `name`,
    as `name(...)` or `x.name(...)`; a call outside any function counts as 'module'."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return sorted(found)


def test_only_require_valid_checks_condition41():
    # one place validates a transfer family, and it keeps the report on the family
    users = sorted(p.stem for p in PACKAGE.glob("*.py") if "validate_condition41" in _name_lines(p))
    assert users == ["transfer"]
    assert callers("validate_condition41") == ["transfer.require_valid"]
