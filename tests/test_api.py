"""API audits: every public function of ``src/obcast`` has a caller, every defaulted parameter one that sets it, every dataclass field a reader, and no parameter one fixed literal.

A function that only tests call, a default that no call in the package or
in the benchmark ever overrides, a parameter that every call passes the same
literal, or a result field that nothing reads, is code or a constant in
disguise.  The
audits parse both trees with ``ast``.  A public function or method counts as
reached when some code in either tree names it, as a bare name or as an
attribute, by its identifier; the package's re-exports in ``__init__.py`` are
not a use, and neither is an attribute of a module imported from outside the
package, such as ``json.dumps``, nor a name that is assigned, or read where the
enclosing function binds it.  A parameter counts as set when some call passes it by keyword,
by position, through ``dataclasses.replace`` (for a dataclass field), or,
for a constructor, through a call by the class name.  Passing the default's
own literal, as in ``f(side="a")`` where the default is ``"a"``, does not
set it.  A parameter is a constant when at least one call names its function
and every such call passes it, by position or keyword, as the same
``ast.literal_eval`` literal.  A dataclass field counts as read when some code
in either tree loads an attribute of its name, whatever the object.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from obcast.broadcast import verify_orthogonality_broadcast
from obcast.ensembles import gallery

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "obcast"
CALLER_TREES = (PACKAGE, ROOT / "perfbench")

# defaulted parameters that no call in either tree sets, each with the reason it stays
ALLOWED: dict[str, str] = {}
# public functions that nothing in either tree reaches yet, each with the reason it stays
UNREACHED: dict[str, str] = {}
# dataclass fields that no code in either tree reads, each with the reason it stays
UNREAD_FIELDS: dict[str, str] = {}

_NO_LITERAL = object()


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _NO_LITERAL


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _function_parameters(fn: ast.FunctionDef, bound: bool):
    """(parameter, position or None, default expression or None) for each named parameter of ``fn`` after ``self``."""
    positional = (fn.args.posonlyargs + fn.args.args)[bound:]
    defaults = [None] * (len(positional) - len(fn.args.defaults)) + fn.args.defaults
    for i, (arg, default) in enumerate(zip(positional, defaults)):
        yield arg.arg, i, default
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        yield arg.arg, None, default


class _Scan(ast.NodeVisitor):
    """Defaulted parameters of the package, and every call with the function it sits in.

    Methods are named by their own name and count positions after ``self``;
    a dataclass's fields and an explicit ``__init__`` are named by the class.
    """

    def __init__(self):
        self.parameters = []
        self.signatures = []  # every named parameter, defaulted or not
        self.dataclasses = set()
        self.calls = []  # (call, name of the enclosing function or None)
        self._class = None
        self._function = None

    def visit_ClassDef(self, node):
        if _is_dataclass(node):
            self.dataclasses.add(node.name)
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
            for i, f in enumerate(fields):
                if f.value is not None:
                    self.parameters.append((node.name, f.target.id, i, _literal(f.value)))
        outer, self._class = self._class, node
        self.generic_visit(node)
        self._class = outer

    def visit_FunctionDef(self, node):
        cls = self._class
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        name = cls.name if cls is not None and node.name == "__init__" else node.name
        for param, position, default in _function_parameters(node, cls is not None and not static):
            self.signatures.append((name, param, position))
            if default is not None:
                self.parameters.append((name, param, position, _literal(default)))
        outer = (self._class, self._function)
        self._class, self._function = None, name
        self.generic_visit(node)
        self._class, self._function = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        self.calls.append((node, self._function))
        self.generic_visit(node)


def _scan(trees) -> _Scan:
    scan = _Scan()
    for tree in trees:
        for path in sorted(tree.glob("*.py")):
            scan.visit(ast.parse(path.read_text(), filename=str(path)))
    return scan


def never_set() -> list[str]:
    """Every ``name.parameter`` with a default that no call sets.

    Forwarding a parameter, as ``fidelity`` once did with ``psd_sqrt(a, tol)``,
    sets the callee's parameter only if the caller's own is set somewhere.
    """
    package = _scan([PACKAGE])
    parameters = package.parameters
    defaulted = {f"{name}.{param}" for name, param, _, _ in parameters}
    calls = _scan(CALLER_TREES).calls
    is_set: set[str] = set()

    def sets(value: ast.expr, default, enclosing) -> bool:
        forwarded = f"{enclosing}.{value.id}" if isinstance(value, ast.Name) else None
        if forwarded in defaulted:
            return forwarded in is_set
        literal = _literal(value)
        return literal is _NO_LITERAL or default is _NO_LITERAL or literal != default

    def passed(call: ast.Call, enclosing, name, param, position, default) -> bool:
        callee = _callee(call)
        if callee == "replace" and name in package.dataclasses:
            keywords = call.keywords  # dataclasses.replace(obj, field=...)
        elif callee == name:
            if any(isinstance(a, ast.Starred) for a in call.args):
                return True
            if position is not None and len(call.args) > position:
                return sets(call.args[position], default, enclosing)
            keywords = call.keywords
        else:
            return False
        return any(kw.arg is None or (kw.arg == param and sets(kw.value, default, enclosing)) for kw in keywords)

    changed = True
    while changed:
        changed = False
        for name, param, position, default in parameters:
            key = f"{name}.{param}"
            if key not in is_set and any(passed(c, e, name, param, position, default) for c, e in calls):
                is_set.add(key)
                changed = True
    return sorted(defaulted - is_set)


def _argument(call: ast.Call, param: str, position: int | None) -> ast.expr | None:
    """The expression ``call`` passes for ``param``, or None when it passes none or spreads ``*args`` or ``**kwargs``."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(kw.arg is None for kw in call.keywords):
        return None
    if position is not None and position < len(call.args):
        return call.args[position]
    return next((kw.value for kw in call.keywords if kw.arg == param), None)


def constant_arguments(package: Path = PACKAGE, trees=CALLER_TREES) -> list[str]:
    """Every ``name.parameter`` of a function of ``package`` that every call in ``trees`` passes as one literal.

    A function that no call names has no constant parameter here; the
    unreached audit covers it.  A call that leaves the parameter at its
    default, or spreads ``*args`` or ``**kwargs``, passes no literal.
    """
    calls = [call for call, _ in _scan(trees).calls]
    constant = set()
    for name, param, position in _scan([package]).signatures:
        passed = set()
        for call in calls:
            if _callee(call) == name:
                value = _argument(call, param, position)
                literal = value is not None and _literal(value) is not _NO_LITERAL
                passed.add(ast.dump(value) if literal else None)
        if len(passed) == 1 and None not in passed:
            constant.add(f"{name}.{param}")
    return sorted(constant)


def _public_functions(tree: ast.Module, module: str):
    """(qualified name, identifier) of each public module-level function and public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _foreign_modules(tree: ast.Module) -> set[str]:
    """The names that ``import`` binds to a module outside ``obcast``, such as ``json`` or ``np``."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] != "obcast"
    }


def _local_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """The identifiers ``fn`` binds itself: its parameters and the names it assigns, not those of a nested function."""
    args = fn.args
    bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a}
    pending = list(fn.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pending.extend(ast.iter_child_nodes(node))
    return bound


class _Uses(ast.NodeVisitor):
    """The identifiers a module names that could reach a package function.

    A bare name counts only when it is read and no enclosing function binds
    it; an attribute counts unless it belongs to a module imported from
    outside the package (``foreign``).
    """

    def __init__(self, foreign: set[str]):
        self.foreign, self.names, self._scopes = foreign, set(), []

    def visit_FunctionDef(self, node):
        # decorators and defaults are read in the enclosing scope, the body in the function's own
        args = node.args
        for outer in node.decorator_list + args.defaults + [d for d in args.kw_defaults if d is not None]:
            self.visit(outer)
        self._scopes.append(_local_names(node))
        for inner in node.body:
            self.visit(inner)
        self._scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and not any(node.id in scope for scope in self._scopes):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if not (isinstance(node.value, ast.Name) and node.value.id in self.foreign):
            self.names.add(node.attr)
        self.generic_visit(node)


def unreached(package: Path = PACKAGE, trees=CALLER_TREES) -> list[str]:
    """Every public function or method of ``package`` whose identifier no code in ``trees`` names.

    An attribute of a name that ``import`` binds to a module outside
    ``obcast``, such as ``json.dumps``, names that module's function, so it is
    not a use.  Neither is a name that is assigned or deleted, nor a read of a
    name that the enclosing function binds as a parameter or an assignment
    target, such as a local variable ``outcomes``.
    """
    public = [f for path in sorted(package.glob("*.py")) for f in _public_functions(ast.parse(path.read_text()), path.stem)]
    paths = [path for tree in trees for path in sorted(tree.glob("*.py")) if path != package / "__init__.py"]
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        uses = _Uses(_foreign_modules(tree))
        uses.visit(tree)
        names |= uses.names
    return sorted(qualified for qualified, name in public if name not in names)


def unread_fields(package: Path = PACKAGE, trees=CALLER_TREES) -> list[str]:
    """Every ``Class.field`` of a dataclass in ``package`` whose name no attribute load in ``trees`` reads."""
    fields = [
        f"{node.name}.{item.target.id}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    reads = {
        node.attr
        for tree in trees
        for path in sorted(tree.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(f for f in fields if f.split(".")[1] not in reads)


def test_every_public_function_has_a_caller_outside_the_tests():
    orphans = [f for f in unreached() if f not in UNREACHED]
    assert orphans == [], f"public functions that no code in src/obcast or perfbench reaches: {orphans}"


def test_the_unreached_allowlist_names_only_functions_that_exist_and_are_unreached():
    assert sorted(UNREACHED) == [f for f in unreached() if f in UNREACHED]


def test_an_attribute_of_a_foreign_module_is_not_a_use(tmp_path):
    package = tmp_path / "obcast"
    package.mkdir()
    (package / "__init__.py").write_text("from .codec import dumps, loads\n")
    (package / "codec.py").write_text("def dumps(x):\n    return x\n\n\ndef loads(x):\n    return x\n")
    # ``dumps`` is reached only as ``json.dumps``, ``loads`` through the package's own module
    (package / "report.py").write_text("import json\n\nfrom . import codec\n\njson.dumps(codec.loads(1))\n")
    assert unreached(package, (package,)) == ["codec.dumps"]


def test_a_local_variable_of_the_same_name_is_not_a_use(tmp_path):
    package = tmp_path / "obcast"
    package.mkdir()
    (package / "report.py").write_text("def outcomes(rows):\n    return rows\n\n\ndef tally(rows):\n    return len(rows)\n")
    # ``outcomes`` is named only as a parameter, a local assignment and their reads; ``tally`` is called
    (package / "run.py").write_text(
        "from . import report\n\n\n"
        "def _count(outcomes):\n    return len(outcomes)\n\n\n"
        "def _main(rows):\n    outcomes = report.tally(rows)\n    return [outcomes for _ in rows]\n"
    )
    assert unreached(package, (package,)) == ["report.outcomes"]


def test_every_dataclass_field_has_a_reader_outside_the_tests():
    unread = [f for f in unread_fields() if f not in UNREAD_FIELDS]
    assert unread == [], f"dataclass fields that no code in src/obcast or perfbench reads: {unread}"


def test_the_unread_field_allowlist_names_only_fields_that_exist_and_are_unread():
    assert sorted(UNREAD_FIELDS) == [f for f in unread_fields() if f in UNREAD_FIELDS]


def test_a_field_is_read_only_by_an_attribute_load(tmp_path):
    package = tmp_path / "obcast"
    package.mkdir()
    (package / "result.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass Result:\n    value: float\n    residual: float\n    spare: float\n"
    )
    # ``value`` is loaded; ``residual`` is only stored and named as a keyword, ``spare`` only as a bare name
    (package / "run.py").write_text(
        "from .result import Result\n\n\n"
        "def _main(obj, spare):\n    obj.residual = Result(value=1.0, residual=0.0, spare=spare).value\n"
    )
    assert unread_fields(package, (package,)) == ["Result.residual", "Result.spare"]


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    unset = [p for p in never_set() if p not in ALLOWED]
    assert unset == [], f"defaulted parameters no call in src/obcast or perfbench sets: {unset}"


def test_the_allowlist_names_only_parameters_that_exist_and_are_unset():
    assert sorted(ALLOWED) == [p for p in never_set() if p in ALLOWED]


def test_no_parameter_is_passed_one_literal_by_every_call():
    constant = constant_arguments()
    assert constant == [], f"parameters that every call in src/obcast and perfbench passes the same literal: {constant}"


def test_a_parameter_is_constant_only_when_every_call_passes_the_same_literal(tmp_path):
    package = tmp_path / "obcast"
    package.mkdir()
    (package / "qpv.py").write_text(
        "def solve(spec, p, pg=0.5, *, scale):\n    return spec\n\n\n"
        "def unused(q):\n    return q\n\n\n"
        "class Game:\n    def value(self, prior, dim):\n        return prior\n"
    )
    # ``p`` and ``scale`` get 0.5 and 2 in every call, by position or keyword; ``pg`` is left at its default
    # once, ``spec`` is no literal, ``prior`` takes two literals, ``dim`` one, and nothing calls ``unused``
    (package / "run.py").write_text(
        "from .qpv import Game, solve\n\n\n"
        "def _main(spec, game):\n"
        "    solve(spec, 0.5, 0.5, scale=2)\n"
        "    solve(spec, p=0.5, scale=2)\n"
        "    return game.value(0.25, 2), Game().value(prior=0.75, dim=2)\n"
    )
    assert constant_arguments(package, (package,)) == ["solve.p", "solve.scale", "value.dim"]


def test_orthogonality_broadcast_rejects_a_one_factor_isometry():
    with pytest.raises(ValueError, match="at least two output factors"):
        verify_orthogonality_broadcast(gallery("qq-equivalence-unitary"), gallery("minimal-qutrit"))
