"""Everything defined in ``src/ensad`` serves the program, and every error
it raises is raised in one place and quoted by a test.

Each top-level function, class and constant of the package, and each
method, must be referenced from ``src/ensad``, ``perfbench`` or the
acceptance criteria (``tests/test_acceptance.py``), outside its own body.
An import is not a reference, so re-exporting a name gives it no caller.
Code that only other tests call belongs in ``tests/``, and a function
that only calls itself serves no one. The scan matches names, not bindings: it finds what no program
code names at all.

Each raised message's longest fixed fragment must appear in a string
literal under ``tests/``, as is or with regex escapes, so that a test
notices when the message is reworded or its check deleted. That a test
also reaches the ``raise`` is checked by ``experiments/raise_reach.py``.

Every row norm is taken by ``numkit.unit_rows``: no other function of the
package takes the square root of a sum or a product, or calls
``np.linalg.norm``. Every tensor vector is written by ``gan._vector``: no
other function calls ``np.concatenate`` with ``axis=None``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ensad"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions(tree: ast.Module) -> dict:
    """``{qualified name: (name, node)}`` for the module's top-level
    functions, classes and assigned names, and its classes' methods: each
    with the node that defines it, whose references to its own name do not
    count as callers."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update((name.id, (name.id, node)) for target in targets
                         for name in ast.walk(target) if isinstance(name, ast.Name))
        if isinstance(node, ast.ClassDef):
            found.update((f"{node.name}.{item.name}", (item.name, item)) for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return found


def references(tree: ast.AST) -> Counter:
    """How often the tree reads each name, bare or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load))


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def uncalled(modules: dict, callers=()) -> list:
    """``module:qualified name`` for each definition of ``modules``, ``{file
    name: tree}``, that neither they nor the trees ``callers`` name outside
    its own body. An import reads no name, so it calls nothing."""
    used = sum(map(references, [*modules.values(), *callers]), Counter())
    return [f"{module}:{qualified}" for module, tree in modules.items()
            for qualified, (name, node) in definitions(tree).items()
            if used[name] == references(node)[name] and not is_dunder(name)]


def test_the_guard_finds_the_uncalled_definitions_it_forbids():
    # a function or method whose only reference is to itself has no caller;
    # one that recurses and has another caller has
    src = """
def recurses(tree):
    return {k: recurses(v) for k, v in tree.items()}
class Walker:
    def walk(self, node):
        return [self.walk(child) for child in node]
    def size(self, node):
        return len(node)
def depth(node):
    return 1 + max(map(depth, node), default=0)
def run(node):
    return Walker().size(node) + depth(node)
"""
    modules = {"__init__.py": ast.parse(""), "m.py": ast.parse(src)}
    callers = [ast.parse("run(tree)")]
    assert uncalled(modules, callers) == ["m.py:recurses", "m.py:Walker.walk"]
    # a re-export is not a caller; a name read only by the callers is called
    modules["__init__.py"] = ast.parse("from .m import run")
    assert uncalled(modules) == ["m.py:recurses", "m.py:Walker.walk", "m.py:run"]
    assert uncalled(modules, callers) == ["m.py:recurses", "m.py:Walker.walk"]


def test_every_src_definition_has_a_program_caller():
    modules = {path.name: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    callers = [*(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    unused = uncalled(modules, map(parse, callers))
    assert not unused, f"defined in src/ensad but named by no program code: {unused}"


def message(node: ast.expr) -> str:
    """A raised message's literal text, each field or computed part as ``{}``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(message(part) for part in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return message(node.left) + message(node.right)
    return "{}"


def raised_messages() -> dict:
    """``{"module.py:line": message}`` for each raise in ``src/ensad`` that
    passes arguments to the exception, its first argument as by ``message``."""
    return {f"{path.name}:{node.lineno}": message(node.exc.args[0])
            for path in sorted(PACKAGE.glob("*.py")) for node in ast.walk(parse(path))
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args}


def test_each_error_message_is_raised_in_one_place():
    raised = {}
    for where, text in raised_messages().items():
        raised.setdefault(text, []).append(where)
    repeated = {text: where for text, where in raised.items()
                if len(where) > 1 and text.replace("{}", "").strip()}
    assert not repeated, f"messages raised from more than one place: {repeated}"


def test_each_error_message_is_pinned_by_a_test():
    """A message's longest fixed fragment is the longest of its pieces
    between fields; a message of fields only, such as
    ``TrainingDiverged(snapshot, str(exc))`` whose first argument is the
    checkpoint, has none and is skipped. A backslash may precede any
    character of the fragment that is not a letter, a digit or a space, so
    that a regex pattern quoting it counts."""
    literals = [message(node) for path in sorted((ROOT / "tests").glob("*.py"))
                for node in ast.walk(parse(path))
                if isinstance(node, ast.JoinedStr)
                or isinstance(node, ast.Constant) and isinstance(node.value, str)]
    unpinned = {}
    for where, text in raised_messages().items():
        fragment = max((piece.strip() for piece in text.split("{}")), key=len)
        pattern = re.compile("".join(
            re.escape(ch) if ch.isalnum() or ch == " " else r"\\*" + re.escape(ch)
            for ch in fragment))
        if fragment and not any(pattern.search(literal) for literal in literals):
            unpinned[where] = fragment
    assert not unpinned, f"raised messages that no test quotes: {unpinned}"


# The calls whose result, under a square root, is a norm: the reductions
# and the products.
SUM_CALLS = {"reduce", "sum", "matmul", "dot", "vdot", "inner", "einsum", "tensordot"}
# The one function that takes row norms.
NORMALISER = "numkit.py:unit_rows"


def call_name(node: ast.Call):
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def sums(node: ast.AST) -> bool:
    """Whether the expression computes a reduction or a product at its top
    level: a call of SUM_CALLS or ``@``, under any operators or subscripts
    but not inside another function's call."""
    if isinstance(node, ast.Call):
        return call_name(node) in SUM_CALLS
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return True
    return any(sums(child) for child in ast.iter_child_nodes(node))


def calling(tree: ast.Module, module: str, matches) -> list:
    """``module:function`` for each function, method or ``<module>`` (the
    code outside them) with a call for which ``matches(call)`` holds."""
    scopes = [(f"{module}:<module>", [n for n in tree.body if not isinstance(
        n, (ast.FunctionDef, ast.ClassDef))])]
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        scopes += [(f"{module}:{fn.name}", [fn]) for fn in body if isinstance(fn, ast.FunctionDef)]
    return [where for where, nodes in scopes
            if any(isinstance(node, ast.Call) and matches(node)
                   for top in nodes for node in ast.walk(top))]


def row_norms(tree: ast.Module, module: str) -> list:
    """``module:function`` for each function (or ``<module>``) that takes
    the square root of a sum or a product, or calls ``linalg.norm``."""
    return calling(tree, module, lambda node: call_name(node) == "norm"
                   or call_name(node) == "sqrt" and node.args and sums(node.args[0]))


def test_the_guard_finds_the_norms_it_forbids():
    # the forms that took row norms beside unit_rows, and forms that do not
    src = """
def by_dot(arr):
    return np.sqrt(np.matmul(arr[..., None, :], arr[..., :, None])[..., 0])
def by_reduce(x):
    norm = np.sqrt(np.add.reduce(x * x, axis=-1))
def by_operator(x, eps):
    return math.sqrt(x @ x + eps)
def by_numpy(x):
    return np.linalg.norm(x, axis=1)
def not_a_norm(a, b, w):
    return np.add.reduce(np.sqrt(eigvalsh(a @ b))) + np.sqrt(w, out=w) + np.sqrt(a.shape[-1])
"""
    assert row_norms(ast.parse(src), "m.py") == [
        "m.py:by_dot", "m.py:by_reduce", "m.py:by_operator", "m.py:by_numpy"]


def test_unit_rows_takes_every_row_norm():
    found = [where for path in sorted(PACKAGE.glob("*.py"))
             for where in row_norms(parse(path), path.name)]
    assert found == [NORMALISER], f"row norms taken outside {NORMALISER}: {found}"


# The one function that writes a tensor vector.
VECTOR_WRITER = "gan.py:_vector"


def is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def flattens(node: ast.Call) -> bool:
    """Whether the call is ``concatenate`` with ``axis=None``, by keyword or
    as its second argument."""
    return call_name(node) == "concatenate" and (
        len(node.args) > 1 and is_none(node.args[1])
        or any(kw.arg == "axis" and is_none(kw.value) for kw in node.keywords))


def test_the_guard_finds_the_flattening_it_forbids():
    src = """
def by_keyword(trees):
    return np.concatenate([t for t in trees], axis=None, dtype=np.float64)
def by_position(a, b):
    return np.concatenate((a, b), None)
class Holder:
    def method(self, a):
        return numpy.concatenate(a, out=self.buf, axis=None)
def not_flat(a, b):
    return np.concatenate([a, b]) + np.concatenate([a, b], axis=1) + np.ravel(a)
"""
    assert calling(ast.parse(src), "m.py", flattens) == [
        "m.py:by_keyword", "m.py:by_position", "m.py:method"]


def test_vector_writes_every_tensor_vector():
    found = [where for path in sorted(PACKAGE.glob("*.py"))
             for where in calling(parse(path), path.name, flattens)]
    assert found == [VECTOR_WRITER], f"tensor vectors written outside {VECTOR_WRITER}: {found}"
