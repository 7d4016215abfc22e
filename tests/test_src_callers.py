"""Everything defined in ``src/ensad`` serves the program, and every error
it raises is raised in one place and quoted by a test.

Each top-level function, class and constant of the package, and each
method, must be referenced from ``src/ensad`` or ``perfbench``, or be
re-exported by ``src/ensad/__init__.py``. Code that only tests call belongs
in ``tests/``. The scan matches names, not bindings: it finds what no
program code names at all.

Each raised message's longest fixed fragment must appear in a string
literal under ``tests/``, as is or with regex escapes, so that a test
notices when the message is reworded or its check deleted. That a test
also reaches the ``raise`` is checked by ``experiments/raise_reach.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ensad"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions(tree: ast.Module) -> dict:
    """``{qualified name: name}`` for the module's top-level functions,
    classes and assigned names, and its classes' methods."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update((name.id, name.id) for target in targets
                         for name in ast.walk(target) if isinstance(name, ast.Name))
        if isinstance(node, ast.ClassDef):
            found.update((f"{node.name}.{item.name}", item.name) for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return found


def references(tree: ast.Module) -> set:
    """The names the module reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_src_definition_has_a_program_caller():
    modules = {path.name: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*map(references, modules.values()),
                       *(references(parse(path)) for path in (ROOT / "perfbench").glob("*.py")))
    used |= {alias.name for node in modules["__init__.py"].body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined = {f"{module}:{qualified}": name for module, tree in modules.items()
               for qualified, name in definitions(tree).items()}
    unused = [key for key, name in defined.items() if name not in used and not is_dunder(name)]
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
