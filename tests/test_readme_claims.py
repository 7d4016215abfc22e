"""Every README claim of equivalence or of an exit code names the test that
pins it, and every test the README names exists.

A sentence is prose outside code fences up to ".", "!" or "?" before whitespace, a blank line or a list item.

A citation is ``tests/<file>.py::<name>``: the file must exist and hold a
test function of that name, at module level or in a class. A sentence
that claims bit or byte equality, or exit code 2 or 3 (``CLAIM``), must
carry at least one citation. There is no allowlist: a claim that no test
pins is deleted from the README.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CITATION = re.compile(r"tests/([\w/]+\.py)::(\w+)")
CLAIM = re.compile(r"bit for bit|byte for byte|bit-exact|bitwise|bit-identical|byte-identical"
                   r"|\bexits? [23]\b", re.IGNORECASE)


def sentences(text: str) -> list:
    """The sentences of the markdown ``text``, as defined above, each on one line."""
    lines, fenced = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            line = ""
        lines.append("" if fenced else line)
    blocks = re.split(r"\n\s*\n|\n(?=\s*[-*] )", "\n".join(lines))
    return [sentence for block in blocks
            for sentence in re.split(r"(?<=[.!?])\s+", " ".join(block.split())) if sentence]


def defined_tests(path: Path) -> set:
    """The names of the test functions in ``path``, at module level or in a class."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    return {node.name for body in bodies for node in body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test")}


def problems(text: str) -> list:
    """Each citation in ``text`` that names no test function, and each claim
    sentence that cites none."""
    found = []
    for match in CITATION.finditer(text):
        path = ROOT / "tests" / match[1]
        if not path.is_file():
            found.append(f"{match[0]}: no file tests/{match[1]}")
        elif match[2] not in defined_tests(path):
            found.append(f"{match[0]}: no test function {match[2]} in tests/{match[1]}")
    found += [f"uncited claim: {sentence}" for sentence in sentences(text)
              if CLAIM.search(sentence) and not CITATION.search(sentence)]
    return found


def test_every_readme_claim_cites_a_test_that_exists():
    assert problems((ROOT / "README.md").read_text(encoding="utf-8")) == []


def test_the_check_reports_a_missing_test_and_an_uncited_claim():
    missing = ("A saved corpus loads back bit for bit "
               "(`tests/test_data.py::test_no_such_test`).\n")
    uncited = "Loading is strict.\nA bad header\nexits 2 naming the field. Loading is fast.\n"
    assert problems(missing) == [
        "tests/test_data.py::test_no_such_test: no test function test_no_such_test in "
        "tests/test_data.py"]
    assert problems(uncited) == ["uncited claim: A bad header exits 2 naming the field."]
    # a cited claim passes, and code blocks are not prose
    cited = ("- Resume is bitwise (`tests/test_gan.py::test_resume_bitwise_equivalence`).\n"
             "- A bad config exits 2 naming the field.\n\n```sh\nensad train  # exits 3\n```\n")
    assert problems(cited) == ["uncited claim: - A bad config exits 2 naming the field."]
