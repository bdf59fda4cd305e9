"""A dead-export check: every name ``evcorner/__init__.py`` exports must be
used by the product, which is the other package modules, the ``evbench``
harness and the README. A name's own ``def`` or ``class`` line does not
count, and tests do not either: code only tests call belongs in
``tests/``."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "evcorner"
READERS = (sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
           + sorted(p for p in (ROOT / "evbench").rglob("*") if p.suffix in (".py", ".md"))
           + [ROOT / "README.md"])
EXPORTS = [a.asname or a.name
           for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
           if isinstance(node, ast.ImportFrom) for a in node.names]
LINES = [line for path in READERS for line in path.read_text().splitlines()]


def test_readers_found():
    assert len(READERS) >= 14 and EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_used_outside_tests(name):
    word = re.compile(rf"\b{re.escape(name)}\b")
    own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    assert any(word.search(line) and not own.match(line) for line in LINES), (
        f"{name} is exported but nothing outside the tests uses it")
