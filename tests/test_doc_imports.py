"""Every ``from repro… import …`` the documentation shows must import.

The ```python blocks of README.md and docs/*.md are user-facing code; a
name they import that the package no longer exports (or never did) is a
broken deliverable.  Each statement runs on its own, in a fresh
namespace, and a failure names the file and line of every stale import.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
#: One ``from repro… import …`` statement: a parenthesised name list, or
#: a line plus any backslash-continued lines.
_IMPORT = re.compile(
    r"^[ \t]*from[ \t]+repro(?:\.\w+)*[ \t]+import[ \t]+"
    r"(?:\([^)]*\)|(?:[^\n]*\\\n)*[^\n]*)",
    re.M,
)


def doc_imports(doc: Path) -> list[tuple[int, str]]:
    """``(line, statement)`` for each repro import in ``doc``'s python
    blocks."""
    text = doc.read_text(encoding="utf-8")
    found = []
    for block in _BLOCK.finditer(text):
        for match in _IMPORT.finditer(block.group(1)):
            line = text.count("\n", 0, block.start(1) + match.start()) + 1
            found.append((line, match.group(0).strip()))
    return found


def test_docs_show_imports():
    assert sum(len(doc_imports(doc)) for doc in DOCS) >= 20


@pytest.mark.parametrize(
    "doc", DOCS, ids=lambda doc: str(doc.relative_to(ROOT))
)
def test_doc_imports_run(doc):
    failures = []
    for line, statement in doc_imports(doc):
        try:
            exec(compile(statement, f"{doc.name}:{line}", "exec"), {})
        except Exception as exc:
            failures.append(f"{doc.name}:{line}: {statement!r}: {exc!r}")
    assert not failures, "\n".join(failures)
