"""The package and its tests parse under the oldest Python that pyproject.toml allows.

``ast.parse(feature_version=...)`` rejects syntax newer than that version (for
example ``except*`` or PEP 695 type parameters); it cannot see library calls
that are missing there, which only a run on that interpreter shows.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def minimum_python() -> tuple[int, int]:
    # A regex, not tomllib: tomllib is itself 3.11+.
    text = (ROOT / "pyproject.toml").read_text()
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert found, "pyproject.toml declares no requires-python lower bound"
    return int(found[1]), int(found[2])


def test_sources_parse_at_minimum_python():
    floor = minimum_python()
    assert floor == (3, 10)
    files = sorted([*ROOT.glob("src/locclab/**/*.py"), *ROOT.glob("tests/**/*.py")])
    assert len(files) > 15
    failures = []
    for path in files:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=floor)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, failures
