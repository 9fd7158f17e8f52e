"""The package and its tests parse under the oldest Python that pyproject.toml
allows, and the package keeps two rules that its syntax tree shows.

``ast.parse(feature_version=...)`` rejects syntax newer than that version (for
example ``except*`` or PEP 695 type parameters); it cannot see library calls
that are missing there, which only a run on that interpreter shows.

The rules: no ``while`` statement, so every loop runs over a bounded range;
and random generators are made only in ``states.py``, the one home of the
draws, so no other module can seed a stream of its own.
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


RNG_NAMES = ("default_rng", "SeedSequence")


def package_trees() -> dict[str, ast.Module]:
    package = ROOT / "src" / "locclab"
    return {
        path.relative_to(package).as_posix(): ast.parse(path.read_text(), filename=str(path))
        for path in sorted(package.glob("**/*.py"))
    }


def test_package_has_no_while_loop():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.While)
    ]
    assert found == []


def rng_uses(tree: ast.Module) -> list[str]:
    """Lines that call ``.generator()`` or name ``default_rng``/``SeedSequence``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "generator":
                found.append(f"{node.lineno}: .generator()")
        if isinstance(node, ast.Attribute) and node.attr in RNG_NAMES:
            found.append(f"{node.lineno}: {node.attr}")
        if isinstance(node, ast.Name) and node.id in RNG_NAMES:
            found.append(f"{node.lineno}: {node.id}")
        if isinstance(node, ast.ImportFrom):
            found.extend(f"{node.lineno}: {a.name}" for a in node.names if a.name in RNG_NAMES)
    return found


def test_generators_are_made_only_in_states():
    trees = package_trees()
    assert len(rng_uses(trees["states.py"])) >= 3  # the rule would hold vacuously otherwise
    found = [
        f"{name}:{use}"
        for name, tree in trees.items()
        if name != "states.py"
        for use in rng_uses(tree)
    ]
    assert found == []
