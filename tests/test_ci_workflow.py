"""Every test the CI workflow names by path still exists.

``.github/workflows/ci.yml`` runs some jobs on listed files and node ids
rather than on the whole suite. A file that moves, or a class or test that
is renamed or deleted, would leave such a line pointing at nothing; pytest
reports that as a usage error in the one job that runs it, or not at all.
This test reads the workflow as text (no YAML parser) and checks, for every
line that runs pytest, that each ``tests/``, ``benchmarks/`` or ``bench/``
path exists and that each ``::Name`` after a file is a class or function
defined there (``Class::test`` inside that class), by AST. Every
``examples/*.py`` script a line names must exist too.
"""

import ast
import re
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

_TARGET = re.compile(r"(?<![\w/])((?:tests|benchmarks|bench)/[\w./-]*"
                     r"(?:::[\w\[\]./-]+)*)")


def pytest_targets() -> List[Tuple[int, str]]:
    """``(line number, target)`` for every path a pytest command names."""
    found = []
    for number, line in enumerate(
            WORKFLOW.read_text(encoding="utf-8").splitlines(), start=1):
        if "pytest" in line and not line.lstrip().startswith("#"):
            found += [(number, target) for target in _TARGET.findall(line)]
    return found


_EXAMPLE = re.compile(r"(?<![\w/])(examples/[\w./-]+\.py)")


def example_scripts() -> List[Tuple[int, str]]:
    """``(line number, path)`` for every example script a line names."""
    return [(number, path) for number, line in enumerate(
                WORKFLOW.read_text(encoding="utf-8").splitlines(), start=1)
            if not line.lstrip().startswith("#")
            for path in _EXAMPLE.findall(line)]


def _defines(body: List[ast.stmt], name: str):
    """The class or function ``name`` defined directly in ``body``."""
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.name == name:
            return node
    return None


def unresolved() -> List[str]:
    """Every target that names a missing path or definition."""
    problems = []
    for number, target in pytest_targets():
        path, *names = target.split("::")
        file = ROOT / path
        if not file.exists():
            problems.append(f"line {number}: {path} does not exist")
            continue
        body = ast.parse(file.read_text(encoding="utf-8")).body if names \
            else []
        for name in names:
            node = _defines(body, name.split("[", 1)[0])
            if node is None:
                problems.append(f"line {number}: {target}: {path} defines "
                                f"no {name}")
                break
            body = getattr(node, "body", [])
    return problems


def test_the_workflow_names_pytest_targets():
    # Guards the scan itself: the workflow runs listed files and node ids.
    targets = [target for _, target in pytest_targets()]
    assert any("::" in target for target in targets)
    assert any(target.endswith(".py") for target in targets)


def test_every_pytest_target_in_the_workflow_exists():
    problems = unresolved()
    assert not problems, problems


def test_every_example_script_in_the_workflow_exists():
    scripts = example_scripts()
    assert scripts, "the workflow runs no example"
    missing = [f"line {number}: {path}" for number, path in scripts
               if not (ROOT / path).is_file()]
    assert not missing, missing


if __name__ == "__main__":
    for number, target in pytest_targets():
        print(number, target)
    for problem in unresolved():
        print("UNRESOLVED", problem)
    for number, path in example_scripts():
        print(number, path)
