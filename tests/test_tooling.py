"""Source guards: checks on the package's code itself rather than its answers."""

import ast
import pathlib

import pytest

import qlattice

SOURCES = sorted(pathlib.Path(qlattice.__file__).resolve().parent.glob("*.py"))
MUTATORS = {"pop", "popitem", "setdefault", "update", "clear"}


def _is_environ(node) -> bool:
    """os.environ, or a bare environ imported from os."""
    if isinstance(node, ast.Attribute):
        return node.attr == "environ" and isinstance(node.value, ast.Name) and node.value.id == "os"
    return isinstance(node, ast.Name) and node.id == "environ"


def _environ_writes(source: str) -> list[int]:
    """Line numbers of every statement that writes os.environ."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            for target in targets:
                if _is_environ(target) or (
                    isinstance(target, ast.Subscript) and _is_environ(target.value)
                ):
                    lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if (func.attr in MUTATORS and _is_environ(func.value)) or (
                func.attr in ("putenv", "unsetenv")
                and isinstance(func.value, ast.Name)
                and func.value.id == "os"
            ):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_writes_the_environment(path):
    # Budgets travel in gfspace.budget scopes; the environment is only read.
    assert _environ_writes(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "os.environ['X'] = '1'",
        "os.environ['X'] += '1'",
        "del os.environ['X']",
        "os.environ = {}",
        "os.environ.pop('X', None)",
        "os.environ.setdefault('X', '1')",
        "os.environ.update(X='1')",
        "os.environ.clear()",
        "os.putenv('X', '1')",
        "os.unsetenv('X')",
        "environ['X'] = '1'",
        "environ.pop('X')",
    ],
)
def test_guard_sees_each_kind_of_write(source):
    assert _environ_writes(source) == [1]


def test_guard_allows_reads():
    assert _environ_writes("os.environ.get('X')\nx = os.environ['X']\ny = dict(os.environ)") == []


def test_guard_scans_the_whole_package():
    assert {"cli.py", "gfspace.py", "search.py"} <= {path.name for path in SOURCES}
