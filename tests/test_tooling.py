"""Source guards: checks on the package's code itself rather than its answers."""

import ast
import functools
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import qlattice

SOURCES = sorted(pathlib.Path(qlattice.__file__).resolve().parent.glob("*.py"))
MUTATORS = {"pop", "popitem", "setdefault", "update", "clear"}


@functools.lru_cache(maxsize=None)
def _parse(source: str) -> ast.Module:
    """The syntax tree of source, parsed once and shared by every guard that reads it."""
    return ast.parse(source)


@functools.lru_cache(maxsize=None)
def _nodes(source: str) -> tuple[ast.AST, ...]:
    """Every node of source's tree, in ast.walk order, walked once."""
    return tuple(ast.walk(_parse(source)))


def _is_environ(node) -> bool:
    """os.environ, or a bare environ imported from os."""
    if isinstance(node, ast.Attribute):
        return node.attr == "environ" and isinstance(node.value, ast.Name) and node.value.id == "os"
    return isinstance(node, ast.Name) and node.id == "environ"


def _environ_writes(source: str) -> list[int]:
    """Line numbers of every statement that writes os.environ."""
    lines = []
    for node in _nodes(source):
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


def _environ_reads(source: str) -> list[int]:
    """Line numbers of every use of os.environ or os.getenv, imports included."""
    lines = []
    for node in _nodes(source):
        if isinstance(node, ast.ImportFrom):
            if node.module == "os" and {"environ", "getenv"} & {a.name for a in node.names}:
                lines.append(node.lineno)
        elif _is_environ(node) or (
            isinstance(node, ast.Attribute) and node.attr == "getenv"
            and isinstance(node.value, ast.Name) and node.value.id == "os"
        ) or (isinstance(node, ast.Name) and node.id == "getenv"):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_writes_the_environment(path):
    # Budgets travel in budgets.budget scopes only: the environment is
    # neither written nor read.
    source = path.read_text(encoding="utf-8")
    assert _environ_writes(source) == []
    assert _environ_reads(source) == []


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


@pytest.mark.parametrize(
    "source",
    [
        "os.environ.get('X')",
        "x = os.environ['X']",
        "y = dict(os.environ)",
        "'X' in os.environ",
        "os.getenv('X')",
        "environ.get('X')",
        "getenv('X', '1')",
        "from os import environ",
        "from os import path, getenv",
    ],
)
def test_read_guard_sees_each_kind_of_read(source):
    assert _environ_reads(source) == [1]


def test_read_guard_ignores_other_names():
    assert _environ_reads("import os\nos.path.join('a')\nself.environ = 1\nenvironment = 2") == []


def test_guard_scans_the_whole_package():
    assert {"cli.py", "gfspace.py", "search.py"} <= {path.name for path in SOURCES}


PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def _least_python() -> tuple[int, int]:
    """(major, minor) of pyproject.toml's requires-python = ">=X.Y"."""
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"$', PYPROJECT.read_text(), re.M)
    assert found, "pyproject.toml declares no requires-python lower bound"
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_sources_parse_on_the_least_declared_python(path):
    # The interpreter running the tests may be newer than the least one the
    # package declares; the parser's feature_version refuses newer syntax.
    ast.parse(path.read_text(), filename=str(path), feature_version=_least_python())


def test_version_guard_sees_newer_syntax():
    assert _least_python() == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def _constructs(source: str, name: str) -> list[int]:
    """Line numbers of every call of name, bare or as a module attribute."""
    return [
        node.lineno
        for node in _nodes(source)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == name)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == name)
        )
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_gfspace_builds_line_incidence(path):
    # Rows over a whole lattice come from gfspace.compatible_rows alone.
    found = _constructs(path.read_text(encoding="utf-8"), "LineIncidence")
    if path.name == "gfspace.py":
        assert found
    else:
        assert found == []


def test_construction_guard_sees_both_spellings():
    source = "a = LineIncidence(x)\nb = gfspace.LineIncidence(x)\nc = LineIncidence.select"
    assert _constructs(source, "LineIncidence") == [1, 2]


def _references(source: str, name: str) -> list[int]:
    """Line numbers of every use of name: bare, as an attribute, or imported."""
    lines = []
    for node in _nodes(source):
        if (
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and name in (node.name, node.asname))
            or (isinstance(node, ast.FunctionDef) and node.name == name)
        ):
            lines.append(node.lineno)
    return sorted(lines)


ROW_BUILDER_USERS = {"gfspace.py", "search.py", "certificates.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_whole_list_callers_read_compatible_rows(path):
    # compatible_rows builds rows over a list of lattice positions: the
    # lattice's containment table, search's adjacency and a certificate
    # context's f columns and compatibility table. families checks pairs by
    # meet_dim only.
    found = _references(path.read_text(encoding="utf-8"), "compatible_rows")
    if path.name in ROW_BUILDER_USERS:
        assert found
    else:
        assert found == []


def test_reference_guard_sees_each_spelling():
    source = (
        "from .gfspace import compatible_rows\n"
        "from .gfspace import (\n"
        "    compatible_rows as rows,\n"
        ")\n"
        "rows = compatible_rows(a, b, c)\n"
        "rows = gfspace.compatible_rows(a, b, c)\n"
        "f = compatible_rows\n"
        "def compatible_rows(lat, positions, allowed): pass\n"
        "'compatible_rows'\n"
        "compatible = rows_of(x)\n"
    )
    assert _references(source, "compatible_rows") == [1, 3, 5, 6, 7, 8]


FIELD_TABLES = {"_add", "_mul", "_neg", "_inv", "_build_tables"}
PACKED_ROWS = {"_gf2_rows"}
_BY_NAME = {"getattr", "setattr", "hasattr", "delattr", "__getattribute__", "__setattr__"}


def _attribute_uses(source: str, names: set) -> list[int]:
    """Line numbers of every use of an attribute in names, getattr and its kin included."""
    return _attribute_lines(_nodes(source), names)


def _attribute_lines(nodes, names: set) -> list[int]:
    """_attribute_uses over the given nodes of a parsed tree."""
    lines = []
    for node in nodes:
        if isinstance(node, ast.Attribute) and node.attr in names:
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in _BY_NAME
            and any(isinstance(arg, ast.Constant) and arg.value in names for arg in node.args)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def _table_reads(source: str) -> list[int]:
    """Line numbers of every use of a field table or of _build_tables, getattr included."""
    return _attribute_uses(source, FIELD_TABLES)


def _packed_row_reads(source: str) -> list[int]:
    """Line numbers of every use of Subspace's packed GF(2) rows, getattr included."""
    return _attribute_uses(source, PACKED_ROWS)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_gfspace_reads_field_tables(path):
    # gfspace alone decides when a field's tables are built (on first use)
    found = _table_reads(path.read_text(encoding="utf-8"))
    if path.name == "gfspace.py":
        assert found
    else:
        assert found == []


def test_table_guard_sees_each_spelling():
    source = (
        "a = ctx._add[x][y]\n"
        "mul, neg = ctx._mul, f.ctx._neg\n"
        "b = ctx._inv\n"
        "ctx._build_tables()\n"
        "c = getattr(ctx, '_mul')\n"
        "d = ctx.add(x, y) + ctx.mul(x, y) + ctx.inv(x)\n"
        "e = getattr(ctx, 'mul')\n"
        "_add = 1\n"
    )
    assert _table_reads(source) == [1, 2, 2, 3, 4, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_gfspace_reads_packed_rows(path):
    # the packed GF(2) row format stays behind gfspace and its meet_dim
    found = _packed_row_reads(path.read_text(encoding="utf-8"))
    if path.name == "gfspace.py":
        assert found
    else:
        assert found == []


def test_packed_row_guard_sees_each_spelling():
    source = (
        "rows = space._gf2_rows\n"
        "a, b = u._gf2_rows, w.pivots\n"
        "c = getattr(space, '_gf2_rows', None)\n"
        "object.__setattr__(space, '_gf2_rows', ())\n"
        "d = hasattr(space, '_gf2_rows')\n"
        "e = space.__getattribute__('_gf2_rows')\n"
        "__slots__ = ('rows', '_gf2_rows')\n"
        "f = space.rows\n"
        "_gf2_rows = 1\n"
    )
    assert _packed_row_reads(source) == [1, 2, 3, 4, 5, 6]


LATTICE_POSITIONS = {"offsets", "position", "_index"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_gfspace_maps_lattice_positions(path):
    # a lattice position is offsets[dim] + pos - 1, computed in gfspace alone:
    # other modules ask Lattice.global_index and Lattice.index_at
    found = _attribute_uses(path.read_text(encoding="utf-8"), LATTICE_POSITIONS)
    if path.name == "gfspace.py":
        assert found
    else:
        assert found == []


def test_position_guard_sees_each_spelling():
    source = (
        "g = lat.offsets[d] + pos - 1\n"
        "a, b = lat.position[m], self.offsets\n"
        "c = getattr(lat, 'offsets')\n"
        "object.__setattr__(space, '_index', index)\n"
        "d = hasattr(space, '_index')\n"
        "e = space._index\n"
        "f = lat.__getattribute__('position')\n"
        "g = lat.global_index(m) + lat.index_at(g).pos\n"
        "offsets = position = _index = 1\n"
    )
    assert _attribute_uses(source, LATTICE_POSITIONS) == [1, 2, 2, 3, 4, 5, 6, 7]


def _meets_reads(source: str) -> list[str]:
    """The top-level definition around each use of a meets attribute, getattr included."""
    found = []
    for node in _parse(source).body:
        uses = _attribute_lines(ast.walk(node), {"meets"})
        found += [getattr(node, "name", "<module>")] * len(uses)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_allowed_meets_reads_a_meet_rule(path):
    # a predicate's meet rule is read in families._allowed_meets alone;
    # shared_line_counts and offending_pairs both take their meets from it
    found = _meets_reads(path.read_text(encoding="utf-8"))
    if path.name == "families.py":
        assert found and set(found) == {"_allowed_meets"}
    else:
        assert found == []


def test_meets_guard_sees_each_spelling():
    source = (
        "def f(p):\n"
        "    return p.meets(d, di, dj)\n"
        "rule = predicate.meets\n"
        "g = getattr(p, 'meets')\n"
        "class A:\n"
        "    def meets(self, d, di, dj):\n"
        "        return self.inner.meets(d, di, dj)\n"
        "@lru_cache\n"
        "def h(p):\n"
        "    return {d for d in r if p.meets(d, 1, 1)}\n"
        "meets = p.admits(d)\n"
    )
    assert _meets_reads(source) == ["f", "<module>", "<module>", "A", "h"]


def _private_family_imports(source: str) -> list[int]:
    """Line numbers of every underscore name taken from families, imported or as an attribute."""
    lines = []
    for node in _nodes(source):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "families":
            lines += [node.lineno for alias in node.names if alias.name.startswith("_")]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "families"
            and node.attr.startswith("_")
        ):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_private_families_name(path):
    # other modules use the predicates' own methods (member_fault, pair_fault)
    assert _private_family_imports(path.read_text(encoding="utf-8")) == []


def test_private_import_guard_sees_each_spelling():
    source = (
        "from .families import _check\n"
        "from .families import (\n"
        "    Family,\n"
        "    _allowed_meets as rule,\n"
        ")\n"
        "from qlattice.families import _PASS, check_modular\n"
        "x = families._check(f, p)\n"
        "from .families import Family, check_modular\n"
        "from .gfspace import _order\n"
        "y = families.check_modular(f, p)\n"
        "from . import families\n"
    )
    assert _private_family_imports(source) == [1, 2, 6, 7]


def _name_uses(source: str, name: str) -> list[int]:
    """_references, plus the name spelled as a whole string (getattr, vars()[...], attrgetter)."""
    strings = [
        node.lineno
        for node in _nodes(source)
        if isinstance(node, ast.Constant) and node.value == name
    ]
    return sorted(_references(source, name) + strings)


CONTAINS_MASK_USERS = {"gfspace.py", "moebius.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_gfspace_and_moebius_read_contains_mask(path):
    # the whole-lattice containment table serves the transforms alone; a
    # certificate context takes its columns from compatible_rows
    found = _name_uses(path.read_text(encoding="utf-8"), "contains_mask")
    if path.name in CONTAINS_MASK_USERS:
        assert found
    else:
        assert found == []


def test_contains_mask_guard_sees_each_spelling():
    source = (
        "masks = lat.contains_mask\n"
        "a, b = lattice(F, n).contains_mask[w], lat.lines\n"
        "c = getattr(lat, 'contains_mask')\n"
        "d = vars(Lattice)['contains_mask'].fget\n"
        "e = attrgetter('contains_mask')(lat)\n"
        "def contains_mask(self): pass\n"
        "f = lat._contains_mask\n"
        "'the contains_mask table'\n"
        "g = lat.contains(u)\n"
    )
    assert _name_uses(source, "contains_mask") == [1, 2, 3, 4, 5, 6]


def _imports(source: str, module: str) -> list[int]:
    """Line numbers of every import of module: statements, import_module and __import__."""
    lines = []
    for node in _nodes(source):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            in ("import_module", "__import__")
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            names = [node.args[0].value]
        else:
            continue
        if any(name.partition(".")[0] == module for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    # Records derive from records.Record, which generates no code when a
    # module loads; dataclasses would also load inspect on every command.
    assert _imports(path.read_text(encoding="utf-8"), "dataclasses") == []


def test_import_guard_sees_each_spelling():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "import os, dataclasses as dc\n"
        "def f():\n"
        "    import dataclasses\n"
        "importlib.import_module('dataclasses')\n"
        "__import__('dataclasses')\n"
        "from .dataclasses import x\n"
        "import dataclasses_json\n"
        "import_module(name)\n"
    )
    assert _imports(source, "dataclasses") == [1, 2, 3, 5, 6, 7]


# ---------------------------------------------------------------------------
# the benchmark tracer wraps names of this package by string

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wrapped_pairs(source: str) -> list[tuple[str, str]]:
    """The (module, attribute) pairs of the WRAPPED table in the tracer's source."""
    for node in _parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets
        ):
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("no WRAPPED table")


def _unresolved(pairs) -> list[tuple[str, str]]:
    """The pairs that do not name a function of a qlattice module."""
    missing = []
    for module, attr in pairs:
        try:
            found = callable(getattr(importlib.import_module(f"qlattice.{module}"), attr))
        except (ImportError, AttributeError):
            found = False
        if not found:
            missing.append((module, attr))
    return missing


def test_tracer_wraps_only_existing_names():
    # a renamed function would make Tracer.install raise, failing every traced run
    pairs = _wrapped_pairs(TRACER.read_text(encoding="utf-8"))
    assert ("moebius", "zeta_transform") in pairs
    assert _unresolved(pairs) == []
    # the tracer replaces this property with a traced one
    from qlattice.gfspace import Lattice

    assert isinstance(vars(Lattice)["contains_mask"], property)


def test_tracer_guard_sees_a_rename():
    source = 'WRAPPED = (("moebius", "zeta_transform", "t"), ("moebius", "zeta", "t"),\n' \
             '           ("no_such_module", "f", "t"))\n'
    assert _wrapped_pairs(source) == [
        ("moebius", "zeta_transform"), ("moebius", "zeta"), ("no_such_module", "f")]
    assert _unresolved(_wrapped_pairs(source)) == [("moebius", "zeta"), ("no_such_module", "f")]


# ---------------------------------------------------------------------------
# lazy loading: the package and the command line load only what they run

SUBMODULES = sorted(path.stem for path in SOURCES if path.stem != "__init__")
SRC = str(pathlib.Path(qlattice.__file__).resolve().parents[1])


def _fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports qlattice from this tree."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=60, check=True)


LOADED_BY_CLI = """
import contextlib, io, sys
from qlattice.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""


DATA = pathlib.Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("argv, absent", [
    ("qbinom 4 2 2", {"gfspace", "families", "certificates", "search", "moebius"}),
    ("zsigmondy 2 3", {"gfspace", "certificates", "search", "moebius"}),
    ("bound --theorem singleton --n 4 --q 2 --frac 1/2", {"certificates", "search", "moebius"}),
    ("search --n 3 --q 2 --fractions 1/2", {"certificates", "moebius"}),
    ("certify --family {D}/planes7.json --profile {D}/profile_tight.json --variant swallow1",
     {"search", "moebius"}),
    ("gram --family {D}/bisection3.json --base 2 --frac 1/2", {"certificates", "search", "moebius"}),
])
def test_light_commands_leave_heavy_layers_unloaded(argv, absent):
    code, *loaded = _fresh(LOADED_BY_CLI, *argv.format(D=DATA).split()).stdout.split()
    assert code == "0"
    # the budget scope is all a command needs before its handler runs
    assert {"qlattice.cli", "qlattice.budgets"} <= set(loaded)
    assert ("gfspace" in absent) != ("qlattice.gfspace" in loaded)
    assert not {f"qlattice.{name}" for name in absent} & set(loaded)
    # nor dataclasses (which loads inspect, ast and dis) or fractions: no
    # command needs them, and each costs every cold command start-up time
    assert not {"dataclasses", "inspect", "fractions"} & set(loaded)


def test_import_loads_no_layer_until_a_name_is_used():
    out = _fresh(
        "import sys, qlattice\n"
        "print(*sorted(m for m in sys.modules if m.startswith('qlattice')))\n"
        "from qlattice import Family\n"
        "print(*sorted(m for m in sys.modules if m.startswith('qlattice')))\n"
    ).stdout.splitlines()
    assert out[0] == "qlattice"
    assert "qlattice.families" in out[1].split()
    assert not {"qlattice.certificates", "qlattice.search", "qlattice.moebius"} & set(out[1].split())


def test_every_export_is_its_home_modules_object():
    assert len(set(qlattice.__all__)) == len(qlattice.__all__)
    for home, names in qlattice._EXPORTS.items():
        module = importlib.import_module(f"qlattice.{home}")
        for name in names:
            value = getattr(qlattice, name)
            assert value is getattr(module, name)
            assert getattr(value, "__module__", module.__name__) == module.__name__


def test_dir_lists_every_export_and_submodule():
    assert set(qlattice.__all__) | set(SUBMODULES) <= set(dir(qlattice))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_is_an_attribute(name):
    assert getattr(qlattice, name) is importlib.import_module(f"qlattice.{name}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        qlattice.no_such_name
    with pytest.raises(ImportError):
        from qlattice import no_such_name  # noqa: F401
