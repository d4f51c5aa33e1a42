"""Static checks over the library source.

Invariants are explicit errors, never ``assert`` statements, which vanish
under ``python -O``; no module keeps a memo cache of its own, since what is
shared lives in dicts with an owner: the caller-owned ``hom_cache`` of
``verify_embedding``, whose keys only ``embedding`` names, and the
``facts`` memo of each validated table, which only ``groups``, ``monoids``
and ``cover`` name: the first owns it, the second hands it on to
relabelings and the third keeps covers, reports and round trips in it.  No
module uses ``itertools.product``, since brute-force scans of a whole
function space live only in the tests, as oracles.  The modules import each
other without a cycle and only at module level, so each layer can be read,
loaded and patched on its own.  Every function the benchmark tracer wraps
still exists where the tracer looks for it, so no refactor can turn a layer
metric into a silent 0.  Every public function of ``search`` has a caller in
another module of the library, so no search mode lives on for tests alone,
and every private module-level function is named by library code outside
its own definition, so none lives on for tests alone either.  ``embedding``
names no ``validate_fuzzy``, ``default_grid`` or ``Fraction``: it certifies
the caller's own objects and keeps orbits as rank vectors, so it makes no
fuzzy subgroup of its own.
"""

import ast
import importlib
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import fzcover

SOURCES = sorted(Path(fzcover.__file__).resolve().parent.glob("*.py"))
CACHE_DECORATORS = {"lru_cache", "cache"}


def _offences(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in CACHE_DECORATORS:
                    yield node.lineno, f"import of functools.{alias.name}"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
            and node.attr in CACHE_DECORATORS
        ):
            yield node.lineno, f"functools.{node.attr}"


def _product_scans(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            if any(alias.name == "product" for alias in node.names):
                yield node.lineno
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "itertools"
            and node.attr == "product"
        ):
            yield node.lineno


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"embedding.py", "cli.py", "fuzzy.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_no_module_cache(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(_offences(tree)) == []


def test_checker_flags_both_kinds():
    code = (
        "import functools\n"
        "from functools import cache\n"
        "@functools.lru_cache\n"
        "def f():\n"
        "    assert f\n"
    )
    assert sorted(line for line, _ in _offences(ast.parse(code))) == [2, 3, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_product_scan(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(_product_scans(tree)) == []


def test_checker_flags_product_scans():
    code = (
        "from itertools import combinations, product\n"
        "from itertools import permutations\n"
        "import itertools\n"
        "scan = itertools.product(range(2), repeat=3)\n"
    )
    assert list(_product_scans(ast.parse(code))) == [1, 4]


def _relative_imports(tree):
    """The sibling modules named by ``from .x import`` and ``from . import x``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[0]


def _nested_imports(tree):
    """The line of each import statement inside a function body."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(
                inner.lineno
                for inner in ast.walk(node)
                if isinstance(inner, (ast.Import, ast.ImportFrom))
            )
    return sorted(lines)


def _cycle(graph):
    """A cycle of the import graph as a list of modules, or None."""
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        return exc.args[1]
    return None


def test_import_graph_is_acyclic():
    graph = {
        path.stem: set(_relative_imports(ast.parse(path.read_text(encoding="utf-8"))))
        for path in SOURCES
    }
    assert graph["embedding"] >= {"cover", "enumeration", "fuzzy"}
    assert _cycle(graph) is None


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _nested_imports(tree) == []


def test_checker_flags_cycles_and_nested_imports():
    code = {
        "a": "from . import b\nimport os\n",
        "b": "from .c.d import f\n",
        "c": "def f():\n    import os\n    def g():\n        from .a import h\n",
    }
    trees = {name: ast.parse(text) for name, text in code.items()}
    graph = {name: set(_relative_imports(tree)) for name, tree in trees.items()}
    assert graph == {"a": {"b"}, "b": {"c"}, "c": {"a"}}
    assert set(_cycle(graph)) == {"a", "b", "c"}
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert [_nested_imports(tree) for tree in trees.values()] == [[], [], [2, 4]]


TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced_names(tree):
    """The (module, name) pairs of the module-level SPANNED and COUNTED tuples."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANNED", "COUNTED") for t in node.targets
        ):
            yield from ast.literal_eval(node.value)


def test_traced_functions_resolve():
    # read as text, not imported: the tracer patches fzcover when it runs
    names = list(_traced_names(ast.parse(TRACING.read_text(encoding="utf-8"))))
    assert ("cover", "premorphism_from_cover") in names
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not callable(getattr(importlib.import_module(f"fzcover.{module}"), name, None))
    ]
    assert missing == []


def test_traced_name_reader_finds_both_tuples():
    code = 'SPANNED = (("a", "f"),)\nCOUNTED = (("b", "g"),)\nOTHER = (("c", "h"),)\n'
    assert list(_traced_names(ast.parse(code))) == [("a", "f"), ("b", "g")]


def _public_functions(tree):
    """The names of the module-level functions not starting with an underscore."""
    return [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def _referenced_names(tree):
    """Every name the module reads or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_search_function_has_a_caller_in_the_library():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    public = _public_functions(trees["search"])
    assert "generated_maps" in public
    used = set().union(
        *(_referenced_names(tree) for name, tree in trees.items() if name != "search")
    )
    assert sorted(set(public) - used) == []


def test_caller_check_reads_definitions_and_references():
    search = ast.parse("def f():\n    pass\ndef _g():\n    pass\ndef h():\n    pass\n")
    other = ast.parse("from .search import f as found\nimport search\nsearch.h\n")
    assert _public_functions(search) == ["f", "h"]
    assert {"f", "search", "h"} <= _referenced_names(other)


def _uncalled_private_functions(trees):
    """The private module-level functions no library code names outside their own body."""
    referenced = {
        (module, id(node)): _referenced_names(node)
        for module, tree in trees.items()
        for node in tree.body
    }
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                if not any(
                    node.name in names
                    for key, names in referenced.items()
                    if key != (module, id(node))
                ):
                    uncalled.append(f"{module}.{node.name}")
    return uncalled


def _naming_modules(trees, name):
    """The modules that name ``name``: variable, attribute, import, parameter, string."""
    return sorted(
        module
        for module, tree in trees.items()
        if name in _referenced_names(tree)
        or any(
            name in (getattr(node, "arg", None), getattr(node, "value", None))
            for node in ast.walk(tree)
            if isinstance(node, (ast.arg, ast.keyword, ast.Constant))
        )
    )


def test_only_groups_monoids_and_cover_name_the_table_memo():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert _naming_modules(trees, "facts") == ["cover", "groups", "monoids"]


def test_naming_check_reads_attributes_and_strings():
    trees = {
        "a": ast.parse("g._memo = {}\n"),
        "b": ast.parse("getattr(g, '_memo')\n"),
        "c": ast.parse('"""the _memo of g"""\nmemo = g.memo\n'),
        "d": ast.parse("def f(x, _memo=None):\n    pass\n"),
        "e": ast.parse("f(x, _memo={})\n"),
    }
    assert _naming_modules(trees, "_memo") == ["a", "b", "d", "e"]


# the kinds of store entry no module but ``embedding`` may spell out; the
# cover kind is left out, as "cover" is a word every layer uses
STORE_KINDS = {"homs", "group homs", "orbit"}


def _store_kind_holders(trees):
    """The modules that hold a store kind as a string constant of its own."""
    return sorted(
        module
        for module, tree in trees.items()
        if any(
            isinstance(node, ast.Constant) and node.value in STORE_KINDS
            for node in ast.walk(tree)
        )
    )


def test_only_embedding_names_a_store_key():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert _store_kind_holders(trees) == ["embedding"]


def test_embedding_makes_no_fuzzy_subgroup_of_its_own():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    named = {
        name: _naming_modules(trees, name)
        for name in ("validate_fuzzy", "default_grid", "Fraction")
    }
    # the check sees each name where the library uses it
    assert all(modules for modules in named.values()), named
    assert [name for name, modules in named.items() if "embedding" in modules] == []


def test_store_key_check_reads_whole_string_constants():
    trees = {
        "a": ast.parse('key = ("group homs", g, h)\n'),
        "b": ast.parse('"""the ("homs", g, h) entries"""\nhoms = orbit = {}\n'),
        "c": ast.parse('store["orbit"] = 1\n'),
        "d": ast.parse('f(kind="homs")\n'),
        "e": ast.parse('x.representative = "cover"\n'),
    }
    assert _store_kind_holders(trees) == ["a", "c", "d"]


def test_every_private_function_has_a_caller_in_the_library():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert "_relabeled" in {
        node.name for node in trees["monoids"].body if isinstance(node, ast.FunctionDef)
    }
    assert _uncalled_private_functions(trees) == []


def test_private_caller_check_skips_only_the_own_definition():
    trees = {
        "a": ast.parse(
            "def _used():\n    pass\n"
            "def _self_only():\n    return _self_only()\n"
            "def _unused():\n    pass\n"
            "def public():\n    return _used()\n"
        ),
        "b": ast.parse("from .a import _imported\n"),
        "c": ast.parse("def _imported():\n    pass\n"),
    }
    assert _uncalled_private_functions(trees) == ["a._self_only", "a._unused"]


def _exception_bases(tree):
    """Each module-level class of the tree, with the names of its bases."""
    return {
        node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }


def _raised_names(trees):
    """The name of each class raised, by name or attribute, called or not."""
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    yield exc.id
                elif isinstance(exc, ast.Attribute):
                    yield exc.attr


def _unraised_exceptions(bases, raised):
    """The classes of ``bases`` neither raised nor an ancestor of one raised."""
    used = set()
    todo = [name for name in raised if name in bases]
    while todo:
        name = todo.pop()
        if name not in used:
            used.add(name)
            todo.extend(bases[name] & bases.keys())
    return sorted(bases.keys() - used)


def test_every_exception_class_is_raised_in_the_library():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    bases = _exception_bases(trees["errors"])
    assert {"AlgebraError", "ValidationError", "NotFInverse"} <= bases.keys()
    assert _unraised_exceptions(bases, set(_raised_names(trees.values()))) == []


def test_raise_check_reads_raises_and_ancestors():
    errors = ast.parse(
        "class Base(Exception):\n    pass\n"
        "class Middle(Base):\n    pass\n"
        "class Leaf(Middle):\n    pass\n"
        "class Bare(Base):\n    pass\n"
        "class Dotted(Base):\n    pass\n"
        "class Unused(Base):\n    pass\n"
        "class Caught(Base):\n    pass\n"
    )
    code = ast.parse(
        "raise Leaf('x', witness=1)\n"
        "raise Bare\n"
        "raise errors.Dotted('y')\n"
        "try:\n    f()\nexcept Caught:\n    raise\n"
    )
    bases = _exception_bases(errors)
    assert bases["Leaf"] == {"Middle"} and bases["Base"] == {"Exception"}
    assert sorted(_raised_names([code])) == ["Bare", "Dotted", "Leaf"]
    assert _unraised_exceptions(bases, set(_raised_names([code]))) == ["Caught", "Unused"]
