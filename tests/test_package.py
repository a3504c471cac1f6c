import ast
import doctest
import re
from importlib import import_module
from pathlib import Path
from types import ModuleType

import youngwalls


def test_all_names_every_public_binding():
    public = {
        name for name, value in vars(youngwalls).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(youngwalls.__all__) == len(set(youngwalls.__all__))
    assert set(youngwalls.__all__) == public


def test_no_module_uses_a_bare_assert():
    # every invariant must still hold under python -O
    package = Path(youngwalls.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _module_trees():
    # (module name, parsed source) for every module of the package
    package = Path(youngwalls.__file__).parent
    paths = sorted(package.glob("*.py"))
    return [(path.stem, ast.parse(path.read_text(), path.name)) for path in paths]


def test_no_module_reads_a_private_name_of_another_module():
    # how a table is walked or kept is wall_tables' decision; every other
    # module reads public names only
    trees = _module_trees()
    modules = {name for name, _ in trees}
    found = sorted(
        {
            f"{name}: {node.value.id}.{node.attr}"
            for name, tree in trees
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules - {name}
            and node.attr.startswith("_")
        }
        | {
            f"{name}: {node.module}.{alias.name}"
            for name, tree in trees
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if alias.name.startswith("_")
        }
    )
    assert found == []


# public top-level names that the package does not hand up, each with its reason
NOT_REEXPORTED = {
    "cli": "the command line front end: its names serve the walls script",
    "checks": "the verify registry, loaded by verify alone",
}


def test_every_entry_of_not_reexported_names_something():
    # a stale entry would excuse a name that no longer exists
    modules = {name for name, _ in _module_trees()}
    stale = []
    for key in NOT_REEXPORTED:
        module, _, name = key.partition(".")
        if module not in modules or name and not hasattr(import_module("youngwalls." + module), name):
            stale.append(key)
    assert stale == []


def test_every_public_name_of_every_module_is_reexported():
    # README says every public name is re-exported; a name the package never
    # imports is invisible to test_all_names_every_public_binding
    found = []
    for name, tree in _module_trees():
        if name == "__init__" or name in NOT_REEXPORTED:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [
                f"{name}.{b}" for b in bound
                if not b.startswith("_") and b not in youngwalls.__all__
                and f"{name}.{b}" not in NOT_REEXPORTED
            ]
    assert found == []


def test_readme_quick_tour_runs():
    # the >>> examples of README's python blocks, each block up to its closing fence
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    test = doctest.DocTestParser().get_doctest("".join(blocks), {}, "README", "README.md", 0)
    results = doctest.DocTestRunner().run(test)
    assert results.attempted > 0 and results.failed == 0
