import ast
import doctest
import re
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


def test_cli_reads_no_private_name_of_another_module():
    # how a table is walked is wall_tables' decision; cli reads public names only
    package = Path(youngwalls.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    tree = ast.parse((package / "cli.py").read_text(), "cli.py")
    found = sorted(
        {
            f"{node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        }
        | {
            f"{node.module}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if alias.name.startswith("_")
        }
    )
    assert found == []


def test_readme_quick_tour_runs():
    # the >>> examples of README's python blocks, each block up to its closing fence
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    test = doctest.DocTestParser().get_doctest("".join(blocks), {}, "README", "README.md", 0)
    results = doctest.DocTestRunner().run(test)
    assert results.attempted > 0 and results.failed == 0
