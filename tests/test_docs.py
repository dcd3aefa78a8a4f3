"""The public names and the README's library example stay in step with the code."""

import ast
import re
import sys
from pathlib import Path

import starlap

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    assert len(set(starlap.__all__)) == len(starlap.__all__)
    assert [name for name in starlap.__all__ if not hasattr(starlap, name)] == []


def _library_section():
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Library\n(.*?)^## ", text, re.M | re.S).group(1)


def test_readme_library_example_runs():
    block = re.search(r"^```python\n(.*?)^```", _library_section(), re.M | re.S).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].passed


def test_every_function_the_library_section_names_resolves():
    # a backticked `name(` is a call of a public name
    names = re.findall(r"`([A-Za-z_]\w*)\(", _library_section())
    assert names
    assert [name for name in names if not hasattr(starlap, name)] == []


def test_no_module_imports_a_private_name_from_another():
    # a name with a leading underscore belongs to its own module
    found = []
    for path in sorted((ROOT / "src" / "starlap").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "starlap"
            ):
                found += [
                    f"{path.name}:{alias.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert found == []


def _names_used(tree):
    """Every name read or attribute taken in a module, outside the def that defines it."""
    used = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        elif isinstance(node, ast.Name) and node.id not in defining:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in defining:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return used


def test_every_exported_name_is_used_by_the_library_or_documented():
    # an export that no module reads is for tests only, unless the Library
    # section documents it with a call (the two planting functions)
    used = set()
    for path in sorted((ROOT / "src" / "starlap").glob("*.py")):
        if path.name != "__init__.py":
            used |= _names_used(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    documented = set(re.findall(r"`([A-Za-z_]\w*)\(", _library_section()))
    assert [name for name in starlap.__all__ if name not in used | documented] == []


def test_the_library_imports_only_numpy_and_the_standard_library():
    found = []
    for path in sorted((ROOT / "src" / "starlap").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {module}"
                for module in modules
                if module.split(".")[0] not in {"numpy", "starlap", *sys.stdlib_module_names}
            ]
    assert found == []


def test_readme_graph_file_example_parses():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^### Graph file format\n(.*?)^##", text, re.M | re.S).group(1)
    g = starlap.parse_graph_file(re.search(r"^```\n(.*?)^```", section, re.M | re.S).group(1))
    assert g.n == 5
    assert list(zip(g.u.tolist(), g.v.tolist(), g.w.tolist())) == [(0, 3, 1.0), (0, 4, 1.0)]
    assert g.mass == (1.5, 1.0, 1.0, 1.0, 1.0)
