"""Import hygiene of the package.  No module imports another module's
private name: what one module lends another is public there, so the
owner's private names can change without a search of its callers.  And no
module imports a third-party package other than numpy, the one runtime
dependency that pyproject.toml declares."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eideal"


def _private_imports(path: Path) -> list[str]:
    """``from .x import _name`` lines of the module at ``path``; dunders
    such as ``__version__`` are not private."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found += [f"{path.name}:{node.lineno} from {'.' * node.level}"
                      f"{node.module or ''} import {alias.name}"
                      for alias in node.names
                      if alias.name.startswith("_")
                      and not alias.name.endswith("__")]
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    assert [line for path in modules for line in _private_imports(path)] == []


def test_the_scan_sees_a_private_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from . import __version__\n"
                      "from .graph_core import bits, _packed_graph\n")
    assert _private_imports(module) == [
        "m.py:2 from .graph_core import _packed_graph"]


RUNTIME_PACKAGES = sys.stdlib_module_names | {"numpy"}


def _foreign_imports(path: Path) -> list[str]:
    """Absolute imports, at any depth, of a top-level package outside the
    standard library and numpy."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {name}" for name in names
                  if name.partition(".")[0] not in RUNTIME_PACKAGES]
    return found


def test_no_module_imports_a_package_outside_the_runtime_dependencies():
    modules = sorted(SRC.glob("*.py"))
    assert [line for path in modules for line in _foreign_imports(path)] == []


def test_the_scan_sees_a_foreign_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import json, numpy.linalg\n"
                      "from . import graph_core\n"
                      "def f():\n"
                      "    import networkx as nx\n"
                      "    from scipy.sparse import csr_matrix\n")
    assert _foreign_imports(module) == ["m.py:4 networkx",
                                        "m.py:5 scipy.sparse"]
