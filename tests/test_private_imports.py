"""No module of the package imports another module's private name: what
one module lends another is public there, so the owner's private names can
change without a search of its callers."""

import ast
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
