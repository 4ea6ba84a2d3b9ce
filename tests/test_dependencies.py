"""The package imports nothing at run time but numpy and the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "strokeseg"
ALLOWED = {"strokeseg", "numpy"} | set(sys.stdlib_module_names)


def imported_roots(source: str) -> set:
    """Top-level names of the absolute imports anywhere in `source`."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
    return roots


def test_modules_import_only_numpy_and_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    foreign = {path.name: sorted(imported_roots(path.read_text(encoding="utf-8")) - ALLOWED)
               for path in modules}
    assert {name: roots for name, roots in foreign.items() if roots} == {}


def test_import_scan_sees_nested_and_dotted_imports():
    source = ("import numpy as np, json\nfrom . import optim\nfrom .vae import train\n"
              "from scipy.linalg import qr\n\ndef f():\n    import torch.nn\n")
    assert imported_roots(source) - ALLOWED == {"scipy", "torch"}
