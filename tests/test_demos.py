"""The demo scripts import only names that gkernel provides.

Running the demos takes about 30 s, so the suite does not run them;
parsing them catches a removed or renamed export in milliseconds.
"""

import ast
import importlib
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demo_imports_from_gkernel_exist():
    assert DEMOS
    missing = []
    for path in DEMOS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gkernel":
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names if not hasattr(module, alias.name)]
    assert not missing
