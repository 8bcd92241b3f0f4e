"""Rules on the package source that no runtime test can see."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gkernel"


def _catch_alls(tree):
    """(line, text) of every bare ``except`` and ``except (Base)Exception``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for exc in caught:
            if exc is None or (isinstance(exc, ast.Name)
                               and exc.id in ("Exception", "BaseException")):
                yield node.lineno, "except" if exc is None else f"except {exc.id}"


def test_no_swallow_all_except():
    # failures raise the typed errors of gkernel.errors; a catch-all would hide them
    found = [f"{path.name}:{line}: {text}"
             for path in sorted(SRC.glob("*.py"))
             for line, text in _catch_alls(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_rule_sees_every_catch_all_form():
    source = ("try:\n    pass\nexcept:\n    pass\n"
              "try:\n    pass\nexcept Exception:\n    pass\n"
              "try:\n    pass\nexcept (ValueError, BaseException):\n    pass\n"
              "try:\n    pass\nexcept (ValueError, TypeError):\n    pass\n")
    assert [text for _, text in _catch_alls(ast.parse(source))] == [
        "except", "except Exception", "except BaseException"]
