import ast
import re
from pathlib import Path

import erestab

SRC = Path(erestab.__file__).parent
README = Path(__file__).parent.parent / "README.md"

# Exported although nothing in the package calls them: they reproduce the
# paper's large-m0 claim (acceptance criterion C9).
PAPER_CHECKS = {"polygon_limits", "polygon_configuration"}


def package_uses() -> set[str]:
    """Names read anywhere in the package outside ``__init__.py`` and outside
    the module-level definition that binds them."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            defined = getattr(node, "name", None)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != defined:
                    used.add(name)
    return used


def test_every_export_has_a_user():
    """A public name is run by the package itself, shown in the README, or
    is one of the paper checks; test-only helpers live in tests/oracles.py."""
    used = package_uses()
    readme = set(re.findall(r"\w+", README.read_text()))
    unused = [
        name
        for name in erestab.__all__
        if name not in used | readme | PAPER_CHECKS
    ]
    assert unused == []
