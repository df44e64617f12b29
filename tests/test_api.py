import ast
import re
from pathlib import Path

import erestab

SRC = Path(erestab.__file__).parent
README = Path(__file__).parent.parent / "README.md"


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
    """A public name is run by the package itself or shown in the README;
    test-only helpers live in tests/oracles.py."""
    used = package_uses()
    readme = set(re.findall(r"\w+", README.read_text()))
    unused = [name for name in erestab.__all__ if name not in used | readme]
    assert unused == []


def package_imports(module: str) -> set[str]:
    """Sibling modules named in ``module``'s ``from .x import`` statements."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }


def external_imports(module: str) -> set[str]:
    """Top-level packages named in ``module``'s absolute import statements."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_module_layering():
    """The families and the engines meet only at ``StabilityParams``: the
    polygon family needs nothing but the errors, and the two stability
    engines need nothing but the linearized system and the errors.  The
    Morse engine works in the twist rho and builds its Toeplitz blocks by
    numpy indexing, so it needs neither ``cmath`` nor scipy."""
    assert package_imports("polygon_config") <= {"errors"}
    for engine in ("monodromy", "maslov"):
        assert package_imports(engine) <= {"linearization", "errors"}
    assert not external_imports("maslov") & {"scipy", "cmath"}


def test_one_general_eigensolve():
    """gamma(2 pi) is decomposed in one place: the names ``eig`` and
    ``eigvals`` appear only inside ``Monodromy.from_matrix``.  The symmetric
    solver ``eigvalsh`` is a different name."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{where}.{child.name}")
                continue
            names = {getattr(child, "attr", None), getattr(child, "id", None)}
            names |= {alias.name for alias in getattr(child, "names", [])
                      if isinstance(alias, ast.alias)}
            if names & {"eig", "eigvals"}:
                found.append(where)
            visit(child, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert found == ["monodromy.Monodromy.from_matrix"]


def test_readme_python_block_runs(capsys):
    """The README's Quick start runs and prints what its comments say."""
    section = README.read_text().split("## Quick start (Python)", 1)[1]
    exec(section.split("```python", 1)[1].split("```", 1)[0], {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    beta, verdict = lines[0].split()
    assert (round(float(beta), 4), verdict) == (4.0923, "Hyperbolic")
    assert lines[1:3] == ["True 0 2", "2"]
    assert round(float(lines[3]), 6) == 0.854231
