import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def module_tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def package_imports(module: str) -> set[str]:
    """Sibling modules named in ``module``'s ``from .x import`` statements."""
    return {
        node.module
        for node in ast.walk(module_tree(module))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }


def external_imports(nodes) -> set[str]:
    """Top-level packages named in the absolute import statements among ``nodes``."""
    names = set()
    for node in nodes:
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
    numpy indexing, so it needs neither ``cmath`` nor scipy anywhere.  The
    monodromy engine steps its own DOP853, so it needs no scipy anywhere
    either.  The other modules import scipy only inside the functions that
    find roots (see ``test_no_module_imports_scipy_when_loaded``)."""
    assert package_imports("polygon_config") <= {"errors"}
    for engine in ("monodromy", "maslov"):
        assert package_imports(engine) <= {"linearization", "errors"}
    assert not external_imports(ast.walk(module_tree("maslov"))) & {"scipy", "cmath"}
    assert "scipy" not in external_imports(ast.walk(module_tree("monodromy")))


def test_no_module_imports_scipy_when_loaded():
    """No module body imports scipy: it costs a fresh process more than
    numpy does, and only the root finders need it."""
    for path in sorted(SRC.glob("*.py")):
        assert "scipy" not in external_imports(module_tree(path.stem).body), path.name


# Runs after the code under test, in the same interpreter: the scipy modules
# it left loaded, as the last line of standard error.
SCIPY_PROBE = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: print(json.dumps(sorted(\n"
    "    m for m in sys.modules if m.split('.')[0] == 'scipy')), file=sys.stderr))\n"
)
RUN_CLI = "import runpy\nrunpy.run_module('erestab.cli', run_name='__main__', alter_sys=True)\n"


@pytest.mark.parametrize(
    "code, args",
    [
        ("import erestab\n", []),
        (RUN_CLI, ["--help"]),
        (RUN_CLI, ["--version"]),
        # the command of golden_index_omega_minus_one.json
        (RUN_CLI, ["index", "--alpha", "0.5", "--beta", "1.5", "--e", "0.2",
                   "--omega", "-1", "--json", "out.json"]),
        # one integrated point, with its Morse indices
        (RUN_CLI, ["scan-theta", "--beta", "1.5", "--e", "0.3", "--csv", "out.csv"]),
        ("import erestab\nassert erestab.find_curves([0.3], coarse_step=1.0)\n", []),
    ],
    ids=["import", "cli-help", "cli-version", "cli-index", "cli-scan-theta", "find-curves"],
)
def test_fresh_process_loads_no_scipy(code, args, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC.parent), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", SCIPY_PROBE + code, *args], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stderr.splitlines()[-1]) == []


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


def test_one_distance_sum_kernel():
    """The massless body's distance sums are formed in one place: a fifth
    power (``** 5`` or ``** -5``), which the 1/r^5 outer sum needs, appears
    only in ``central_config.massless_sums``, which V's gradient and Hessian,
    the multiplier identity and D all read, and in the polygon family's
    closed-form lattice sum, which never sees a ``Configuration``."""
    found = []

    def fifth(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return isinstance(node, ast.Constant) and node.value == 5

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Pow) and fifth(child.right):
                found.append(where)
            visit(child, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert found == ["central_config.massless_sums"] + ["polygon_config.bang_quantities"] * 2


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
