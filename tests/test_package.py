"""The package's public export list and its module boundaries."""

import ast
from pathlib import Path

import railsim


def test_every_exported_name_resolves():
    missing = [name for name in railsim.__all__ if not hasattr(railsim, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from railsim import *", namespace)
    assert set(railsim.__all__) <= set(namespace)


def package_imports(module: str) -> set:
    """railsim modules that ``railsim/<module>.py`` imports anywhere in
    its body, lazy imports inside functions included."""
    tree = ast.parse((Path(railsim.__file__).parent / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # "from .povm import f" and "from railsim.povm import f" name
            # povm as the module; "from . import povm" as an alias.
            module = node.module or ""
            if node.level == 0:
                if module != "railsim" and not module.startswith("railsim."):
                    continue
                module = module[len("railsim"):].lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("railsim."))
    return found


def test_trajectory_and_povm_are_independent_oracles():
    # The dyne integrator and the analytic POVM check each other, so they
    # share nothing but the state container.
    trajectory, povm = package_imports("trajectory"), package_imports("povm")
    assert "povm" not in trajectory and "stats" not in trajectory
    assert "trajectory" not in povm
