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
    # both refuse a mode with two photons with the container's error
    assert railsim.OverOccupiedError is railsim.fock.OverOccupiedError
    assert railsim.povm.OverOccupiedError is railsim.fock.OverOccupiedError


ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list:
    """Names that ``path`` imports at any depth and never reads.

    A name listed in the module's ``__all__`` counts as read.
    """
    tree = ast.parse(path.read_text())
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    files = sorted(p for d in ("src", "tests", "perfbench")
                   for p in (ROOT / d).rglob("*.py"))
    assert files
    assert [u for p in files for u in unused_imports(p)] == []



def test_only_the_lane_noise_source_draws_wiener_increments():
    # One routine turns a generator into dyne increments dW: src/ reads
    # standard_normal only inside trajectory._LaneNoise.
    owners = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if any(isinstance(node, ast.Attribute)
                   and node.attr == "standard_normal" for node in ast.walk(top)):
                owners.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert owners == {"trajectory._LaneNoise"}
