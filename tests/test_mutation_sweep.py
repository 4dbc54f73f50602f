"""The mutation sweep stays runnable: checked without running any mutant.

Each mutant's edit must apply, its old text occurring exactly once in its
file, and each test it names as a killer must exist.  A stale entry would
otherwise surface only when someone runs ``tests/mutation_sweep.py``.
"""

import ast
import functools
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_sweep():
    spec = importlib.util.spec_from_file_location("mutation_sweep",
                                                  ROOT / "tests" / "mutation_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


MUTANTS = load_sweep().MUTANTS


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


def test_every_edit_applies_once():
    stale = []
    for m in MUTANTS:
        count = (ROOT / "src" / "stochwave" / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1 or m.old == m.new:
            stale.append(f"{m.name}: old text occurs {count} times in {m.path}")
    assert not stale, stale


@functools.cache
def module_body(path: Path) -> list:
    return ast.parse(path.read_text(encoding="utf-8")).body


def defined(path: Path, names: list[str]) -> bool:
    """Whether the module at ``path`` defines the class or function
    ``names[0]`` and, inside a class, the method ``names[1]``."""
    scope = module_body(path)
    for name in names:
        found = [node for node in scope if isinstance(
            node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
        if not found:
            return False
        scope = found[0].body
    return True


def test_every_killer_exists():
    missing = []
    for m in MUTANTS:
        assert m.kills or m.equivalent, m.name
        for target in m.kills:
            file, *names = target.split("::")
            path = ROOT / file
            # a parametrized id names its function before the brackets
            names = [n.split("[")[0] for n in names]
            if not (path.name.startswith("test_") and path.is_file() and defined(path, names)):
                missing.append(f"{m.name}: {target}")
    assert not missing, missing
