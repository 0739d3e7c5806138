"""Module boundaries: the score and the scheduler take plain arrays, so
neither reads the tape, and the score does not read attention captures.
Only util, the one CSV writer, imports csv. No module imports a name it
never uses."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mtat"


def imported_modules(name):
    """Absolute names of the modules that ``mtat.<name>`` imports,
    relative imports resolved against the package."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "mtat" if node.level else ""
            module = ".".join(part for part in (base, node.module or "") if part)
            found.add(module)
            # "from . import tensor" names the module in the alias.
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_import_reader_resolves_relative_imports():
    modules = imported_modules("diffusion")
    assert {"mtat.tensor", "mtat.attention", "mtat.redundancy", "numpy"} <= modules


@pytest.mark.parametrize(
    "name, forbidden",
    [("redundancy", {"mtat.tensor", "mtat.attention"}), ("scheduler", {"mtat.tensor"})],
)
def test_array_layers_do_not_import_the_tape_or_the_capture_type(name, forbidden):
    assert imported_modules(name) & forbidden == set()


def test_only_util_imports_csv():
    # util.csv_text is the one CSV writer, so the format is decided once.
    modules = [path.stem for path in PACKAGE.glob("*.py")]
    assert {"cli", "util"} <= set(modules)
    assert {name for name in modules if "csv" in imported_modules(name)} == {"util"}


def unused_imports(name):
    """Names that ``mtat.<name>`` imports and never reads."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_no_module_imports_a_name_it_never_uses():
    # The package's __init__ imports names only to re-export them.
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    assert {"attention", "scheduler", "tensor"} <= set(modules)
    unused = {name: unused_imports(name) for name in modules}
    assert {name: names for name, names in unused.items() if names} == {}
