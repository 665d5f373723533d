"""The benchmark harness and the scripts import names from powerspace that
no other test touches.  Parse them, without running them, and resolve
every such name, so a change to the public API cannot break them
silently."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = [ROOT / "perfbench" / "worker.py", *sorted((ROOT / "scripts").glob("*.py"))]


def _resolve(module: str, name: str) -> bool:
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    try:  # a submodule not yet imported
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def _powerspace_names(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every name the file takes from powerspace:
    `from powerspace... import name`, and `module.name` or
    `f(module, "name", ...)` on a module it bound that way."""
    tree = ast.parse(path.read_text(), str(path))
    modules: dict[str, str] = {}  # local name -> powerspace module it is bound to
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "powerspace":
            for alias in node.names:
                names.append((node.module, alias.name))
                full = f"{node.module}.{alias.name}"
                if _is_module(full):
                    modules[alias.asname or alias.name] = full
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "powerspace":
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.append((modules[node.value.id], node.attr))
        if (
            isinstance(node, ast.Call)
            and len(node.args) >= 2
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in modules
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            names.append((modules[node.args[0].id], node.args[1].value))
    return names


def _is_module(dotted: str) -> bool:
    try:
        return importlib.util.find_spec(dotted) is not None
    except ModuleNotFoundError:
        return False


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_harness_names_from_powerspace_resolve(path):
    names = _powerspace_names(path)
    assert names, f"{path.name} imports nothing from powerspace"
    missing = [f"{module}.{name}" for module, name in names if not _resolve(module, name)]
    assert not missing, missing


def test_the_check_sees_a_missing_name(tmp_path):
    script = tmp_path / "uses_old_api.py"
    script.write_text(
        "from powerspace import powerspaces\n"
        "from powerspace.powerspaces import structure_map_union\n"
        'patched(powerspaces, "_no_such_finish", None)\n'
    )
    names = _powerspace_names(script)
    assert [n for n in names if not _resolve(*n)] == [
        ("powerspace.powerspaces", "structure_map_union"),
        ("powerspace.powerspaces", "_no_such_finish"),
    ]
