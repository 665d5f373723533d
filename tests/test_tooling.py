"""The benchmark harness and the scripts import names from powerspace that
no other test touches.  Parse them, without running them, and resolve
every such name, so a change to the public API cannot break them
silently.  The README's quickstart is run as written, every dotted name
it puts in backticks from the package resolves, no module imports a name
it never uses, every committed benchmark record names a metric the
benchmark measures, and the spaces the test oracles and enumerate_spaces
share are checked after every test."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import re
import sys
import textwrap
from pathlib import Path

import pytest

from powerspace.core import FiniteSpace, PtSet, enumerate_spaces, sierpinski
from powerspace.suites import SUITES, CheckRecord, SuiteReport

from oracles import labelled_spaces, restore_shared_spaces

ROOT = Path(__file__).resolve().parents[1]
FILES = [ROOT / "perfbench" / "worker.py", ROOT / "perfbench" / "record.py", *sorted((ROOT / "scripts").glob("*.py"))]
# __init__.py files import names to re-export them, not to use them
MODULES = sorted(p for d in ("src", "scripts", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")


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


def test_readme_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "quickstart"})
    assert "digraph" in capsys.readouterr().out


def _readme_names(text: str) -> list[str]:
    """Each backticked dotted name outside code blocks, cut where the name
    ends (`FiniteSpace.leq(i, j)` gives FiniteSpace.leq), a leading
    powerspace. dropped."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    return re.findall(r"`(?:powerspace\.)?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)[^`\n]*`", text)


def _package_roots() -> dict[str, object]:
    """The package's modules by name, and its public classes by name."""
    stems = sorted(p.stem for p in (ROOT / "src" / "powerspace").glob("*.py") if p.stem != "__init__")
    modules = {stem: importlib.import_module(f"powerspace.{stem}") for stem in stems}
    classes = {
        name: obj
        for mod in modules.values()
        for name, obj in vars(mod).items()
        if isinstance(obj, type) and obj.__module__.startswith("powerspace") and not name.startswith("_")
    }
    return {**classes, **modules}


def _instance_names(cls: type) -> set[str]:
    """What instances of cls hold beyond its class attributes: its
    dataclass fields, or what its __init__ assigns to self."""
    if dataclasses.is_dataclass(cls):
        return {f.name for f in dataclasses.fields(cls)}
    init = cls.__dict__.get("__init__")
    if init is None:
        return set()
    tree = ast.parse(textwrap.dedent(inspect.getsource(init)))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }


def _stale_names(names: list[str], roots: dict[str, object]) -> list[str]:
    """The names that start at a module or public class of the package
    and do not resolve: each later part must be an attribute of what the
    parts before it name, or an instance attribute of a class, after
    which nothing further is checked."""
    stale = []
    for dotted in names:
        head, *parts = dotted.split(".")
        obj = roots.get(head)
        for part in parts if obj is not None else ():
            if hasattr(obj, part):
                obj = getattr(obj, part)
            elif isinstance(obj, type) and part in _instance_names(obj):
                break
            else:
                stale.append(dotted)
                break
    return stale


def test_readme_names_from_the_package_resolve():
    names = _readme_names((ROOT / "README.md").read_text())
    roots = _package_roots()
    assert sum(name.split(".")[0] in roots for name in names) >= 10
    assert not _stale_names(names, roots)


def test_the_check_sees_a_stale_readme_name():
    readme = (
        "`core.transpose` and `FiniteSpace.leq(i, j)`, `Verdict.info` (a field),\n"
        "`Powers.limits` (set in __init__), `omega.CofinSet.mode`, `BENCH_x.json`,\n"
        "`ConstructedSpace.subbasis()`, `core.neighbourhoods` and `Verdict.infos`.\n"
        "```python\ncore.gone\n`core.gone_too`\n```\n"
    )
    names = _readme_names(readme)
    assert "core.gone_too" not in names and "BENCH_x.json" in names
    assert _stale_names(names, _package_roots()) == ["ConstructedSpace.subbasis", "core.neighbourhoods", "Verdict.infos"]


def test_labelled_space_guard_names_and_undoes_a_planted_shadow():
    # conftest fails a test that leaves a change; here one is planted and
    # undone before that check runs
    sp = labelled_spaces(2)[-1]
    rows, down = sp.up, sp.down  # down, a cached_property, filled in: no change
    assert restore_shared_spaces() == []
    object.__setattr__(sp, "closure_mask", lambda mask: mask)
    object.__setattr__(sp, "down", tuple(reversed(down)))
    object.__setattr__(sp, "_opens", ())  # not filled in yet, and wrong
    assert restore_shared_spaces() == [f"up={rows}: {key}" for key in ("_opens", "closure_mask", "down")]
    assert sp.down is down and sp.closure_mask(1) == FiniteSpace(sp.names, sp.up).closure_mask(1)
    assert sp.opens() == FiniteSpace(sp.names, sp.up).opens()
    assert restore_shared_spaces() == []


def test_enumerated_space_guard_names_and_undoes_a_planted_shadow():
    # the same guard over the tuples enumerate_spaces caches, which the
    # suites read too; a size this test session may not have asked for yet
    sp = enumerate_spaces(5)[-1]
    rows, names = sp.up, sp.names
    assert restore_shared_spaces() == []
    object.__setattr__(sp, "names", tuple(reversed(names)))
    object.__setattr__(sp, "opens", lambda limits=None: ())
    assert restore_shared_spaces() == [f"up={rows}: {key}" for key in ("names", "opens")]
    assert sp.names is names and sp.opens() == FiniteSpace(names, rows).opens()
    assert enumerate_spaces(5)[-1] is sp
    assert restore_shared_spaces() == []


def test_run_suites_prints_fail_lines_as_verify_does(monkeypatch, capsys):
    # a witness holding a PtSet prints as the report's JSON, not its repr
    spec = importlib.util.spec_from_file_location("run_suites", ROOT / "scripts" / "run_suites.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    record = CheckRecord("planted", "s", False, {"K": PtSet(sierpinski(), 0b01)}, 0.0)
    monkeypatch.setattr(script, "run_suite", lambda suite, **kwargs: SuiteReport(suite, ["s"], [record]))
    monkeypatch.setattr(sys, "argv", ["run_suites.py"])
    assert script.main() == 1
    out = capsys.readouterr().out.splitlines()
    want = [f"  {SuiteReport(suite, ['s'], [record]).lines()[0]}" for suite in SUITES]
    assert [line for line in out if "FAIL" in line] == want
    assert want[0] == '  FAIL homeo:s:planted  witness={"K": {"points": ["bot"], "space": "%s"}}' % sierpinski().fingerprint


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_suites_rejects_a_job_count_below_one(monkeypatch, capsys, jobs):
    # as `powerspace verify --jobs` does, rather than running serially
    spec = importlib.util.spec_from_file_location("run_suites", ROOT / "scripts" / "run_suites.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "run_suite", lambda suite, **kwargs: pytest.fail("ran a suite"))
    monkeypatch.setattr(sys, "argv", ["run_suites.py", "--jobs", jobs])
    with pytest.raises(SystemExit) as exit_info:
        script.main()
    assert exit_info.value.code == 2
    assert f"must be at least 1, got {jobs}" in capsys.readouterr().err


def test_export_diagrams_checks_the_space_name_before_writing(monkeypatch, capsys, tmp_path):
    spec = importlib.util.spec_from_file_location("export_diagrams", ROOT / "scripts" / "export_diagrams.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["export_diagrams.py", "torus"])
    assert script.main() == 2
    assert capsys.readouterr().err == "usage: export_diagrams.py [sierpinski|pair|chain3] [outdir]\n"
    assert not any(tmp_path.iterdir())


def _unused_imports(path: Path) -> list[str]:
    """Names an import in the file binds that no name in the file reads.
    `from __future__` imports bind no such name."""
    tree = ast.parse(path.read_text(), str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_no_module_imports_an_unused_name():
    assert len(MODULES) > 20
    unused = {p.relative_to(ROOT).as_posix(): names for p in MODULES if (names := _unused_imports(p))}
    assert not unused


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "planted.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from json import dumps, loads\n"
        "print(dumps(osp.sep))\n"
    )
    assert _unused_imports(module) == ["os", "loads"]


def _claim_faults(record: dict, spec: dict) -> list[str]:
    """What is wrong with a benchmark record's claim: claim.metric must be
    <workload>.<metric> for a workload and an end-to-end metric that spec
    (BENCHMARK.json) declares, with a summary entry for that pair.  A
    record with no claim has nothing to check."""
    claim = record.get("claim")
    if claim is None:
        return []
    name = claim.get("metric", "")
    workload, _, metric = name.partition(".")
    faults = []
    if workload not in {w["name"] for w in spec["workloads"]}:
        faults.append(f"no workload {workload!r}")
    if metric not in {m["name"] for m in spec["end_to_end"]}:
        faults.append(f"no end-to-end metric {metric!r}")
    if name not in record.get("summary", {}):
        faults.append(f"no summary of {name!r}")
    return faults


def test_bench_records_parse_and_claim_benchmarked_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    faults = {p.name: f for p in records if (f := _claim_faults(json.loads(p.read_text()), spec))}
    assert not faults


def test_the_check_sees_a_claim_off_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {"build-export.wall_s": {}}
    assert _claim_faults({"claim": {"metric": "build-export.wall_s"}, "summary": summary}, spec) == []
    assert _claim_faults({"what": "no claim"}, spec) == []
    assert _claim_faults({"claim": {"metric": "build-export.lens_s"}, "summary": summary}, spec) == [
        "no end-to-end metric 'lens_s'",
        "no summary of 'build-export.lens_s'",
    ]
    assert _claim_faults({"claim": {"metric": "export.wall_s"}, "summary": {"export.wall_s": {}}}, spec) == [
        "no workload 'export'",
    ]
