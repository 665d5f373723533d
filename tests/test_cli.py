import hashlib
import json
from pathlib import Path

import pytest

from powerspace.cli import main, parse_expression
from powerspace.errors import ParseError


@pytest.fixture
def sierpinski_file(tmp_path):
    path = tmp_path / "sierpinski.json"
    path.write_text(json.dumps({"points": ["bot", "top"], "order": [["bot", "top"]]}))
    return path


@pytest.fixture
def d2_file(tmp_path):
    path = tmp_path / "d2.json"
    path.write_text(json.dumps({"points": ["a", "b"], "opens": [[0], [1]]}))
    return path


def test_expression_parser():
    assert parse_expression("K(A(X))") == ["K", "A"]
    assert parse_expression("O(O(X))") == ["O", "O"]
    assert parse_expression("X") == []
    with pytest.raises(ParseError):
        parse_expression("K(A(X)")
    with pytest.raises(ParseError):
        parse_expression("Q(X)")


def test_verify_homeo_exit_code_and_summary(capsys):
    assert main(["verify", "--suite", "homeo", "--max-points", "2"]) == 0
    out = capsys.readouterr().out
    assert "failed=0" in out
    assert all(line.startswith(("PASS", "suite=")) for line in out.strip().splitlines())


def test_verify_counterexamples(capsys):
    assert main(["verify", "--suite", "counterexamples"]) == 0
    out = capsys.readouterr().out
    assert "suite=counterexamples" in out and "failed=0" in out
    assert out.count("PASS") == 4


def test_verify_all_trivial(capsys):
    assert main(["verify", "--suite", "all", "--max-points", "1"]) == 0
    out = capsys.readouterr().out
    assert "failed=0" in out


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "homeo", "--max-points", "0"],
    ["verify", "--suite", "wilker", "--max-points", "0", "--include-empty"],
])
def test_verify_with_no_check_in_scope_is_rejected(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "no check in scope" in captured.err and not captured.out


@pytest.mark.parametrize("argv, checks", [
    (["verify", "--suite", "homeo", "--max-points", "0", "--include-empty"], 7),
    (["verify", "--suite", "all", "--max-points", "0"], 4),
])
def test_verify_on_the_empty_scope_runs_what_it_can(argv, checks, capsys):
    assert main(argv) == 0
    assert f"checks={checks} failed=0" in capsys.readouterr().out


def test_verify_stops_at_the_cap_before_the_families(capsys):
    # A(A(X)) of the 4-point antichain has 168 points, one over the cap;
    # every construction of the 3-point subjects fits inside it.  The
    # message names that subject, also when a worker process ran its job
    for jobs in ("1", "2"):
        assert main(["verify", "--suite", "monad", "--max-points", "4", "--cap", "167", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.err == "resource cap: n4-6b0c42dfe7f3: A(A(X)) would have more than 167 points\n"
        assert not captured.out
    assert main(["verify", "--suite", "monad", "--max-points", "4"]) == 0


@pytest.mark.parametrize("suite, cap, line", [
    ("homeo", 8, "n3-d12b9dfacc5b: A(K(X)) would have more than 8 points"),
    ("monad", 13, "n3-d12b9dfacc5b: A(A(X)) would have more than 13 points"),
    ("consonance", 20, "n3-d12b9dfacc5b: A(K(K(X))) would have more than 20 points"),
    ("pi02", 5, "n3-d12b9dfacc5b: A(X) would have more than 5 points"),
    ("wilker", 5, "n3-d12b9dfacc5b: more than 5 upper sets"),
    ("all", 3, "n2-16f7a9a28357: A(X) would have more than 3 points"),
])
def test_each_suite_exits_at_its_cap_with_one_line(suite, cap, line, capsys):
    assert main(["verify", "--suite", suite, "--max-points", "3", "--cap", str(cap)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"resource cap: {line}\n"
    assert not captured.out


def test_verify_deterministic_output(capsys, tmp_path):
    argv = ["verify", "--suite", "monad", "--max-points", "2", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_json_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["verify", "--suite", "counterexamples", "--json", str(report_path)]) == 0
    capsys.readouterr()
    data = json.loads(report_path.read_text())
    assert data["failed"] == 0
    assert "timings" in data
    stripped = {k: v for k, v in data.items() if k != "timings"}
    assert all(c["passed"] for c in stripped["checks"])


def test_build_dot_chain(sierpinski_file, tmp_path, capsys):
    out = tmp_path / "ka.dot"
    assert main(["build", str(sierpinski_file), "--expr", "K(A(X))", "--format", "dot", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "K(A(X)): 4 points" in stdout
    dot = out.read_text()
    assert dot.count("->") == 3


@pytest.fixture
def vee_file(tmp_path):
    path = tmp_path / "vee.json"
    path.write_text(json.dumps({"points": ["x", "y", "z"], "order": [["x", "y"], ["x", "z"]]}))
    return path


def test_build_x_as_dot_draws_the_space(vee_file, tmp_path, capsys):
    out = tmp_path / "x.dot"
    assert main(["build", str(vee_file), "--expr", "X", "--format", "dot", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "X: 3 points\n"
    dot = out.read_text()
    assert dot.startswith("digraph {")
    assert [line.strip() for line in dot.splitlines() if "->" in line] == ["n0 -> n1;", "n0 -> n2;"]
    for i, name in enumerate("xyz"):
        assert f'n{i} [label="{name}"];' in dot


def test_build_x_as_json_writes_the_space_file(vee_file, tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["build", str(vee_file), "--expr", "X", "--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "X: 3 points\n"
    expected = {"order": [["x", "y"], ["x", "z"]], "points": ["x", "y", "z"]}
    assert out.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_build_json_double_lattice(d2_file, capsys):
    assert main(["build", str(d2_file), "--expr", "O(O(X))", "--format", "json"]) == 0
    stdout = capsys.readouterr().out
    assert "O(O(X)): 6 points" in stdout


def test_build_antichain_double_lattice(tmp_path, capsys):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps({"points": ["x", "y", "z"], "order": []}))
    assert main(["build", str(path), "--expr", "O(O(X))", "--format", "json", "--out", str(tmp_path / "o.json")]) == 0
    assert "O(O(X)): 20 points" in capsys.readouterr().out


def test_build_export_bytes_match_the_benchmark_pins(tmp_path, capsys):
    """L(K(X)) over the 4-point antichain, written as DOT and as JSON, has
    the digests the benchmark's build-export workload checks.  The pins are
    read from the benchmark's expected outputs, never written."""
    expected = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    pins = json.loads(expected.read_text())["build-export"]["outputs"]
    space = tmp_path / "a4.json"
    space.write_text(json.dumps({"points": ["a0", "a1", "a2", "a3"], "order": []}))
    for fmt in ("dot", "json"):
        out = tmp_path / f"lk.{fmt}"
        assert main(["build", str(space), "--expr", "L(K(X))", "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == pins[f"{fmt}_sha256"]
    assert capsys.readouterr().out == "L(K(X)): 3938 points\n" * 2


def test_build_cap_exit_code(tmp_path, capsys, d2_file):
    assert main(["build", str(d2_file), "--expr", "A(A(A(X)))", "--cap", "7"]) == 2


def test_build_bad_expression(d2_file, capsys):
    assert main(["build", str(d2_file), "--expr", "Z(X)"]) == 3


@pytest.mark.parametrize("doc", [
    {"points": ["a", "b"], "opens": [["a"]]},  # opens must list indices
    {"points": [1, 2], "order": []},  # points must be strings
])
def test_build_malformed_space_file(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["build", str(path), "--expr", "A(X)"]) == 3
    assert "input error:" in capsys.readouterr().err


def test_build_missing_file(tmp_path):
    assert main(["build", str(tmp_path / "nope.json"), "--expr", "A(X)"]) == 3


def test_enumerate_counts(tmp_path, capsys):
    out = tmp_path / "spaces.jsonl"
    assert main(["enumerate", "-n", "2", "--out", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 3
    assert main(["enumerate", "-n", "3", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 8
    assert main(["enumerate", "-n", "0", "--include-empty", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1


def test_enumerate_limit_exit_code(capsys):
    assert main(["enumerate", "-n", "7"]) == 2


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--suite", "homeo", "--max-points", "-1"], "--max-points"),
    (["enumerate", "-n", "-1"], "-n"),
    (["verify", "--suite", "counterexamples", "--cap", "0"], "--cap"),
    (["build", "{space}", "--expr", "A(X)", "--cap", "0"], "--cap"),
    (["verify", "--suite", "counterexamples", "--jobs", "0"], "--jobs"),
    (["verify", "--suite", "counterexamples", "--jobs", "-3"], "--jobs"),
])
def test_numeric_flags_rejected_below_their_floor(argv, flag, d2_file, capsys):
    # each would otherwise run: a pass over no spaces, the default cap, serial jobs
    argv = [str(d2_file) if a == "{space}" else a for a in argv]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert f"argument {flag}" in captured.err and not captured.out
