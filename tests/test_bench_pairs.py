"""tools/bench_pairs.py refuses to time one program against itself."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _tree(root: Path, source: str) -> Path:
    (root / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (root / "src" / "pkg" / "core.py").write_text(source)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text("print('run')\n")
    (root / "BENCHMARK.json").write_text('{"run_seconds": 1, "workloads": [{"name": "w"}], '
                                         '"end_to_end": [], "per_layer": []}\n')
    return root


def test_program_files_ignore_bytecode_and_see_any_source_byte(bench_pairs, tmp_path):
    a, b = _tree(tmp_path / "a", "x = 1\n"), _tree(tmp_path / "b", "x = 1\n")
    (a / "src" / "pkg" / "__pycache__" / "core.pyc").write_bytes(b"\0")
    assert bench_pairs.program_files(a) == bench_pairs.program_files(b)
    (b / "src" / "pkg" / "core.py").write_text("x = 2\n")
    assert bench_pairs.program_files(a) != bench_pairs.program_files(b)
    (b / "src" / "pkg" / "core.py").write_text("x = 1\n")
    (b / "perfbench" / "run.py").write_text("print('other')\n")
    assert bench_pairs.program_files(a) != bench_pairs.program_files(b)


def test_a_base_equal_to_the_working_tree_stops_before_any_run(bench_pairs, tmp_path,
                                                               monkeypatch):
    repo = _tree(tmp_path / "repo", "x = 1\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(git + cmd, cwd=repo, check=True, capture_output=True)
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    monkeypatch.setattr(bench_pairs, "run", lambda *a: pytest.fail("a run started"))
    with pytest.raises(SystemExit, match="byte-identical"):
        bench_pairs.main(["--out", str(tmp_path / "out.json")])
    assert not (tmp_path / "out.json").exists()
