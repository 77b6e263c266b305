"""tools/bench_pairs.py refuses to time one program against itself and
cleans up after a SIGTERM."""

import contextlib
import importlib.util
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    handler = signal.getsignal(signal.SIGTERM)
    yield mod
    signal.signal(signal.SIGTERM, handler)      # main() installs its own


def _tree(root: Path, source: str) -> Path:
    (root / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (root / "src" / "pkg" / "core.py").write_text(source)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text("print('run')\n")
    (root / "BENCHMARK.json").write_text('{"run_seconds": 1, "workloads": [{"name": "w"}], '
                                         '"end_to_end": [], "per_layer": []}\n')
    return root


def _commit(repo: Path) -> None:
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(git + cmd, cwd=repo, check=True, capture_output=True)


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
    _commit(repo)
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    monkeypatch.setattr(bench_pairs, "run", lambda *a: pytest.fail("a run started"))
    with pytest.raises(SystemExit, match="byte-identical"):
        bench_pairs.main(["--out", str(tmp_path / "out.json")])
    assert not (tmp_path / "out.json").exists()


def test_sigterm_removes_the_export_and_stops_the_running_child(tmp_path):
    repo = _tree(tmp_path / "repo", "x = 1\n")
    pid_file = tmp_path / "child.pid"
    (repo / "perfbench" / "run.py").write_text(
        f"import os, pathlib, time\npathlib.Path({str(pid_file)!r}).write_text(str(os.getpid()))\n"
        "time.sleep(120)\n")
    (repo / "tools").mkdir()
    shutil.copy(TOOL, repo / "tools")           # the tool times the repository it sits in
    _commit(repo)
    (repo / "src" / "pkg" / "core.py").write_text("x = 2\n")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    proc = subprocess.Popen([sys.executable, "tools/bench_pairs.py", "--out", str(tmp_path / "o.json")],
                            cwd=repo, env={**os.environ, "TMPDIR": str(tmp)},
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    child = None
    try:
        deadline = time.monotonic() + 60
        while not (pid_file.exists() and pid_file.read_text()):
            assert proc.poll() is None and time.monotonic() < deadline, "run.py never started"
            time.sleep(0.05)
        child = int(pid_file.read_text())
        assert [p.name[:11] for p in tmp.iterdir()] == ["bench-base-"]
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
        assert list(tmp.iterdir()) == []
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if child is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(child, signal.SIGKILL)
