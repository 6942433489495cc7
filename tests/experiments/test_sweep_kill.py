"""The kill-mid-sweep drill against a real ``repro sweep --journal``.

SIGKILL is the harshest failure the journal promises to survive: no
atexit hooks, no signal handlers, the process is simply gone.  Re-running
the same command must serve every journaled completion from the run
cache, simulate only the rest, and print the artifact an uninterrupted
sweep prints."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.journal import replay_journal

COMMAND = [sys.executable, "-m", "repro", "sweep", "--mesh", "tiny",
           "--journal", "J"]
#: the tiny-mesh Figure 11 ladder: scalar + 4 rungs x 6 VECTOR_SIZEs.
CONFIGS = 25


def _env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _sweep(cwd: Path) -> subprocess.CompletedProcess:
    cwd.mkdir(exist_ok=True)
    return subprocess.run(COMMAND, cwd=cwd, env=_env(), capture_output=True,
                          timeout=300)


def _events(run: subprocess.CompletedProcess, kind: str) -> set[str]:
    """Keys of the run's ``[repro] <kind> <key> ...`` progress lines."""
    return {line.split()[2] for line in run.stderr.decode().splitlines()
            if line.startswith(f"[repro] {kind} ")}


@pytest.mark.slow
def test_sigkilled_sweep_resumes_from_its_journal(tmp_path):
    work = tmp_path / "killed"
    work.mkdir()
    journal = work / "J"
    proc = subprocess.Popen(COMMAND, cwd=work, env=_env(),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline and proc.poll() is None:
            state = replay_journal(journal)
            if state is not None and len(state.done) >= 2:
                break
            time.sleep(0.01)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30.0)
    assert proc.returncode == -signal.SIGKILL, "kill must land mid-sweep"
    before = replay_journal(journal)
    assert before.interrupted
    assert 2 <= len(before.done) < CONFIGS

    resumed = _sweep(work)
    assert resumed.returncode == 0, resumed.stderr
    hits = _events(resumed, "cache_hit")
    done = _events(resumed, "done")
    # every completion journaled before the SIGKILL is recalled, never
    # simulated again.
    assert before.done <= hits
    assert not before.done & done
    assert len(hits | done) == CONFIGS and not hits & done
    assert not _events(resumed, "cache_corrupt")

    clean = _sweep(tmp_path / "clean")
    assert clean.returncode == 0, clean.stderr
    assert resumed.stdout == clean.stdout
