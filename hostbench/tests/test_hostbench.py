"""The benchmark's own checks.

Run from the root of a checkout::

    python3 -m pytest hostbench/tests -q
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from hostbench import run  # noqa: E402
from hostbench.spans import Recorder, leftover_wrappers  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def names(kind):
    return [m["name"] for m in BENCHMARK[kind]]


def test_metric_and_workload_names_are_well_formed():
    every = names("end_to_end") + names("per_layer") + WORKLOADS
    assert len(every) == len(set(every))
    for name in every:
        assert NAME.fullmatch(name), name
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])


def test_workload_names_match_the_command():
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES


@pytest.fixture(scope="module")
def dry_runs():
    """Every workload on the tiny mesh, untraced and traced."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(ROOT)
        for workload in WORKLOADS:
            for trace in (0, 1):
                argv = ["--workload", workload, "--seed", "3", "--seconds",
                        "0", "--trace", str(trace), "--tiny"]
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = run.main(argv)
                last = stdout.getvalue().strip().splitlines()[-1]
                out[workload, trace] = code, json.loads(last)
                out[workload, trace, "leftover"] = leftover_wrappers()
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_dry_run_emits_every_metric(dry_runs, workload, trace):
    code, result = dry_runs[workload, trace]
    assert code == 0, result
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert sorted(result["metrics"]) == sorted(names(kind))
    units = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_wrapper_survives_a_traced_run(dry_runs, workload):
    assert dry_runs[workload, 1, "leftover"] == []


def test_wrappers_are_restored_when_the_pass_raises():
    import repro.machine.cpu as cpu

    original = vars(cpu.Machine)["execute_kernel"]
    with pytest.raises(ZeroDivisionError):
        with Recorder():
            assert vars(cpu.Machine)["execute_kernel"] is not original
            1 / 0
    assert vars(cpu.Machine)["execute_kernel"] is original
    assert leftover_wrappers() == []


def test_empty_checkout_is_refused(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", WORKLOADS[0], "--seed", "0"]) == 2
