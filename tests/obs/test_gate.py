"""Tests for the exact per-phase cycle gate (repro bench --baseline)."""

import json

import pytest

from repro.obs import gate
from repro.metrics.counters import RunCounters


def _run(cycles_by_phase):
    run = RunCounters()
    for pid, cyc in cycles_by_phase.items():
        run.phase(pid).cycles_total = cyc
    return run


def _payload(phase_cycles, mesh=(4, 4, 4)):
    return {"mesh": list(mesh), "phase_cycles": phase_cycles}


def test_phase_cycles_payload_shape():
    runs = {"b-key": _run({1: 10.0, 6: 99.5}), "a-key": _run({2: 3.0})}
    payload = gate.phase_cycles_payload(runs)
    assert list(payload) == ["a-key", "b-key"]  # sorted, JSON-stable
    assert payload["b-key"] == {"1": 10.0, "6": 99.5}


def test_identical_reports_pass():
    pc = {"k": {"1": 100.0, "6": 2000.0}}
    assert gate.compare_phase_cycles(pc, pc) == []


def test_injected_regression_breaches():
    cur = {"k": {"1": 100.0, "6": 1150.0}}
    base = {"k": {"1": 100.0, "6": 1000.0}}
    (b,) = gate.compare_phase_cycles(cur, base)
    assert b.phase == 6 and b.ratio == pytest.approx(1.15)
    assert "regression" in b.describe()


def test_speedup_past_threshold_also_flags():
    # the gate is two-sided: an unexplained speed-up is a model change
    # too, and there is no threshold for it to stay within.
    cur = {"k": {"6": 800.0}}
    base = {"k": {"6": 1000.0}}
    (b,) = gate.compare_phase_cycles(cur, base)
    assert "speed-up" in b.describe()


@pytest.mark.parametrize("current", [1000.5, 999.5, 1000.0 + 1e-9])
def test_any_difference_is_a_breach(current):
    # the model is deterministic: any difference, in either direction
    # and however small, is a model change.
    (b,) = gate.compare_phase_cycles({"k": {"6": current}},
                                     {"k": {"6": 1000.0}})
    assert (b.key, b.phase, b.baseline, b.current) == ("k", 6, 1000.0, current)
    assert repr(current) in b.describe()


def test_phase_appearing_or_vanishing_is_a_breach():
    cur = {"k": {"1": 100.0, "9": 5.0}}
    base = {"k": {"1": 100.0, "2": 50.0}}
    breaches = gate.compare_phase_cycles(cur, base)
    assert [(b.phase, b.baseline, b.current) for b in breaches] == [
        (2, 50.0, None), (9, None, 5.0)]
    assert "missing" in breaches[0].describe()
    assert "not in the baseline" in breaches[1].describe()


def test_run_missing_from_the_report_is_a_breach():
    # a run the sweep failed to produce breaches every baseline phase.
    breaches = gate.compare_phase_cycles(
        {"k1": {"1": 100.0}}, {"k1": {"1": 100.0}, "k2": {"1": 9.0, "2": 8.0}})
    assert [(b.key, b.phase, b.current) for b in breaches] == [
        ("k2", 1, None), ("k2", 2, None)]


def _load(path, keys=("k",)):
    return gate.load_baseline(path, (4, 4, 4), keys)


def test_check_report_happy_path(tmp_path):
    pc = {"k": {"1": 100.0}}
    path = tmp_path / "base.json"
    path.write_text(json.dumps(_payload(pc)))
    assert _load(path) == pc
    assert gate.compare_phase_cycles(pc, _load(path)) == []


def test_check_report_missing_baseline(tmp_path):
    with pytest.raises(ValueError, match="does not exist"):
        _load(tmp_path / "nope.json")


def test_check_report_malformed_baseline(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        _load(path)


def test_check_report_without_phase_cycles_section(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"mesh": [4, 4, 4], "serial_s": 1.0}))
    with pytest.raises(ValueError, match="phase_cycles"):
        _load(path)


def test_check_report_mesh_mismatch(tmp_path):
    pc = {"k": {"1": 1.0}}
    path = tmp_path / "base.json"
    path.write_text(json.dumps(_payload(pc, mesh=(8, 8, 15))))
    with pytest.raises(ValueError, match="mesh"):
        _load(path)


@pytest.mark.parametrize("recorded", [("k", "extra"), (), ("other",)],
                         ids=["extra-run", "lacks-a-run", "disjoint"])
def test_check_report_key_set_mismatch(tmp_path, recorded):
    # another profile's baseline gates other runs: comparing only the
    # shared ones would pass on fewer runs than the plan has.
    path = tmp_path / "base.json"
    path.write_text(json.dumps(_payload({k: {"1": 1.0} for k in recorded})))
    with pytest.raises(ValueError, match="--profile"):
        _load(path)


def test_committed_baseline_is_current(repo_root=None):
    """The checked-in BENCH_report.json must carry the gate section."""
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "BENCH_report.json"
    doc = json.loads(path.read_text())
    assert doc["mesh"] == [4, 4, 4] and doc["profile"] == "smoke"
    assert doc["phase_cycles"]
    # the smoke plan's -solve config pins the solver phases 9-12 too.
    assert any(key.endswith("-solve") for key in doc["phase_cycles"])
    for key, phases in doc["phase_cycles"].items():
        last = 13 if key.endswith("-solve") else 9
        assert set(phases) == {str(p) for p in range(1, last)}, key
