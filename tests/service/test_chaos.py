"""The service chaos drills: every injected fault classifies safely."""

from repro.faults.chaos import (
    CLEAN,
    DEGRADED,
    RECOVERED,
    REJECTED,
    ChaosReport,
    StageReport,
)
from repro.service.chaos import SERVICE_FAULT_KINDS, run_service_campaign


def test_in_process_service_faults_all_classify_safely(tmp_path):
    rep = run_service_campaign(seed=0, out_dir=tmp_path,
                               include_kill=False)
    assert rep.ok
    by_kind = {st.kind: st for st in rep.stages}
    # every in-process service fault kind is drilled and classified.
    for kind in SERVICE_FAULT_KINDS:
        if kind == "service_kill":
            continue
        assert kind in by_kind, f"{kind} was not drilled"
    assert by_kind["hung_worker"].classification == RECOVERED
    assert by_kind["torn_entry"].classification == RECOVERED
    # the telemetry plane upgrades flood/storm from merely-safe to
    # *degraded*: the SLO breach was detected AND journaled.
    assert by_kind["submission_flood"].classification == DEGRADED
    assert by_kind["worker_failure_storm"].classification == DEGRADED
    assert by_kind["none"].classification == CLEAN  # dedup baseline
    # zero silent loss is the whole contract.
    assert rep.counts["silent"] == 0
    assert rep.counts["degraded"] == 2
    md = (tmp_path / "chaos-summary.md").read_text()
    assert "degraded" in md
    assert (tmp_path / "chaos-report.json").exists()


def test_flood_accounting_is_total(tmp_path):
    rep = run_service_campaign(seed=0, include_kill=False)
    flood = next(st for st in rep.stages
                 if st.kind == "submission_flood")
    assert any("accounted: True" in e for e in flood.evidence)
    assert any("rejection reasons" in e for e in flood.evidence)


def test_flood_and_storm_breaches_are_journaled(tmp_path):
    rep = run_service_campaign(seed=0, include_kill=False)
    by_kind = {st.kind: st for st in rep.stages}
    flood = by_kind["submission_flood"]
    assert any("breach journaled as slo_breach event: 1" in e
               for e in flood.evidence), flood.evidence
    storm = by_kind["worker_failure_storm"]
    assert any("completion-rate breach journaled: 1" in e
               for e in storm.evidence), storm.evidence
    assert any("metrics counted breaker cycle: True" in e
               for e in storm.evidence), storm.evidence


def test_rejected_is_a_first_class_classification():
    rep = ChaosReport(seed=0, mesh_dims=(4, 4, 4), plan_size=1)
    rep.stages.append(StageReport(name="s", kind="flood", target="",
                                  classification=REJECTED))
    assert rep.counts[REJECTED] == 1
    assert rep.ok  # rejected is a safe outcome, not a failure
    assert "rejected" in rep.to_markdown()


def test_degraded_is_a_safe_classification():
    rep = ChaosReport(seed=0, mesh_dims=(4, 4, 4), plan_size=1)
    rep.stages.append(StageReport(name="s", kind="flood", target="",
                                  classification=DEGRADED))
    assert rep.counts[DEGRADED] == 1
    assert rep.ok  # detected-and-journaled degradation is not silence
    assert "degraded" in rep.to_markdown()
