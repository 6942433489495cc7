"""The tuner pipeline: pruned-never-timed, determinism, the CI fixture."""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.autotune import (
    VEC1_PASSES,
    run_autotune,
    validate_schedule,
)
from repro.autotune.costmodel import ScheduleCostModel
from repro.autotune.space import enumerate_candidates
from repro.experiments.executor import simulate_to_dict
from repro.machine.machines import get_machine
from repro.validation import digests
from repro.validation.probe import Probe

FIXTURE = Path(__file__).parent.parent / "fixtures" / "autotune_winners.json"

#: cheap but non-trivial tuning configuration for unit tests (the CI
#: fixture test below runs the real --preset tiny configuration once).
SMALL = dict(machine="riscv_vec", vector_size=80, profile="smoke", seed=0)


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    cache = tmp_path_factory.mktemp("autotune-cache")
    return run_autotune((3, 2, 2), cache_dir=cache, **SMALL)


# ---------------------------------------------------------------------------
# pruned candidates are never executed
# ---------------------------------------------------------------------------


def test_pruned_candidates_never_timed(tmp_path):
    timed_keys = []

    def spy(cfg):
        timed_keys.append(cfg.key())
        return simulate_to_dict(cfg)

    rep = run_autotune((3, 2, 2), cache_dir=tmp_path / "cache",
                       use_disk=False, worker=spy, **SMALL)
    pruned = [c for c in rep.candidates if c.status == "pruned"]
    assert pruned, "expected the cost model to prune something"
    pruned_markers = {"passes[" + ",".join(c.schedule) + "]"
                      for c in pruned}
    for key in timed_keys:
        for marker in pruned_markers:
            assert marker not in key, (
                f"pruned schedule was executed: {key}")
    # and everything that reported cycles really was executed.
    assert len(timed_keys) == rep.counts["timed"]


def test_every_timed_candidate_passed_the_digest_ladder(small_report):
    for c in small_report.timed():
        assert c.digest_ok is True
        assert c.cycles_total is not None
        assert c.phase_cycles


def test_prune_reasons_recorded(small_report):
    for c in small_report.candidates:
        if c.status == "pruned":
            assert c.prune_reason
            assert c.cycles_total is None


# ---------------------------------------------------------------------------
# determinism: the CI diff contract
# ---------------------------------------------------------------------------


def test_report_is_byte_deterministic(small_report, tmp_path):
    again = run_autotune((3, 2, 2), cache_dir=tmp_path / "cache2",
                         **SMALL)
    assert again.to_json() == small_report.to_json()


def test_seed_changes_the_report(tmp_path):
    other = run_autotune((3, 2, 2), cache_dir=tmp_path / "cache",
                         machine="riscv_vec", vector_size=80,
                         profile="smoke", seed=1)
    assert other.seed == 1  # different seed is stamped in the report


# ---------------------------------------------------------------------------
# winners + the VEC1 verdict
# ---------------------------------------------------------------------------


def test_small_run_rediscovers_vec1(small_report):
    fam = small_report.vec1_family
    assert fam["rediscovered"] is True
    for w in small_report.winners_per_phase.values():
        bases = {s.partition(":")[0] for s in w["schedule"]}
        assert bases <= set(VEC1_PASSES)


@pytest.mark.parametrize("machine,profile", [("riscv_vec", "standard"),
                                             ("sx_aurora", "smoke"),
                                             ("mn4_avx512", "smoke")])
def test_tiny_preset_rediscovers_vec1(machine, profile, tmp_path):
    """README's claim on ``repro autotune --preset tiny``: the VEC1-family
    verdict holds at every strip size (the standard profile validates
    every legal one, masked tails included) and on the other two
    presets."""
    rep = run_autotune((4, 4, 4), machine=machine, profile=profile,
                       cache_dir=tmp_path / "cache")
    fam = rep.to_dict()["vec1_family"]
    assert fam["rediscovered"] is True, fam


def test_winner_table_renders(small_report):
    md = small_report.winner_table_markdown()
    assert "| phase |" in md
    assert "rediscovered the paper's VEC1-family schedule" in md
    rows = small_report.winner_rows()
    assert rows[0][0] == "phase" and rows[-1][0] == "total"


@pytest.mark.parametrize("vs", [0, -8])
def test_bad_vector_size_rejected_before_the_digest_probes(vs, tmp_path):
    """The RunConfig check fires before any probe runs: no
    ZeroDivisionError, no NumPy "negative dimensions" error."""
    with pytest.raises(ValueError,
                       match=f"vector_size must be at least 1, got {vs}"):
        run_autotune((3, 2, 2), machine="riscv_vec", vector_size=vs,
                     profile="smoke", cache_dir=tmp_path / "cache")


def test_validate_schedule_rejects_nothing_legal():
    assert validate_schedule(("const-trip-count", "loop-interchange"),
                             vector_size=8)


def test_validation_builds_each_probe_app_once(monkeypatch):
    """The assembly and the solver digest ladders of a probe share one
    build, and the empty schedule is the honest probe: validating three
    schedules builds the honest baseline's app and the two other
    candidates', once each, and holds none afterwards."""
    for memo in (digests._honest_digests, digests._honest_solver_digests):
        memo.cache_clear()
    built = Counter()
    build = Probe.build_app

    def counted(probe):
        built[probe] += 1
        return build(probe)

    monkeypatch.setattr(Probe, "build_app", counted)
    schedules = [
        (),
        ("const-trip-count",),
        ("const-trip-count", "loop-interchange", "loop-fission"),
    ]
    assert validate_schedule((), vector_size=16)
    assert built == Counter({Probe(vector_size=16): 1})
    for schedule in schedules[1:]:
        assert validate_schedule(schedule, vector_size=16)
    assert len(built) == len(schedules)
    assert set(built.values()) == {1}
    assert not digests._handoff


# ---------------------------------------------------------------------------
# the committed CI fixture (the discovered-schedule ledger)
# ---------------------------------------------------------------------------


def test_ci_fixture_matches_a_fresh_tiny_run(tmp_path):
    """The ledger contract: ``repro autotune --preset tiny --profile
    smoke`` must keep reproducing the committed winners byte-for-byte
    (CI runs the CLI; this test runs the library with the identical
    configuration)."""
    fixture = json.loads(FIXTURE.read_text())
    rep = run_autotune((4, 4, 4), machine=fixture["machine"],
                       vector_size=fixture["vector_size"],
                       profile=fixture["profile"], seed=fixture["seed"],
                       cache_dir=tmp_path / "cache")
    got = rep.to_dict()
    assert got["winners"] == fixture["winners"]
    assert got["vec1_family"] == fixture["vec1_family"]
    assert got["vec1_family"]["rediscovered"] is True


def test_fixture_enumeration_covers_the_strip_family():
    """The tiny CI configuration really searches the mod-40 strip
    variants -- the rediscovery claim is meaningless otherwise."""
    fixture = json.loads(FIXTURE.read_text())
    cands = enumerate_candidates(get_machine(fixture["machine"]),
                                 fixture["vector_size"],
                                 fixture["profile"])
    assert any("strip-mine:40" in c for c in cands)
    model = ScheduleCostModel(params=get_machine(fixture["machine"]),
                              vector_size=fixture["vector_size"])
    survivors = [c for c in cands if model.prune_reason(c) is None]
    assert any("strip-mine:40" in c for c in survivors)
