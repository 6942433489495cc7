"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

from .obs import phase_span_names


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture(scope="module")
def quick_cache(tmp_path_factory):
    """One scratch working directory for the quick-mesh runs, so their
    ``.repro_cache/`` is never the caller's: the first test that uses it
    simulates, and the rest recall its entries."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("quick-cache"))
        yield


def test_info(capsys):
    code, out = run_cli(capsys, "info")
    assert code == 0
    assert "RISC-V VEC" in out and "SX-Aurora" in out


def test_table1_and_2_static(capsys):
    code, out = run_cli(capsys, "table", "1")
    assert code == 0 and "-mepi" in out
    code, out = run_cli(capsys, "table", "2")
    assert code == 0 and "Frequency" in out


def test_table3_quick_mesh(capsys, quick_cache):
    code, out = run_cli(capsys, "table", "3", "--mesh", "quick")
    assert code == 0
    assert "% of total cycles" in out


def test_figure11(capsys, quick_cache):
    code, out = run_cli(capsys, "figure", "11", "--mesh", "quick")
    assert code == 0
    assert "vanilla" in out and "vec1" in out


def test_sweep_barchart(capsys, quick_cache):
    code, out = run_cli(capsys, "sweep", "--mesh", "quick")
    assert code == 0
    assert "#" in out and "VECTOR_SIZE = 240" in out


def test_remarks(capsys):
    code, out = run_cli(capsys, "remarks", "--opt", "vanilla", "--vs", "64")
    assert code == 0
    assert "blocked" in out and "vectorized" in out


def test_advise(capsys):
    code, out = run_cli(capsys, "advise", "--opt", "vanilla", "--vs", "240")
    assert code == 0
    assert "phase 2" in out
    assert "compile time" in out


def test_codesign_loop(capsys):
    code, out = run_cli(capsys, "codesign", "--vs", "64")
    assert code == 0
    assert "vanilla" in out and "vec1" in out and "final:" in out


def test_trace_export(tmp_path, capsys):
    out_file = tmp_path / "t.prv"
    code, out = run_cli(capsys, "trace", "--opt", "vec1", "--vs", "64",
                        "-o", str(out_file))
    assert code == 0
    assert out_file.exists()
    assert "trace written" in out
    from repro.trace import paraver

    trace = paraver.load(out_file)
    assert trace.blocks


def test_trace_preset_and_chrome_export(tmp_path, capsys):
    prv = tmp_path / "t.prv"
    chrome_json = tmp_path / "t.json"
    code, out = run_cli(capsys, "trace", "--preset", "tiny",
                        "-o", str(prv), "--out", str(chrome_json))
    assert code == 0
    assert "phase timeline" in out and "granted-vl histogram" in out
    # paraver companions land next to the .prv
    assert (tmp_path / "t.pcf").exists() and (tmp_path / "t.row").exists()
    from repro.obs import chrome
    from repro.trace import paraver

    events = chrome.load(chrome_json)
    assert len(set(phase_span_names(events))) == 8
    assert paraver.load(prv).blocks


def test_trace_chrome_export_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _ = run_cli(capsys, "trace", "--preset", "tiny",
                          "-o", str(p.with_suffix(".prv")), "--out", str(p))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_rejects_bad_table():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["table", "9"])


def test_parser_rejects_unknown_backend_listing_registry(capsys):
    # choices come from the live registry: the error names the known
    # backends instead of surfacing a KeyError deep in the stack.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "--backend", "fortran"])
    err = capsys.readouterr().err
    assert "interpreter" in err and "numpy" in err


@pytest.mark.parametrize("vs", ["0", "-8"])
def test_autotune_bad_vector_size_exits_1(vs, tmp_path, capsys,
                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["autotune", "--preset", "tiny", "--vs", vs])
    assert code == 1
    assert (f"[autotune] vector_size must be at least 1, got {vs}"
            in capsys.readouterr().err)
    assert not (tmp_path / "AUTOTUNE_report.json").exists()


@pytest.mark.parametrize("vs", ["0", "-8"])
@pytest.mark.parametrize("command", ["remarks", "passes", "advise",
                                     "codesign", "trace", "roofline"])
def test_single_run_bad_vector_size_exits_1(command, vs, tmp_path, capsys,
                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([command, "--mesh", "tiny", "--vs", vs]) == 1
    err = capsys.readouterr().err
    assert f"[{command}] vector_size must be at least 1, got {vs}" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_roofline_command(capsys):
    code, out = run_cli(capsys, "roofline", "--opt", "vec1", "--vs", "64")
    assert code == 0
    assert "ridge" in out and "phase" in out


def test_report_command_to_file(tmp_path, capsys, quick_cache):
    out_file = tmp_path / "report.txt"
    code, out = run_cli(capsys, "report", "--mesh", "quick",
                        "-o", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert "HEADLINE" in text and "Table 5" in text


def test_machine_choices_include_extensions(capsys):
    code, out = run_cli(capsys, "remarks", "--machine", "a64fx",
                        "--opt", "vanilla", "--vs", "64")
    assert code == 0


def test_jobs_flag_output_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out_parallel = run_cli(capsys, "figure", "2", "--mesh", "quick",
                                 "-j", "2")
    assert code == 0
    code, out_serial = run_cli(capsys, "figure", "2", "--mesh", "quick",
                               "-j", "1")
    assert code == 0
    assert out_parallel == out_serial


def test_bench_smoke_writes_json_report(tmp_path, capsys, monkeypatch):
    import json

    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, "bench", "--mesh", "quick",
                        "--profile", "smoke", "-j", "2",
                        "-o", "bench.json")
    assert code == 0
    assert "speedup" in out and "warm recall" in out
    payload = json.loads((tmp_path / "bench.json").read_text())
    assert payload["configs"] == 4 and payload["jobs"] == 2
    assert payload["cold_simulated"] == 4 and payload["warm_cache_hits"] == 4
    assert payload["serial_s"] > 0 and payload["parallel_s"] > 0
    assert len(payload["phase_cycles"]) == 4
    for key, phases in payload["phase_cycles"].items():
        last = 13 if key.endswith("-solve") else 9
        assert set(phases) == {str(p) for p in range(1, last)}


def test_bench_baseline_gate(tmp_path, capsys, monkeypatch):
    import json

    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(capsys, "bench", "--mesh", "tiny",
                      "--profile", "smoke", "-o", "base.json")
    assert code == 0

    # fresh report vs itself: identical, exit 0.
    code, out = run_cli(capsys, "bench", "--mesh", "tiny",
                        "--profile", "smoke", "-o", "cur.json",
                        "--baseline", "base.json")
    assert code == 0 and "gate: 4 run(s) identical" in out

    # inject a per-phase regression into the baseline: exit 1.
    doc = json.loads((tmp_path / "base.json").read_text())
    key = next(iter(doc["phase_cycles"]))
    doc["phase_cycles"][key]["6"] *= 1.15
    (tmp_path / "regressed.json").write_text(json.dumps(doc))
    code, out = run_cli(capsys, "bench", "--mesh", "tiny",
                        "--profile", "smoke", "-o", "cur2.json",
                        "--baseline", "regressed.json")
    assert code == 1
    assert "FAIL" in out and "phase 6" in out


def _committed_baseline():
    from pathlib import Path

    return Path(__file__).resolve().parents[1] / "BENCH_report.json"


def test_bench_readme_form_gates_without_overwriting(tmp_path, capsys,
                                                     monkeypatch):
    """The documented command (no ``-o``) against a baseline one cycle
    off: exit 1 naming that run and phase, the report goes to
    ``BENCH_current.json`` and the baseline is left as it was."""
    import json

    monkeypatch.chdir(tmp_path)
    doc = json.loads(_committed_baseline().read_text())
    key = sorted(doc["phase_cycles"])[1]
    doc["phase_cycles"][key]["6"] += 1.0
    base = tmp_path / "BENCH_report.json"
    base.write_text(json.dumps(doc, indent=2) + "\n")
    recorded = base.read_bytes()

    code, out = run_cli(capsys, "bench", "--mesh", "tiny",
                        "--profile", "smoke", "--baseline", "BENCH_report.json")
    assert code == 1
    assert "FAIL: 1 phase cycle count(s) over 4 run(s)" in out
    assert f"{key} phase 6: " in out
    assert base.read_bytes() == recorded
    current = json.loads((tmp_path / "BENCH_current.json").read_text())
    assert current["phase_cycles"] == json.loads(
        _committed_baseline().read_text())["phase_cycles"]


@pytest.fixture
def no_simulation(monkeypatch):
    """A spy on ``execute_plan`` that fails the test when called."""
    import repro.experiments.executor as executor

    def spy(*args, **kwargs):
        pytest.fail("repro bench simulated before rejecting its baseline")

    monkeypatch.setattr(executor, "execute_plan", spy)


def _other_profile(doc):
    from repro.experiments.executor import ExecutionPlan

    standard = ExecutionPlan.standard(tuple(doc["mesh"]))
    return {**doc, "profile": "standard", "phase_cycles": {
        cfg.key(): {"1": 1.0} for cfg in standard}}


@pytest.mark.parametrize("baseline, output", [
    (lambda doc: "{not json", "cur.json"),
    (lambda doc: {**doc, "mesh": [8, 8, 15]}, "cur.json"),
    (_other_profile, "cur.json"),
    (lambda doc: doc, "./BENCH_report.json"),
], ids=["malformed", "other-mesh", "other-profile", "output-is-baseline"])
def test_bench_rejects_baseline_before_simulating(baseline, output, tmp_path,
                                                  capsys, monkeypatch,
                                                  no_simulation):
    import json

    monkeypatch.chdir(tmp_path)
    doc = baseline(json.loads(_committed_baseline().read_text()))
    base = tmp_path / "BENCH_report.json"
    base.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    recorded = base.read_bytes()
    code = main(["bench", "--mesh", "tiny", "--profile", "smoke",
                 "-o", output, "--baseline", "BENCH_report.json"])
    assert code == 2
    assert "[bench] unusable baseline" in capsys.readouterr().err
    assert base.read_bytes() == recorded
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_report.json"]


def test_sweep_rejects_negative_jobs_before_simulating(tmp_path, capsys,
                                                      monkeypatch):
    """Only ``-j 0`` means one worker per CPU: a negative count is
    rejected by argparse (exit 2) before anything runs or is written."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--mesh", "tiny", "-j", "-3"])
    assert exc.value.code == 2
    assert "'-3' is not an integer >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bench_baseline_unusable_exits_2(tmp_path, capsys, monkeypatch,
                                        no_simulation):
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(capsys, "bench", "--mesh", "tiny",
                      "--profile", "smoke", "-o", "cur.json",
                      "--baseline", "missing.json")
    assert code == 2
    assert list(tmp_path.iterdir()) == []


def test_cli_survives_corrupted_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(capsys, "table", "3", "--mesh", "quick")
    assert code == 0
    for f in (tmp_path / ".repro_cache").glob("*.json"):
        f.write_text('{"truncated')
    code, out = run_cli(capsys, "table", "3", "--mesh", "quick")
    assert code == 0
    assert "% of total cycles" in out
