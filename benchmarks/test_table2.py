"""Table 2: HPC platforms, hardware and software configuration."""

from repro.experiments import report, tables


def test_table2():
    t = tables.table2()
    data = {r[0]: r[1:] for r in t.rows()[1:]}
    # per-core figures from the paper's Table 2
    assert data["Frequency [MHz]"] == ["50", "2100", "1600"]
    assert data["Bandwidth [Bytes/cycle]"] == ["64", "11.2", "120"]
    assert data["Throughput [FLOP/cycle]"] == ["16", "32", "192"]
    assert data["Cores per socket"] == ["1", "24", "8"]
    assert data["Compiler"] == ["flang 18.0.0", "ifort 2018.4", "nfort 5.0.2"]
    print()
    print(report.render(t))
