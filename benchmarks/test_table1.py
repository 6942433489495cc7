"""Table 1: compiler options used for enabling auto-vectorization."""

from repro.experiments import report, tables


def test_table1():
    t = tables.table1()
    flags = dict(t.flags)
    # the paper's eight flags
    assert len(flags) == 8
    assert "-O3" in flags
    assert "-ffp-contract=fast" in flags
    assert "-mepi" in flags
    assert "-mcpu=avispado" in flags
    assert "-combiner-store-merging=0" in flags
    assert "-vectorizer-use-vp-strided-load-store" in flags
    assert "-disable-loop-idiom-memcpy" in flags
    assert "-disable-loop-idiom-memset" in flags
    print()
    print(report.render(t))
