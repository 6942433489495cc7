"""Table 6: coefficient of determination for phases 1 and 8.

Paper: regressing the per-phase cycles on L1 data-cache misses per
kilo-instruction and the percentage of memory instructions explains the
anomalous VECTOR_SIZE scaling of phase 1 (R^2 = 0.903) and phase 8
(R^2 = 0.966).
"""

from repro.experiments import report, tables


def test_table6(session):
    t = tables.table6(session)
    assert set(t.results) == {1, 8}
    # the memory model explains most of the variance
    assert t.results[1].r_squared > 0.75
    assert t.results[8].r_squared > 0.75
    assert t.results[1].r_squared <= 1.0
    assert t.results[8].r_squared <= 1.0
    print()
    print(report.render(t))
