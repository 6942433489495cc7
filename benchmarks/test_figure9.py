"""Figure 9: percentage of cycles w.r.t. VECTOR_SIZE = 16 per phase.

Paper: well-vectorized phases drop toward ~20-30% of their VS=16 cost
as VECTOR_SIZE grows; phases 1 and 8 deviate from that trend (they stay
near or above their VS=16 cost), which Table 6 attributes to cache
misses and memory-instruction ratio.
"""

from repro.experiments import figures, report


def test_figure9(session):
    f = figures.figure9(session)

    def pct(phase, vs):
        return f.series[f"phase {phase}"][f.xs.index(vs)]

    # every phase starts at 100% by construction
    for p in range(1, 9):
        assert abs(pct(p, 16) - 100.0) < 1e-6
    # vectorized phases fall well below 100% at the sweet spot
    for p in (2, 3, 4, 6, 7):
        assert pct(p, 240) < 45.0, p
    # phases 1 and 8 deviate: they do NOT enjoy the same scaling
    assert pct(8, 512) > 70.0
    assert pct(1, 512) > 45.0
    assert pct(8, 512) > pct(6, 512)
    assert pct(1, 512) > pct(3, 512)
    print()
    print(report.format_table(f.rows()))
