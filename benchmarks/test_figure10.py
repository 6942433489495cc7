"""Figure 10: vector occupancy E_v per phase.

Paper: occupancy approaches 100% as VECTOR_SIZE nears the 256-element
register size; phase 8 is omitted (never vectorized).
"""

from repro.experiments import figures, report


def test_figure10(session):
    f = figures.figure10(session)
    assert "phase 8" not in f.series

    def occ(phase, vs):
        return f.series[f"phase {phase}"][f.xs.index(vs)]

    # near-full occupancy at VECTOR_SIZE = 256 for the vectorized phases
    for p in (1, 2, 3, 4, 6, 7):
        assert occ(p, 256) > 90.0, p
        # and monotone growth up to the register size
        assert occ(p, 64) < occ(p, 128) < occ(p, 256) + 1e-9, p
    # VECTOR_SIZE = 240 deliberately leaves ~6% of the register unused
    assert 90.0 < occ(6, 240) < 95.0
    # saturation: 512 cannot exceed 100%
    for p in (3, 6, 7):
        assert occ(p, 512) <= 100.0 + 1e-9
    print()
    print(report.format_table(f.rows()))
