"""Figure 13: MareNostrum 4 -- overall vs phase-2 speed-up.

Paper: the overall MN4 gain is explained by phase 2 (fewer L1/L2 misses
and fewer executed instructions after IVEC2); the phase-2 speed-up is
much larger than the overall one.
"""

from repro.experiments import figures, report


def test_figure13(session):
    f = figures.figure13(session)

    def overall(vs):
        return f.series["mini-app"][f.xs.index(vs)]

    def phase2(vs):
        return f.series["phase 2"][f.xs.index(vs)]

    for vs in (64, 128, 240, 256, 512):
        # phase 2 improves substantially ...
        assert phase2(vs) > 1.3, vs
        # ... and drives a (smaller) overall gain
        assert phase2(vs) > overall(vs), vs
        assert overall(vs) > 0.97, vs
    # amplitude check: phase 2 is a multiple, the overall is modest
    assert max(phase2(vs) for vs in f.xs) > 2.0
    assert max(overall(vs) for vs in f.xs) < 2.0
    print()
    print(report.format_table(f.rows()))
