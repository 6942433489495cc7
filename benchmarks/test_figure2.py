"""Figure 2: total cycles of the vanilla auto-vectorized mini-app per
VECTOR_SIZE.

Paper: VECTOR_SIZE strongly matters; 240 is the fastest configuration
(the Vitruvius FSM sweet spot), 16 the slowest by far.
"""

from repro.experiments import figures, report


def test_figure2(session):
    f = figures.figure2(session)
    cycles = dict(zip(f.xs, f.series["total cycles"]))
    assert min(cycles, key=cycles.get) == 240
    assert max(cycles, key=cycles.get) == 16
    # 256 is worse than 240 despite the higher occupancy
    assert cycles[256] > cycles[240]
    # large VECTOR_SIZE values beat small ones overall
    assert cycles[64] < cycles[16]
    print()
    print(report.format_table(f.rows()))
