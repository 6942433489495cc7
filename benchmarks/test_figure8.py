"""Figure 8: percentage of cycles per phase after all optimizations.

Paper: phases 1 and 2 shrink to a narrow share; the non-vectorized
phase 8 keeps growing with VECTOR_SIZE; the other phases are roughly
constant for VECTOR_SIZE >= 128.
"""

from repro.experiments import figures, report


def test_figure8(session):
    f = figures.figure8(session)
    before = figures.figure4(session)

    def share(fig, phase, vs):
        return fig.series[f"phase {phase}"][fig.xs.index(vs)]

    # the optimized phases now take a much narrower share than in Fig. 4
    for vs in (240, 256, 512):
        assert share(f, 2, vs) < 0.6 * share(before, 2, vs), vs
        assert share(f, 1, vs) < share(before, 1, vs) * 1.05, vs
    # phase 8 (never vectorized) keeps growing with VECTOR_SIZE
    assert share(f, 8, 512) > share(f, 8, 64)
    # percentages are a partition
    for i in range(len(f.xs)):
        assert abs(sum(f.series[k][i] for k in f.series) - 100.0) < 0.1
    print()
    print(report.format_table(f.rows()))
