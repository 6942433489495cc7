"""Figure 4: percentage of cycles per phase after vanilla
auto-vectorization.

Paper: the heavy phases that took ~90% of the scalar time drop to ~50%,
while the non-vectorized gather phases (1 and 2) grow dramatically with
VECTOR_SIZE -- the motivation for attacking phase 2 first.
"""

from repro.experiments import figures, report, tables


def test_figure4(session):
    f = figures.figure4(session)
    scalar = tables.table3(session).fractions

    def share(phase, vs):
        return f.series[f"phase {phase}"][f.xs.index(vs)]

    # the non-vectorized phases grow far beyond their scalar share
    for vs in (240, 256, 512):
        assert share(2, vs) > 100 * scalar[2] * 2.0
        assert share(8, vs) > 100 * scalar[8] * 2.0
    # gather+scatter phases become a major fraction at large VECTOR_SIZE
    unvec = share(1, 256) + share(2, 256) + share(8, 256)
    assert unvec > 25.0
    # the heavy vectorized phases no longer dominate as before
    heavy = sum(share(p, 256) for p in (3, 4, 6, 7))
    assert heavy < 75.0
    # phase 2 is the top optimization target among the gather phases
    assert share(2, 256) > share(1, 256)
    print()
    print(report.format_table(f.rows()))
