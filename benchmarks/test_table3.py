"""Table 3: percentage of total cycles spent per phase (scalar build).

Paper: {1.3, 3.3, 19.8, 14.5, 3.5, 41.0, 14.7, 2.0}% -- phase 6
dominates, and phases 3, 4, 6, 7 together account for ~90% of cycles.
"""

from repro.experiments import report, tables


def test_table3(session):
    t = tables.table3(session)
    fr = t.fractions
    # phase 6 is the dominant phase by a wide margin
    assert fr[6] == max(fr.values())
    assert fr[6] > 0.30
    # the four heavy phases carry (almost) all the work
    heavy = fr[3] + fr[4] + fr[6] + fr[7]
    assert heavy > 0.85
    # gather/scatter phases are small in the scalar build
    assert fr[1] < 0.05 and fr[2] < 0.06 and fr[8] < 0.06
    print()
    print(report.render(t))
