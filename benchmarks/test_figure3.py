"""Figure 3: absolute number and type of vector instructions per
VECTOR_SIZE (vanilla auto-vectorization).

Paper: the count decreases as VECTOR_SIZE grows (more elements per
instruction), ~70% of vector instructions are memory type, and no
control-lane vector instructions execute.
"""

from repro.experiments import figures, report


def test_figure3(session):
    f = figures.figure3(session)
    total = {
        vs: f.series["arithmetic"][i] + f.series["memory"][i]
        + f.series["control_lane"][i]
        for i, vs in enumerate(f.xs)
    }
    # counts shrink as VECTOR_SIZE grows (up to the vl_max saturation)
    assert total[64] > total[128] > total[240] >= total[256]
    # VECTOR_SIZE = 512 saturates at vl_max = 256: same count as 256
    assert abs(total[512] - total[256]) / total[256] < 0.05
    # memory instructions dominate the mix
    for i, vs in enumerate(f.xs):
        if total[vs] == 0:
            continue
        mem_share = f.series["memory"][i] / total[vs]
        assert mem_share > 0.5, vs
    # no control-lane instructions in the vanilla build (paper's note)
    assert all(v == 0 for v in f.series["control_lane"])
    print()
    print(report.format_table(f.rows()))
