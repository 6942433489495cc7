"""Figure 6: phase-2 cycles, original vs VEC2 vs IVEC2.

Paper: interchanging the loops so ivect (VECTOR_SIZE elements) is
innermost yields vector instructions with vl = VECTOR_SIZE and a
speed-up of up to 7.38x over the original at VECTOR_SIZE = 256, growing
with VECTOR_SIZE.
"""

from repro.experiments import figures, report


def test_figure6(session):
    f = figures.figure6(session)

    def ratio(vs):
        i = f.xs.index(vs)
        return f.series["vanilla"][i] / f.series["ivec2"][i]

    # IVEC2 beats the original everywhere
    for i, vs in enumerate(f.xs):
        assert f.series["ivec2"][i] < f.series["vanilla"][i], vs
    # the gain grows with VECTOR_SIZE ...
    assert ratio(64) < ratio(128) < ratio(240)
    # ... reaching several-fold at the large sizes (paper: 7.38x @ 256)
    assert ratio(256) > 4.0
    # and IVEC2 crushes the counter-productive VEC2
    i = f.xs.index(256)
    assert f.series["vec2"][i] / f.series["ivec2"][i] > 3.0
    print()
    print(report.format_table(f.rows()))
