"""Figure 7: phase-1 cycles, original vs VEC1 (loop fission).

Paper: fission lets WORK B run with vector instructions while WORK A
stays scalar, so the gain is bounded (~2x at VECTOR_SIZE = 512,
1.03-1.56x at the other sizes) -- much smaller than IVEC2's.
"""

from repro.experiments import figures, report


def test_figure7(session):
    f = figures.figure7(session)

    def ratio(vs):
        i = f.xs.index(vs)
        return f.series["vanilla"][i] / f.series["vec1"][i]

    # fission always helps ...
    for vs in f.xs:
        assert ratio(vs) >= 1.0, vs
    # ... modestly at VECTOR_SIZE = 16
    assert ratio(16) < 1.4
    # ... and at most around 2x (WORK A remains scalar: Amdahl)
    assert max(ratio(vs) for vs in f.xs) < 2.6
    assert max(ratio(vs) for vs in f.xs) > 1.4
    # gain grows from small to large VECTOR_SIZE
    assert ratio(16) < ratio(240)
    print()
    print(report.format_table(f.rows()))
