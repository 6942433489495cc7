"""Figure 5: phase-2 cycles, original vs VEC2.

Paper: making the bound a compile-time constant lets the compiler
vectorize the *short* inner copy loops (AVL = 4) -- and performance gets
WORSE: "enabling auto-vectorization of phase 2 has been
counter-productive and degraded the performance".
"""

from repro.experiments import figures, report


def test_figure5(session):
    f = figures.figure5(session)
    for i, vs in enumerate(f.xs):
        if vs == 16:
            continue  # the paper exempts VECTOR_SIZE = 16
        assert f.series["vec2"][i] > f.series["vanilla"][i], vs
    # the regression is significant, not marginal
    i = f.xs.index(240)
    assert f.series["vec2"][i] / f.series["vanilla"][i] > 1.15
    print()
    print(report.format_table(f.rows()))
