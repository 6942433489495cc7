"""Figure 11: speed-up with respect to scalar VECTOR_SIZE = 16, per
cumulative optimization.

Paper: vanilla auto-vectorization reaches 3-6x peaking at VECTOR_SIZE =
240; VEC2 is a regression; IVEC2 overtakes the original everywhere; the
full optimization chain reaches 7.6x at VECTOR_SIZE = 240, close to the
8x ideal of the 8-lane VPU.
"""

from repro.experiments import figures, report


def test_figure11(session):
    f = figures.figure11(session)

    def sp(opt, vs):
        return f.series[opt][f.xs.index(vs)]

    # peak at VECTOR_SIZE = 240 for every optimization level
    for opt in ("vanilla", "ivec2", "vec1"):
        peaks = {vs: sp(opt, vs) for vs in f.xs}
        assert max(peaks, key=peaks.get) == 240, opt
    # the headline: final speed-up lands near the paper's 7.6x,
    # below the 8-lane ideal's neighbourhood
    assert 6.5 <= sp("vec1", 240) <= 9.0
    # vanilla reaches a healthy multiple of scalar
    assert sp("vanilla", 240) > 5.0
    # VEC2 is counter-productive relative to vanilla (paper's point)
    for vs in (64, 128, 240, 256, 512):
        assert sp("vec2", vs) < sp("vanilla", vs), vs
    # cumulative ordering beyond VEC2: ivec2 > vanilla, vec1 >= ivec2
    for vs in (64, 128, 240, 256, 512):
        assert sp("ivec2", vs) > sp("vanilla", vs), vs
        assert sp("vec1", vs) >= sp("ivec2", vs), vs
    # final gain over plain auto-vectorization (paper: up to ~1.3x)
    assert sp("vec1", 240) / sp("vanilla", 240) > 1.08
    print()
    print(report.format_table(f.rows()))
