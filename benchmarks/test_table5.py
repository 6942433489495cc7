"""Table 5: vCPI, AVL and vector instruction count of phase 6.

Paper: AVL equals VECTOR_SIZE (saturating at the 256-element register);
the instruction count is inversely proportional to AVL; vCPI grows with
the vector length but *sublinearly* (64 -> 128 doubles the elements but
raises vCPI by only ~1.2x), and exceeds the 32-cycle FMA latency at
vl = 256.
"""

import pytest

from repro.experiments import report, tables


def test_table5(session):
    t = tables.table5(session)
    # AVL = min(VECTOR_SIZE, vl_max)
    for vs in (16, 64, 128, 240, 256):
        assert t.per_vs[vs][1] == pytest.approx(vs, rel=0.02)
    assert t.per_vs[512][1] == pytest.approx(256, rel=0.02)
    # instruction count inversely proportional to AVL
    n64, n128, n256, n512 = (t.per_vs[v][2] for v in (64, 128, 256, 512))
    assert n64 / n128 == pytest.approx(2.0, rel=0.1)
    assert n128 / n256 == pytest.approx(2.0, rel=0.1)
    assert n512 == pytest.approx(n256, rel=0.02)
    # vCPI monotone increasing in the vector length
    vcpis = [t.per_vs[v][0] for v in (16, 64, 128, 240, 256, 512)]
    assert vcpis == sorted(vcpis)
    # ... but sublinear: doubling 64 -> 128 costs well under 2x
    assert t.per_vs[128][0] / t.per_vs[64][0] < 1.8
    # at vl=256 the vCPI exceeds the ~32-cycle FMA latency: memory and
    # arithmetic pipelines are not fully overlapped (paper's remark)
    assert t.per_vs[256][0] > 32.0
    print()
    print(report.render(t))
