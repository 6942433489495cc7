"""Table 4: vanilla vector instruction mix M_v per (VECTOR_SIZE, phase).

Paper: phases 1, 2 and 8 never vectorize; at VECTOR_SIZE = 16 only
phase 7 shows a substantial mix (24.6%), with traces in phases 3 and 6;
from VECTOR_SIZE = 64 phases 3-7 sit in the ~13-26% band, roughly flat
in VECTOR_SIZE.
"""

from repro.experiments import report, tables
from repro.experiments.config import VECTOR_SIZES


def test_table4(session):
    t = tables.table4(session)
    for vs in VECTOR_SIZES:
        row = t.mix[vs]
        assert row[1] == 0.0 and row[2] == 0.0 and row[8] == 0.0, vs
    # VS=16: phase 7 clearly vectorized, phases 4 and 5 not at all
    r16 = t.mix[16]
    assert r16[7] > 0.10
    assert r16[4] == 0.0 and r16[5] == 0.0
    assert r16[7] > r16[3] and r16[7] > r16[6]
    # VS >= 64: all compute phases vectorized with a meaningful mix
    for vs in (64, 128, 240, 256, 512):
        for phase in (3, 4, 5, 6, 7):
            assert t.mix[vs][phase] > 0.08, (vs, phase)
    # the mix is roughly flat in VECTOR_SIZE (data layout effect only)
    for phase in (3, 6, 7):
        vals = [t.mix[vs][phase] for vs in (64, 128, 240, 256)]
        assert max(vals) / min(vals) < 1.5, phase
    print()
    rows = t.rows()
    print(report.format_table(rows))
