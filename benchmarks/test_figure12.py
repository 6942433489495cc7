"""Figure 12: speed-up of the optimized code over the original
auto-vectorized code, on the three platforms.

Paper: the enhancements apply to all platforms; the RISC-V gain grows
with VECTOR_SIZE (up to 1.45x); SX-Aurora follows the same trend up to
VECTOR_SIZE = 256 and then the speed-up decreases (the weight of the
non-vectorized indexed-access-heavy phase 8 grows); MareNostrum 4 sees
gains driven by phase-2 cache-miss and instruction reductions.
"""

from repro.experiments import figures, report


def test_figure12(session):
    f = figures.figure12(session)

    def sp(machine, vs):
        return f.series[machine][f.xs.index(vs)]

    # "performance benefits, or at the very least, no drawbacks"
    for machine in f.series:
        for vs in f.xs:
            assert sp(machine, vs) > 0.97, (machine, vs)
    # RISC-V: the gain grows with VECTOR_SIZE into the large sizes
    assert sp("riscv_vec", 16) < sp("riscv_vec", 128) < sp("riscv_vec", 256)
    assert sp("riscv_vec", 256) > 1.1
    # NEC: same trend up to 256, then decreasing (phase-8 weight)
    assert sp("sx_aurora", 64) < sp("sx_aurora", 240)
    assert sp("sx_aurora", 512) < sp("sx_aurora", 256)
    assert sp("sx_aurora", 240) > 1.1
    # MareNostrum 4 also benefits at the large sizes
    assert sp("mn4_avx512", 256) > 1.02
    print()
    print(report.format_table(f.rows()))
