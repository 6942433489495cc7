"""Beyond the paper: mesh numbering and indexed-access locality.

The paper attributes phase-8's cost growth to "the complexity of indexed
memory accesses".  Indexed access cost is a function of the mesh's node
numbering: a well-ordered (lexicographic) mesh keeps the gather/scatter
footprints of consecutive elements on shared cache lines, a randomly
renumbered mesh destroys that locality.  This experiment quantifies the
effect -- the kind of data-layout study the co-design methodology feeds
back to application developers.
"""

import pytest

from repro.cfd.assembly import MiniApp
from repro.cfd.mesh import box_mesh
from repro.experiments.config import QUICK_MESH
from repro.machine.machines import RISCV_VEC


def test_random_renumbering_hurts_gather_scatter_phases():
    ordered = box_mesh(*QUICK_MESH)
    shuffled = box_mesh(*QUICK_MESH, renumber_seed=7)

    def run(mesh):
        r = MiniApp(mesh, vector_size=240, opt="vec1").run_timed(RISCV_VEC)
        return {
            "total": r.total_cycles,
            "p2_misses": r.phases[2].l1_misses,
            "p8_misses": r.phases[8].l1_misses,
            "p2": r.phases[2].cycles_total,
            "p8": r.phases[8].cycles_total,
            "p6": r.phases[6].cycles_total,
        }

    o, s = run(ordered), run(shuffled)
    # random node ids scatter the gather/scatter footprints: more misses
    assert s["p2_misses"] > 1.5 * o["p2_misses"]
    assert s["p8_misses"] > 1.25 * o["p8_misses"]
    # which costs cycles in exactly those phases ...
    assert s["p2"] > 1.05 * o["p2"]
    assert s["p8"] > 1.05 * o["p8"]
    # ... while the element-local compute phases are unaffected
    assert s["p6"] == pytest.approx(o["p6"], rel=0.02)
    # and the whole mini-app pays
    assert s["total"] > o["total"]
    print(f"\nordered total={o['total']:.4g}, shuffled total={s['total']:.4g} "
          f"(+{100 * (s['total'] / o['total'] - 1):.1f}%); "
          f"p8 misses x{s['p8_misses'] / o['p8_misses']:.1f}")
