"""NumPy reference semantics of the eight mini-app phases.

Each ``ref_phaseN`` mirrors the corresponding IR kernel in
:mod:`repro.cfd.phases` exactly (same formulas, same array names), but
written as whole-chunk NumPy operations.  This is the fast numerical
path used by the assembly driver and the oracle the IR interpreter is
tested against: ``interpreter(phaseN kernel) == ref_phaseN`` for every
optimization variant, which is the reproduction's proof that VEC2, IVEC2
and VEC1 are pure performance transformations.

All functions mutate the ``data`` mapping in place (array name ->
ndarray), using the chunk's element ids ``elems`` to index the padded
global mesh arrays.  :data:`REF_PHASES` and :data:`PHASE_OUTPUTS` are
the one phase registry of phases 1-12: these eight plus the solver
phases of :mod:`repro.cfd.solver_phases`.
"""

from __future__ import annotations

from typing import Mapping, MutableMapping

import numpy as np

from repro.cfd.elements import HEX08, NDIME, NGAUS
from repro.cfd.solver_phases import SOLVER_PHASE_OUTPUTS, SOLVER_REF_PHASES

Data = MutableMapping[str, np.ndarray]


def ref_phase1(d: Data, params: Mapping[str, float], elems: np.ndarray) -> None:
    """Gather element-level data (properties, subscales, local dt)."""
    mate = d["lmate"][elems]
    d["eldens"][:] = d["densi_mat"][mate]
    d["elvisc"][:] = d["visco_mat"][mate]
    invalid = d["ltype"][elems] != HEX08
    d["eldens"][invalid] = 1.0
    d["elvisc"][invalid] = 1.0
    d["eldtinv"][:] = d["dtinv_fld"][elems]
    d["elchale"][:] = d["chale_fld"][elems]
    d["elsgs"][:] = d["tesgs"][elems]
    tracked = d["kfl_sgs"][elems] != 0
    d["elsgs_old"][tracked] = d["tesgs_old"][elems][tracked]


def ref_phase2(d: Data, params: Mapping[str, float], elems: np.ndarray) -> None:
    """Gather nodal unknowns and coordinates through the connectivity."""
    nodes = d["lnods"][elems]                # (V, pnode)
    d["elunk"][:] = d["unkno"][nodes]        # (V, pnode, ndofn)
    d["elold"][:] = d["unkno_old"][nodes]    # (V, pnode, ndime)
    d["elcod"][:] = d["coord"][nodes]        # (V, pnode, ndime)


def ref_phase3(d: Data, params: Mapping[str, float], elems: np.ndarray) -> None:
    """Jacobian, determinant, inverse, Cartesian derivatives, volumes."""
    elcod = d["elcod"]
    deriv = d["deriv"]
    weigp = d["weigp"]
    for g in range(NGAUS):
        xj = np.einsum("vai,ja->vij", elcod, deriv[:, :, g])
        d["xjacm"][:] = xj
        det = (
            xj[:, 0, 0] * (xj[:, 1, 1] * xj[:, 2, 2] - xj[:, 2, 1] * xj[:, 1, 2])
            - xj[:, 0, 1] * (xj[:, 1, 0] * xj[:, 2, 2] - xj[:, 2, 0] * xj[:, 1, 2])
            + xj[:, 0, 2] * (xj[:, 1, 0] * xj[:, 2, 1] - xj[:, 2, 0] * xj[:, 1, 1])
        )
        d["gpdet"][:, g] = det
        d["gpvol"][:, g] = weigp[g] * det
        invdet = 1.0 / det
        d["gpnve"][:] = invdet  # scratch reuse, as in the kernel
        xji = d["xjaci"]
        for i in range(NDIME):
            for j in range(NDIME):
                r0, r1 = (j + 1) % 3, (j + 2) % 3
                c0, c1 = (i + 1) % 3, (i + 2) % 3
                xji[:, i, j] = (
                    xj[:, r0, c0] * xj[:, r1, c1] - xj[:, r0, c1] * xj[:, r1, c0]
                ) * invdet
        d["gpcar"][:, :, :, g] = np.einsum("vji,ja->via", xji, deriv[:, :, g])


def ref_phase4(d: Data, params: Mapping[str, float], elems: np.ndarray) -> None:
    """Velocity, pressure and velocity gradient at the Gauss points."""
    elunk = d["elunk"]
    shapf = d["shapf"]
    for g in range(NGAUS):
        d["gpvel"][:, :, g] = np.einsum("a,vad->vd", shapf[:, g], elunk[:, :, :NDIME])
        d["gpold"][:, :, g] = np.einsum("a,vad->vd", shapf[:, g], d["elold"])
        d["gppre"][:, g] = elunk[:, :, 3] @ shapf[:, g]
        # gpgve[v, j, i] = du_i/dx_j
        d["gpgve"][:, :, :, g] = np.einsum(
            "vja,vad->vjd", d["gpcar"][:, :, :, g], elunk[:, :, :NDIME])


def ref_phase5(d: Data, params: Mapping[str, float], elems: np.ndarray) -> None:
    """Stabilization parameters + elemental accumulator initialization."""
    v0 = d["gpvel"][:, :, 0]
    d["gpnve"][:] = np.sqrt(np.einsum("vd,vd->v", v0, v0))
    h = d["elchale"]
    d["tau1"][:] = 1.0 / (
        (params["tau_c1"] * d["elvisc"]) / (h * h)
        + (params["tau_c2"] * (d["eldens"] * d["gpnve"])) / h
    )
    d["tau2"][:] = (h * h) / (params["tau_c1"] * d["tau1"])
    d["elauu"][:] = 0.0
    d["elrbu"][:] = 0.0
    d["elrbp"][:] = 0.0


def ref_phase6(d: Data, params: Mapping[str, float], elems: np.ndarray) -> None:
    """Convective term + VMS stabilization contributions."""
    shapf = d["shapf"]
    for g in range(NGAUS):
        gpcar = d["gpcar"][:, :, :, g]           # (V, ndime, pnode)
        gpvel = d["gpvel"][:, :, g]              # (V, ndime)
        gpadv = gpvel + 0.5 * (d["elsgs"][:, :, g] + d["elsgs_old"][:, :, g])
        d["gpadv"][:] = gpadv
        gpaux = np.einsum("vd,vda->va", gpadv, gpcar)
        d["gpaux"][:] = gpaux
        gprhs = (
            d["eldens"][:, None] * (d["eldtinv"][:, None] * d["gpold"][:, :, g])
            - d["eldens"][:, None]
            * np.einsum("vj,vjd->vd", gpvel, d["gpgve"][:, :, :, g])
        )
        d["gprhs"][:] = gprhs
        w = d["gpvol"][:, g]
        test = shapf[None, :, g] + d["tau1"][:, None] * gpaux   # (V, pnode)
        # elauu[v, j, i] += w rho (a.grad N_i) (N_j + tau1 (a.grad N_j))
        d["elauu"] += np.einsum(
            "v,vi,vj->vji", w * d["eldens"], gpaux, test)
        # grad-div stabilization
        divshape = gpcar.sum(axis=1)             # (V, pnode)
        d["elauu"] += np.einsum(
            "v,vj,vi->vji", w * d["tau2"], divshape, divshape)
        # elrbu[v, d, i] += w rhs_d (N_i + tau1 (a.grad N_i))
        d["elrbu"] += np.einsum("v,vd,vi->vdi", w, gprhs, test)
        # elrbp[v, a] += w tau1 (grad N_a . rhs)
        d["elrbp"] += (w * d["tau1"])[:, None] * np.einsum(
            "vda,vd->va", gpcar, gprhs)


def ref_phase7(d: Data, params: Mapping[str, float], elems: np.ndarray) -> None:
    """Viscous term (semi-implicit elemental matrix, full stress form)."""
    for g in range(NGAUS):
        gpcar = d["gpcar"][:, :, :, g]
        w = d["gpvol"][:, g] * d["elvisc"]
        lap = np.einsum("vdi,vdj->vji", gpcar, gpcar)
        divshape = gpcar.sum(axis=1)                 # (V, pnode)
        d["gpaux"][:] = divshape
        bulk = (1.0 / 3.0) * np.einsum("vi,vj->vji", divshape, divshape)
        d["elauu"] += w[:, None, None] * (lap + bulk)


def ref_phase8(d: Data, params: Mapping[str, float], elems: np.ndarray) -> None:
    """Valid-element check + scatter into the global RHS and CSR matrix."""
    valid = d["ltype"][elems] == HEX08
    nodes = d["lnods"][elems][valid]             # (nv, pnode)
    # momentum RHS: elrbu[v, d, a] -> rhsid[node, d]
    vals_u = d["elrbu"][valid].transpose(0, 2, 1)   # (nv, pnode, ndime)
    np.add.at(d["rhsid"], (nodes[:, :, None], np.arange(NDIME)[None, None, :]),
              vals_u)
    # continuity RHS: elrbp[v, a] -> rhsid[node, 3]
    np.add.at(d["rhsid"], (nodes, NDIME), d["elrbp"][valid])
    # elemental matrix: elauu[v, j, i] -> amatr[elpos[e, j, i]]
    pos = d["elpos"][elems][valid]               # (nv, pnode, pnode)
    np.add.at(d["amatr"], pos.ravel(), d["elauu"][valid].ravel())


#: reference implementations keyed by phase id, 1-12.
REF_PHASES = {
    1: ref_phase1, 2: ref_phase2, 3: ref_phase3, 4: ref_phase4,
    5: ref_phase5, 6: ref_phase6, 7: ref_phase7, 8: ref_phase8,
    **SOLVER_REF_PHASES,
}

#: stable output arrays of each phase, 1-12: what the golden checks
#: (:mod:`repro.validation.golden`) compare and the digest rungs
#: (:mod:`repro.validation.digests`) hash.  Pure per-Gauss-point scratch
#: (``xjacm``, ``xjaci``, ``gpadv``, ``gprhs``, ``gpaux``) is excluded:
#: only the final Gauss iteration survives and fused kernels may legally
#: skip the stores.
PHASE_OUTPUTS: dict[int, tuple[str, ...]] = {
    1: ("eldens", "elvisc", "eldtinv", "elchale", "elsgs", "elsgs_old"),
    2: ("elunk", "elold", "elcod"),
    3: ("gpdet", "gpvol", "gpcar"),
    4: ("gpvel", "gpold", "gppre", "gpgve"),
    5: ("gpnve", "tau1", "tau2", "elauu", "elrbu", "elrbp"),
    6: ("elauu", "elrbu", "elrbp"),
    7: ("elauu",),
    8: ("rhsid", "amatr"),
    **SOLVER_PHASE_OUTPUTS,
}


def run_reference_chunk(d: Data, params: Mapping[str, float],
                        elems: np.ndarray) -> None:
    """Run the eight assembly phases on one chunk."""
    for phase in range(1, 9):
        REF_PHASES[phase](d, params, elems)
