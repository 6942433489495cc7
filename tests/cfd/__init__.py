"""Tests of the CFD mini-app."""

import numpy as np

from repro.cfd.elements import hex08_basis
from repro.cfd.mesh import Mesh


def mesh_volume(mesh: Mesh) -> float:
    """Total mesh volume by HEX08 Gauss quadrature of each element's
    Jacobian determinant."""
    basis = hex08_basis()
    elcod = mesh.coord[mesh.lnods]  # (nelem, 8, 3)
    vol = 0.0
    for g in range(basis.weigp.size):
        jac = np.einsum("eai,ja->eij", elcod, basis.deriv[:, :, g])
        vol += basis.weigp[g] * np.abs(np.linalg.det(jac)).sum()
    return float(vol)
