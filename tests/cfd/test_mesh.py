"""Tests for the unstructured hexahedral mesh substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cfd.elements import HEX08, PNODE
from repro.cfd.mesh import Mesh, box_mesh, chunk_range

from . import mesh_volume


def test_box_mesh_counts():
    m = box_mesh(3, 2, 4)
    assert m.nelem == 24
    assert m.npoin == 4 * 3 * 5
    assert m.lnods.shape == (24, PNODE)
    assert np.all(m.ltype == HEX08)


def test_connectivity_references_valid_unique_nodes():
    m = box_mesh(3, 3, 3)
    assert m.lnods.min() >= 0 and m.lnods.max() < m.npoin
    # each element's 8 nodes are distinct
    for e in range(m.nelem):
        assert len(set(m.lnods[e])) == PNODE


def test_total_volume_matches_box():
    m = box_mesh(3, 2, 2, lengths=(2.0, 1.0, 3.0))
    assert mesh_volume(m) == pytest.approx(6.0, rel=1e-12)


def test_renumbering_preserves_geometry():
    plain = box_mesh(3, 3, 3)
    shuffled = box_mesh(3, 3, 3, renumber_seed=42)
    assert mesh_volume(shuffled) == pytest.approx(mesh_volume(plain))
    # node ids actually changed
    assert not np.array_equal(plain.lnods, shuffled.lnods)


def test_chunks_exact_division():
    chunks = chunk_range(16, 8)
    assert len(chunks) == 2
    assert all(c.size == 8 for c in chunks)
    assert all(c.n_real == 8 for c in chunks)
    ids = np.concatenate([c.elements for c in chunks])
    np.testing.assert_array_equal(ids, np.arange(16))


def test_mesh_validation():
    m = box_mesh(2, 2, 2)
    bad = m.lnods.copy()
    bad[0, 0] = 999
    with pytest.raises(ValueError):
        Mesh(coord=m.coord, lnods=bad, ltype=m.ltype, lmate=m.lmate)
    with pytest.raises(ValueError):
        Mesh(coord=m.coord, lnods=m.lnods, ltype=m.ltype[:-1], lmate=m.lmate)


def test_node_coordinates_lexicographic():
    m = box_mesh(2, 2, 2, lengths=(2.0, 2.0, 2.0))
    # node id = ix + iy*3 + iz*9; node 0 at origin, node 13 at center
    np.testing.assert_allclose(m.coord[0], [0, 0, 0])
    np.testing.assert_allclose(m.coord[13], [1, 1, 1])


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 64), st.integers(1, 40))
def test_chunk_invariants(n, vs):
    chunks = chunk_range(n, vs)
    assert sum(c.n_real for c in chunks) == n
    assert all(c.size == vs for c in chunks)
    # contiguous ids over the padded range: 0 .. whole chunks * vs - 1.
    ids = np.concatenate([c.elements for c in chunks])
    np.testing.assert_array_equal(ids, np.arange(len(chunks) * vs))
    assert len(chunks) * vs - n < vs
    assert [c.index for c in chunks] == list(range(len(chunks)))


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_every_node_belongs_to_an_element(nx, ny, nz):
    m = box_mesh(nx, ny, nz)
    used = np.unique(m.lnods)
    np.testing.assert_array_equal(used, np.arange(m.npoin))
