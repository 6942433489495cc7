"""Tests for the CSR pattern, scatter positions and SpMV."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cfd.csr import build_pattern, diagonal, spmv, to_dense
from repro.cfd.elements import PNODE
from repro.cfd.mesh import box_mesh


@pytest.fixture(scope="module")
def pattern222():
    return build_pattern(box_mesh(2, 2, 2))


def test_pattern_basic_invariants(pattern222):
    p = pattern222
    assert p.n == 27
    assert p.indptr[0] == 0 and p.indptr[-1] == p.nnz
    assert np.all(np.diff(p.indptr) >= 1)  # every node couples to itself
    # columns sorted within each row
    for r in range(p.n):
        cols = p.indices[p.indptr[r]:p.indptr[r + 1]]
        assert np.all(np.diff(cols) > 0)


def test_diagonal_present_everywhere(pattern222):
    p = pattern222
    rows = p.row_of_entry()
    diag_entries = set(zip(rows.tolist(), p.indices.tolist()))
    for r in range(p.n):
        assert (r, r) in diag_entries


def test_elpos_points_to_correct_entries(pattern222):
    mesh = box_mesh(2, 2, 2)
    p = pattern222
    rows = p.row_of_entry()
    for e in (0, 3, 7):
        for i in range(PNODE):
            for j in range(PNODE):
                slot = p.elpos[e, i, j]
                assert rows[slot] == mesh.lnods[e, i]
                assert p.indices[slot] == mesh.lnods[e, j]


def test_center_node_couples_to_all(pattern222):
    """In a 2x2x2 box the center node (13) touches all 27 nodes."""
    p = pattern222
    assert p.indptr[14] - p.indptr[13] == 27


def test_assembly_through_elpos_matches_dense():
    mesh = box_mesh(2, 2, 1)
    p = build_pattern(mesh)
    rng = np.random.default_rng(0)
    elmats = rng.standard_normal((mesh.nelem, PNODE, PNODE))
    data = np.zeros(p.nnz)
    np.add.at(data, p.elpos.ravel(), elmats.ravel())
    dense = to_dense(p, data)
    expected = np.zeros((p.n, p.n))
    for e in range(mesh.nelem):
        for i in range(PNODE):
            for j in range(PNODE):
                expected[mesh.lnods[e, i], mesh.lnods[e, j]] += elmats[e, i, j]
    np.testing.assert_allclose(dense, expected, rtol=1e-12)


def test_spmv_matches_dense(pattern222):
    p = pattern222
    rng = np.random.default_rng(1)
    data = rng.standard_normal(p.nnz)
    x = rng.standard_normal(p.n)
    np.testing.assert_allclose(spmv(p, data, x), to_dense(p, data) @ x,
                               rtol=1e-12)


def test_spmv_input_validation(pattern222):
    p = pattern222
    with pytest.raises(ValueError):
        spmv(p, np.zeros(3), np.zeros(p.n))
    with pytest.raises(ValueError):
        spmv(p, np.zeros(p.nnz), np.zeros(3))


def test_diagonal_extraction(pattern222):
    p = pattern222
    rng = np.random.default_rng(2)
    data = rng.standard_normal(p.nnz)
    np.testing.assert_allclose(diagonal(p, data), np.diag(to_dense(p, data)),
                               rtol=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
       st.integers(0, 100))
def test_spmv_linearity(nx, ny, nz, seed):
    mesh = box_mesh(nx, ny, nz)
    p = build_pattern(mesh)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(p.nnz)
    x = rng.standard_normal(p.n)
    y = rng.standard_normal(p.n)
    np.testing.assert_allclose(
        spmv(p, data, 2.0 * x + y),
        2.0 * spmv(p, data, x) + spmv(p, data, y),
        rtol=1e-10, atol=1e-12)


def test_pattern_symmetry():
    """Node adjacency is symmetric: (r, c) present iff (c, r) present."""
    p = build_pattern(box_mesh(3, 2, 2))
    rows = p.row_of_entry()
    entries = set(zip(rows.tolist(), p.indices.tolist()))
    assert all((c, r) in entries for r, c in entries)


def searchsorted_pattern(mesh):
    """The pattern as ``build_pattern`` used to build it: a hashed
    ``np.unique`` of the node-pair keys, and ``searchsorted`` for the
    row pointers and the scatter positions."""
    n = mesh.npoin
    rows = np.repeat(mesh.lnods, PNODE, axis=1)
    cols = np.tile(mesh.lnods, (1, PNODE))
    keys = rows.astype(np.int64) * n + cols
    unique = np.unique(keys)
    indptr = np.searchsorted(unique // n, np.arange(n + 1),
                             side="left").astype(np.int64)
    elpos = np.searchsorted(unique, keys).reshape(mesh.nelem, PNODE, PNODE)
    return indptr, (unique % n).astype(np.int64), elpos.astype(np.int64)


@pytest.mark.parametrize("dims", [(4, 4, 4), (8, 8, 15), (3, 5, 7)],
                         ids=["tiny", "quick", "non-cubic"])
def test_pattern_bytes_match_searchsorted_construction(dims):
    mesh = box_mesh(*dims)
    p = build_pattern(mesh)
    for got, want in zip((p.indptr, p.indices, p.elpos),
                         searchsorted_pattern(mesh)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
