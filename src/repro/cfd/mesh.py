"""Unstructured hexahedral meshes.

A structured box of ``nx x ny x nz`` hexahedral cells is generated and
then treated as *unstructured*: elements carry an explicit connectivity
table ``lnods`` (element -> 8 global node ids), element-type codes
``ltype`` and material ids ``lmate``, exactly the data structures the
Alya mini-app gathers from in phases 1-2 and scatters into in phase 8.
Optional node renumbering randomizes node ids to emulate the indirection
patterns of a genuinely unstructured mesh (scattered gather addresses).

The mesh is processed in *chunks* of ``VECTOR_SIZE`` elements -- the
compile-time packing parameter at the heart of the paper's study.
:func:`chunk_range` is the one chunker (mesh elements and solver matrix
rows alike): a trailing partial chunk runs on into the padded ids past
the last real one, so kernels always see full chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cfd.elements import HEX08, NDIME, PNODE
from repro.scope import shared


@dataclass(frozen=True)
class Chunk:
    """One VECTOR_SIZE pack of elements."""

    index: int
    #: global element ids, length = VECTOR_SIZE (padded at the tail).
    elements: np.ndarray
    #: number of genuine (non-padding) elements.
    n_real: int

    @property
    def size(self) -> int:
        return int(self.elements.size)


def chunk_range(n: int, vector_size: int) -> list[Chunk]:
    """Contiguous VECTOR_SIZE chunks over ids ``0 .. n-1``, rounded up to
    whole chunks: the tail chunk's padding is the ids ``n, n+1, ...`` of
    the padded arrays it indexes."""
    out = []
    for ci in range(-(-n // vector_size)):
        start = ci * vector_size
        ids = np.arange(start, start + vector_size, dtype=np.int64)
        out.append(Chunk(index=ci, elements=ids,
                         n_real=min(vector_size, n - start)))
    return out


@dataclass
class Mesh:
    """An unstructured hexahedral mesh."""

    coord: np.ndarray   # (npoin, 3) float64
    lnods: np.ndarray   # (nelem, 8) int64, global node ids
    ltype: np.ndarray   # (nelem,) int64, element type codes
    lmate: np.ndarray   # (nelem,) int64, material ids
    dims: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self) -> None:
        self.coord = np.ascontiguousarray(self.coord, dtype=np.float64)
        self.lnods = np.ascontiguousarray(self.lnods, dtype=np.int64)
        self.ltype = np.ascontiguousarray(self.ltype, dtype=np.int64)
        self.lmate = np.ascontiguousarray(self.lmate, dtype=np.int64)
        if self.coord.ndim != 2 or self.coord.shape[1] != NDIME:
            raise ValueError(f"coord must be (npoin, {NDIME})")
        if self.lnods.ndim != 2 or self.lnods.shape[1] != PNODE:
            raise ValueError(f"lnods must be (nelem, {PNODE})")
        if self.lnods.size and (self.lnods.min() < 0 or self.lnods.max() >= self.npoin):
            raise ValueError("lnods references nodes outside coord")
        if self.ltype.shape != (self.nelem,) or self.lmate.shape != (self.nelem,):
            raise ValueError("ltype/lmate must have one entry per element")

    @property
    def npoin(self) -> int:
        return self.coord.shape[0]

    @property
    def nelem(self) -> int:
        return self.lnods.shape[0]

    @property
    def nmate(self) -> int:
        return int(self.lmate.max()) + 1 if self.nelem else 0


def box_mesh(nx: int, ny: int, nz: int,
             lengths: tuple[float, float, float] = (1.0, 1.0, 1.0),
             renumber_seed: int | None = None) -> Mesh:
    """Generate a box of ``nx*ny*nz`` HEX08 elements.

    With ``renumber_seed`` the node ids are randomly permuted, producing
    scattered gather/scatter index streams like a real unstructured mesh
    (the default keeps lexicographic ids, which already makes neighbour
    elements share cache lines the way a well-ordered mesh does).
    """
    if min(nx, ny, nz) < 1:
        raise ValueError("need at least one element per direction")
    npx, npy, npz = nx + 1, ny + 1, nz + 1
    xs = np.linspace(0.0, lengths[0], npx)
    ys = np.linspace(0.0, lengths[1], npy)
    zs = np.linspace(0.0, lengths[2], npz)
    # node id = ix + iy*npx + iz*npx*npy
    ids = np.arange(npx * npy * npz)
    coord = np.stack([
        xs[ids % npx],
        ys[(ids // npx) % npy],
        zs[ids // (npx * npy)],
    ], axis=1)

    def nid(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray) -> np.ndarray:
        return ix + iy * npx + iz * npx * npy

    # element id = ex + ey*nx + ez*nx*ny
    eids = np.arange(nx * ny * nz)
    ex = eids % nx
    ey = (eids // nx) % ny
    ez = eids // (nx * ny)
    lnods = np.stack([
        nid(ex, ey, ez),
        nid(ex + 1, ey, ez),
        nid(ex + 1, ey + 1, ez),
        nid(ex, ey + 1, ez),
        nid(ex, ey, ez + 1),
        nid(ex + 1, ey, ez + 1),
        nid(ex + 1, ey + 1, ez + 1),
        nid(ex, ey + 1, ez + 1),
    ], axis=1).astype(np.int64)

    if renumber_seed is not None:
        rng = np.random.default_rng(renumber_seed)
        perm = rng.permutation(coord.shape[0])
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        coord = coord[perm]
        lnods = inv[lnods]

    nelem = lnods.shape[0]
    ltype = np.full(nelem, HEX08, dtype=np.int64)
    lmate = np.zeros(nelem, dtype=np.int64)
    return Mesh(coord=coord, lnods=lnods, ltype=ltype, lmate=lmate,
                dims=(nx, ny, nz))


def scoped_box_mesh(dims: tuple[int, int, int]) -> Mesh:
    """The box mesh of *dims*: one per open build scope
    (:mod:`repro.scope`), a fresh one outside any."""
    dims = tuple(dims)
    return shared("mesh", dims, lambda: box_mesh(*dims))
