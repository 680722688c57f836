"""Conforming triangulations of the unit square with a two-part tagged boundary.

The boundary splits into a pressure-head part (``GAMMA1``, where the
Bernoulli head and the temperature are prescribed) and a no-slip part
(``GAMMA2``, where the velocity vanishes and a heat flux is prescribed).
The two parts meet only at corner vertices, never along an edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

GAMMA1 = 1  # pressure-head / Dirichlet-temperature boundary part
GAMMA2 = 2  # no-slip / prescribed-heat-flux boundary part

SIDES = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class Mesh:
    """Triangle mesh of the unit square with tagged boundary edges.

    Attributes
    ----------
    vertices : (nv, 2) float array
        Vertex coordinates.
    triangles : (nt, 3) int array
        Vertex indices per triangle, counterclockwise.
    boundary_edges : (nb, 2) int array
        Vertex pairs of boundary edges, oriented counterclockwise along
        the boundary.
    boundary_tags : (nb,) int array
        GAMMA1 or GAMMA2 per boundary edge.
    generation : int
        Number of uniform refinements applied since construction.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: np.ndarray
    generation: int = 0

    def __post_init__(self):
        # immutable after construction; shared freely across threads
        for arr in (self.vertices, self.triangles, self.boundary_edges,
                    self.boundary_tags):
            arr.setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]


def _validate_sides(gamma1_sides) -> frozenset:
    sides = frozenset(gamma1_sides)
    unknown = sides - set(SIDES)
    if unknown:
        raise ValueError(f"unknown side name(s) {sorted(unknown)}; "
                         f"expected a subset of {SIDES}")
    if not sides or sides == set(SIDES):
        raise ValueError("gamma1_sides must be a nonempty proper subset of "
                         "the four sides")
    return sides


def build_rectangle_mesh(nx: int, ny: int, gamma1_sides) -> Mesh:
    """Triangulate the unit square into ``2*nx*ny`` triangles.

    Each of the nx-by-ny cells is split along the diagonal from its
    lower-left to its upper-right corner.  Sides listed in
    ``gamma1_sides`` are tagged GAMMA1, the rest GAMMA2.
    """
    if not (isinstance(nx, (int, np.integer)) and nx >= 1):
        raise ValueError(f"nx must be an integer >= 1, got {nx!r}")
    if not (isinstance(ny, (int, np.integer)) and ny >= 1):
        raise ValueError(f"ny must be an integer >= 1, got {ny!r}")
    sides = _validate_sides(gamma1_sides)

    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    X, Y = np.meshgrid(xs, ys)            # shape (ny+1, nx+1), row index = j
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return j * (nx + 1) + i

    I, J = np.meshgrid(np.arange(nx), np.arange(ny))
    i, j = I.ravel(), J.ravel()
    a = vid(i, j)
    b = vid(i + 1, j)
    c = vid(i + 1, j + 1)
    d = vid(i, j + 1)
    lower = np.column_stack([a, b, c])
    upper = np.column_stack([a, c, d])
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    # the boundary, counterclockwise: four runs of (start, end) vertex ids
    i, j = np.arange(nx, dtype=np.int64), np.arange(ny, dtype=np.int64)
    runs = (("bottom", vid(i, 0), vid(i + 1, 0)),             # left→right
            ("right", vid(nx, j), vid(nx, j + 1)),             # upward
            ("top", vid(nx - i, ny), vid(nx - i - 1, ny)),     # right→left
            ("left", vid(0, ny - j), vid(0, ny - j - 1)))      # downward
    edges = np.concatenate([np.column_stack([u, v]) for _, u, v in runs])
    tags = np.concatenate([np.full(len(u), GAMMA1 if side in sides else GAMMA2,
                                   dtype=np.int64) for side, u, _ in runs])

    return Mesh(vertices=vertices,
                triangles=triangles,
                boundary_edges=edges,
                boundary_tags=tags,
                generation=0)


def unique_edges(triangles: np.ndarray):
    """Enumerate mesh edges in lexicographic order.

    Returns ``(edges, tri_edges)`` where edges is (ne, 2) with sorted
    vertex pairs and tri_edges is (nt, 3) mapping local edges
    (0,1), (1,2), (2,0) of each triangle to global edge indices.
    """
    pairs = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    pairs = np.sort(pairs, axis=1)
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    tri_edges = inverse.reshape(-1, 3)
    return edges, tri_edges


def edge_ids(edges: np.ndarray, pairs) -> np.ndarray:
    """Rows of ``edges`` (from unique_edges) of the (m, 2) vertex pairs,
    each in either order; ValueError when a pair is not an edge."""
    pairs = np.sort(np.asarray(pairs, dtype=np.int64), axis=1)
    # keys lo * base + hi, sorted as the edges are lexicographic
    base = int(edges.max()) + 1
    keys = edges[:, 0] * base + edges[:, 1]
    wanted = pairs[:, 0] * base + pairs[:, 1]
    ids = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    found = (pairs[:, 1] < base) & (keys[ids] == wanted)
    if not found.all():
        raise ValueError(f"vertex pairs {pairs[~found][:3].tolist()} are "
                         "not mesh edges")
    return ids


def triangle_areas(mesh: Mesh) -> np.ndarray:
    """Signed triangle areas (positive for counterclockwise orientation)."""
    v = mesh.vertices
    t = mesh.triangles
    d1 = v[t[:, 1]] - v[t[:, 0]]
    d2 = v[t[:, 2]] - v[t[:, 0]]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every triangle into four by connecting edge midpoints.

    Children inherit orientation; boundary edges split in two and keep
    their tag; ``generation`` increments.
    """
    nv = mesh.num_vertices
    edges, tri_edges = unique_edges(mesh.triangles)
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])

    t = mesh.triangles
    m01 = nv + tri_edges[:, 0]
    m12 = nv + tri_edges[:, 1]
    m20 = nv + tri_edges[:, 2]
    children = np.empty((4 * mesh.num_triangles, 3), dtype=np.int64)
    children[0::4] = np.column_stack([t[:, 0], m01, m20])
    children[1::4] = np.column_stack([m01, t[:, 1], m12])
    children[2::4] = np.column_stack([m20, m12, t[:, 2]])
    children[3::4] = np.column_stack([m01, m12, m20])

    # each boundary edge (u, v) splits at its midpoint m into (u, m), (m, v)
    u, v = mesh.boundary_edges.T
    m = nv + edge_ids(edges, mesh.boundary_edges)
    new_bedges = np.column_stack([u, m, m, v]).reshape(-1, 2)
    new_tags = np.repeat(mesh.boundary_tags, 2)

    return Mesh(vertices=vertices,
                triangles=children,
                boundary_edges=new_bedges,
                boundary_tags=new_tags,
                generation=mesh.generation + 1)


def check_mesh(mesh: Mesh) -> None:
    """Validate structural invariants; raise ValueError on any violation."""
    areas = triangle_areas(mesh)
    if not np.all(areas > 0):
        raise ValueError("found non-positive triangle area (orientation "
                         "must be counterclockwise)")
    if abs(areas.sum() - 1.0) > 1e-14:
        raise ValueError(f"triangle areas sum to {areas.sum()!r}, expected 1")

    edges, tri_edges = unique_edges(mesh.triangles)
    counts = np.bincount(tri_edges.ravel())
    if counts.max() > 2:
        raise ValueError("an edge is shared by more than two triangles")

    boundary = np.flatnonzero(counts == 1)
    try:
        tagged = edge_ids(edges, mesh.boundary_edges)
    except ValueError:              # a tagged pair that is no mesh edge
        tagged = None
    if tagged is None or not np.array_equal(np.unique(tagged), boundary):
        raise ValueError("tagged boundary edges do not match the mesh "
                         "boundary (non-conforming or mis-tagged)")
    if len(tagged) != len(boundary):
        raise ValueError("duplicate boundary edges")

    tags = set(np.asarray(mesh.boundary_tags).tolist())
    if not tags <= {GAMMA1, GAMMA2}:
        raise ValueError(f"unknown boundary tags {tags}")
    if GAMMA1 not in tags or GAMMA2 not in tags:
        raise ValueError("both GAMMA1 and GAMMA2 must be nonempty")

    nv = mesh.num_vertices
    used = np.unique(mesh.triangles)
    if used[0] < 0 or used[-1] >= nv:
        raise ValueError("triangle vertex index out of range")

    diam = np.sqrt(2.0)  # unit square
    tree = cKDTree(mesh.vertices)
    close = tree.query_pairs(r=1e-12 * diam)
    if close:
        raise ValueError(f"nearly coincident vertices: {sorted(close)[:3]}")

    euler = nv - len(edges) + mesh.num_triangles
    if euler != 1:
        raise ValueError(f"Euler characteristic V-E+F = {euler}, expected 1 "
                         "for a simply connected mesh")
