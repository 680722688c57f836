"""Test-only copies of the dict-and-loop mesh topology that array lookups
replaced.

The rectangle mesh used to append its boundary edges side by side,
uniform refinement and `build_spaces` found the mesh edge of each
boundary edge through a dict of all edges, the boundary sides were
filled edge by edge, and the essential velocity constraints were
collected node by node from a bit mask.  The copies below are kept
verbatim, so tests can require `bgs.mesh` and `bgs.forms.build_spaces`
to give the same arrays bit for bit.
"""

import numpy as np

from bgs.forms import BoundarySide
from bgs.mesh import GAMMA1, GAMMA2, Mesh, _validate_sides, unique_edges
from bgs.quadrature import edge_rule


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

    edges = []
    tags = []

    def tag_of(side):
        return GAMMA1 if side in sides else GAMMA2

    for i in range(nx):                                   # bottom, left→right
        edges.append((vid(i, 0), vid(i + 1, 0)))
        tags.append(tag_of("bottom"))
    for j in range(ny):                                   # right, upward
        edges.append((vid(nx, j), vid(nx, j + 1)))
        tags.append(tag_of("right"))
    for i in range(nx):                                   # top, right→left
        edges.append((vid(nx - i, ny), vid(nx - i - 1, ny)))
        tags.append(tag_of("top"))
    for j in range(ny):                                   # left, downward
        edges.append((vid(0, ny - j), vid(0, ny - j - 1)))
        tags.append(tag_of("left"))

    return Mesh(vertices=vertices,
                triangles=triangles,
                boundary_edges=np.array(edges, dtype=np.int64),
                boundary_tags=np.array(tags, dtype=np.int64),
                generation=0)


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

    edge_index = {(int(a), int(b)): k for k, (a, b) in enumerate(edges)}
    new_bedges = np.empty((2 * len(mesh.boundary_edges), 2), dtype=np.int64)
    new_tags = np.repeat(mesh.boundary_tags, 2)
    for k, (u, v) in enumerate(mesh.boundary_edges):
        key = (int(min(u, v)), int(max(u, v)))
        m = nv + edge_index[key]
        new_bedges[2 * k] = (u, m)
        new_bedges[2 * k + 1] = (m, v)

    return Mesh(vertices=vertices,
                triangles=children,
                boundary_edges=new_bedges,
                boundary_tags=new_tags,
                generation=mesh.generation + 1)


def boundary_topology(mesh: Mesh):
    """(gamma1, gamma2, fixed_velocity_dofs, fixed_temperature_dofs) as the
    topology half of build_spaces computed them."""
    edges, tri_edges = unique_edges(mesh.triangles)
    nv = mesh.num_vertices
    nt = mesh.num_triangles
    es, ew = edge_rule()

    edge_index = {(int(a), int(b)): k for k, (a, b) in enumerate(edges)}
    tri_of_edge = np.full(len(edges), -1, dtype=np.int64)
    for local in range(3):
        tri_of_edge[tri_edges[:, local]] = np.arange(nt)

    def side_data(tag):
        keep = np.asarray(mesh.boundary_tags) == tag
        bed = np.asarray(mesh.boundary_edges)[keep]
        m = len(bed)
        mids = np.empty(m, dtype=np.int64)
        normals = np.empty((m, 2))
        lengths = np.empty(m)
        for k, (u, v) in enumerate(bed):
            key = (int(min(u, v)), int(max(u, v)))
            e = edge_index[key]
            mids[k] = nv + e
            pu, pv = mesh.vertices[u], mesh.vertices[v]
            d = pv - pu
            lengths[k] = float(np.hypot(d[0], d[1]))
            n = np.array([d[1], -d[0]]) / lengths[k]
            # orient outward: away from the centroid of the owning triangle
            cent = mesh.vertices[mesh.triangles[tri_of_edge[e]]].mean(0)
            if np.dot(n, cent - 0.5 * (pu + pv)) > 0:
                n = -n
            normals[k] = n
        pu = mesh.vertices[bed[:, 0]] if m else np.zeros((0, 2))
        pv = mesh.vertices[bed[:, 1]] if m else np.zeros((0, 2))
        qx = pu[:, None, :] + es[None, :, None] * (pv - pu)[:, None, :]
        return BoundarySide(verts=bed, mids=mids, lengths=lengths,
                            normals=normals, qx=qx)

    gamma1 = side_data(GAMMA1)
    gamma2 = side_data(GAMMA2)

    # essential constraints: bit 0 = x-component fixed, bit 1 = y-component
    comp_mask = np.zeros(nv + len(edges), dtype=np.uint8)
    for bs, tag in ((gamma2, GAMMA2), (gamma1, GAMMA1)):
        for k in range(len(bs.verts)):
            u, v = bs.verts[k]
            nodes = (int(u), int(v), int(bs.mids[k]))
            if tag == GAMMA2:
                for n in nodes:
                    comp_mask[n] |= 3       # no-slip: both components
            else:
                du = abs(mesh.vertices[v, 1] - mesh.vertices[u, 1])
                dx = abs(mesh.vertices[v, 0] - mesh.vertices[u, 0])
                if du <= 1e-12:
                    bit = 1                 # horizontal edge: tangent is x
                elif dx <= 1e-12:
                    bit = 2                 # vertical edge: tangent is y
                else:
                    raise ValueError("tangential-velocity constraints need "
                                     "axis-aligned GAMMA1 edges")
                for n in nodes:
                    comp_mask[n] |= bit

    fixed = []
    nodes_idx = np.nonzero(comp_mask)[0]
    for n in nodes_idx:
        if comp_mask[n] & 1:
            fixed.append(2 * n)
        if comp_mask[n] & 2:
            fixed.append(2 * n + 1)
    fixed_velocity = np.array(sorted(fixed), dtype=np.int64)

    tverts = np.unique(gamma1.verts) if len(gamma1.verts) else np.array([], dtype=np.int64)
    fixed_temperature = np.sort(tverts.astype(np.int64))
    return gamma1, gamma2, fixed_velocity, fixed_temperature
