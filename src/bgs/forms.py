"""Discrete spaces and Galerkin assembly for the coupled flow/heat system.

Velocity lives in continuous piecewise quadratics (two components,
interleaved dofs at vertices and edge midpoints); head and temperature
live in continuous piecewise linears on the same mesh.  The momentum
diffusion uses the rotational form (gamma(w) rot z, rot phi) plus a
div-div stabilization term, so skew advection and divergence control
give unconditional energy decay of the time stepper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .mesh import GAMMA1, GAMMA2, Mesh, edge_ids, unique_edges
from .quadrature import edge_rule, triangle_rule


# _UPPER[a, b] = _UPPER[b, a] numbers the 21 distinct entries of a
# symmetric 6 x 6 block in the order of _TRIU, its upper triangle
_TRIU = np.triu_indices(6)
_UPPER = np.empty((6, 6), dtype=np.intp)
_UPPER[_TRIU] = _UPPER[_TRIU[::-1]] = np.arange(21)
for _arr in (*_TRIU, _UPPER):
    _arr.setflags(write=False)


def _sym_outer(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Outer product over the trailing axis; bit-exactly symmetric when b is a.

    Scalar float multiplication commutes exactly, so building the (i, j)
    table as a[..., i] * a[..., j] before any weighted reduction keeps
    assembled symmetric operators symmetric to the last ulp.
    """
    if b is None:
        b = a
    return a[..., :, None] * b[..., None, :]

_SPACES = ("velocity", "temperature", "head")


@dataclass(frozen=True)
class FieldVector:
    """Coefficient vector tagged with the space it belongs to."""

    space: str
    values: np.ndarray

    def __post_init__(self):
        if self.space not in _SPACES:
            raise ValueError(f"unknown space {self.space!r}")


@dataclass(frozen=True)
class BoundarySide:
    """Precomputed quadrature data for one tagged part of the boundary."""

    verts: np.ndarray      # (m, 2) endpoint vertex ids, boundary-CCW order
    mids: np.ndarray       # (m,) midpoint P2 node ids
    lengths: np.ndarray    # (m,)
    normals: np.ndarray    # (m, 2) outward unit normals
    qx: np.ndarray         # (m, nq, 2) physical quadrature points

    def __post_init__(self):
        for name in ("verts", "mids", "lengths", "normals", "qx"):
            getattr(self, name).setflags(write=False)


@dataclass(frozen=True)
class FunctionSpaces:
    """Geometry, dof maps, constraints and quadrature tables for one mesh.

    build_spaces finds the mesh edge of each boundary edge by
    `mesh.edge_ids`.  Each tagged side holds its edges' vertices, midpoint
    nodes, lengths, outward normals and quadrature points.  The fixed
    velocity dofs are the flat nonzeros of a (node, component) table: a
    GAMMA2 node pins both components, a GAMMA1 node the tangential one of
    its axis-aligned edge.  The fixed temperature dofs are the GAMMA1
    vertices.

    The CSR pattern of each operator pair, the element geometry
    (node-major P2 gradients, velocity diffusion table, products of the P1
    gradients), the quadrature maps of the trilinear forms and the
    solver's fixed structure (both mass matrices, D and the layouts of the
    temperature and saddle systems) are built on first use, not by
    build_spaces, so a caller that assembles nothing does not pay for them
    and every run on the mesh shares them.  Every array is read-only.
    """

    mesh: Mesh
    edges: np.ndarray            # (ne, 2)
    tri_edges: np.ndarray        # (nt, 3)
    node_coords: np.ndarray      # (n2, 2) P2 nodes: vertices then midpoints
    vel_nodes: np.ndarray        # (nt, 6) global P2 node ids per triangle
    vel_dofs: np.ndarray         # (nt, 12) interleaved velocity dof ids
    areas: np.ndarray            # (nt,)
    quad_x: np.ndarray           # (nt, nq, 2) physical quadrature points
    quad_w: np.ndarray           # (nt, nq) area-weighted quadrature weights
    p2_at_q: np.ndarray          # (nq, 6)
    p2_grad_at_q: np.ndarray     # (nt, nq, 6, 2) physical gradients
    p1_at_q: np.ndarray          # (nq, 3)
    p1_grad: np.ndarray          # (nt, 3, 2) physical gradients (constant in q)
    edge_w: np.ndarray           # (me,)
    p2_trace: np.ndarray         # (me, 3) traces of [u, v, mid] basis on an edge
    p1_trace: np.ndarray         # (me, 2) traces of [u, v]
    gamma1: BoundarySide
    gamma2: BoundarySide
    fixed_velocity_dofs: np.ndarray     # sorted unique dof ids
    fixed_temperature_dofs: np.ndarray  # sorted unique vertex ids

    def __post_init__(self):
        for name in ("edges", "tri_edges", "node_coords", "vel_nodes",
                     "vel_dofs", "areas", "quad_x", "quad_w", "p2_at_q",
                     "p2_grad_at_q", "p1_at_q", "p1_grad", "edge_w",
                     "p2_trace", "p1_trace",
                     "fixed_velocity_dofs", "fixed_temperature_dofs"):
            getattr(self, name).setflags(write=False)

    @property
    def num_p2_nodes(self) -> int:
        return self.node_coords.shape[0]

    @property
    def velocity_dim(self) -> int:
        return 2 * self.num_p2_nodes

    @property
    def head_dim(self) -> int:
        return self.mesh.num_vertices

    @property
    def temperature_dim(self) -> int:
        return self.mesh.num_vertices

    def dim_of(self, space: str) -> int:
        return {"velocity": self.velocity_dim,
                "temperature": self.temperature_dim,
                "head": self.head_dim}[space]

    @cached_property
    def p2_grad_by_node(self) -> np.ndarray:
        """P2 gradients node-major, (2, 6, nt, nq): [d, a] is d(phi_a)/d(x_d)."""
        g = np.ascontiguousarray(self.p2_grad_at_q.transpose(3, 2, 0, 1))
        g.setflags(write=False)
        return g

    @cached_property
    def p1_grad_outer(self) -> np.ndarray:
        """P1 gradient products, (nt, 3, 3, 2): [t, a, b, d] is
        d(mu_a)/d(x_d) * d(mu_b)/d(x_d) on triangle t."""
        g = self.p1_grad
        outer = g[:, :, None, :] * g[:, None, :, :]
        outer.setflags(write=False)
        return outer

    @cached_property
    def diffusion_geometry(self) -> tuple[np.ndarray, np.ndarray]:
        """(table, expand): the mesh part of the velocity diffusion.

        table[q, t] holds the 57 distinct values of rot phi_j rot phi_i +
        div phi_j div phi_i at point q of triangle t: the x-x block's upper
        triangle (21), then the x-y block (36).  The y-y block equals x-x
        bit for bit, as (-a)(-b) = ab and addition commutes; y-x is the
        transpose of x-y.  expand (12, 12) maps the interleaved element
        block onto table columns.
        """
        g = self.p2_grad_at_q
        nt, nq = g.shape[:2]
        iu, ju = _TRIU
        table = np.empty((nq, nt, 57))
        for q in range(nq):
            gx, gy = g[:, q, :, 0], g[:, q, :, 1]
            # rot is (-gy, gx) for x-component fields and div is (gx, gy)
            table[q, :, :21] = gy[:, iu] * gy[:, ju] + gx[:, iu] * gx[:, ju]
            table[q, :, 21:] = (_sym_outer(gx, gy)
                                - _sym_outer(gy, gx)).reshape(nt, 36)
        xy = 21 + np.arange(36).reshape(6, 6)
        expand = np.empty((12, 12), dtype=np.intp)
        expand[0::2, 0::2] = expand[1::2, 1::2] = _UPPER
        expand[0::2, 1::2], expand[1::2, 0::2] = xy, xy.T
        for arr in (table, expand):
            arr.setflags(write=False)
        return table, expand

    @cached_property
    def quadrature_maps(self) -> tuple[sp.csr_matrix, sp.csr_matrix,
                                       sp.csr_matrix]:
        """(x, y, rot): CSR maps from velocity dofs to the x component, the
        y component and rot at every volume quadrature point.

        Row t * nq + q is point q of triangle t; each map takes a dof
        vector or an (n, k) stack of them.  A row lists its triangle's
        dofs in element order, unsorted.
        """
        nt, nq = self.quad_w.shape
        shape = (nt * nq, self.velocity_dim)
        g = self.p2_grad_at_q
        rot = np.empty((nt, nq, 12))
        rot[..., 0::2] = -g[..., 1]     # x-component basis fields
        rot[..., 1::2] = g[..., 0]      # y-component basis fields

        def csr(data, dofs):
            per_row = dofs.shape[1]
            cols = np.broadcast_to(dofs[:, None, :], (nt, nq, per_row))
            return _frozen(sp.csr_matrix(
                (data.reshape(-1), cols.reshape(-1),
                 np.arange(0, shape[0] * per_row + 1, per_row)), shape=shape))

        values = np.broadcast_to(self.p2_at_q, (nt, nq, 6))
        x_dofs = self.vel_dofs[:, 0::2]
        return csr(values, x_dofs), csr(values, x_dofs + 1), csr(rot, self.vel_dofs)

    @cached_property
    def velocity_diffusion_map(self) -> "SumMap":
        """The velocity diffusion's data from its (nt, 57) accumulator.

        Reads the table columns of diffusion_geometry, triangle by
        triangle: element entry (a, b) of triangle t is value
        t * 57 + expand[a, b].
        """
        _, expand = self.diffusion_geometry
        nt = self.mesh.num_triangles
        block = 57 * np.arange(nt)[:, None, None] + expand
        return self.velocity_pattern.mapped(block, 57 * nt)

    @cached_property
    def velocity_advection_map(self) -> "SumMap":
        """The velocity advection's data from [s, -s, +0.0].

        s holds the 21 distinct values of the symmetric (6, 6) scalar block
        of each triangle, indexed by _UPPER: element entry (2a + 1, 2b) of
        triangle t holds s[t, a, b], entry (2a, 2b + 1) holds -s[t, a, b],
        and every entry that couples like components holds +0.0.  A slot
        that couples like components sums only such zeros, so it reads the
        +0.0 sentinel once, which gives the same +0.0.
        """
        nt = self.mesh.num_triangles
        n = 21 * nt
        ids = 21 * np.arange(nt)[:, None, None] + _UPPER
        block = np.full((nt, 12, 12), 2 * n)
        block[:, 1::2, 0::2] = ids          # (z-hat x e_x) . e_y = +1
        block[:, 0::2, 1::2] = n + ids      # (z-hat x e_y) . e_x = -1
        full = self.velocity_pattern.mapped(block, 2 * n + 1)
        keep = full.cols != 2 * n
        keep[full.ptr[:-1]] = True
        return SumMap(*_compress(full.ptr, keep, full.cols), full.size,
                      full.weights)

    @cached_property
    def unit_weights(self) -> np.ndarray:
        """Read-only ones, one per entry of the largest element block set
        (12 x 12 per triangle): the weights every SumMap on this mesh views."""
        ones = np.ones(self.vel_dofs.size * self.vel_dofs.shape[1])
        ones.setflags(write=False)
        return ones

    @cached_property
    def velocity_pattern(self) -> "Pattern":
        n = self.velocity_dim
        return Pattern(self.vel_dofs, self.vel_dofs, (n, n), self.unit_weights)

    @cached_property
    def temperature_pattern(self) -> "Pattern":
        n = self.temperature_dim
        return Pattern(self.mesh.triangles, self.mesh.triangles, (n, n),
                       self.unit_weights)

    @cached_property
    def divergence_pattern(self) -> "Pattern":
        return Pattern(self.mesh.triangles, self.vel_dofs,
                       (self.head_dim, self.velocity_dim), self.unit_weights)

    @cached_property
    def buoyancy_pattern(self) -> "Pattern":
        return Pattern(self.vel_dofs, self.mesh.triangles,
                       (self.velocity_dim, self.temperature_dim),
                       self.unit_weights)

    @cached_property
    def mass_velocity(self) -> sp.csr_matrix:
        return _frozen(assemble_mass(self, "velocity"))

    @cached_property
    def mass_temperature(self) -> sp.csr_matrix:
        return _frozen(assemble_mass(self, "temperature"))

    @cached_property
    def divergence(self) -> sp.csr_matrix:
        return _frozen(assemble_divergence_constraint(self))

    @cached_property
    def temperature_layout(self) -> "Layout":
        return Layout(self.temperature_dim,
                      [(self.temperature_pattern, 0, 0, False)],
                      self.fixed_temperature_dofs)

    @cached_property
    def saddle_layout(self) -> "Layout":
        """The layout of the velocity/head system [[K, D^T], [D, 0]]."""
        nv, div = self.velocity_dim, self.divergence_pattern
        return Layout(nv + self.head_dim,
                      [(self.velocity_pattern, 0, 0, False), (div, 0, nv, True),
                       (div, nv, 0, False)], self.fixed_velocity_dofs)


def _frozen(mat: sp.spmatrix) -> sp.spmatrix:
    """mat, its data and index arrays made read-only."""
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.setflags(write=False)
    return mat


def _p2_ref(points: np.ndarray):
    """Quadratic Lagrange basis values and reference gradients.

    Node order: vertices (0,0), (1,0), (0,1), then midpoints of edges
    (0,1), (1,2), (2,0).
    """
    xi, eta = points[:, 0], points[:, 1]
    lam = np.column_stack([1.0 - xi - eta, xi, eta])     # (nq, 3)
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])

    vals = np.empty((len(points), 6))
    grads = np.empty((len(points), 6, 2))
    for a in range(3):
        vals[:, a] = lam[:, a] * (2.0 * lam[:, a] - 1.0)
        grads[:, a, :] = (4.0 * lam[:, a] - 1.0)[:, None] * dlam[a]
    for k, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
        vals[:, 3 + k] = 4.0 * lam[:, a] * lam[:, b]
        grads[:, 3 + k, :] = 4.0 * (lam[:, a][:, None] * dlam[b]
                                    + lam[:, b][:, None] * dlam[a])
    return vals, grads


def _p1_ref(points: np.ndarray):
    xi, eta = points[:, 0], points[:, 1]
    vals = np.column_stack([1.0 - xi - eta, xi, eta])
    grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    return vals, grads


def build_spaces(mesh: Mesh) -> FunctionSpaces:
    """Precompute dof maps, constraint sets and quadrature tables."""
    edges, tri_edges = unique_edges(mesh.triangles)
    nv = mesh.num_vertices
    nt = mesh.num_triangles

    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    node_coords = np.vstack([mesh.vertices, midpoints])

    vel_nodes = np.empty((nt, 6), dtype=np.int64)
    vel_nodes[:, :3] = mesh.triangles
    vel_nodes[:, 3:] = nv + tri_edges
    vel_dofs = np.empty((nt, 12), dtype=np.int64)
    vel_dofs[:, 0::2] = 2 * vel_nodes
    vel_dofs[:, 1::2] = 2 * vel_nodes + 1

    qp, qw = triangle_rule()
    p2_vals, p2_ref_grads = _p2_ref(qp)
    p1_vals, p1_ref_grads = _p1_ref(qp)

    v0 = mesh.vertices[mesh.triangles[:, 0]]
    j1 = mesh.vertices[mesh.triangles[:, 1]] - v0
    j2 = mesh.vertices[mesh.triangles[:, 2]] - v0
    det = j1[:, 0] * j2[:, 1] - j1[:, 1] * j2[:, 0]
    areas = 0.5 * det
    # inverse-transpose of the affine Jacobian [j1 j2]
    jinv_t = np.empty((nt, 2, 2))
    jinv_t[:, 0, 0] = j2[:, 1] / det
    jinv_t[:, 0, 1] = -j1[:, 1] / det
    jinv_t[:, 1, 0] = -j2[:, 0] / det
    jinv_t[:, 1, 1] = j1[:, 0] / det

    quad_x = (v0[:, None, :] + qp[None, :, 0, None] * j1[:, None, :]
              + qp[None, :, 1, None] * j2[:, None, :])
    quad_w = areas[:, None] * qw[None, :]

    p2_grad = np.einsum("tdc,qac->tqad", jinv_t, p2_ref_grads)
    p1_grad = np.einsum("tdc,ac->tad", jinv_t, p1_ref_grads)

    es, ew = edge_rule()
    # traces of the P2 nodal functions attached to an edge (u, v, midpoint)
    p2_trace = np.column_stack([(1.0 - es) * (1.0 - 2.0 * es),
                                es * (2.0 * es - 1.0),
                                4.0 * es * (1.0 - es)])
    p1_trace = np.column_stack([1.0 - es, es])

    # the triangle of each boundary edge (interior edges get either one)
    owner = np.empty(len(edges), dtype=np.int64)
    owner[tri_edges] = np.arange(nt)[:, None]

    def side_data(tag):
        bed = mesh.boundary_edges[mesh.boundary_tags == tag]
        e = edge_ids(edges, bed)
        pu, pv = mesh.vertices[bed[:, 0]], mesh.vertices[bed[:, 1]]
        d = pv - pu
        lengths = np.hypot(d[:, 0], d[:, 1])
        normals = np.column_stack([d[:, 1], -d[:, 0]]) / lengths[:, None]
        # orient outward: away from the centroid of the owning triangle
        cent = mesh.vertices[mesh.triangles[owner[e]]].mean(1)
        inward = np.sum(normals * (cent - 0.5 * (pu + pv)), axis=1) > 0
        normals[inward] = -normals[inward]
        qx = pu[:, None, :] + es[None, :, None] * d[:, None, :]
        return BoundarySide(verts=bed, mids=nv + e, lengths=lengths,
                            normals=normals, qx=qx)

    gamma1 = side_data(GAMMA1)
    gamma2 = side_data(GAMMA2)

    # essential constraints: pinned[node, c] when velocity component c of
    # the P2 node is fixed, so the flat nonzeros are the sorted dofs 2*node+c
    pinned = np.zeros((len(node_coords), 2), dtype=bool)
    pinned[np.column_stack([gamma2.verts, gamma2.mids])] = True  # no-slip
    # GAMMA1 pins the tangential component: x on a horizontal edge, y on a
    # vertical one
    ends = mesh.vertices[gamma1.verts]
    dx, dy = np.abs(ends[:, 1] - ends[:, 0]).T
    horizontal = dy <= 1e-12
    if not np.all(horizontal | (dx <= 1e-12)):
        raise ValueError("tangential-velocity constraints need "
                         "axis-aligned GAMMA1 edges")
    pinned[np.column_stack([gamma1.verts, gamma1.mids]),
           np.where(horizontal, 0, 1)[:, None]] = True

    return FunctionSpaces(
        mesh=mesh, edges=edges, tri_edges=tri_edges, node_coords=node_coords,
        vel_nodes=vel_nodes, vel_dofs=vel_dofs, areas=areas, quad_x=quad_x,
        quad_w=quad_w, p2_at_q=p2_vals, p2_grad_at_q=p2_grad, p1_at_q=p1_vals,
        p1_grad=p1_grad, edge_w=ew, p2_trace=p2_trace,
        p1_trace=p1_trace, gamma1=gamma1, gamma2=gamma2,
        fixed_velocity_dofs=np.flatnonzero(pinned),
        fixed_temperature_dofs=np.unique(gamma1.verts))


# ---------------------------------------------------------------------------
# field access


def zeros_field(spaces: FunctionSpaces, space: str) -> FieldVector:
    return FieldVector(space, np.zeros(spaces.dim_of(space)))


def _expect(spaces: FunctionSpaces, f: FieldVector, space: str) -> np.ndarray:
    if not isinstance(f, FieldVector):
        raise ValueError(f"expected a FieldVector in space {space!r}")
    if f.space != space:
        raise ValueError(f"field lives in {f.space!r}, expected {space!r}")
    if f.values.shape != (spaces.dim_of(space),):
        raise ValueError(f"field has {f.values.shape[0]} dofs, space "
                         f"{space!r} needs {spaces.dim_of(space)}")
    return f.values


def interpolate_velocity(spaces: FunctionSpaces, fn, t: float = 0.0) -> FieldVector:
    """Nodal interpolant of a vector function fn(x, t) -> (..., 2)."""
    vals = np.asarray(fn(spaces.node_coords, t), dtype=float)
    if vals.shape != (spaces.num_p2_nodes, 2):
        raise ValueError("velocity data must return one 2-vector per point")
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite velocity data at interpolation nodes")
    out = np.empty(spaces.velocity_dim)
    out[0::2] = vals[:, 0]
    out[1::2] = vals[:, 1]
    return FieldVector("velocity", out)


def interpolate_scalar(spaces: FunctionSpaces, fn, t: float = 0.0) -> FieldVector:
    """Nodal interpolant of a scalar function at mesh vertices."""
    vals = np.asarray(fn(spaces.mesh.vertices, t), dtype=float)
    if vals.shape != (spaces.mesh.num_vertices,):
        raise ValueError("scalar data must return one value per point")
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite scalar data at interpolation nodes")
    return FieldVector("temperature", vals)


def _nodal_velocity(spaces: FunctionSpaces, z: FieldVector):
    """Per-triangle nodal values of the two velocity components, (nt, 6) each."""
    v = _expect(spaces, z, "velocity")
    return v[2 * spaces.vel_nodes], v[2 * spaces.vel_nodes + 1]


def velocity_at_quadrature(spaces: FunctionSpaces, z: FieldVector) -> np.ndarray:
    """Values of a velocity field at all volume quadrature points, (nt, nq, 2)."""
    zx, zy = _nodal_velocity(spaces, z)
    out = np.empty(spaces.quad_x.shape)
    out[..., 0] = np.einsum("qa,ta->tq", spaces.p2_at_q, zx)
    out[..., 1] = np.einsum("qa,ta->tq", spaces.p2_at_q, zy)
    return out


def _partial(spaces: FunctionSpaces, zc: np.ndarray, d: int) -> np.ndarray:
    """d(z_c)/d(x_d) at quadrature points, (nt, nq), from nodal values zc.

    Summed node by node into +0.0, as the einsum it replaced did: a sum
    started from the first product is -0.0 where all six products are
    -0.0, as in a zero field whose zeros carry signs.
    """
    g = spaces.p2_grad_by_node[d]
    out = np.zeros(g.shape[1:])
    for a in range(6):
        out += g[a] * zc[:, a, None]
    return out


def velocity_grad_at_quadrature(spaces: FunctionSpaces, z: FieldVector) -> np.ndarray:
    """Gradients d(z_c)/d(x_d) at quadrature points, (nt, nq, 2, 2)."""
    out = np.empty(spaces.quad_x.shape[:2] + (2, 2))
    for c, zc in enumerate(_nodal_velocity(spaces, z)):
        for d in (0, 1):
            out[..., c, d] = _partial(spaces, zc, d)
    return out


def rot_at_quadrature(spaces: FunctionSpaces, z: FieldVector) -> np.ndarray:
    zx, zy = _nodal_velocity(spaces, z)
    return _partial(spaces, zy, 0) - _partial(spaces, zx, 1)


def div_at_quadrature(spaces: FunctionSpaces, z: FieldVector) -> np.ndarray:
    zx, zy = _nodal_velocity(spaces, z)
    return _partial(spaces, zx, 0) + _partial(spaces, zy, 1)


def scalar_at_quadrature(spaces: FunctionSpaces, f: FieldVector) -> np.ndarray:
    v = _expect(spaces, f, f.space)
    loc = v[spaces.mesh.triangles]
    return np.einsum("qa,ta->tq", spaces.p1_at_q, loc)


def scalar_grad(spaces: FunctionSpaces, f: FieldVector) -> np.ndarray:
    """Per-triangle constant gradient of a piecewise-linear field, (nt, 2)."""
    v = _expect(spaces, f, f.space)
    loc = v[spaces.mesh.triangles]
    return np.einsum("tad,ta->td", spaces.p1_grad, loc)


# ---------------------------------------------------------------------------
# assembly


class SumMap:
    """Sums compact element values into a pattern's CSR data, bit for bit
    as scipy's COO->CSR conversion sums the element blocks they stand for.

    Data slot i is the sum of values[cols[ptr[i]:ptr[i + 1]]], added in
    that order to -0.0, the additive identity that keeps the sign of a sum
    of negative zeros as scipy does.  The map is the CSR matrix (ptr,
    cols) of unit weights, applied by scipy's private ``csr_matvec``,
    which adds each row in storage order onto the output it is given.
    Scipy's public ``@`` starts from +0.0 and would lose that sign.  The
    index arrays are int32 and read-only; the unit weights are a view of
    one read-only buffer of ones that every map of a mesh shares
    (``FunctionSpaces.unit_weights``).
    """

    def __init__(self, ptr: np.ndarray, cols: np.ndarray, size: int,
                 unit_weights: np.ndarray):
        self.ptr = np.asarray(ptr, dtype=np.int32)    # no copy when shared
        self.cols = np.asarray(cols, dtype=np.int32)
        self.size = size            # how many compact values the map reads
        for arr in (self.ptr, self.cols):
            arr.setflags(write=False)
        self.weights = unit_weights[:len(self.cols)]

    def __call__(self, values: np.ndarray) -> np.ndarray:
        values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
        if values.size != self.size:
            raise ValueError(f"map reads {self.size} values, got {values.size}")
        data = np.full(len(self.ptr) - 1, -0.0)
        _sparsetools.csr_matvec(len(data), self.size, self.ptr, self.cols,
                                self.weights, values, data)
        return data


class Pattern:
    """CSR pattern of one element-assembled operator, fixed per mesh.

    Element block entry loc[t, a, b] belongs at (row_map[t, a],
    col_map[t, b]).  ``element_map`` sums the flat entries of loc into the
    data, each slot's duplicates in the order that scipy's COO->CSR
    conversion leaves them: ``coo_tocsr`` sorts the entries stably by row,
    then ``csr_sort_indices`` sorts each row by column with ``std::sort``,
    which is not stable.  Adding duplicates in this order reproduces
    scipy's sums bit for bit; adding them in element order does not (219
    entries of the 16x16 velocity diffusion differ).  The order is read
    off once by sorting a CSR matrix of entry ids.  An operator whose
    blocks hold fewer distinct values maps them through the same slot
    pointers (``velocity_diffusion_map``, ``velocity_advection_map`` of
    FunctionSpaces).

    The data arrays are what a Picard pass adds: the ``*_data`` kernels of
    the four per-pass operators return them, and no matrix is built.
    ``matrix`` wraps data as a canonical CSR matrix, for the ``assemble_*``
    functions.
    """

    def __init__(self, row_map: np.ndarray, col_map: np.ndarray, shape,
                 unit_weights: np.ndarray):
        m, a = row_map.shape
        b = col_map.shape[1]
        rows = np.broadcast_to(row_map[:, :, None], (m, a, b)).ravel()
        cols = np.broadcast_to(col_map[:, None, :], (m, a, b)).ravel()
        by_row = np.argsort(rows, kind="stable")
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        ids = sp.csr_matrix((by_row.astype(np.float64), cols[by_row], indptr),
                            shape=shape)
        ids.sort_indices()
        perm = ids.data.astype(np.intp)
        rows, cols = rows[perm], ids.indices
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        self.element_map = SumMap(
            np.append(np.flatnonzero(first), len(first)), perm, len(perm),
            unit_weights)
        self.shape = tuple(shape)
        self.nnz = int(first.sum())
        # int32, as scipy stores indices at every size assembled here
        self.rows = rows[first].astype(np.int32)
        self.indices = cols[first].astype(np.int32)
        self.indptr = np.zeros(shape[0] + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.rows, minlength=shape[0]), out=self.indptr[1:])
        for arr in (self.rows, self.indices, self.indptr):
            arr.setflags(write=False)   # shared by every matrix on the pattern

    def mapped(self, block_values: np.ndarray, size: int) -> SumMap:
        """The map that reads compact values instead of element blocks:
        block_values[t, a, b] is the compact index of loc[t, a, b]."""
        em = self.element_map
        return SumMap(em.ptr, block_values.reshape(-1)[em.cols], size,
                      em.weights)

    def matrix(self, data: np.ndarray, keep: np.ndarray | None = None
               ) -> sp.csr_matrix:
        """Canonical CSR with this pattern, or its ``keep`` slots only."""
        if keep is None:
            indptr, indices = self.indptr.copy(), self.indices.copy()
        else:
            indptr, indices = _compress(self.indptr, keep, self.indices)
        return sp.csr_matrix((data, indices, indptr), shape=self.shape)

    @cached_property
    def transposed_slots(self) -> np.ndarray:
        """Slot of (j, i) for each slot (i, j) of a symmetric pattern."""
        # the keys ascend, because the pattern is canonical CSR
        keys = self.rows.astype(np.int64) * self.shape[1] + self.indices
        return np.searchsorted(
            keys, self.indices.astype(np.int64) * self.shape[1] + self.rows)



class Layout:
    """Where each block entry of a linear system lands in its constrained CSC.

    Blocks are operator patterns placed at a row and column offset,
    optionally transposed.  ``system`` returns the (data, indices, indptr)
    of the CSC matrix that ``(dm @ A @ dm + diag(fixed)).tocsc()`` gave for
    the block matrix A and the 0/1 free-dof mask dm, bit for bit, and no
    scipy matrix, whose constructor would check the kept structure again:

    - an entry in a fixed row or column is dropped, and each fixed dof
      gets 1.0 on its diagonal;
    - every other entry keeps its value and is stored only if it is
      nonzero, because those sparse products and sums drop exact zeros.
      Storing them would change the pattern, and with it SuperLU's COLAMD
      ordering and the rounding of every solve.  The saddle factor of
      `bgs.solver` pivots with a threshold so that the rows COLAMD's column
      order puts on the diagonal mostly stay there.

    Which entries are exact zeros rarely changes on a mesh: the divergence
    blocks' static zeros always, the velocity block's only on passes such
    as those at z = 0.  So the layout keeps the CSC structure of the last
    zero set it saw, read-only, across passes and runs, and rebuilds it
    only when the block data has exact zeros at other entries.
    """

    def __init__(self, n: int, blocks, fixed: np.ndarray):
        rows, cols, src = [], [], []
        offset = 0
        for pattern, row0, col0, transposed in blocks:
            r, c = pattern.rows, pattern.indices
            if transposed:
                r, c = c, r
            rows.append(row0 + r.astype(np.int64))
            cols.append(col0 + c.astype(np.int64))
            src.append(offset + np.arange(pattern.nnz))
            offset += pattern.nnz
        rows, cols, src = (np.concatenate(a) for a in (rows, cols, src))
        is_fixed = np.zeros(n, dtype=bool)
        is_fixed[fixed] = True
        free = ~(is_fixed[rows] | is_fixed[cols])
        # source `offset` is the 1.0 appended after the block data; an exact
        # zero is dropped from the system where the source is a free entry
        self.droppable = np.append(free, False)
        rows = np.concatenate([rows[free], fixed])
        cols = np.concatenate([cols[free], fixed])
        src = np.concatenate([src[free], np.full(len(fixed), offset)])
        order = np.lexsort((rows, cols))
        self.src = src[order]
        self.indices = rows[order].astype(np.int32)
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n), out=self.indptr[1:])
        self.mask = np.ones(n)
        self.mask[fixed] = 0.0
        for arr in (self.droppable, self.src, self.indices, self.indptr,
                    self.mask):
            arr.setflags(write=False)
        # (droppable sources that hold exact zeros, kept sources, indices,
        # indptr) of the structure last built
        self.structure = None

    def system(self, *block_data: np.ndarray) -> tuple:
        data = np.concatenate(block_data + (np.ones(1),))
        zeros = np.flatnonzero(self.droppable & (data == 0))
        if self.structure is None or not np.array_equal(zeros,
                                                        self.structure[0]):
            self.structure = self._structure(data, zeros)
        _, kept_src, indices, indptr = self.structure
        return data[kept_src], indices, indptr

    def _structure(self, data: np.ndarray, zeros: np.ndarray) -> tuple:
        """The CSC structure of the entries of data that are not exact
        zeros; zeros lists the droppable sources that are."""
        indptr, src, indices = _compress(self.indptr, data[self.src] != 0,
                                         self.src, self.indices)
        structure = (zeros, src, indices, indptr)
        for arr in structure:
            arr.setflags(write=False)
        return structure


def _compress(indptr: np.ndarray, keep: np.ndarray, *arrays) -> tuple:
    """(indptr, *arrays) of a compressed sparse structure cut to the
    entries where keep is true: int32 pointers that count the kept entries
    before each old pointer, and each array's kept entries."""
    kept = np.zeros(len(keep) + 1, dtype=np.int32)
    np.cumsum(keep, out=kept[1:])
    return (kept[indptr],) + tuple(a[keep] for a in arrays)


def _finite(data: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(data)):
        raise ValueError("assembled operator contains non-finite entries")
    return data


def _summed(loc: np.ndarray, pattern: Pattern) -> np.ndarray:
    """Data of the assembled matrix: duplicates added in scipy's order."""
    return _finite(pattern.element_map(loc))


def _scatter(loc: np.ndarray, pattern: Pattern) -> sp.csr_matrix:
    """Sum the element blocks loc[t] into CSR on the operator's pattern:
    the fixed operators, which a run assembles once."""
    return pattern.matrix(_summed(loc, pattern))


def assemble_mass(spaces: FunctionSpaces, which: str) -> sp.csr_matrix:
    """L2 mass matrix of the velocity or temperature space."""
    if which == "velocity":
        m6 = np.einsum("tq,qab->tab", spaces.quad_w, _sym_outer(spaces.p2_at_q))
        loc = np.zeros((spaces.mesh.num_triangles, 12, 12))
        loc[:, 0::2, 0::2] = loc[:, 1::2, 1::2] = m6
        return _scatter(loc, spaces.velocity_pattern)
    if which == "temperature":
        loc = np.einsum("tq,qab->tab", spaces.quad_w, _sym_outer(spaces.p1_at_q))
        return _scatter(loc, spaces.temperature_pattern)
    raise ValueError(f"unknown mass space {which!r}")


# The four operators that depend on the iterate each have a data kernel:
# the data of the assembled matrix on the operator's fixed pattern, with
# 0.0 where the matrix stores nothing, so a Picard pass adds them as arrays
# and builds no matrix.


def velocity_diffusion_data(spaces: FunctionSpaces, model,
                            w_h: FieldVector) -> np.ndarray:
    """Data of assemble_velocity_diffusion on spaces.velocity_pattern."""
    w_q = scalar_at_quadrature(spaces, w_h)
    w = spaces.quad_w * model.viscosity(w_q)
    table, _ = spaces.diffusion_geometry
    acc = np.zeros(table.shape[1:])
    for q in range(w.shape[1]):
        acc += w[:, q, None] * table[q]
    return _finite(spaces.velocity_diffusion_map(acc))


def assemble_velocity_diffusion(spaces: FunctionSpaces, model,
                                w_h: FieldVector) -> sp.csr_matrix:
    """Rotational diffusion with div-div stabilization.

    Entry (i, j) integrates gamma(w_h) * (rot phi_j rot phi_i
    + div phi_j div phi_i) with w_h evaluated through its piecewise-linear
    interpolant at quadrature points.  Symmetric positive semidefinite.
    """
    return spaces.velocity_pattern.matrix(
        velocity_diffusion_data(spaces, model, w_h))


def temperature_diffusion_data(spaces: FunctionSpaces, model,
                               w_h: FieldVector) -> np.ndarray:
    """Data of assemble_temperature_diffusion on spaces.temperature_pattern."""
    w_q = scalar_at_quadrature(spaces, w_h)
    w = (spaces.quad_w * model.conductivity(w_q)).sum(axis=1)
    return _summed(np.einsum("t,tabd->tab", w, spaces.p1_grad_outer),
                   spaces.temperature_pattern)


def assemble_temperature_diffusion(spaces: FunctionSpaces, model,
                                   w_h: FieldVector) -> sp.csr_matrix:
    """Conductivity-weighted stiffness sum_j (k(w_h) d_j mu d_j nu)."""
    return spaces.temperature_pattern.matrix(
        temperature_diffusion_data(spaces, model, w_h))


def assemble_divergence_constraint(spaces: FunctionSpaces) -> sp.csr_matrix:
    """Matrix D with D[k, j] = integral(q_k div phi_j); rows are head dofs."""
    # div of the interleaved basis field 2a + d is d(phi_a)/d(x_d)
    div = spaces.p2_grad_at_q.reshape(spaces.quad_w.shape + (12,))
    loc = np.einsum("tq,qk,tqj->tkj", spaces.quad_w, spaces.p1_at_q, div)
    return _scatter(loc, spaces.divergence_pattern)


def velocity_advection_data(spaces: FunctionSpaces,
                            z_h: FieldVector) -> np.ndarray:
    """Data of assemble_velocity_advection on spaces.velocity_pattern."""
    w = spaces.quad_w * rot_at_quadrature(spaces, z_h)
    n = 21 * len(w)
    values = np.empty(2 * n + 1)    # s, -s and the +0.0 sentinel
    # the upper triangle of einsum("tq,qab->tab", w, outer), bit for bit:
    # the same products summed over q in the same order
    outer = _sym_outer(spaces.p2_at_q)[:, _TRIU[0], _TRIU[1]]
    np.einsum("tq,qk->tk", w, np.ascontiguousarray(outer),
              out=values[:n].reshape(-1, 21))
    np.negative(values[:n], out=values[n:2 * n])
    values[2 * n] = 0.0
    return _finite(spaces.velocity_advection_map(values))


def assemble_velocity_advection(spaces: FunctionSpaces,
                                z_h: FieldVector) -> sp.csr_matrix:
    """Rotational advection N with N[i, j] = integral(rot(z_h) (z-hat x phi_j) . phi_i).

    The integrand is pointwise antisymmetric in (i, j), so the assembled
    matrix is exactly skew-symmetric.
    """
    return spaces.velocity_pattern.matrix(velocity_advection_data(spaces, z_h))


def _temperature_advection_difference(spaces: FunctionSpaces,
                                      z_h: FieldVector) -> np.ndarray:
    """C - C^T on spaces.temperature_pattern, where
    C[i, j] = integral((z_h . grad mu_j) mu_i)."""
    z_q = velocity_at_quadrature(spaces, z_h)
    g = spaces.p1_grad
    zg = z_q[..., 0, None] * g[:, None, :, 0] + z_q[..., 1, None] * g[:, None, :, 1]
    loc = np.einsum("tq,qi,tqj->tij", spaces.quad_w, spaces.p1_at_q, zg)
    pattern = spaces.temperature_pattern
    one_sided = _summed(loc, pattern)
    return one_sided - one_sided[pattern.transposed_slots]


def temperature_advection_data(spaces: FunctionSpaces,
                               z_h: FieldVector) -> np.ndarray:
    """Data of assemble_temperature_advection on spaces.temperature_pattern:
    +0.0 where C - C^T is an exact zero, which the matrix does not store."""
    diff = _temperature_advection_difference(spaces, z_h)
    return np.where(diff != 0, diff * 0.5, 0.0)


def assemble_temperature_advection(spaces: FunctionSpaces,
                                   z_h: FieldVector) -> sp.csr_matrix:
    """Skew-symmetrized temperature advection.

    C[i, j] = 1/2 integral((z_h . grad mu_j) mu_i)
            - 1/2 integral((z_h . grad mu_i) mu_j).
    """
    diff = _temperature_advection_difference(spaces, z_h)
    # what scipy's 0.5 * (C - C.T) stores: exact zeros are dropped
    keep = diff != 0
    return spaces.temperature_pattern.matrix(diff[keep] * 0.5, keep)


def assemble_buoyancy(spaces: FunctionSpaces, beta: float, g) -> sp.csr_matrix:
    """Coupling G[i, j] = integral(beta (g . phi_i) mu_j).

    Rows are velocity dofs, columns temperature dofs; the term enters the
    momentum equation on the left.
    """
    g_q = np.asarray(g(spaces.quad_x), dtype=float)
    if g_q.shape != spaces.quad_x.shape:
        raise ValueError("gravity function must return one 2-vector per point")
    if not np.all(np.isfinite(g_q)):
        raise ValueError("non-finite gravity values at quadrature points")

    w = spaces.quad_w * beta
    loc = np.zeros((spaces.mesh.num_triangles, 12, 3))
    for c in (0, 1):
        loc[:, c::2, :] = np.einsum("tq,qi,qj->tij", w * g_q[..., c],
                                    spaces.p2_at_q, spaces.p1_at_q)
    return _scatter(loc, spaces.buoyancy_pattern)


def _check_pointwise(vals, where, what):
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(np.asarray(vals)))
        idx = tuple(bad[0][:2])
        pt = where[idx[0], idx[1]] if where.ndim == 3 else where[idx[0]]
        raise ValueError(f"non-finite {what} at quadrature point {tuple(pt)}")


def assemble_velocity_load(spaces: FunctionSpaces, f1, v1, t: float) -> np.ndarray:
    """Momentum load: volume forcing plus the head datum on GAMMA1.

    Entry i = integral(f1(., t) . phi_i) + integral_Gamma1(v1(., t) (phi_i . n)).
    Assembled on the unconstrained space; rows at essential dofs are
    overwritten when constraints are applied.
    """
    fv = np.asarray(f1(spaces.quad_x, t), dtype=float)
    if fv.shape != spaces.quad_x.shape:
        raise ValueError("momentum forcing must return one 2-vector per point")
    _check_pointwise(fv, spaces.quad_x, "momentum forcing")

    out = np.zeros(spaces.velocity_dim)
    for c in (0, 1):
        contrib = np.einsum("tq,qa->ta", spaces.quad_w * fv[..., c],
                            spaces.p2_at_q)
        np.add.at(out, 2 * spaces.vel_nodes + c, contrib)

    bs = spaces.gamma1
    if len(bs.verts):
        vv = np.asarray(v1(bs.qx, t), dtype=float)
        if vv.shape != bs.qx.shape[:2]:
            raise ValueError("head datum must return one scalar per point")
        _check_pointwise(vv, bs.qx, "head datum")
        w = spaces.edge_w[None, :] * bs.lengths[:, None]        # (m, me)
        tr = np.einsum("es,sa->ea", w * vv, spaces.p2_trace)    # (m, 3)
        nodes = np.column_stack([bs.verts, bs.mids])
        for c in (0, 1):
            np.add.at(out, 2 * nodes + c, tr * bs.normals[:, c][:, None])
    return out


def assemble_temperature_load(spaces: FunctionSpaces, f2, v2, t: float) -> np.ndarray:
    """Heat load: volume forcing plus the flux datum on GAMMA2."""
    fv = np.asarray(f2(spaces.quad_x, t), dtype=float)
    if fv.shape != spaces.quad_x.shape[:2]:
        raise ValueError("heat forcing must return one scalar per point")
    _check_pointwise(fv, spaces.quad_x, "heat forcing")

    out = np.zeros(spaces.temperature_dim)
    contrib = np.einsum("tq,qa->ta", spaces.quad_w * fv, spaces.p1_at_q)
    np.add.at(out, spaces.mesh.triangles, contrib)

    bs = spaces.gamma2
    if len(bs.verts):
        vv = np.asarray(v2(bs.qx, t), dtype=float)
        if vv.shape != bs.qx.shape[:2]:
            raise ValueError("flux datum must return one scalar per point")
        _check_pointwise(vv, bs.qx, "flux datum")
        w = spaces.edge_w[None, :] * bs.lengths[:, None]
        tr = np.einsum("es,sa->ea", w * vv, spaces.p1_trace)
        np.add.at(out, bs.verts, tr)
    return out


def assemble_velocity_h1_gram(spaces: FunctionSpaces) -> sp.csr_matrix:
    """Full H1 inner product (values plus all first derivatives)."""
    w = spaces.quad_w
    m6 = np.einsum("tq,qab->tab", w, _sym_outer(spaces.p2_at_q))
    g = spaces.p2_grad_at_q                              # (nt, nq, 6, 2)
    outer_k = g[:, :, :, None, :] * g[:, :, None, :, :]
    k6 = np.einsum("tq,tqabd->tab", w, outer_k)
    loc = np.zeros((spaces.mesh.num_triangles, 12, 12))
    loc[:, 0::2, 0::2] = loc[:, 1::2, 1::2] = m6 + k6
    return _scatter(loc, spaces.velocity_pattern)


def assemble_temperature_h1_gram(spaces: FunctionSpaces) -> sp.csr_matrix:
    w = spaces.quad_w
    m3 = np.einsum("tq,qab->tab", w, _sym_outer(spaces.p1_at_q))
    k3 = np.einsum("t,tabd->tab", w.sum(axis=1), spaces.p1_grad_outer)
    return _scatter(m3 + k3, spaces.temperature_pattern)


# ---------------------------------------------------------------------------
# trilinear forms and norms


def _velocity_stacks(spaces: FunctionSpaces, fields) -> tuple[list, bool]:
    """(n, k) column stacks of velocity arguments, and whether all of them
    were FieldVectors (then k = 1)."""
    if all(isinstance(f, FieldVector) for f in fields):
        return [_expect(spaces, f, "velocity")[:, None] for f in fields], True
    stacks = [np.asarray(f) for f in fields]
    shape = stacks[0].shape
    if (len(shape) != 2 or shape[0] != spaces.velocity_dim
            or any(a.shape != shape for a in stacks)):
        raise ValueError("expected three velocity FieldVectors or three "
                         f"(n, k) stacks with n = {spaces.velocity_dim}")
    return stacks, False


def trilinear_b(spaces: FunctionSpaces, u, v, w):
    """b(u, v, w) = integral(rot(u) (z-hat x v) . w).

    Takes three velocity FieldVectors and returns a float, or three
    (n, k) column stacks and returns b of each column triple, (k,).
    Column j of a stack gives the same bytes as a call on column j alone.
    """
    (u, v, w), single = _velocity_stacks(spaces, (u, v, w))
    x_map, y_map, rot_map = spaces.quadrature_maps
    om = rot_map @ u
    vx, vy, wx, wy = x_map @ v, y_map @ v, x_map @ w, y_map @ w
    dens = spaces.quad_w.reshape(-1, 1) * om * (vx * wy - vy * wx)
    # a row-wise sum of the transpose adds each column in one fixed order
    vals = np.ascontiguousarray(dens.T).sum(axis=1)
    return float(vals[0]) if single else vals


def b_moment_vectors(spaces: FunctionSpaces, u, v, w, slots: str = "uvw"):
    """Partial contractions of b against each basis slot.

    Returns (r_u, r_v, r_w) with r_u[i] = b(phi_i, v, w),
    r_v[i] = b(u, phi_i, w) and r_w[i] = b(u, v, phi_i), each (n,) for
    FieldVector arguments or (n, k) for (n, k) column stacks.  r_w at
    u = v = z is N(z) z.  The audit uses them to sharpen sampled
    continuity constants and to take dual norms.  slots names the
    moments to compute and return, in that order ("w" returns (r_w,));
    each is the same bytes as in a call that computes all three.
    """
    if not slots or set(slots) - set("uvw"):
        raise ValueError(f"slots must name moments among 'uvw', got {slots!r}")
    (u, v, w), single = _velocity_stacks(spaces, (u, v, w))
    x_map, y_map, rot_map = spaces.quadrature_maps
    qw = spaces.quad_w.reshape(-1, 1)
    need_w = "u" in slots or "v" in slots
    if need_w:
        wx, wy = x_map @ w, y_map @ w
    if "u" in slots or "w" in slots:
        vx, vy = (wx, wy) if need_w and v is w else (x_map @ v, y_map @ v)
    if "v" in slots or "w" in slots:
        s = qw * (rot_map @ u)
    moments = {}
    if "u" in slots:    # density (z-hat x v) . w against rot(phi_i)
        moments["u"] = rot_map.T @ (qw * (vx * wy - vy * wx))
    # vector density rot(u) (w2, -w1) against phi_i for r_v, rot(u) (-v2, v1)
    # for r_w
    if "v" in slots:
        moments["v"] = x_map.T @ (s * wy) - y_map.T @ (s * wx)
    if "w" in slots:
        moments["w"] = y_map.T @ (s * vx) - x_map.T @ (s * vy)
    return tuple(moments[k][:, 0] if single else moments[k] for k in slots)


def trilinear_c(spaces: FunctionSpaces, z: FieldVector, w: FieldVector,
                phi: FieldVector) -> float:
    """c(z, w, phi) = integral((z . grad w) phi) for piecewise-linear w, phi."""
    zq = velocity_at_quadrature(spaces, z)
    gw = scalar_grad(spaces, w)
    pq = scalar_at_quadrature(spaces, phi)
    zdg = np.einsum("tqd,td->tq", zq, gw)
    return float(np.sum(spaces.quad_w * zdg * pq))


def boundary_normal_flux_product(spaces: FunctionSpaces, z: FieldVector,
                                 w: FieldVector, phi: FieldVector) -> float:
    """integral over the whole boundary of (z . n) w phi ds."""
    zv = _expect(spaces, z, "velocity")
    wv = _expect(spaces, w, w.space)
    pv = _expect(spaces, phi, phi.space)
    total = 0.0
    for bs in (spaces.gamma1, spaces.gamma2):
        if not len(bs.verts):
            continue
        nodes = np.column_stack([bs.verts, bs.mids])     # (m, 3)
        zx = np.einsum("sa,ea->es", spaces.p2_trace, zv[2 * nodes])
        zy = np.einsum("sa,ea->es", spaces.p2_trace, zv[2 * nodes + 1])
        zn = zx * bs.normals[:, 0][:, None] + zy * bs.normals[:, 1][:, None]
        wt = np.einsum("sa,ea->es", spaces.p1_trace, wv[bs.verts])
        pt = np.einsum("sa,ea->es", spaces.p1_trace, pv[bs.verts])
        wq = spaces.edge_w[None, :] * bs.lengths[:, None]
        total += float(np.sum(wq * zn * wt * pt))
    return total


def l2_norm_sq(spaces: FunctionSpaces, f: FieldVector) -> float:
    if f.space == "velocity":
        vq = velocity_at_quadrature(spaces, f)
        return float(np.sum(spaces.quad_w * (vq ** 2).sum(axis=-1)))
    sq = scalar_at_quadrature(spaces, f)
    return float(np.sum(spaces.quad_w * sq ** 2))


def l4_norm(spaces: FunctionSpaces, f: FieldVector) -> float:
    if f.space == "velocity":
        vq = velocity_at_quadrature(spaces, f)
        mag2 = (vq ** 2).sum(axis=-1)
    else:
        mag2 = scalar_at_quadrature(spaces, f) ** 2
    return float(np.sum(spaces.quad_w * mag2 ** 2)) ** 0.25


def rot_seminorm_sq(spaces: FunctionSpaces, z: FieldVector) -> float:
    return float(np.sum(spaces.quad_w * rot_at_quadrature(spaces, z) ** 2))


def div_seminorm_sq(spaces: FunctionSpaces, z: FieldVector) -> float:
    return float(np.sum(spaces.quad_w * div_at_quadrature(spaces, z) ** 2))


def velocity_grad_seminorm_sq(spaces: FunctionSpaces, z: FieldVector) -> float:
    g = velocity_grad_at_quadrature(spaces, z)
    return float(np.sum(spaces.quad_w * (g ** 2).sum(axis=(-2, -1))))


def scalar_grad_seminorm_sq(spaces: FunctionSpaces, w: FieldVector) -> float:
    g = scalar_grad(spaces, w)
    area_w = spaces.quad_w.sum(axis=1)
    return float(np.sum(area_w * (g ** 2).sum(axis=-1)))


def velocity_l2_error(spaces: FunctionSpaces, z: FieldVector, fn, t: float) -> float:
    vq = velocity_at_quadrature(spaces, z)
    ex = np.asarray(fn(spaces.quad_x, t), dtype=float)
    return float(np.sum(spaces.quad_w * ((vq - ex) ** 2).sum(axis=-1))) ** 0.5


def velocity_rot_error(spaces: FunctionSpaces, z: FieldVector, rot_fn,
                       t: float) -> float:
    om = rot_at_quadrature(spaces, z)
    ex = np.asarray(rot_fn(spaces.quad_x, t), dtype=float)
    return float(np.sum(spaces.quad_w * (om - ex) ** 2)) ** 0.5


def scalar_l2_error(spaces: FunctionSpaces, f: FieldVector, fn, t: float) -> float:
    sq = scalar_at_quadrature(spaces, f)
    ex = np.asarray(fn(spaces.quad_x, t), dtype=float)
    return float(np.sum(spaces.quad_w * (sq - ex) ** 2)) ** 0.5


# ---------------------------------------------------------------------------
# point evaluation (used for cross-mesh comparisons)


def _locate(spaces: FunctionSpaces, pts: np.ndarray):
    """Containing triangle and barycentric coordinates for each point."""
    mesh = spaces.mesh
    v0 = mesh.vertices[mesh.triangles[:, 0]]
    j1 = mesh.vertices[mesh.triangles[:, 1]] - v0
    j2 = mesh.vertices[mesh.triangles[:, 2]] - v0
    det = j1[:, 0] * j2[:, 1] - j1[:, 1] * j2[:, 0]

    tri = np.full(len(pts), -1, dtype=np.int64)
    bary = np.zeros((len(pts), 3))
    tol = -1e-10
    for lo in range(0, len(pts), 1024):
        hi = min(lo + 1024, len(pts))
        d = pts[lo:hi, None, :] - v0[None, :, :]          # (m, nt, 2)
        lam1 = (d[..., 0] * j2[None, :, 1] - d[..., 1] * j2[None, :, 0]) / det
        lam2 = (j1[None, :, 0] * d[..., 1] - j1[None, :, 1] * d[..., 0]) / det
        lam0 = 1.0 - lam1 - lam2
        inside = (lam0 >= tol) & (lam1 >= tol) & (lam2 >= tol)
        idx = np.argmax(inside, axis=1)
        ok = inside[np.arange(hi - lo), idx]
        if not np.all(ok):
            bad = pts[lo:hi][~ok][0]
            raise ValueError(f"point {tuple(bad)} lies outside the mesh")
        tri[lo:hi] = idx
        rows = np.arange(hi - lo)
        bary[lo:hi, 0] = lam0[rows, idx]
        bary[lo:hi, 1] = lam1[rows, idx]
        bary[lo:hi, 2] = lam2[rows, idx]
    return tri, bary


class PointEvaluator:
    """Fields of one set of spaces at fixed points inside its mesh.

    The points are located once (a brute-force search over all triangles),
    so evaluating many fields at the same points costs only the
    interpolation.
    """

    def __init__(self, spaces: FunctionSpaces, pts: np.ndarray):
        self.spaces = spaces
        tri, self._bary = _locate(spaces, np.asarray(pts, dtype=float))
        self._vertices = spaces.mesh.triangles[tri]           # (n, 3)
        ref = np.column_stack([self._bary[:, 1], self._bary[:, 2]])
        self._p2_vals, _ = _p2_ref(ref)                       # (n, 6)
        self._x_dofs = 2 * spaces.vel_nodes[tri]              # (n, 6)
        self._y_dofs = self._x_dofs + 1

    def velocity(self, z: FieldVector) -> np.ndarray:
        v = _expect(self.spaces, z, "velocity")
        out = np.empty((len(self._p2_vals), 2))
        out[:, 0] = np.einsum("na,na->n", self._p2_vals, v[self._x_dofs])
        out[:, 1] = np.einsum("na,na->n", self._p2_vals, v[self._y_dofs])
        return out

    def scalar(self, f: FieldVector) -> np.ndarray:
        v = _expect(self.spaces, f, f.space)
        return np.einsum("na,na->n", self._bary, v[self._vertices])


def evaluate_velocity(spaces: FunctionSpaces, z: FieldVector,
                      pts: np.ndarray) -> np.ndarray:
    """Evaluate a velocity field at arbitrary points inside the mesh."""
    return PointEvaluator(spaces, pts).velocity(z)


def evaluate_scalar(spaces: FunctionSpaces, f: FieldVector,
                    pts: np.ndarray) -> np.ndarray:
    return PointEvaluator(spaces, pts).scalar(f)
