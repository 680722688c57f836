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

from .mesh import GAMMA1, GAMMA2, Mesh, unique_edges
from .quadrature import edge_rule, triangle_rule


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

    def copy(self) -> "FieldVector":
        return FieldVector(self.space, self.values.copy())


@dataclass(frozen=True)
class BoundarySide:
    """Precomputed quadrature data for one tagged part of the boundary."""

    verts: np.ndarray      # (m, 2) endpoint vertex ids, boundary-CCW order
    mids: np.ndarray       # (m,) midpoint P2 node ids
    lengths: np.ndarray    # (m,)
    normals: np.ndarray    # (m, 2) outward unit normals
    qx: np.ndarray         # (m, nq, 2) physical quadrature points


@dataclass(frozen=True)
class FunctionSpaces:
    """Geometry, dof maps, constraints and quadrature tables for one mesh.

    The CSR pattern of each operator pair is built on first use, not by
    build_spaces, so a caller that assembles nothing does not pay for it.
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
    edge_s: np.ndarray           # (me,) edge quadrature abscissae on [0,1]
    edge_w: np.ndarray           # (me,)
    p2_trace: np.ndarray         # (me, 3) traces of [u, v, mid] basis on an edge
    p1_trace: np.ndarray         # (me, 2) traces of [u, v]
    gamma1: BoundarySide
    gamma2: BoundarySide
    fixed_velocity_dofs: np.ndarray     # sorted unique dof ids
    fixed_temperature_dofs: np.ndarray  # sorted unique vertex ids

    def __post_init__(self):
        for name in ("edges", "tri_edges", "node_coords", "vel_nodes",
                     "vel_dofs", "areas", "quad_x", "quad_w",
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
    def velocity_pattern(self) -> "Pattern":
        n = self.velocity_dim
        return Pattern(self.vel_dofs, self.vel_dofs, (n, n))

    @cached_property
    def temperature_pattern(self) -> "Pattern":
        n = self.temperature_dim
        return Pattern(self.mesh.triangles, self.mesh.triangles, (n, n))

    @cached_property
    def divergence_pattern(self) -> "Pattern":
        return Pattern(self.mesh.triangles, self.vel_dofs,
                       (self.head_dim, self.velocity_dim))

    @cached_property
    def buoyancy_pattern(self) -> "Pattern":
        return Pattern(self.vel_dofs, self.mesh.triangles,
                       (self.velocity_dim, self.temperature_dim))


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

    return FunctionSpaces(
        mesh=mesh, edges=edges, tri_edges=tri_edges, node_coords=node_coords,
        vel_nodes=vel_nodes, vel_dofs=vel_dofs, areas=areas, quad_x=quad_x,
        quad_w=quad_w, p2_at_q=p2_vals, p2_grad_at_q=p2_grad, p1_at_q=p1_vals,
        p1_grad=p1_grad, edge_s=es, edge_w=ew, p2_trace=p2_trace,
        p1_trace=p1_trace, gamma1=gamma1, gamma2=gamma2,
        fixed_velocity_dofs=fixed_velocity,
        fixed_temperature_dofs=fixed_temperature)


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


def interpolate_scalar(spaces: FunctionSpaces, fn, t: float = 0.0,
                       space: str = "temperature") -> FieldVector:
    """Nodal interpolant of a scalar function at mesh vertices."""
    vals = np.asarray(fn(spaces.mesh.vertices, t), dtype=float)
    if vals.shape != (spaces.mesh.num_vertices,):
        raise ValueError("scalar data must return one value per point")
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite scalar data at interpolation nodes")
    return FieldVector(space, vals)


def velocity_at_quadrature(spaces: FunctionSpaces, z: FieldVector) -> np.ndarray:
    """Values of a velocity field at all volume quadrature points, (nt, nq, 2)."""
    v = _expect(spaces, z, "velocity")
    zx = v[2 * spaces.vel_nodes]
    zy = v[2 * spaces.vel_nodes + 1]
    out = np.empty(spaces.quad_x.shape)
    out[..., 0] = np.einsum("qa,ta->tq", spaces.p2_at_q, zx)
    out[..., 1] = np.einsum("qa,ta->tq", spaces.p2_at_q, zy)
    return out


def velocity_grad_at_quadrature(spaces: FunctionSpaces, z: FieldVector) -> np.ndarray:
    """Gradients d(z_c)/d(x_d) at quadrature points, (nt, nq, 2, 2)."""
    v = _expect(spaces, z, "velocity")
    zx = v[2 * spaces.vel_nodes]
    zy = v[2 * spaces.vel_nodes + 1]
    out = np.empty(spaces.quad_x.shape[:2] + (2, 2))
    out[..., 0, :] = np.einsum("tqad,ta->tqd", spaces.p2_grad_at_q, zx)
    out[..., 1, :] = np.einsum("tqad,ta->tqd", spaces.p2_grad_at_q, zy)
    return out


def rot_at_quadrature(spaces: FunctionSpaces, z: FieldVector) -> np.ndarray:
    g = velocity_grad_at_quadrature(spaces, z)
    return g[..., 1, 0] - g[..., 0, 1]


def div_at_quadrature(spaces: FunctionSpaces, z: FieldVector) -> np.ndarray:
    g = velocity_grad_at_quadrature(spaces, z)
    return g[..., 0, 0] + g[..., 1, 1]


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


class Pattern:
    """CSR pattern of one element-assembled operator, fixed per mesh.

    Element block entry loc[t, a, b] belongs at (row_map[t, a],
    col_map[t, b]).  ``perm`` lists the flat entries in the order that
    scipy's COO->CSR conversion leaves them: ``coo_tocsr`` sorts them
    stably by row, then ``csr_sort_indices`` sorts each row by column
    with ``std::sort``, which is not stable.  ``slot`` is the data slot
    of each entry in that order.  Adding duplicates in this order
    reproduces scipy's sums bit for bit; adding them in element order
    does not (219 entries of the 16x16 velocity diffusion differ).  The
    order is read off once by sorting a CSR matrix of entry ids.
    """

    def __init__(self, row_map: np.ndarray, col_map: np.ndarray, shape):
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
        self.perm = ids.data.astype(np.intp)
        rows, cols = rows[self.perm], ids.indices
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        self.slot = np.cumsum(first) - 1
        self.shape = tuple(shape)
        self.nnz = int(first.sum())
        # int32, as scipy stores indices at every size assembled here
        self.rows = rows[first].astype(np.int32)
        self.indices = cols[first].astype(np.int32)
        self.indptr = np.zeros(shape[0] + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.rows, minlength=shape[0]), out=self.indptr[1:])
        for arr in (self.perm, self.slot, self.rows, self.indices, self.indptr):
            arr.setflags(write=False)   # shared by every matrix on the pattern

    def sum(self, loc: np.ndarray) -> np.ndarray:
        """Data of the assembled matrix: duplicates added in scipy's order.

        Starting from -0.0, the additive identity, keeps the sign of a sum
        of negative zeros as scipy does.
        """
        data = np.full(self.nnz, -0.0)
        np.add.at(data, self.slot, loc.ravel()[self.perm])
        return data

    def matrix(self, data: np.ndarray, keep: np.ndarray | None = None
               ) -> sp.csr_matrix:
        """Canonical CSR with this pattern, or its ``keep`` slots only."""
        if keep is None:
            indptr, indices = self.indptr.copy(), self.indices.copy()
        else:
            kept = np.zeros(self.nnz + 1, dtype=np.int32)
            np.cumsum(keep, out=kept[1:])
            indptr, indices = kept[self.indptr], self.indices[keep]
        return sp.csr_matrix((data, indices, indptr), shape=self.shape)

    @cached_property
    def _keys(self) -> np.ndarray:
        # ascending, because the pattern is canonical CSR
        return self.rows.astype(np.int64) * self.shape[1] + self.indices

    @cached_property
    def transposed_slots(self) -> np.ndarray:
        """Slot of (j, i) for each slot (i, j) of a symmetric pattern."""
        return np.searchsorted(
            self._keys, self.indices.astype(np.int64) * self.shape[1] + self.rows)

    def data_of(self, mat: sp.csr_matrix) -> np.ndarray:
        """Data of a canonical CSR matrix whose entries lie on this pattern,
        spread onto the pattern with 0.0 where it stores nothing."""
        if mat.nnz == self.nnz:
            return mat.data
        rows = np.repeat(np.arange(self.shape[0]), np.diff(mat.indptr))
        out = np.zeros(self.nnz)
        out[np.searchsorted(self._keys, rows * self.shape[1] + mat.indices)] = mat.data
        return out


def _summed(loc: np.ndarray, pattern: Pattern) -> np.ndarray:
    data = pattern.sum(loc)
    if not np.all(np.isfinite(data)):
        raise ValueError("assembled operator contains non-finite entries")
    return data


def _scatter(loc: np.ndarray, pattern: Pattern) -> sp.csr_matrix:
    """Sum the element blocks loc[t] into CSR on the operator's pattern."""
    return pattern.matrix(_summed(loc, pattern))


def _vector_rot_div(spaces):
    """Rot and div of the 12 local velocity basis fields at quadrature points."""
    g = spaces.p2_grad_at_q                           # (nt, nq, 6, 2)
    nt, nq = g.shape[:2]
    rot = np.empty((nt, nq, 12))
    div = np.empty((nt, nq, 12))
    rot[..., 0::2] = -g[..., 1]                       # x-component basis
    rot[..., 1::2] = g[..., 0]                        # y-component basis
    div[..., 0::2] = g[..., 0]
    div[..., 1::2] = g[..., 1]
    return rot, div


def assemble_mass(spaces: FunctionSpaces, which: str) -> sp.csr_matrix:
    """L2 mass matrix of the velocity or temperature space."""
    if which == "velocity":
        m6 = np.einsum("tq,qab->tab", spaces.quad_w, _sym_outer(spaces.p2_at_q))
        loc = np.zeros((spaces.mesh.num_triangles, 12, 12))
        loc[:, 0::2, 0::2] = m6
        loc[:, 1::2, 1::2] = m6
        return _scatter(loc, spaces.velocity_pattern)
    if which == "temperature":
        loc = np.einsum("tq,qab->tab", spaces.quad_w, _sym_outer(spaces.p1_at_q))
        return _scatter(loc, spaces.temperature_pattern)
    raise ValueError(f"unknown mass space {which!r}")


def assemble_velocity_diffusion(spaces: FunctionSpaces, model,
                                w_h: FieldVector) -> sp.csr_matrix:
    """Rotational diffusion with div-div stabilization.

    Entry (i, j) integrates gamma(w_h) * (rot phi_j rot phi_i
    + div phi_j div phi_i) with w_h evaluated through its piecewise-linear
    interpolant at quadrature points.  Symmetric positive semidefinite.
    """
    w_q = scalar_at_quadrature(spaces, w_h)
    w = spaces.quad_w * model.viscosity(w_q)
    rot, div = _vector_rot_div(spaces)
    # one quadrature point at a time keeps temporaries at (nt, 12, 12)
    loc = np.zeros((spaces.mesh.num_triangles, 12, 12))
    for q in range(w.shape[1]):
        loc += w[:, q, None, None] * (_sym_outer(rot[:, q])
                                      + _sym_outer(div[:, q]))
    return _scatter(loc, spaces.velocity_pattern)


def assemble_temperature_diffusion(spaces: FunctionSpaces, model,
                                   w_h: FieldVector) -> sp.csr_matrix:
    """Conductivity-weighted stiffness sum_j (k(w_h) d_j mu d_j nu)."""
    w_q = scalar_at_quadrature(spaces, w_h)
    w = (spaces.quad_w * model.conductivity(w_q)).sum(axis=1)
    g = spaces.p1_grad                                   # (nt, 3, 2)
    outer = g[:, :, None, :] * g[:, None, :, :]          # (nt, 3, 3, 2)
    return _scatter(np.einsum("t,tabd->tab", w, outer),
                    spaces.temperature_pattern)


def assemble_divergence_constraint(spaces: FunctionSpaces) -> sp.csr_matrix:
    """Matrix D with D[k, j] = integral(q_k div phi_j); rows are head dofs."""
    _, div = _vector_rot_div(spaces)
    loc = np.einsum("tq,qk,tqj->tkj", spaces.quad_w, spaces.p1_at_q, div)
    return _scatter(loc, spaces.divergence_pattern)


def assemble_velocity_advection(spaces: FunctionSpaces,
                                z_h: FieldVector) -> sp.csr_matrix:
    """Rotational advection N with N[i, j] = integral(rot(z_h) (z-hat x phi_j) . phi_i).

    The integrand is pointwise antisymmetric in (i, j), so the assembled
    matrix is exactly skew-symmetric.
    """
    w = spaces.quad_w * rot_at_quadrature(spaces, z_h)
    s = np.einsum("tq,qab->tab", w, _sym_outer(spaces.p2_at_q))  # bit-symmetric
    loc = np.zeros((spaces.mesh.num_triangles, 12, 12))
    loc[:, 1::2, 0::2] = s      # (z-hat x e_x) . e_y = +1
    loc[:, 0::2, 1::2] = -s     # (z-hat x e_y) . e_x = -1
    return _scatter(loc, spaces.velocity_pattern)


def assemble_temperature_advection(spaces: FunctionSpaces,
                                   z_h: FieldVector) -> sp.csr_matrix:
    """Skew-symmetrized temperature advection.

    C[i, j] = 1/2 integral((z_h . grad mu_j) mu_i)
            - 1/2 integral((z_h . grad mu_i) mu_j).
    """
    z_q = velocity_at_quadrature(spaces, z_h)
    zg = np.einsum("tqd,tad->tqa", z_q, spaces.p1_grad)
    loc = np.einsum("tq,qi,tqj->tij", spaces.quad_w, spaces.p1_at_q, zg)
    pattern = spaces.temperature_pattern
    one_sided = _summed(loc, pattern)
    # what scipy's 0.5 * (C - C.T) stores: exact zeros are dropped
    diff = one_sided - one_sided[pattern.transposed_slots]
    keep = diff != 0
    return pattern.matrix(diff[keep] * 0.5, keep)


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
    loc[:, 0::2, 0::2] = m6 + k6
    loc[:, 1::2, 1::2] = m6 + k6
    return _scatter(loc, spaces.velocity_pattern)


def assemble_temperature_h1_gram(spaces: FunctionSpaces) -> sp.csr_matrix:
    w = spaces.quad_w
    m3 = np.einsum("tq,qab->tab", w, _sym_outer(spaces.p1_at_q))
    g = spaces.p1_grad
    outer_k = g[:, :, None, :] * g[:, None, :, :]
    k3 = np.einsum("t,tabd->tab", w.sum(axis=1), outer_k)
    return _scatter(m3 + k3, spaces.temperature_pattern)


# ---------------------------------------------------------------------------
# trilinear forms and norms


def trilinear_b(spaces: FunctionSpaces, u: FieldVector, v: FieldVector,
                w: FieldVector) -> float:
    """b(u, v, w) = integral(rot(u) (z-hat x v) . w)."""
    om = rot_at_quadrature(spaces, u)
    vq = velocity_at_quadrature(spaces, v)
    wq = velocity_at_quadrature(spaces, w)
    cross = vq[..., 0] * wq[..., 1] - vq[..., 1] * wq[..., 0]
    return float(np.sum(spaces.quad_w * om * cross))


def b_moment_vectors(spaces: FunctionSpaces, u: FieldVector, v: FieldVector,
                     w: FieldVector):
    """Partial contractions of b against each basis slot.

    Returns (r_u, r_v, r_w) with r_u[i] = b(phi_i, v, w),
    r_v[i] = b(u, phi_i, w) and r_w[i] = b(u, v, phi_i); used by the
    audit to sharpen sampled continuity constants by coordinate ascent.
    """
    om = rot_at_quadrature(spaces, u)
    vq = velocity_at_quadrature(spaces, v)
    wq = velocity_at_quadrature(spaces, w)
    qw = spaces.quad_w
    n = spaces.velocity_dim

    # r_u: density (z-hat x v) . w against rot(phi_i)
    cross = vq[..., 0] * wq[..., 1] - vq[..., 1] * wq[..., 0]
    g = spaces.p2_grad_at_q
    loc_u = np.empty((spaces.mesh.num_triangles, 12))
    loc_u[:, 0::2] = -np.einsum("tq,tqa->ta", qw * cross, g[..., 1])
    loc_u[:, 1::2] = np.einsum("tq,tqa->ta", qw * cross, g[..., 0])

    # r_v: vector density rot(u) (w2, -w1) against phi_i
    sv = om[..., None] * np.stack([wq[..., 1], -wq[..., 0]], axis=-1)
    mom_v = np.einsum("tq,tqd,qa->tad", qw, sv, spaces.p2_at_q)
    loc_v = np.empty((spaces.mesh.num_triangles, 12))
    loc_v[:, 0::2] = mom_v[..., 0]
    loc_v[:, 1::2] = mom_v[..., 1]

    # r_w: vector density rot(u) (-v2, v1) against phi_i
    sw = om[..., None] * np.stack([-vq[..., 1], vq[..., 0]], axis=-1)
    mom_w = np.einsum("tq,tqd,qa->tad", qw, sw, spaces.p2_at_q)
    loc_w = np.empty((spaces.mesh.num_triangles, 12))
    loc_w[:, 0::2] = mom_w[..., 0]
    loc_w[:, 1::2] = mom_w[..., 1]

    out = np.zeros((3, n))
    for k, loc in enumerate((loc_u, loc_v, loc_w)):
        np.add.at(out[k], spaces.vel_dofs.ravel(), loc.ravel())
    return out[0], out[1], out[2]


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


def evaluate_velocity(spaces: FunctionSpaces, z: FieldVector,
                      pts: np.ndarray) -> np.ndarray:
    """Evaluate a velocity field at arbitrary points inside the mesh."""
    v = _expect(spaces, z, "velocity")
    tri, bary = _locate(spaces, np.asarray(pts, dtype=float))
    ref = np.column_stack([bary[:, 1], bary[:, 2]])
    vals, _ = _p2_ref(ref)                                # (n, 6)
    nodes = spaces.vel_nodes[tri]                         # (n, 6)
    out = np.empty((len(pts), 2))
    out[:, 0] = np.einsum("na,na->n", vals, v[2 * nodes])
    out[:, 1] = np.einsum("na,na->n", vals, v[2 * nodes + 1])
    return out


def evaluate_scalar(spaces: FunctionSpaces, f: FieldVector,
                    pts: np.ndarray) -> np.ndarray:
    v = _expect(spaces, f, f.space)
    tri, bary = _locate(spaces, np.asarray(pts, dtype=float))
    loc = v[spaces.mesh.triangles[tri]]
    return np.einsum("na,na->n", bary, loc)
