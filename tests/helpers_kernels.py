"""Test-only copies of the element kernels that cached geometry replaced.

Velocity diffusion used to rebuild rot phi_j rot phi_i + div phi_j div phi_i
from two 12x12 outer products at every quadrature point on every call, the
velocity gradients came from an `einsum` over the P2 gradients, and
temperature advection contracted velocity and gradients with an `einsum`.
The copies below are kept verbatim, so tests can require the cached-geometry
paths to give the same bytes.

`data_of` reads an assembled matrix's data back onto its operator
pattern, the form in which the data kernels return it.

The trilinear form b and its moment vectors were evaluated one field at a
time from the quadrature kernels; they now go through sparse quadrature
maps on column stacks, which adds in another order.  Their per-field
bodies are kept verbatim below as the reference within a tolerance.
"""

from unittest import mock

import numpy as np

from bgs import forms
from bgs.forms import _expect, _scatter, _summed, _sym_outer


def velocity_grad_at_quadrature(spaces, z):
    """Gradients d(z_c)/d(x_d) at quadrature points, (nt, nq, 2, 2)."""
    v = _expect(spaces, z, "velocity")
    zx = v[2 * spaces.vel_nodes]
    zy = v[2 * spaces.vel_nodes + 1]
    out = np.empty(spaces.quad_x.shape[:2] + (2, 2))
    out[..., 0, :] = np.einsum("tqad,ta->tqd", spaces.p2_grad_at_q, zx)
    out[..., 1, :] = np.einsum("tqad,ta->tqd", spaces.p2_grad_at_q, zy)
    return out


def rot_at_quadrature(spaces, z):
    g = velocity_grad_at_quadrature(spaces, z)
    return g[..., 1, 0] - g[..., 0, 1]


def div_at_quadrature(spaces, z):
    g = velocity_grad_at_quadrature(spaces, z)
    return g[..., 0, 0] + g[..., 1, 1]


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


def assemble_velocity_diffusion(spaces, model, w_h):
    w_q = forms.scalar_at_quadrature(spaces, w_h)
    w = spaces.quad_w * model.viscosity(w_q)
    rot, div = _vector_rot_div(spaces)
    # one quadrature point at a time keeps temporaries at (nt, 12, 12)
    loc = np.zeros((spaces.mesh.num_triangles, 12, 12))
    for q in range(w.shape[1]):
        loc += w[:, q, None, None] * (_sym_outer(rot[:, q])
                                      + _sym_outer(div[:, q]))
    return _scatter(loc, spaces.velocity_pattern)


def assemble_divergence_constraint(spaces):
    _, div = _vector_rot_div(spaces)
    loc = np.einsum("tq,qk,tqj->tkj", spaces.quad_w, spaces.p1_at_q, div)
    return _scatter(loc, spaces.divergence_pattern)


def assemble_temperature_advection(spaces, z_h):
    z_q = forms.velocity_at_quadrature(spaces, z_h)
    zg = np.einsum("tqd,tad->tqa", z_q, spaces.p1_grad)
    loc = np.einsum("tq,qi,tqj->tij", spaces.quad_w, spaces.p1_at_q, zg)
    pattern = spaces.temperature_pattern
    one_sided = _summed(loc, pattern)
    # what scipy's 0.5 * (C - C.T) stores: exact zeros are dropped
    diff = one_sided - one_sided[pattern.transposed_slots]
    keep = diff != 0
    return pattern.matrix(diff[keep] * 0.5, keep)


def with_einsum_rot(fn, *args):
    """fn(*args) with `forms.rot_at_quadrature` replaced by the einsum copy."""
    with mock.patch.object(forms, "rot_at_quadrature", rot_at_quadrature):
        return fn(*args)


def trilinear_b(spaces, u, v, w):
    """b(u, v, w) = integral(rot(u) (z-hat x v) . w)."""
    om = forms.rot_at_quadrature(spaces, u)
    vq = forms.velocity_at_quadrature(spaces, v)
    wq = forms.velocity_at_quadrature(spaces, w)
    cross = vq[..., 0] * wq[..., 1] - vq[..., 1] * wq[..., 0]
    return float(np.sum(spaces.quad_w * om * cross))


def b_moment_vectors(spaces, u, v, w):
    """Partial contractions of b against each basis slot.

    Returns (r_u, r_v, r_w) with r_u[i] = b(phi_i, v, w),
    r_v[i] = b(u, phi_i, w) and r_w[i] = b(u, v, phi_i); used by the
    audit to sharpen sampled continuity constants by coordinate ascent.
    """
    om = forms.rot_at_quadrature(spaces, u)
    vq = forms.velocity_at_quadrature(spaces, v)
    wq = forms.velocity_at_quadrature(spaces, w)
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


def data_of(pattern, mat):
    """Data of a canonical CSR matrix whose entries lie on pattern, spread
    onto the pattern with 0.0 where the matrix stores nothing: the
    reference the data kernels are held to."""
    if mat.nnz == pattern.nnz:
        return mat.data
    ncols = pattern.shape[1]
    keys = pattern.rows.astype(np.int64) * ncols + pattern.indices
    rows = np.repeat(np.arange(pattern.shape[0]), np.diff(mat.indptr))
    out = np.zeros(pattern.nnz)
    out[np.searchsorted(keys, rows * ncols + mat.indices)] = mat.data
    return out
