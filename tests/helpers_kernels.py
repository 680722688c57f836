"""Test-only copies of the element kernels that cached geometry replaced.

Velocity diffusion used to rebuild rot phi_j rot phi_i + div phi_j div phi_i
from two 12x12 outer products at every quadrature point on every call, the
velocity gradients came from an `einsum` over the P2 gradients, and
temperature advection contracted velocity and gradients with an `einsum`.
The copies below are kept verbatim, so tests can require the cached-geometry
paths to give the same bytes.
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
