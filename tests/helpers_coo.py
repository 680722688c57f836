"""Test-only copies of the sparse paths that operator patterns replaced.

Assembly used to scatter element blocks through a COO matrix on every
call, and each Picard pass built its systems with `scipy.sparse.bmat`
and masked out essential dofs with diagonal products.  The copies below
are kept verbatim, so tests can require the pattern-based paths to give
the same matrices and states bit for bit.
"""

from unittest import mock

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bgs import forms, solver
from bgs.forms import FieldVector


def coo_scatter(loc, row_map, col_map, shape) -> sp.csr_matrix:
    """Sum the element blocks loc[t] into CSR at (row_map[t], col_map[t])."""
    m, a, b = loc.shape
    rows = np.broadcast_to(row_map[:, :, None], (m, a, b)).ravel()
    cols = np.broadcast_to(col_map[:, None, :], (m, a, b)).ravel()
    mat = sp.coo_matrix((loc.ravel(), (rows, cols)), shape=shape).tocsr()
    if not np.all(np.isfinite(mat.data)):
        raise ValueError("assembled operator contains non-finite entries")
    return mat


def _maps(spaces, pattern):
    t = spaces.mesh.triangles
    for name, rows, cols in (("velocity_pattern", spaces.vel_dofs, spaces.vel_dofs),
                             ("temperature_pattern", t, t),
                             ("divergence_pattern", t, spaces.vel_dofs),
                             ("buoyancy_pattern", spaces.vel_dofs, t)):
        if getattr(spaces, name) is pattern:
            return rows, cols
    raise AssertionError("pattern does not belong to these spaces")


def coo_assembled(assemble, spaces, *args):
    """What `assemble(spaces, *args)` returned through the COO scatter.

    The element blocks are the program's own: each `Pattern.sum` call is
    captured and replayed through `coo_scatter`.
    """
    blocks = []
    original = forms.Pattern.sum

    def capture(pattern, loc):
        blocks.append((pattern, loc.copy()))
        return original(pattern, loc)

    with mock.patch.object(forms.Pattern, "sum", capture):
        assemble(spaces, *args)
    (pattern, loc), = blocks
    mat = coo_scatter(loc, *_maps(spaces, pattern), pattern.shape)
    if assemble is forms.assemble_temperature_advection:
        return 0.5 * (mat - mat.T.tocsr())
    return mat


def constrain(matrix, rhs, fixed):
    """Eliminate homogeneous essential dofs in place."""
    n = matrix.shape[0]
    mask = np.ones(n)
    mask[fixed] = 0.0
    dm = sp.diags(mask)
    ind = np.zeros(n)
    ind[fixed] = 1.0
    return (dm @ matrix @ dm + sp.diags(ind)).tocsc(), rhs * mask


def _solve_constrained(matrix, rhs, fixed, stage, lagged=None):
    system, rhs = constrain(matrix, rhs, fixed)
    try:
        if lagged is None:
            x = spla.splu(system).solve(rhs)
        else:
            x = lagged.solve(system, rhs)
    except RuntimeError as exc:
        raise solver.SolverError(f"{stage} stage: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise solver.DivergenceError(f"{stage} stage returned non-finite values")
    return x


def temperature_pass(spaces, problem, config, ops, w_old, z_coeff, w_coeff,
                     load):
    a_k = forms.assemble_temperature_diffusion(spaces, problem.model, w_coeff)
    c_tilde = forms.assemble_temperature_advection(spaces, z_coeff)
    system = ops.mass_temperature / config.dt + a_k + c_tilde
    rhs = ops.mass_temperature @ w_old / config.dt + load
    return _solve_constrained(system, rhs, spaces.fixed_temperature_dofs,
                              "temperature")


def velocity_pass(spaces, problem, config, ops, z_old, z_coeff, w_new, load,
                  lagged):
    a_g = forms.assemble_velocity_diffusion(spaces, problem.model,
                                            FieldVector("temperature", w_new))
    n_adv = forms.assemble_velocity_advection(spaces, z_coeff)
    k_block = ops.mass_velocity / config.dt + a_g + n_adv
    saddle = sp.bmat([[k_block, ops.divergence.T],
                      [ops.divergence, None]], format="csr")
    rhs = np.concatenate([
        ops.mass_velocity @ z_old / config.dt + load
        - problem.buoyancy_sign * (ops.buoyancy @ w_new),
        np.zeros(spaces.head_dim)])
    x = _solve_constrained(saddle, rhs, spaces.fixed_velocity_dofs,
                           "velocity/head", lagged)
    return x[:spaces.velocity_dim], x[spaces.velocity_dim:]

