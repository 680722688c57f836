"""Test-only copies of the sparse paths that operator patterns replaced.

Assembly used to scatter element blocks through a COO matrix on every
call, and each Picard pass built its systems with `scipy.sparse.bmat`,
masked out essential dofs with diagonal products and multiplied by them
with scipy's `@`; later it placed the pattern data through a layout that
recomputed its structure on every pass.  The velocity diffusion and
advection used to build (nt, 12, 12) element blocks; they now sum their
compact element values through per-mesh maps, so the construction of
their blocks is kept here too.  The copies below are kept verbatim, so
tests can require the pattern-based paths to give the same matrices and
states bit for bit.
"""

from unittest import mock

import numpy as np
import scipy.sparse as sp

from bgs import forms, solver


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


def velocity_diffusion_blocks(spaces, model, w_h):
    """The element blocks of `forms.assemble_velocity_diffusion`."""
    w_q = forms.scalar_at_quadrature(spaces, w_h)
    w = spaces.quad_w * model.viscosity(w_q)
    table, expand = spaces.diffusion_geometry
    acc = np.zeros(table.shape[1:])
    for q in range(w.shape[1]):
        acc += w[:, q, None] * table[q]
    return acc[:, expand]


def velocity_advection_blocks(spaces, z_h):
    """The element blocks of `forms.assemble_velocity_advection`."""
    w = spaces.quad_w * forms.rot_at_quadrature(spaces, z_h)
    s = np.einsum("tq,qab->tab", w, forms._sym_outer(spaces.p2_at_q))  # bit-symmetric
    loc = np.zeros((spaces.mesh.num_triangles, 12, 12))
    loc[:, 1::2, 0::2] = s      # (z-hat x e_x) . e_y = +1
    loc[:, 0::2, 1::2] = -s     # (z-hat x e_y) . e_x = -1
    return loc


_VELOCITY_BLOCKS = {forms.assemble_velocity_diffusion: velocity_diffusion_blocks,
                    forms.assemble_velocity_advection: velocity_advection_blocks}


def coo_assembled(assemble, spaces, *args):
    """What `assemble(spaces, *args)` returned through the COO scatter.

    The velocity diffusion and advection blocks come from the copies
    above.  Every other assembler's element blocks are its own: its one
    `forms._summed` call is captured and replayed through `coo_scatter`.
    """
    if assemble in _VELOCITY_BLOCKS:
        loc = _VELOCITY_BLOCKS[assemble](spaces, *args)
        return coo_scatter(loc, spaces.vel_dofs, spaces.vel_dofs,
                           spaces.velocity_pattern.shape)
    blocks = []
    original = forms._summed

    def capture(loc, pattern):
        blocks.append((pattern, loc.copy()))
        return original(loc, pattern)

    with mock.patch.object(forms, "_summed", capture):
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


def layout_system(layout, *block_data):
    """The CSC arrays of `forms.Layout.system`, as a layout placed its
    block data on every pass: the keep mask, its cumsum and the index
    gathers."""
    values = np.concatenate(block_data + (np.ones(1),))[layout.src]
    keep = values != 0
    kept = np.zeros(len(keep) + 1, dtype=np.int32)
    np.cumsum(keep, out=kept[1:])
    return values[keep], layout.indices[keep], kept[layout.indptr]


def _arrays(system) -> tuple:
    """The (data, indices, indptr) of a scipy CSC matrix."""
    return system.data, system.indices, system.indptr


def on_pattern(matrix, pattern) -> np.ndarray:
    """The entries a scipy matrix stores, as data on pattern: +0.0 where it
    stores none."""
    m = matrix.tocsr()
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    keys = pattern.rows.astype(np.int64) * pattern.shape[1] + pattern.indices
    data = np.zeros(pattern.nnz)
    data[np.searchsorted(keys, rows * pattern.shape[1] + m.indices)] = m.data
    return data


class ConstrainedSystem:
    """A `forms.Layout` as the passes before it were: the system is the
    scipy matrix build(*block_data) passed through `constrain`, and its
    product is scipy's `@` on it."""

    def __init__(self, build, fixed, n):
        self.build, self.fixed = build, fixed
        self.mask = np.ones(n)
        self.mask[fixed] = 0.0

    def system(self, *block_data):
        n = len(self.mask)
        return constrain(self.build(*block_data), np.zeros(n), self.fixed)[0]

    def product(self, x, *block_data):
        return self.system(*block_data) @ x


def use_bmat_passes(monkeypatch, config):
    """Make the solver's passes the ones its layouts replaced.

    Each system's block data is the scipy sum of M / dt and the assembled
    operators: the step's M / dt data is not used, M / dt is formed here.
    Each system is built by `sp.bmat` and `constrain` and multiplied by
    scipy's `@`.
    """
    def temperature_data(spaces, problem, mass_dt, z_coeff, w_coeff):
        system = (spaces.mass_temperature / config.dt
                  + forms.assemble_temperature_diffusion(spaces, problem.model,
                                                         w_coeff)
                  + forms.assemble_temperature_advection(spaces, z_coeff))
        return on_pattern(system, spaces.temperature_pattern)

    def saddle_data(spaces, mass_dt, k_data, n_data):
        pattern = spaces.velocity_pattern
        block = (spaces.mass_velocity / config.dt + pattern.matrix(k_data)
                 + pattern.matrix(n_data))
        d_data = spaces.divergence.data
        return on_pattern(block, pattern), d_data, d_data

    def temperature_layout(spaces):
        return ConstrainedSystem(spaces.temperature_pattern.matrix,
                                 spaces.fixed_temperature_dofs,
                                 spaces.temperature_dim)

    def saddle_layout(spaces):
        def build(block, d_data, _):
            d = spaces.divergence_pattern.matrix(d_data)
            return sp.bmat([[spaces.velocity_pattern.matrix(block), d.T],
                            [d, None]], format="csr")
        return ConstrainedSystem(build, spaces.fixed_velocity_dofs,
                                 spaces.velocity_dim + spaces.head_dim)

    monkeypatch.setattr(solver, "_temperature_data", temperature_data)
    monkeypatch.setattr(solver, "_saddle_data", saddle_data)
    monkeypatch.setattr(forms.FunctionSpaces, "temperature_layout",
                        property(temperature_layout))
    monkeypatch.setattr(forms.FunctionSpaces, "saddle_layout",
                        property(saddle_layout))
