"""Assembled operators: symmetry classes, exact identities, dense cross-checks."""

import numpy as np
import pytest

from bgs import build_rectangle_mesh, build_spaces
from bgs.coefficients import (
    CoefficientModel,
    clamped_affine_law,
    constant_model,
    tanh_blend_law,
)
from bgs import forms
from bgs.forms import FieldVector

import helpers_coo as hc
import helpers_dense as hd


def _random_field(spaces, space, rng, zero_fixed=False):
    x = rng.standard_normal(spaces.dim_of(space))
    if zero_fixed:
        fixed = (spaces.fixed_velocity_dofs if space == "velocity"
                 else spaces.fixed_temperature_dofs)
        x[fixed] = 0.0
    return FieldVector(space, x)


def _rel_max(a, b):
    scale = max(np.max(np.abs(b)), 1e-30)
    return np.max(np.abs(a - b)) / scale


# ---------------------------------------------------------------------------
# function spaces


def test_space_dimensions_2x2(spaces_2x2):
    s = spaces_2x2
    assert s.velocity_dim == 50
    assert s.head_dim == 9
    assert s.temperature_dim == 9
    assert len(s.fixed_velocity_dofs) == 29
    assert len(s.fixed_temperature_dofs) == 3


def test_fixed_dofs_sorted_unique_and_in_range(spaces_4x4):
    s = spaces_4x4
    for fixed, dim in ((s.fixed_velocity_dofs, s.velocity_dim),
                       (s.fixed_temperature_dofs, s.temperature_dim)):
        assert np.array_equal(fixed, np.unique(fixed))
        assert fixed.min() >= 0 and fixed.max() < dim


def test_corner_nodes_fully_constrained(spaces_2x2):
    # (0,0) and (0,1) sit on both the head side and the no-slip side;
    # the full zero constraint must win
    s = spaces_2x2
    for corner in ((0.0, 0.0), (0.0, 1.0)):
        node = int(np.argmin(np.sum((s.node_coords - corner) ** 2, axis=1)))
        assert np.allclose(s.node_coords[node], corner)
        assert 2 * node in s.fixed_velocity_dofs
        assert 2 * node + 1 in s.fixed_velocity_dofs


def test_quadrature_weights_positive_and_sum_to_areas(spaces_4x4):
    s = spaces_4x4
    assert np.all(s.quad_w > 0)
    assert np.max(np.abs(s.quad_w.sum(axis=1) - s.areas)) < 1e-15
    assert abs(s.areas.sum() - 1.0) < 1e-14


def test_field_vector_space_checks(spaces_2x2):
    with pytest.raises(ValueError):
        FieldVector("pressure", np.zeros(3))
    wrong = FieldVector("temperature", np.zeros(spaces_2x2.temperature_dim))
    with pytest.raises(ValueError):
        forms.velocity_at_quadrature(spaces_2x2, wrong)
    short = FieldVector("velocity", np.zeros(4))
    with pytest.raises(ValueError):
        forms.velocity_at_quadrature(spaces_2x2, short)


def test_interpolation_rejects_non_finite(spaces_2x2):
    with pytest.raises(ValueError):
        forms.interpolate_scalar(spaces_2x2, lambda x, t: np.full(len(x), np.nan))
    with pytest.raises(ValueError):
        forms.interpolate_velocity(
            spaces_2x2, lambda x, t: np.full((len(x), 2), np.inf))


# ---------------------------------------------------------------------------
# exact derivative identities (P2 interpolation is exact on quadratics)


def test_gradient_of_linear_interpolant_exact(spaces_2x2):
    z = forms.interpolate_velocity(spaces_2x2, lambda x, t: np.stack(
        [x[:, 0], x[:, 1]], axis=-1))
    g = forms.velocity_grad_at_quadrature(spaces_2x2, z)
    expected = np.zeros_like(g)
    expected[..., 0, 0] = 1.0
    expected[..., 1, 1] = 1.0
    assert np.max(np.abs(g - expected)) < 1e-13


def test_rot_of_quadratic_field_exact(spaces_2x2):
    z = forms.interpolate_velocity(spaces_2x2, lambda x, t: np.stack(
        [x[:, 1] ** 2, np.zeros(len(x))], axis=-1))
    rot = forms.rot_at_quadrature(spaces_2x2, z)
    assert np.max(np.abs(rot + 2.0 * spaces_2x2.quad_x[..., 1])) < 1e-13


def test_div_and_rot_free_linear_field(spaces_2x2):
    z = forms.interpolate_velocity(spaces_2x2, lambda x, t: np.stack(
        [x[:, 0], -x[:, 1]], axis=-1))
    assert np.max(np.abs(forms.div_at_quadrature(spaces_2x2, z))) < 1e-13
    assert np.max(np.abs(forms.rot_at_quadrature(spaces_2x2, z))) < 1e-13
    model = constant_model(1.0, 1.0)
    a = forms.assemble_velocity_diffusion(
        spaces_2x2, model, forms.zeros_field(spaces_2x2, "temperature"))
    assert np.max(np.abs(a @ z.values)) < 1e-13


# ---------------------------------------------------------------------------
# storage format shared by every assembled operator


_TANH_MODEL = CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.9, 1.1))

_ASSEMBLERS = {
    "mass_velocity": lambda s, rng: forms.assemble_mass(s, "velocity"),
    "mass_temperature": lambda s, rng: forms.assemble_mass(s, "temperature"),
    "velocity_diffusion": lambda s, rng: forms.assemble_velocity_diffusion(
        s, _TANH_MODEL, _random_field(s, "temperature", rng)),
    "temperature_diffusion": lambda s, rng: forms.assemble_temperature_diffusion(
        s, _TANH_MODEL, _random_field(s, "temperature", rng)),
    "divergence_constraint": lambda s, rng: forms.assemble_divergence_constraint(s),
    "velocity_advection": lambda s, rng: forms.assemble_velocity_advection(
        s, _random_field(s, "velocity", rng)),
    "temperature_advection": lambda s, rng: forms.assemble_temperature_advection(
        s, _random_field(s, "velocity", rng)),
    "buoyancy": lambda s, rng: forms.assemble_buoyancy(
        s, 0.7, lambda x: np.broadcast_to(np.array([0.0, -1.0]), x.shape)),
    "velocity_h1_gram": lambda s, rng: forms.assemble_velocity_h1_gram(s),
    "temperature_h1_gram": lambda s, rng: forms.assemble_temperature_h1_gram(s),
}


@pytest.mark.parametrize("name", sorted(_ASSEMBLERS))
def test_assembled_operator_is_canonical_csr(spaces_4x4, rng, name):
    # sorted indices and no duplicate entries, straight from assembly
    mat = _ASSEMBLERS[name](spaces_4x4, rng)
    assert mat.format == "csr"
    assert mat.has_canonical_format


# ---------------------------------------------------------------------------
# bit identity with the COO scatter that operator patterns replaced


_BIT_MESHES = {"4x4": (4, 4, ("left",)), "16x16": (16, 16, ("left",)),
               "32x32": (32, 32, ("left",)), "3x7": (3, 7, ("left", "top"))}


def _assert_same_csr(got, want):
    assert got.format == "csr" and got.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr


@pytest.mark.parametrize("mesh", sorted(_BIT_MESHES))
def test_assembly_matches_coo_scatter_bit_for_bit(mesh):
    s = build_spaces(build_rectangle_mesh(*_BIT_MESHES[mesh]))
    rng = np.random.default_rng(sum(_BIT_MESHES[mesh][:2]))
    w = _random_field(s, "temperature", rng)
    z = _random_field(s, "velocity", rng)
    z_zero = forms.zeros_field(s, "velocity")

    def gravity(x):
        return np.stack([np.sin(3.0 * x[..., 0]), -1.0 - x[..., 1] ** 2], axis=-1)

    cases = [
        (forms.assemble_mass, "velocity"), (forms.assemble_mass, "temperature"),
        (forms.assemble_velocity_diffusion, _TANH_MODEL, w),
        (forms.assemble_temperature_diffusion, _TANH_MODEL, w),
        (forms.assemble_divergence_constraint,),
        (forms.assemble_velocity_advection, z),
        # at z = 0 the blocks hold -0.0, whose sums keep their sign
        (forms.assemble_velocity_advection, z_zero),
        (forms.assemble_temperature_advection, z),
        # at z = 0 every entry of C - C^T is an exact zero and is dropped
        (forms.assemble_temperature_advection, z_zero),
        (forms.assemble_buoyancy, 0.7, gravity),
        (forms.assemble_velocity_h1_gram,), (forms.assemble_temperature_h1_gram,),
    ]
    for assemble, *args in cases:
        _assert_same_csr(assemble(s, *args), hc.coo_assembled(assemble, s, *args))
    assert np.signbit(forms.assemble_velocity_advection(s, z_zero).data).any()
    assert forms.assemble_temperature_advection(s, z_zero).nnz == 0


# ---------------------------------------------------------------------------
# mass matrices


def test_temperature_mass_total_is_domain_area(spaces_4x4):
    m = forms.assemble_mass(spaces_4x4, "temperature")
    assert abs(m.sum() - 1.0) < 1e-12
    # each row sum integrates one hat function
    assert np.all(np.asarray(m.sum(axis=1)).ravel() > 0)


def test_mass_positive_definite(spaces_2x2, rng):
    for which in ("velocity", "temperature"):
        m = forms.assemble_mass(spaces_2x2, which)
        n = m.shape[0]
        for _ in range(20):
            x = rng.standard_normal(n)
            assert x @ (m @ x) > 0.0


def test_mass_symmetry_is_exact(spaces_4x4):
    for which in ("velocity", "temperature"):
        m = forms.assemble_mass(spaces_4x4, which)
        diff = (m - m.T).tocsr()
        assert np.max(np.abs(diff.data)) == 0.0 if diff.nnz else True


def test_p1_mass_matches_hand_matrix():
    # one-cell mesh: two triangles of area 1/2; local P1 mass is
    # area/12 * [[2,1,1],[1,2,1],[1,1,2]]
    mesh = build_rectangle_mesh(1, 1, ("left",))
    s = build_spaces(mesh)
    m = forms.assemble_mass(s, "temperature").toarray()
    ref = np.zeros((4, 4))
    local = np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    for tri in mesh.triangles:
        for a in range(3):
            for b in range(3):
                ref[tri[a], tri[b]] += local[a, b]
    assert np.max(np.abs(m - ref)) < 1e-15


def test_p2_mass_matches_dense_quadrature():
    mesh = build_rectangle_mesh(2, 2, ("left",))
    s = build_spaces(mesh)
    ds = hd.DenseSpaces(mesh)
    m = forms.assemble_mass(s, "velocity").toarray()
    ref = hd.dense_velocity_mass(ds)
    assert np.max(np.abs(m - ref)) < 1e-14


# ---------------------------------------------------------------------------
# velocity diffusion


def test_velocity_diffusion_ignores_w_for_constant_gamma(spaces_2x2, rng):
    model = constant_model(1.0, 1.0)
    w1 = _random_field(spaces_2x2, "temperature", rng)
    w2 = _random_field(spaces_2x2, "temperature", rng)
    a1 = forms.assemble_velocity_diffusion(spaces_2x2, model, w1)
    a2 = forms.assemble_velocity_diffusion(spaces_2x2, model, w2)
    assert _rel_max(a1.toarray(), a2.toarray()) < 1e-14


def test_velocity_diffusion_coefficient_scaling(spaces_2x2, rng):
    w = _random_field(spaces_2x2, "temperature", rng)
    a1 = forms.assemble_velocity_diffusion(spaces_2x2, constant_model(1.0, 1.0), w)
    a2 = forms.assemble_velocity_diffusion(spaces_2x2, constant_model(2.0, 1.0), w)
    assert _rel_max(a2.toarray(), 2.0 * a1.toarray()) < 1e-14


def test_velocity_diffusion_shift_adds_unit_form_exactly(spaces_2x2):
    # gamma -> gamma + 1 with gamma = 1 adds the unit rot-rot + div-div
    # matrix with no rounding (2x - x is exact)
    w = forms.zeros_field(spaces_2x2, "temperature")
    a1 = forms.assemble_velocity_diffusion(spaces_2x2, constant_model(1.0, 1.0), w)
    a2 = forms.assemble_velocity_diffusion(spaces_2x2, constant_model(2.0, 1.0), w)
    diff = (a2 - a1 - a1).tocsr()
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


def test_velocity_diffusion_symmetry_exact(spaces_4x4, rng):
    model = CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.9, 1.1))
    w = _random_field(spaces_4x4, "temperature", rng)
    a = forms.assemble_velocity_diffusion(spaces_4x4, model, w)
    diff = (a - a.T).tocsr()
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


def test_velocity_diffusion_matches_dense(spaces_2x2, rng):
    # affine coefficient in its unclipped band keeps the integrand
    # polynomial, so both quadrature rules integrate it exactly
    model = CoefficientModel(clamped_affine_law(1.0, 0.2, 0.1, 10.0),
                             tanh_blend_law(0.9, 1.1))
    w = FieldVector("temperature",
                    0.25 * rng.standard_normal(spaces_2x2.temperature_dim))
    a = forms.assemble_velocity_diffusion(spaces_2x2, model, w).toarray()
    ds = hd.DenseSpaces(spaces_2x2.mesh)
    ref = hd.dense_velocity_diffusion(ds, model.viscosity, w.values)
    assert np.max(np.abs(a - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_velocity_diffusion_coercive_on_divfree_subspace(spaces_2x2, rng):
    from bgs.solver import estimate_constants

    s = spaces_2x2
    cst = estimate_constants(s)
    assert cst["c1"] > 0
    model = constant_model(1.0, 1.0)
    a = forms.assemble_velocity_diffusion(
        s, model, forms.zeros_field(s, "temperature"))
    h = forms.assemble_velocity_h1_gram(s)
    d = forms.assemble_divergence_constraint(s).toarray()

    free = np.setdiff1d(np.arange(s.velocity_dim), s.fixed_velocity_dofs)
    d_free = d[:, free]
    pinv = np.linalg.pinv(d_free)
    for _ in range(20):
        y = rng.standard_normal(len(free))
        y = y - pinv @ (d_free @ y)
        if np.linalg.norm(y) < 1e-12:
            continue
        x = np.zeros(s.velocity_dim)
        x[free] = y
        assert np.max(np.abs(d @ x)) < 1e-10
        energy = x @ (a @ x)
        h1_sq = x @ (h @ x)
        assert energy >= model.gamma0 * cst["c1"] * h1_sq * (1.0 - 1e-9)


# ---------------------------------------------------------------------------
# temperature diffusion


def test_temperature_diffusion_constant_in_kernel(spaces_4x4):
    model = constant_model(1.0, 1.0)
    a = forms.assemble_temperature_diffusion(
        spaces_4x4, model, forms.zeros_field(spaces_4x4, "temperature"))
    ones = np.ones(spaces_4x4.temperature_dim)
    assert np.max(np.abs(a @ ones)) < 1e-12


def test_temperature_diffusion_scaling(spaces_2x2, rng):
    w = _random_field(spaces_2x2, "temperature", rng)
    a1 = forms.assemble_temperature_diffusion(spaces_2x2, constant_model(1.0, 1.0), w)
    a2 = forms.assemble_temperature_diffusion(spaces_2x2, constant_model(1.0, 2.0), w)
    assert _rel_max(a2.toarray(), 2.0 * a1.toarray()) < 1e-14


def test_temperature_diffusion_spd_on_constrained_subspace(spaces_2x2, rng):
    model = CoefficientModel(tanh_blend_law(0.5, 2.0), tanh_blend_law(0.9, 1.1))
    w = _random_field(spaces_2x2, "temperature", rng)
    a = forms.assemble_temperature_diffusion(spaces_2x2, model, w)
    free = np.setdiff1d(np.arange(spaces_2x2.temperature_dim),
                        spaces_2x2.fixed_temperature_dofs)
    a_free = a.toarray()[np.ix_(free, free)]
    eigs = np.linalg.eigvalsh(a_free)
    assert eigs[0] > 0
    # lower bound k0 * (plain stiffness) in the quadratic-form sense
    unit = forms.assemble_temperature_diffusion(
        spaces_2x2, constant_model(1.0, 1.0), w)
    gap = a_free - model.k0 * unit.toarray()[np.ix_(free, free)]
    assert np.linalg.eigvalsh(gap)[0] > -1e-12


def test_temperature_diffusion_matches_dense(spaces_2x2, rng):
    model = CoefficientModel(tanh_blend_law(0.5, 2.0),
                             clamped_affine_law(1.0, 0.1, 0.2, 5.0))
    w = FieldVector("temperature",
                    0.25 * rng.standard_normal(spaces_2x2.temperature_dim))
    a = forms.assemble_temperature_diffusion(spaces_2x2, model, w).toarray()
    ds = hd.DenseSpaces(spaces_2x2.mesh)
    ref = hd.dense_temperature_diffusion(ds, model.conductivity, w.values)
    assert np.max(np.abs(a - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


# ---------------------------------------------------------------------------
# divergence constraint


def test_divergence_of_constant_interpolant(spaces_4x4):
    d = forms.assemble_divergence_constraint(spaces_4x4)
    z = forms.interpolate_velocity(spaces_4x4, lambda x, t: np.broadcast_to(
        np.array([0.7, -0.3]), (len(x), 2)))
    assert np.max(np.abs(d @ z.values)) < 1e-12


def test_divergence_of_linear_divfree_field(spaces_4x4):
    d = forms.assemble_divergence_constraint(spaces_4x4)
    z = forms.interpolate_velocity(spaces_4x4, lambda x, t: np.stack(
        [x[:, 0], -x[:, 1]], axis=-1))
    assert np.max(np.abs(d @ z.values)) < 1e-13


def test_divergence_matches_dense(spaces_2x2):
    d = forms.assemble_divergence_constraint(spaces_2x2).toarray()
    ref = hd.dense_divergence(hd.DenseSpaces(spaces_2x2.mesh))
    assert np.max(np.abs(d - ref)) < 1e-14


# ---------------------------------------------------------------------------
# velocity advection


def test_velocity_advection_zero_field(spaces_2x2):
    n = forms.assemble_velocity_advection(
        spaces_2x2, forms.zeros_field(spaces_2x2, "velocity"))
    assert n.nnz == 0 or np.max(np.abs(n.data)) == 0.0


def test_velocity_advection_skew_quadratic_form(spaces_4x4, rng):
    for _ in range(20):
        z = _random_field(spaces_4x4, "velocity", rng)
        n = forms.assemble_velocity_advection(spaces_4x4, z)
        x = rng.standard_normal(spaces_4x4.velocity_dim)
        scale = np.abs(x @ (np.abs(n) @ np.abs(x))) + 1e-30
        assert abs(x @ (n @ x)) / scale < 1e-13


def test_velocity_advection_skew_entrywise(spaces_4x4, rng):
    z = _random_field(spaces_4x4, "velocity", rng)
    n = forms.assemble_velocity_advection(spaces_4x4, z)
    s = (n + n.T).tocsr()
    worst = np.max(np.abs(s.data)) if s.nnz else 0.0
    assert worst <= 1e-13 * np.max(np.abs(n.data))


def test_velocity_advection_matches_dense(spaces_2x2, rng):
    z = _random_field(spaces_2x2, "velocity", rng)
    n = forms.assemble_velocity_advection(spaces_2x2, z).toarray()
    ref = hd.dense_velocity_advection(hd.DenseSpaces(spaces_2x2.mesh), z.values)
    assert np.max(np.abs(n - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


# ---------------------------------------------------------------------------
# trilinear forms


def test_trilinear_b_antisymmetric_in_last_two(spaces_2x2, rng):
    for _ in range(10):
        u = _random_field(spaces_2x2, "velocity", rng)
        v = _random_field(spaces_2x2, "velocity", rng)
        w = _random_field(spaces_2x2, "velocity", rng)
        bvw = forms.trilinear_b(spaces_2x2, u, v, w)
        bwv = forms.trilinear_b(spaces_2x2, u, w, v)
        scale = max(abs(bvw), abs(bwv), 1e-30)
        assert abs(bvw + bwv) / scale < 1e-13
        assert abs(forms.trilinear_b(spaces_2x2, u, v, v)) / scale < 1e-13


def test_trilinear_b_zero_first_slot(spaces_2x2, rng):
    v = _random_field(spaces_2x2, "velocity", rng)
    w = _random_field(spaces_2x2, "velocity", rng)
    zero = forms.zeros_field(spaces_2x2, "velocity")
    assert forms.trilinear_b(spaces_2x2, zero, v, w) == 0.0


def test_b_moment_vectors_contract_to_b(spaces_2x2, rng):
    u = _random_field(spaces_2x2, "velocity", rng)
    v = _random_field(spaces_2x2, "velocity", rng)
    w = _random_field(spaces_2x2, "velocity", rng)
    val = forms.trilinear_b(spaces_2x2, u, v, w)
    r_u, r_v, r_w = forms.b_moment_vectors(spaces_2x2, u, v, w)
    scale = max(abs(val), 1e-30)
    assert abs(r_u @ u.values - val) / scale < 1e-13
    assert abs(r_v @ v.values - val) / scale < 1e-13
    assert abs(r_w @ w.values - val) / scale < 1e-13


def test_trilinear_c_product_rule(spaces_2x2, rng):
    # c(z,w,phi) + c(z,phi,w) = integral(z . grad(w*phi)), the right side
    # re-derived on a denser tensor rule with independently evaluated bases
    mesh = spaces_2x2.mesh
    z = _random_field(spaces_2x2, "velocity", rng)
    w = _random_field(spaces_2x2, "temperature", rng)
    phi = _random_field(spaces_2x2, "temperature", rng)
    lhs = (forms.trilinear_c(spaces_2x2, z, w, phi)
           + forms.trilinear_c(spaces_2x2, z, phi, w))

    ds = hd.DenseSpaces(mesh)
    pts, wts = hd.duffy_rule(8)
    total = 0.0
    for ti, tri in enumerate(np.asarray(mesh.triangles)):
        p0, jac, det, jinv = hd._element_geometry(mesh, tri)
        nodes = ds.tri_nodes[ti]
        for (xi, eta), wq in zip(pts, wts):
            p2_vals, _ = hd.eval_basis(hd.COEF_P2, hd.MONO_P2, xi, eta)
            p1_vals, p1_grads = hd.eval_basis(hd.COEF_P1, hd.MONO_P1, xi, eta)
            zx = sum(z.values[2 * nodes[a]] * p2_vals[a] for a in range(6))
            zy = sum(z.values[2 * nodes[a] + 1] * p2_vals[a] for a in range(6))
            wv = sum(w.values[tri[a]] * p1_vals[a] for a in range(3))
            pv = sum(phi.values[tri[a]] * p1_vals[a] for a in range(3))
            gw = np.zeros(2)
            gp = np.zeros(2)
            for a in range(3):
                g_phys = jinv.T @ p1_grads[a]
                gw += w.values[tri[a]] * g_phys
                gp += phi.values[tri[a]] * g_phys
            grad_prod = wv * gp + pv * gw
            total += wq * det * (zx * grad_prod[0] + zy * grad_prod[1])
    assert abs(lhs - total) < 1e-12 * max(1.0, abs(total))


# ---------------------------------------------------------------------------
# temperature advection


def test_temperature_advection_zero_field(spaces_2x2):
    c = forms.assemble_temperature_advection(
        spaces_2x2, forms.zeros_field(spaces_2x2, "velocity"))
    assert c.nnz == 0 or np.max(np.abs(c.data)) == 0.0


def test_temperature_advection_skew(spaces_4x4, rng):
    z = _random_field(spaces_4x4, "velocity", rng)
    c = forms.assemble_temperature_advection(spaces_4x4, z)
    s = (c + c.T).tocsr()
    assert s.nnz == 0 or np.max(np.abs(s.data)) == 0.0
    for _ in range(20):
        x = rng.standard_normal(spaces_4x4.temperature_dim)
        scale = np.abs(x) @ (np.abs(c) @ np.abs(x)) + 1e-30
        assert abs(x @ (c @ x)) / scale < 1e-13


def test_temperature_advection_near_divfree_agreement(spaces_4x4):
    # stream-function field: zero trace on the boundary, small divergence
    # residual from interpolation; the symmetrized and raw forms may only
    # differ by the div residual
    s = spaces_4x4

    def z_fn(x, t):
        psi_x = (2 * x[:, 0] * (1 - x[:, 0]) ** 2
                 - 2 * x[:, 0] ** 2 * (1 - x[:, 0])) * (x[:, 1] * (1 - x[:, 1])) ** 2
        psi_y = (x[:, 0] * (1 - x[:, 0])) ** 2 * (
            2 * x[:, 1] * (1 - x[:, 1]) ** 2 - 2 * x[:, 1] ** 2 * (1 - x[:, 1]))
        return np.stack([psi_y, -psi_x], axis=-1)

    z = forms.interpolate_velocity(s, z_fn)
    div_norm = np.sqrt(forms.div_seminorm_sq(s, z))
    assert 0 < div_norm < 0.05

    c_skew = forms.assemble_temperature_advection(s, z).toarray()
    n = s.temperature_dim
    c_raw = np.empty((n, n))
    basis = [FieldVector("temperature", row) for row in np.eye(n)]
    for j in range(n):
        for i in range(n):
            c_raw[i, j] = forms.trilinear_c(s, z, basis[j], basis[i])
    # difference is 1/2 integral(div z mu_i mu_j); |mu| <= 1 on the patch
    assert np.max(np.abs(c_raw - c_skew)) <= 0.5 * div_norm + 1e-14


def test_temperature_advection_matches_dense(spaces_2x2, rng):
    z = _random_field(spaces_2x2, "velocity", rng)
    c = forms.assemble_temperature_advection(spaces_2x2, z).toarray()
    ref = hd.dense_temperature_advection(hd.DenseSpaces(spaces_2x2.mesh), z.values)
    assert np.max(np.abs(c - ref)) < 1e-13 * max(1.0, np.max(np.abs(ref)))


# ---------------------------------------------------------------------------
# buoyancy coupling


def test_buoyancy_zero_cases(spaces_2x2):
    g_down = lambda x: np.broadcast_to(np.array([0.0, -1.0]), x.shape)
    g_zero = lambda x: np.zeros(x.shape)
    gb = forms.assemble_buoyancy(spaces_2x2, 0.0, g_down)
    assert gb.nnz == 0 or np.max(np.abs(gb.data)) == 0.0
    gz = forms.assemble_buoyancy(spaces_2x2, 1.0, g_zero)
    assert gz.nnz == 0 or np.max(np.abs(gz.data)) == 0.0


def test_buoyancy_constant_gravity_against_component_moments(spaces_2x2):
    g_down = lambda x: np.broadcast_to(np.array([0.0, -1.0]), x.shape)
    gb = forms.assemble_buoyancy(spaces_2x2, 1.0, g_down)
    ones = np.ones(spaces_2x2.temperature_dim)
    # (G 1)_i = -integral(phi_{i,2}), the load of forcing (0,-1)
    ref = forms.assemble_velocity_load(
        spaces_2x2,
        lambda x, t: np.broadcast_to(np.array([0.0, -1.0]), x.shape),
        lambda x, t: np.zeros(x.shape[:2]), 0.0)
    assert np.max(np.abs(gb @ ones - ref)) < 1e-13


def test_buoyancy_matches_dense(spaces_2x2):
    g_fn = lambda x: np.stack(
        [x[..., 0] * x[..., 1], -(1.0 + x[..., 0] ** 2)], axis=-1)
    gb = forms.assemble_buoyancy(spaces_2x2, 0.8, g_fn).toarray()
    ref = hd.dense_buoyancy(hd.DenseSpaces(spaces_2x2.mesh), 0.8,
                            lambda x: np.asarray(g_fn(x)))
    assert np.max(np.abs(gb - ref)) < 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_buoyancy_rejects_bad_gravity(spaces_2x2):
    with pytest.raises(ValueError):
        forms.assemble_buoyancy(spaces_2x2, 1.0,
                                lambda x: np.full(x.shape, np.nan))


# ---------------------------------------------------------------------------
# loads


def test_velocity_load_zero_data(spaces_2x2):
    out = forms.assemble_velocity_load(
        spaces_2x2, lambda x, t: np.zeros(x.shape),
        lambda x, t: np.zeros(x.shape[:2]), 0.0)
    assert np.array_equal(out, np.zeros(spaces_2x2.velocity_dim))


def test_velocity_load_head_datum_skips_tangential_dofs(spaces_2x2):
    # on the left side n = (-1, 0): y-component basis functions have zero
    # normal trace, so a pure head datum must not load them
    out = forms.assemble_velocity_load(
        spaces_2x2, lambda x, t: np.zeros(x.shape),
        lambda x, t: np.ones(x.shape[:2]), 0.0)
    s = spaces_2x2
    on_side = np.abs(s.node_coords[:, 0]) < 1e-12
    assert np.max(np.abs(out[1::2])) == 0.0
    assert np.max(np.abs(out[0::2][~on_side])) == 0.0
    assert np.min(out[0::2][on_side]) < 0  # vertex rows pick up -(phi . e_x)


def test_velocity_load_head_datum_pairing(spaces_2x2):
    out = forms.assemble_velocity_load(
        spaces_2x2, lambda x, t: np.zeros(x.shape),
        lambda x, t: np.ones(x.shape[:2]), 0.0)
    unit_x = forms.interpolate_velocity(spaces_2x2, lambda x, t: np.broadcast_to(
        np.array([1.0, 0.0]), (len(x), 2)))
    # phi . n = -1 along the left side, so the pairing integrates to -|side|
    assert abs(out @ unit_x.values + 1.0) < 1e-12


def test_temperature_load_zero_data(spaces_2x2):
    out = forms.assemble_temperature_load(
        spaces_2x2, lambda x, t: np.zeros(x.shape[:2]),
        lambda x, t: np.zeros(x.shape[:2]), 0.0)
    assert np.array_equal(out, np.zeros(spaces_2x2.temperature_dim))


def test_temperature_load_unit_forcing_sums_to_area(spaces_4x4):
    out = forms.assemble_temperature_load(
        spaces_4x4, lambda x, t: np.ones(x.shape[:2]),
        lambda x, t: np.zeros(x.shape[:2]), 0.0)
    assert abs(out.sum() - 1.0) < 1e-12


def test_temperature_load_unit_flux_sums_to_boundary_length(spaces_4x4):
    out = forms.assemble_temperature_load(
        spaces_4x4, lambda x, t: np.zeros(x.shape[:2]),
        lambda x, t: np.ones(x.shape[:2]), 0.0)
    # flux side covers bottom + right + top of the unit square
    assert abs(out.sum() - 3.0) < 1e-12


def test_velocity_load_matches_dense(spaces_2x2):
    f1 = lambda x, t: np.stack(
        [x[..., 0] ** 2 + t * x[..., 1], x[..., 0] * x[..., 1]], axis=-1)
    v1 = lambda x, t: x[..., 1] ** 3 - t
    out = forms.assemble_velocity_load(spaces_2x2, f1, v1, 0.3)
    ref = hd.dense_velocity_load(hd.DenseSpaces(spaces_2x2.mesh), f1, v1, 0.3)
    assert np.max(np.abs(out - ref)) < 1e-13


def test_temperature_load_matches_dense(spaces_2x2):
    f2 = lambda x, t: x[..., 0] * x[..., 1] + t
    v2 = lambda x, t: x[..., 0] - x[..., 1] + t
    out = forms.assemble_temperature_load(spaces_2x2, f2, v2, 0.7)
    ref = hd.dense_temperature_load(hd.DenseSpaces(spaces_2x2.mesh), f2, v2, 0.7)
    assert np.max(np.abs(out - ref)) < 1e-13


def test_load_rejects_non_finite_pointwise(spaces_2x2):
    def bad_f1(x, t):
        out = np.zeros(x.shape)
        out[..., 0] = np.where(x[..., 0] > 0.5, np.nan, 0.0)
        return out

    with pytest.raises(ValueError, match="momentum forcing"):
        forms.assemble_velocity_load(
            spaces_2x2, bad_f1, lambda x, t: np.zeros(x.shape[:2]), 0.0)


# ---------------------------------------------------------------------------
# norms and boundary traces


def test_norms_of_constant_fields(spaces_4x4):
    z = forms.interpolate_velocity(spaces_4x4, lambda x, t: np.broadcast_to(
        np.array([2.0, 0.0]), (len(x), 2)))
    assert abs(forms.l2_norm_sq(spaces_4x4, z) - 4.0) < 1e-12
    assert abs(forms.l4_norm(spaces_4x4, z) - 2.0) < 1e-12
    w = forms.interpolate_scalar(spaces_4x4, lambda x, t: np.full(len(x), 3.0))
    assert abs(forms.l2_norm_sq(spaces_4x4, w) - 9.0) < 1e-12
    assert abs(forms.l4_norm(spaces_4x4, w) - 3.0) < 1e-12
    assert forms.rot_seminorm_sq(spaces_4x4, z) < 1e-24
    assert forms.div_seminorm_sq(spaces_4x4, z) < 1e-24


def test_rot_seminorm_of_quadratic_field(spaces_2x2):
    z = forms.interpolate_velocity(spaces_2x2, lambda x, t: np.stack(
        [x[:, 1] ** 2, np.zeros(len(x))], axis=-1))
    # integral of (2y)^2 over the unit square
    assert abs(forms.rot_seminorm_sq(spaces_2x2, z) - 4.0 / 3.0) < 1e-13


def test_boundary_normal_flux_product_divergence_theorem(spaces_4x4):
    z = forms.interpolate_velocity(spaces_4x4, lambda x, t: np.stack(
        [x[:, 0], np.zeros(len(x))], axis=-1))
    one = forms.interpolate_scalar(spaces_4x4, lambda x, t: np.ones(len(x)))
    total = forms.boundary_normal_flux_product(spaces_4x4, z, one, one)
    assert abs(total - 1.0) < 1e-12


def test_h1_gram_dominates_mass(spaces_2x2, rng):
    h = forms.assemble_velocity_h1_gram(spaces_2x2)
    m = forms.assemble_mass(spaces_2x2, "velocity")
    for _ in range(10):
        x = rng.standard_normal(spaces_2x2.velocity_dim)
        assert x @ (h @ x) >= x @ (m @ x) * (1.0 - 1e-12)
    d = (h - h.T).tocsr()
    assert d.nnz == 0 or np.max(np.abs(d.data)) == 0.0
