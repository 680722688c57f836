"""Assembled operators: symmetry classes, exact identities, dense cross-checks."""

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from bgs import build_rectangle_mesh, build_spaces
from bgs.coefficients import (
    CoefficientModel,
    clamped_affine_law,
    constant_model,
    tanh_blend_law,
)
from bgs import forms
from bgs.forms import FieldVector
from bgs.mesh import GAMMA1, GAMMA2, Mesh, refine_uniform

import helpers_coo as hc
import helpers_dense as hd
import helpers_kernels as hk
import helpers_topology as ht


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


def _arrays(obj):
    """Every array field of a dataclass as (dtype, shape, bytes)."""
    return {f.name: (v.dtype, v.shape, v.tobytes())
            for f in dataclasses.fields(obj)
            if isinstance(v := getattr(obj, f.name), np.ndarray)}


def _reverse_every_third(mesh):
    """The mesh with every third boundary edge run clockwise, the only
    input whose outward normals need the centroid flip."""
    edges = mesh.boundary_edges.copy()
    edges[::3] = edges[::3, ::-1]
    return Mesh(mesh.vertices.copy(), mesh.triangles.copy(), edges,
                mesh.boundary_tags.copy(), mesh.generation)


_TOPOLOGY_SIDES = [("left",), ("left", "top"), ("bottom",),
                   ("right", "top", "bottom")]


@pytest.mark.parametrize("reverse", [False, True], ids=["ccw", "reversed"])
@pytest.mark.parametrize("sides", _TOPOLOGY_SIDES, ids="-".join)
@pytest.mark.parametrize("nx, ny", [(1, 1), (2, 3), (4, 4), (7, 3), (16, 16)])
def test_topology_matches_the_loop_reference_bit_for_bit(nx, ny, sides,
                                                         reverse):
    mesh = build_rectangle_mesh(nx, ny, sides)
    ref = ht.build_rectangle_mesh(nx, ny, sides)
    if reverse:
        mesh, ref = _reverse_every_third(mesh), _reverse_every_third(ref)
    for level in range(3):
        assert _arrays(mesh) == _arrays(ref), level
        assert mesh.generation == ref.generation == level
        s = build_spaces(mesh)
        assert _arrays(s) == _arrays(build_spaces(ref))
        gamma1, gamma2, fixed_velocity, fixed_temperature = (
            ht.boundary_topology(ref))
        assert _arrays(s.gamma1) == _arrays(gamma1)
        assert _arrays(s.gamma2) == _arrays(gamma2)
        for got, want in ((s.fixed_velocity_dofs, fixed_velocity),
                          (s.fixed_temperature_dofs, fixed_temperature)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        mesh, ref = refine_uniform(mesh), ht.refine_uniform(ref)


def test_reversed_boundary_edges_keep_outward_normals():
    mesh = _reverse_every_third(build_rectangle_mesh(3, 2, ("left", "top")))
    reversed_ = np.arange(len(mesh.boundary_edges)) % 3 == 0
    s = build_spaces(mesh)
    for side, tag in ((s.gamma1, GAMMA1), (s.gamma2, GAMMA2)):
        ends = mesh.vertices[side.verts]
        d = ends[:, 1] - ends[:, 0]
        turned = np.column_stack([d[:, 1], -d[:, 0]]) / side.lengths[:, None]
        # outward on the unit square: away from its center
        assert np.all(np.sum(side.normals * (ends.mean(1) - 0.5), axis=1) > 0)
        # exactly the reversed edges are flipped
        flipped = np.all(side.normals == -turned, axis=1)
        assert np.array_equal(flipped, reversed_[mesh.boundary_tags == tag])
        assert flipped.any()


def test_non_axis_aligned_gamma1_edge_raises():
    # a half of the unit square, its slanted edge on GAMMA1
    mesh = Mesh(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]),
                triangles=np.array([[0, 1, 2]]),
                boundary_edges=np.array([[0, 1], [1, 2], [2, 0]]),
                boundary_tags=np.array([GAMMA2, GAMMA2, GAMMA1]))
    for build in (build_spaces, ht.boundary_topology):
        with pytest.raises(ValueError, match="axis-aligned GAMMA1 edges"):
            build(mesh)


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


def test_sparsetools_csr_matvec_adds_each_row_in_order_onto_the_output():
    # SumMap relies on this private scipy kernel: a row's products are added
    # in storage order onto the output it is given, so an output of -0.0
    # keeps the sign of a sum of negative zeros.  The public `@` starts
    # from +0.0 and loses it.
    from scipy.sparse import _sparsetools
    ptr = np.array([0, 2, 5], dtype=np.int32)
    cols = np.array([0, 1, 2, 3, 4], dtype=np.int32)
    x = np.array([-0.0, -0.0, 1e16, -1e16, 1.0])
    out = np.full(2, -0.0)
    _sparsetools.csr_matvec(2, 5, ptr, cols, np.ones(5), x, out)
    assert out[0] == 0.0 and np.signbit(out[0])
    # (1e16 - 1e16) + 1 is 1; adding 1 to 1e16 first would round it away
    assert out[1] == 1.0
    out = np.array([-0.0, 0.5])
    _sparsetools.csr_matvec(2, 5, ptr, cols, np.ones(5), x, out)
    assert out[1] == 1.0        # (0.5 + 1e16) rounds to 1e16
    public = sp.csr_matrix((np.ones(5), cols, ptr), shape=(2, 5)) @ x
    assert not np.signbit(public[0])


def test_sparsetools_csc_matvec_adds_column_by_column_onto_the_output():
    # Layout.product adds each transposed block by this private kernel onto
    # the rows that csr_matvec began.  Its bytes are those of the CSC
    # system's product only because both kernels add each row in column
    # order onto the output they are given, -0.0 included.
    from scipy.sparse import _sparsetools
    ptr = np.array([0, 1, 2, 3, 4, 5], dtype=np.int32)
    rows = np.array([0, 0, 1, 1, 1], dtype=np.int32)
    x = np.array([-0.0, -0.0, 1e16, -1e16, 1.0])
    out = np.full(2, -0.0)
    _sparsetools.csc_matvec(2, 5, ptr, rows, np.ones(5), x, out)
    assert out[0] == 0.0 and np.signbit(out[0])
    # (1e16 - 1e16) + 1 is 1; adding 1 to 1e16 first would round it away
    assert out[1] == 1.0
    out = np.array([-0.0, 0.5])
    _sparsetools.csc_matvec(2, 5, ptr, rows, np.ones(5), x, out)
    assert out[1] == 1.0        # (0.5 + 1e16) rounds to 1e16
    public = sp.csc_matrix((np.ones(5), rows, ptr), shape=(2, 5)) @ x
    assert not np.signbit(public[0])


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model", ["tanh", "constant"])
@pytest.mark.parametrize("mesh", sorted(_BIT_MESHES))
def test_cached_geometry_matches_einsum_kernels_bit_for_bit(mesh, model):
    s = build_spaces(build_rectangle_mesh(*_BIT_MESHES[mesh]))
    rng = np.random.default_rng(sum(_BIT_MESHES[mesh][:2]) + 1)
    model = _TANH_MODEL if model == "tanh" else constant_model(1.3, 0.7)
    v = _random_field(s, "velocity", rng)
    # a zero field whose zeros carry random signs: the einsum sums from
    # +0.0, so it stores +0.0 where all six products are -0.0
    signed_zero = FieldVector("velocity",
                              np.copysign(0.0, rng.standard_normal(s.velocity_dim)))
    for z in (_random_field(s, "velocity", rng), forms.zeros_field(s, "velocity"),
              signed_zero):
        for name in ("velocity_grad_at_quadrature", "rot_at_quadrature",
                     "div_at_quadrature"):
            _same_bytes(getattr(forms, name)(s, z), getattr(hk, name)(s, z))
        _assert_same_csr(forms.assemble_velocity_advection(s, z),
                         hk.with_einsum_rot(forms.assemble_velocity_advection, s, z))
        _assert_same_csr(forms.assemble_temperature_advection(s, z),
                         hk.assemble_temperature_advection(s, z))
    for w in (_random_field(s, "temperature", rng),
              forms.zeros_field(s, "temperature")):
        _assert_same_csr(forms.assemble_velocity_diffusion(s, model, w),
                         hk.assemble_velocity_diffusion(s, model, w))
    _assert_same_csr(forms.assemble_divergence_constraint(s),
                     hk.assemble_divergence_constraint(s))


def _velocity_columns(fields):
    return np.column_stack([f.values for f in fields])


@pytest.mark.parametrize("mesh", sorted(_BIT_MESHES))
def test_batched_trilinear_forms_match_per_field_copies(mesh):
    s = build_spaces(build_rectangle_mesh(*_BIT_MESHES[mesh]))
    rng = np.random.default_rng(sum(_BIT_MESHES[mesh][:2]) + 2)
    zero = forms.zeros_field(s, "velocity")
    signed_zero = FieldVector("velocity",
                              np.copysign(0.0, rng.standard_normal(s.velocity_dim)))
    # every slot takes a random field, zero or a zero with random signs
    triples = list(itertools.product(
        *[(_random_field(s, "velocity", rng), zero, signed_zero)
          for _ in range(3)]))
    stacks = [_velocity_columns(slot) for slot in zip(*triples)]
    vals = forms.trilinear_b(s, *stacks)
    moments = forms.b_moment_vectors(s, *stacks)
    assert vals.shape == (len(triples),)
    assert all(r.shape == stacks[0].shape for r in moments)
    with pytest.raises(ValueError, match="three velocity FieldVectors"):
        forms.trilinear_b(s, triples[0][0], *stacks[1:])
    max_grad = np.max(np.abs(s.p2_grad_at_q))
    for j, (u, v, w) in enumerate(triples):
        val = forms.trilinear_b(s, u, v, w)
        r_single = forms.b_moment_vectors(s, u, v, w)
        assert isinstance(val, float)
        _same_bytes(np.float64(val), vals[j])
        for got, stacked in zip(r_single, moments):
            _same_bytes(got, np.ascontiguousarray(stacked[:, j]))
        # bounds on the absolute integrands of b and of each moment entry;
        # |phi_i| <= 1 for the P2 basis
        rot_u = np.abs(forms.rot_at_quadrature(s, u))
        v_q, w_q = (np.linalg.norm(forms.velocity_at_quadrature(s, f), axis=-1)
                    for f in (v, w))
        qw = s.quad_w
        assert abs(val - hk.trilinear_b(s, u, v, w)) <= 1e-13 * np.sum(
            qw * rot_u * v_q * w_q)
        scales = (max_grad * np.sum(qw * v_q * w_q), np.sum(qw * rot_u * w_q),
                  np.sum(qw * rot_u * v_q))
        for got, want, scale in zip(r_single, hk.b_moment_vectors(s, u, v, w),
                                    scales):
            assert np.max(np.abs(got - want)) <= 1e-13 * scale
        assert forms.trilinear_b(s, zero, v, w) == 0.0
        assert forms.trilinear_b(s, u, v, v) == 0.0


def test_selected_moments_match_all_three_bit_for_bit(spaces_4x4, rng):
    fields = [_random_field(spaces_4x4, "velocity", rng) for _ in range(3)]
    x = _velocity_columns([_random_field(spaces_4x4, "velocity", rng)
                           for _ in range(4)])
    # distinct fields, and one stack in every slot as the audit passes it
    for args in (fields, [x, x, x]):
        full = dict(zip("uvw", forms.b_moment_vectors(spaces_4x4, *args)))
        for slots in ("u", "v", "w", "uv", "vw", "wu", "uvw"):
            got = forms.b_moment_vectors(spaces_4x4, *args, slots)
            assert len(got) == len(slots)
            for name, moment in zip(slots, got):
                _same_bytes(moment, full[name])
    for bad in ("", "x", "uvx"):
        with pytest.raises(ValueError, match="slots"):
            forms.b_moment_vectors(spaces_4x4, *fields, bad)


def test_advection_times_field_is_third_moment(spaces_4x4, rng):
    # the audit's dual norm takes N(z) z as b(z, z, phi_i); keep it tied to
    # the operator the solver assembles
    for _ in range(5):
        z = _random_field(spaces_4x4, "velocity", rng)
        w = _random_field(spaces_4x4, "velocity", rng)
        ref = forms.assemble_velocity_advection(spaces_4x4, z) @ z.values
        _, _, r_w = forms.b_moment_vectors(spaces_4x4, z, z, w)
        assert np.max(np.abs(r_w - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("mesh", sorted(_BIT_MESHES))
def test_data_kernels_match_the_assembled_data_bit_for_bit(mesh):
    s = build_spaces(build_rectangle_mesh(*_BIT_MESHES[mesh]))
    rng = np.random.default_rng(sum(_BIT_MESHES[mesh][:2]) + 3)

    def fields(space):
        signed_zero = np.copysign(0.0, rng.standard_normal(s.dim_of(space)))
        return (_random_field(s, space, rng), forms.zeros_field(s, space),
                FieldVector(space, signed_zero))

    for w in fields("temperature"):
        for kernel, assemble, pattern in (
                (forms.velocity_diffusion_data, forms.assemble_velocity_diffusion,
                 s.velocity_pattern),
                (forms.temperature_diffusion_data,
                 forms.assemble_temperature_diffusion, s.temperature_pattern)):
            _same_bytes(kernel(s, _TANH_MODEL, w),
                        hk.data_of(pattern, assemble(s, _TANH_MODEL, w)))
    for z in fields("velocity"):
        for kernel, assemble, pattern in (
                (forms.velocity_advection_data, forms.assemble_velocity_advection,
                 s.velocity_pattern),
                (forms.temperature_advection_data,
                 forms.assemble_temperature_advection, s.temperature_pattern)):
            _same_bytes(kernel(s, z), hk.data_of(pattern, assemble(s, z)))
    # at z = 0 the advection matrix drops every entry, so data_of spreads
    # its data onto the pattern with +0.0 where it stores nothing
    z_zero = forms.zeros_field(s, "velocity")
    assert forms.assemble_temperature_advection(s, z_zero).nnz == 0
    data = forms.temperature_advection_data(s, z_zero)
    assert len(data) == s.temperature_pattern.nnz
    assert not np.signbit(data).any() and not data.any()
    outer = s.p1_grad_outer
    assert outer is s.p1_grad_outer and not outer.flags.writeable


def test_element_tables_are_read_only_and_built_once():
    s = build_spaces(build_rectangle_mesh(3, 3, ("left",)))
    cached = ("p2_grad_by_node", "diffusion_geometry", "quadrature_maps",
              "velocity_diffusion_map", "velocity_advection_map")
    assert not any(name in vars(s) for name in cached)
    w = forms.zeros_field(s, "temperature")
    z = forms.zeros_field(s, "velocity")
    forms.assemble_velocity_diffusion(s, _TANH_MODEL, w)
    forms.assemble_velocity_advection(s, z)
    forms.rot_at_quadrature(s, z)
    forms.trilinear_b(s, z, z, z)
    first = [vars(s)[name] for name in cached]
    forms.assemble_velocity_diffusion(s, _TANH_MODEL, w)
    forms.assemble_velocity_advection(s, z)
    forms.b_moment_vectors(s, z, z, z)
    assert all(vars(s)[name] is table for name, table in zip(cached, first))
    table, expand = s.diffusion_geometry
    for arr in (s.p2_at_q, s.p2_grad_at_q, s.p1_at_q, s.p1_grad,
                s.p2_grad_by_node, table, expand):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1
    for mat in s.quadrature_maps:
        for arr in (mat.data, mat.indices, mat.indptr):
            assert not arr.flags.writeable
    # the sum maps hold int32 indices and no float array of their own: their
    # weights view the mesh's one buffer of ones
    for sum_map in (s.velocity_diffusion_map, s.velocity_advection_map,
                    s.velocity_pattern.element_map,
                    s.temperature_pattern.element_map):
        assert set(vars(sum_map)) == {"ptr", "cols", "size", "weights"}
        for arr in (sum_map.ptr, sum_map.cols):
            assert arr.dtype == np.int32 and not arr.flags.writeable
        assert sum_map.weights.base is s.unit_weights
        assert len(sum_map.weights) == len(sum_map.cols)
    assert np.all(s.unit_weights == 1.0) and not s.unit_weights.flags.writeable
    # the transposed slots are int32 like the pattern's other index arrays,
    # and transposing twice is the identity
    for pattern in (s.velocity_pattern, s.temperature_pattern):
        slots = pattern.transposed_slots
        assert slots is pattern.transposed_slots
        assert slots.dtype == np.int32 and not slots.flags.writeable
        assert np.array_equal(slots[slots], np.arange(pattern.nnz))


def test_solver_structure_is_built_on_first_use_and_read_only():
    s = build_spaces(build_rectangle_mesh(3, 3, ("left",)))
    cached = ("mass_velocity", "mass_temperature", "divergence",
              "temperature_layout", "saddle_layout")
    assert not any(name in vars(s) for name in cached)
    first = [getattr(s, name) for name in cached]
    assert all(getattr(s, name) is obj for name, obj in zip(cached, first))
    _assert_same_csr(s.mass_velocity, forms.assemble_mass(s, "velocity"))
    _assert_same_csr(s.mass_temperature, forms.assemble_mass(s, "temperature"))
    _assert_same_csr(s.divergence, forms.assemble_divergence_constraint(s))
    arrays = []
    for mat in first[:3]:
        arrays += [mat.data, mat.indices, mat.indptr]
    for layout in first[3:]:
        arrays += [layout.src, layout.indices, layout.indptr, layout.mask]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


def test_boundary_and_edge_arrays_are_read_only():
    s = build_spaces(build_rectangle_mesh(4, 4, ("left",)))
    arrays = [s.edge_w, s.p2_trace, s.p1_trace]
    for side in (s.gamma1, s.gamma2):
        arrays += [side.verts, side.mids, side.lengths, side.normals, side.qx]
    for arr in arrays:
        assert arr.size
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1


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
