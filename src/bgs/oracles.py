"""Verification drivers: manufactured solutions, refinement studies,
two-trajectory contraction, and form-property audits.

The manufactured problem never hand-expands the curl of the stress; all
derivatives of the exact fields come from 4th-order central differences
with step 1e-5, evaluated in extended precision so the nested stencil
(derivative of a derivative) stays below 1e-8 absolute noise.  A
one-time symbolic cross-check in the test suite anchors the stencil
path.  Every exact field is a spatial field times exp(-t), so the
spatial stencils of the forcings are tabulated once per point set (at
t=0, in a small cache keyed by the points' content) and each call only
applies the decay factor and evaluates the coefficient laws.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse.linalg

from . import forms
from .coefficients import CoefficientModel, constant_model, tanh_blend_law
from .forms import FieldVector, FunctionSpaces
from .mesh import build_rectangle_mesh
# bench/tracing.py times run and estimate_constants at this module's names
from .solver import (ProblemData, SolverConfig, State, _constants_on_basis,
                     _divergence_free_basis, _free_velocity_dofs,
                     estimate_constants, initialize_state, run)

FD_STEP = 1e-5

RATE_TARGETS = {"velocity_l2": 2.5, "velocity_rot": 1.6,
                "temperature_l2": 1.6, "head_l2": 1.6}


# ---------------------------------------------------------------------------
# finite-difference stencils (extended precision)


_H = np.longdouble(FD_STEP)
_OFFSETS = (2, 1, -1, -2)        # multiples of h, in the order _combine reads them


def _shifted(p, axis: int):
    """Copies of the longdouble points p moved by 2h, h, -h, -2h along axis."""
    out = []
    for k in _OFFSETS:
        q = p.copy()
        q[..., axis] += k * _H
        out.append(q)
    return out


def _combine(v):
    """4th-order central difference from the values at 2h, h, -h, -2h."""
    return (-v[0] + 8 * v[1] - 8 * v[2] + v[3]) / (12 * _H)


def _fd_axis(fn, points, axis: int) -> np.ndarray:
    """4th-order central d/dx_axis of fn(points); longdouble throughout."""
    p = np.asarray(points, dtype=np.longdouble)
    return _combine([np.asarray(fn(q), dtype=np.longdouble)
                     for q in _shifted(p, axis)])


def fd_gradient(fn, points) -> np.ndarray:
    """Spatial gradient of a scalar function, stacked on the last axis."""
    return np.stack([_fd_axis(fn, points, 0), _fd_axis(fn, points, 1)], axis=-1)


# ---------------------------------------------------------------------------
# exact manufactured fields


def exact_velocity(points, t):
    x, y = points[..., 0], points[..., 1]
    decay = np.exp(np.asarray(-t, dtype=x.dtype))
    z1 = np.pi * x ** 2 * (1 - x) ** 2 * np.sin(2 * np.pi * y) * decay
    z2 = -2 * x * (1 - x) * (1 - 2 * x) * np.sin(np.pi * y) ** 2 * decay
    return np.stack([z1, z2], axis=-1)


def exact_temperature(points, t):
    x, y = points[..., 0], points[..., 1]
    decay = np.exp(np.asarray(-t, dtype=x.dtype))
    return x * np.sin(np.pi * y) * decay


def exact_head(points, t):
    x, y = points[..., 0], points[..., 1]
    decay = np.exp(np.asarray(-t, dtype=x.dtype))
    return np.cos(np.pi * x) * np.cos(np.pi * y) * decay


def _stencil_rot(points, t):
    """Vorticity of the exact velocity by the stencil oracle, longdouble."""
    return (_fd_axis(lambda q: exact_velocity(q, t)[..., 1], points, 0)
            - _fd_axis(lambda q: exact_velocity(q, t)[..., 0], points, 1))


def exact_rot(points, t):
    """Vorticity of the exact velocity by the stencil oracle."""
    return np.asarray(_stencil_rot(points, t), dtype=float)


def as_vector_field(g):
    """Normalize a constant 2-vector or callable into a point function."""
    if callable(g):
        return g
    vec = np.asarray(g, dtype=float)
    if vec.shape != (2,):
        raise ValueError("gravity must be a 2-vector or a callable")

    def const(points):
        out = np.empty(points.shape, dtype=float)
        out[..., 0] = vec[0]
        out[..., 1] = vec[1]
        return out

    return const


def _outward_normal(points) -> np.ndarray:
    """Unit outward normal of the unit square at boundary points."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    n = np.zeros(pts.shape)
    tol = 1e-9
    left, right = np.abs(x) <= tol, np.abs(x - 1) <= tol
    bottom, top = np.abs(y) <= tol, np.abs(y - 1) <= tol
    n[left, 0] = -1.0
    n[right, 0] = 1.0
    n[bottom & ~(left | right), 1] = -1.0
    n[top & ~(left | right), 1] = 1.0
    if not np.all(left | right | bottom | top):
        bad = pts[~(left | right | bottom | top)][0]
        raise ValueError(f"point {tuple(bad)} is not on the boundary")
    return n


class _StencilTable(NamedTuple):
    """Stencil values of the exact fields at t=0 on one point set.

    All arrays are longdouble and read-only.  The *_s arrays have shape
    (2, 4, ...): the axis a, then the points moved by 2h, h, -h, -2h
    along a, i.e. exactly the points an outer stencil along a reads.
    """
    z: np.ndarray        # velocity
    w: np.ndarray        # temperature
    rot: np.ndarray      # stencil vorticity
    grad_w: np.ndarray   # stencil gradient of the temperature
    grad_p: np.ndarray   # stencil gradient of the head
    w_s: np.ndarray      # temperature at the shifted points
    rot_s: np.ndarray    # stencil vorticity at the shifted points
    dw_s: np.ndarray     # stencil d/dx_a of the temperature, shifted along a


_TABLE_CACHE_SIZE = 4
_TABLES: OrderedDict = OrderedDict()


def _build_table(p) -> _StencilTable:
    def w0(q):
        return exact_temperature(q, 0.0)

    shifted = [_shifted(p, axis) for axis in (0, 1)]

    def at_shifts(fn):
        return np.stack([np.stack([fn(q, axis) for q in shifted[axis]])
                         for axis in (0, 1)])

    table = _StencilTable(
        z=exact_velocity(p, 0.0), w=w0(p), rot=_stencil_rot(p, 0.0),
        grad_w=fd_gradient(w0, p),
        grad_p=fd_gradient(lambda q: exact_head(q, 0.0), p),
        w_s=at_shifts(lambda q, axis: w0(q)),
        rot_s=at_shifts(lambda q, axis: _stencil_rot(q, 0.0)),
        dw_s=at_shifts(lambda q, axis: _fd_axis(w0, q, axis)))
    for arr in table:
        arr.flags.writeable = False
    return table


def _stencil_table(points) -> _StencilTable:
    """The stencil table of a point set, cached by the points' content."""
    p = np.ascontiguousarray(points)
    key = (p.dtype.str, p.shape, p.tobytes())
    table = _TABLES.get(key)
    if table is None:
        table = _build_table(np.asarray(p, dtype=np.longdouble))
        _TABLES[key] = table
        if len(_TABLES) > _TABLE_CACHE_SIZE:
            _TABLES.popitem(last=False)
    else:
        _TABLES.move_to_end(key)
    return table


def _decay(t):
    """exp(-t) and its stencil time derivative, in longdouble."""
    tt = np.longdouble(t)
    return np.exp(-tt), _combine([np.exp(-(tt + k * _H)) for k in _OFFSETS])


def make_mms_problem(coeff_model: CoefficientModel, beta: float = 0.5,
                     g=(0.0, -1.0), buoyancy_sign: float = 1.0) -> ProblemData:
    """Manufactured problem whose forcings come from the stencil oracle.

    The momentum forcing realizes
        f1 = z_t + Rot(gamma(w) rot z) + rot z x z
             + buoyancy_sign * beta * g * w - grad P,
    with Rot s = (ds/dy, -ds/dx), so the discrete head converges to the
    manufactured P and v1 = P on GAMMA1 closes the boundary pairing.
    With e = exp(-t), each call scales the t=0 stencil table of its
    points by e and applies the outer stencils of the stress and flux
    terms to gamma(e w) e rot z and k(e w) e grad w at the shifted points.
    """
    g_fn = as_vector_field(g)

    def f1(points, t):
        tab = _stencil_table(points)
        e, e_t = _decay(t)
        stress = coeff_model.viscosity(e * tab.w_s) * (e * tab.rot_s)
        rot_m = np.stack([_combine(stress[1]), -_combine(stress[0])], axis=-1)
        om, z = e * tab.rot, e * tab.z
        adv = np.stack([-om * z[..., 1], om * z[..., 0]], axis=-1)
        buoy = (buoyancy_sign * beta) * (e * tab.w)[..., None] \
            * np.asarray(g_fn(np.asarray(points, dtype=float)), dtype=np.longdouble)
        return np.asarray(e_t * tab.z + rot_m + adv + buoy - e * tab.grad_p,
                          dtype=float)

    def f2(points, t):
        tab = _stencil_table(points)
        e, e_t = _decay(t)
        flux = coeff_model.conductivity(e * tab.w_s) * (e * tab.dw_s)
        div_flux = _combine(flux[0]) + _combine(flux[1])
        adv = ((e * tab.z) * (e * tab.grad_w)).sum(axis=-1)
        return np.asarray(e_t * tab.w - div_flux + adv, dtype=float)

    def v1(points, t):
        return np.asarray(exact_head(np.asarray(points, dtype=float), t),
                          dtype=float)

    def v2(points, t):
        # conductivity-weighted normal derivative, outward normal; the
        # plus pairing in the load makes this the datum that closes the
        # weak temperature equation
        n = _outward_normal(points)
        grad_w = fd_gradient(lambda r: exact_temperature(r, t), points)
        k = coeff_model.conductivity(
            exact_temperature(np.asarray(points, dtype=np.longdouble), t))
        return np.asarray(k * (n * grad_w).sum(axis=-1), dtype=float)

    return ProblemData(
        model=coeff_model, beta=float(beta), g=g_fn, f1=f1, f2=f2, v1=v1,
        v2=v2,
        z0=lambda pts: np.asarray(exact_velocity(pts, 0.0), dtype=float),
        w0=lambda pts: np.asarray(exact_temperature(pts, 0.0), dtype=float),
        buoyancy_sign=float(buoyancy_sign), name="mms")


# ---------------------------------------------------------------------------
# refinement runs: one trajectory per nested mesh, read by both studies


@dataclass(frozen=True)
class LevelRun:
    n: int
    spaces: FunctionSpaces
    states: tuple                # State at t=0, dt, ..., t_end
    wall_clock: float            # build_spaces plus run


@dataclass(frozen=True)
class RefinementRuns:
    levels: tuple                # LevelRun per level, coarsest first
    config: SolverConfig         # dt and t_end of every level


def refinement_runs(problem: ProblemData, levels: int = 3, dt: float = 1e-3,
                    t_end: float = 0.1, base_n: int = 4,
                    gamma1_sides=("left",)) -> RefinementRuns:
    """Integrate problem on the nested n = base_n * 2**k meshes, k < levels."""
    if levels < 3:
        raise ValueError("refinement study needs at least 3 levels")
    config = SolverConfig(dt=dt, t_end=t_end)
    results = []
    for k in range(levels):
        n = base_n * 2 ** k
        tic = time.perf_counter()
        spaces = forms.build_spaces(
            build_rectangle_mesh(n, n, gamma1_sides=gamma1_sides))
        try:
            states, _ = run(spaces, problem, config)
        except Exception as exc:
            raise type(exc)(f"level {k} (n={n}): {exc}") from exc
        results.append(LevelRun(n=n, spaces=spaces, states=tuple(states),
                                wall_clock=time.perf_counter() - tic))
    return RefinementRuns(levels=tuple(results), config=config)


# ---------------------------------------------------------------------------
# convergence study


@dataclass(frozen=True)
class StudyLevel:
    n: int
    h: float
    errors: dict
    wall_clock: float


@dataclass(frozen=True)
class StudyReport:
    levels: tuple
    rates: dict
    targets: dict
    failures: tuple
    dt: float
    t_end: float

    @property
    def passed(self) -> bool:
        return not self.failures


def _rates(errors) -> list:
    return [math.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]


def convergence_report(runs: RefinementRuns) -> StudyReport:
    """Final-time errors against the manufactured fields, and their rates."""
    results = []
    for lv in runs.levels:
        spaces, final = lv.spaces, lv.states[-1]
        errors = {
            "velocity_l2": forms.velocity_l2_error(
                spaces, final.z, exact_velocity, final.t),
            "velocity_rot": forms.velocity_rot_error(
                spaces, final.z, exact_rot, final.t),
            "temperature_l2": forms.scalar_l2_error(
                spaces, final.w, exact_temperature, final.t),
            "head_l2": forms.scalar_l2_error(
                spaces, final.P, exact_head, final.t),
        }
        results.append(StudyLevel(n=lv.n, h=1.0 / lv.n, errors=errors,
                                  wall_clock=lv.wall_clock))

    rates = {key: _rates([lv.errors[key] for lv in results])
             for key in RATE_TARGETS}
    failures = []
    for key, target in RATE_TARGETS.items():
        series = [lv.errors[key] for lv in results]
        if any(a <= b for a, b in zip(series, series[1:])):
            failures.append(f"{key}: errors not strictly decreasing {series}")
        if rates[key][-1] < target:
            failures.append(f"{key}: finest-pair rate {rates[key][-1]:.3f} "
                            f"< target {target}")
    return StudyReport(levels=tuple(results), rates=rates,
                       targets=dict(RATE_TARGETS), failures=tuple(failures),
                       dt=runs.config.dt, t_end=runs.config.t_end)


def convergence_study(coeff_model: CoefficientModel, levels: int = 3,
                      dt: float = 1e-3, t_end: float = 0.1,
                      beta: float = 0.5, g=(0.0, -1.0), base_n: int = 4,
                      gamma1_sides=("left",),
                      buoyancy_sign: float = 1.0) -> StudyReport:
    """Final-time errors of the manufactured problem on nested meshes."""
    problem = make_mms_problem(coeff_model, beta=beta, g=g,
                               buoyancy_sign=buoyancy_sign)
    return convergence_report(refinement_runs(problem, levels, dt, t_end,
                                              base_n, gamma1_sides))


# ---------------------------------------------------------------------------
# Cauchy refinement study


@dataclass(frozen=True)
class CauchyReport:
    pair_levels: tuple           # (coarse vertices, fine vertices) per pair
    e_velocity: tuple
    e_temperature: tuple
    ratios_velocity: tuple
    ratios_temperature: tuple
    dual_path_gap: float | None
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def _interp_up(coarse: FunctionSpaces, fine: FunctionSpaces,
               state: State) -> tuple:
    """Represent a coarse state exactly in the nested fine spaces."""
    zv = forms.evaluate_velocity(coarse, state.z, fine.node_coords)
    z_up = np.empty(fine.velocity_dim)
    z_up[0::2] = zv[:, 0]
    z_up[1::2] = zv[:, 1]
    w_up = forms.evaluate_scalar(coarse, state.w, fine.mesh.vertices)
    return (FieldVector("velocity", z_up), FieldVector("temperature", w_up))


def _trapezoid_sq(values, dt: float) -> float:
    weights = np.full(len(values), dt)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return float(np.sqrt(np.sum(weights * np.asarray(values) ** 2)))


def cauchy_report(runs: RefinementRuns, dual_path: bool = False) -> CauchyReport:
    """Time-integrated L2 distance between consecutive refinement levels."""
    e_vel, e_tmp, pairs = [], [], []
    worst_gap = 0.0
    for lc, lf in zip(runs.levels, runs.levels[1:]):
        coarse, fine = lc.spaces, lf.spaces
        dz, dw = [], []
        for sc, sf in zip(lc.states, lf.states):
            z_up, w_up = _interp_up(coarse, fine, sc)
            dz_vec = FieldVector("velocity", sf.z.values - z_up.values)
            dw_vec = FieldVector("temperature", sf.w.values - w_up.values)
            dz.append(forms.l2_norm_sq(fine, dz_vec) ** 0.5)
            dw.append(forms.l2_norm_sq(fine, dw_vec) ** 0.5)
            if dual_path:
                gap = _dual_path_gap(coarse, fine, sc, sf, dz[-1], dw[-1])
                worst_gap = max(worst_gap, gap)
        e_vel.append(_trapezoid_sq(dz, runs.config.dt))
        e_tmp.append(_trapezoid_sq(dw, runs.config.dt))
        pairs.append((coarse.mesh.num_vertices, fine.mesh.num_vertices))

    # a zero coarser distance leaves its ratio undefined (NaN) and fails
    ratios_v = [e_vel[k + 1] / e_vel[k] if e_vel[k] else math.nan
                for k in range(len(e_vel) - 1)]
    ratios_t = [e_tmp[k + 1] / e_tmp[k] if e_tmp[k] else math.nan
                for k in range(len(e_tmp) - 1)]
    failures = []
    for label, dist, ratios in (("velocity", e_vel, ratios_v),
                                ("temperature", e_tmp, ratios_t)):
        for k, r in enumerate(ratios):
            if not dist[k]:
                failures.append(f"{label} pair {k}: coarser distance is 0, "
                                "ratio undefined")
            elif not r <= 0.6:
                failures.append(f"{label} pair {k}: ratio {r:.3f} > 0.6")
    return CauchyReport(pair_levels=tuple(pairs), e_velocity=tuple(e_vel),
                        e_temperature=tuple(e_tmp),
                        ratios_velocity=tuple(ratios_v),
                        ratios_temperature=tuple(ratios_t),
                        dual_path_gap=worst_gap if dual_path else None,
                        failures=tuple(failures))


def cauchy_study(problem: ProblemData, levels: int = 3, dt: float = 1e-3,
                 t_end: float = 0.1, base_n: int = 4,
                 gamma1_sides=("left",), dual_path: bool = False) -> CauchyReport:
    """Time-integrated L2 distance between consecutive refinement levels."""
    return cauchy_report(refinement_runs(problem, levels, dt, t_end, base_n,
                                         gamma1_sides), dual_path=dual_path)


def _dual_path_gap(coarse, fine, state_c, state_f, dz_ref, dw_ref) -> float:
    """Relative disagreement of the difference norm computed on fine quadrature."""
    pts = fine.quad_x.reshape(-1, 2)
    zc = forms.evaluate_velocity(coarse, state_c.z, pts).reshape(fine.quad_x.shape)
    zf = forms.velocity_at_quadrature(fine, state_f.z)
    dz = float(np.sum(fine.quad_w * ((zf - zc) ** 2).sum(axis=-1))) ** 0.5
    wc = forms.evaluate_scalar(coarse, state_c.w, pts).reshape(fine.quad_w.shape)
    wf = forms.scalar_at_quadrature(fine, state_f.w)
    dw = float(np.sum(fine.quad_w * (wf - wc) ** 2)) ** 0.5
    gap_z = abs(dz - dz_ref) / max(dz_ref, 1e-30)
    gap_w = abs(dw - dw_ref) / max(dw_ref, 1e-30)
    return max(gap_z, gap_w)


# ---------------------------------------------------------------------------
# two-trajectory contraction


CONTRACTION_HEADER = ("D(t) = |z1-z2|^2_{L2} + |w1-w2|^2_{L2}; "
                      "M(t) = beta*|g|_inf + l1/(2*gamma0*c1)*|grad z**|^2_{L2} "
                      "+ l2/(2*k0*c1')*|grad w**|^2_{L2} with baseline-run "
                      "full H1 seminorms; N = beta*|g|_inf")


@dataclass(frozen=True)
class ContractionReport:
    header: str
    times: tuple
    distance: tuple              # D at each time, including t=0
    gronwall_bound: tuple        # bound at each time, including t=0
    growth: tuple                # M(t) per step
    growth_offset: float         # N
    re_plus_ra: tuple            # baseline series per step
    zero_forcing: bool
    re_ra_below_one: bool
    monotone: bool
    gronwall_ok: bool
    decay_checked: bool
    decay_ok: bool
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def _sup_norm_g(spaces: FunctionSpaces, g_fn) -> float:
    vals = np.asarray(g_fn(spaces.quad_x), dtype=float)
    return float(np.max(np.hypot(vals[..., 0], vals[..., 1])))


def _forcing_is_zero(spaces: FunctionSpaces, problem: ProblemData,
                     t_end: float) -> bool:
    pts = spaces.quad_x
    for t in (0.0, 0.5 * t_end, t_end):
        if np.max(np.abs(problem.f1(pts, t))) != 0.0:
            return False
        if np.max(np.abs(problem.f2(pts, t))) != 0.0:
            return False
        for bs in (spaces.gamma1, spaces.gamma2):
            if not len(bs.verts):
                continue
            if np.max(np.abs(problem.v1(bs.qx, t))) != 0.0:
                return False
            if np.max(np.abs(problem.v2(bs.qx, t))) != 0.0:
                return False
    return True


def contraction_study(spaces: FunctionSpaces, problem: ProblemData,
                      config: SolverConfig, delta: float = 1e-3,
                      seed: int = 42) -> ContractionReport:
    """Distance growth between a baseline run and a perturbed-start run.

    The perturbation is delta times an L2-normalized fixed-seed random
    direction in each initial field, zeroed on the essential dofs.
    """
    base_states, base_diags = run(spaces, problem, config)

    rng = np.random.default_rng(seed)
    start = initialize_state(spaces, problem)
    z_pert = start.z.values.copy()
    w_pert = start.w.values.copy()
    for vec, space, fixed in ((z_pert, "velocity", spaces.fixed_velocity_dofs),
                              (w_pert, "temperature", spaces.fixed_temperature_dofs)):
        direction = rng.standard_normal(len(vec))
        direction[fixed] = 0.0
        norm = forms.l2_norm_sq(spaces, FieldVector(space, direction)) ** 0.5
        vec += delta * direction / norm
    pert_start = State(t=0.0, z=FieldVector("velocity", z_pert),
                       w=FieldVector("temperature", w_pert),
                       P=forms.zeros_field(spaces, "head"))
    pert_states, _ = run(spaces, problem, config, initial_state=pert_start)

    def distance(s1, s2):
        dz = FieldVector("velocity", s1.z.values - s2.z.values)
        dw = FieldVector("temperature", s1.w.values - s2.w.values)
        return forms.l2_norm_sq(spaces, dz) + forms.l2_norm_sq(spaces, dw)

    d_series = [distance(a, b) for a, b in zip(base_states, pert_states)]
    times = [s.t for s in base_states]

    cst = config.constants_for_re_ra
    model = problem.model
    g_inf = _sup_norm_g(spaces, problem.g)
    n_const = problem.beta * g_inf
    growth = []
    for s in base_states[1:]:
        m_t = (n_const
               + model.l1 / (2 * model.gamma0 * cst["c1"])
               * forms.velocity_grad_seminorm_sq(spaces, s.z)
               + model.l2 / (2 * model.k0 * cst["c1_prime"])
               * forms.scalar_grad_seminorm_sq(spaces, s.w))
        growth.append(m_t)

    bound = [d_series[0]]
    acc = 0.0
    for m_t in growth:
        acc += (m_t + n_const) * config.dt
        bound.append(d_series[0] * math.exp(acc) * (1 + 1e-6))

    gronwall_ok = all(d <= b for d, b in zip(d_series, bound))
    monotone = all(b <= a for a, b in zip(d_series, d_series[1:]))
    re_plus_ra = tuple(d.Re_plus_Ra for d in base_diags)
    below_one = all(v < 1.0 for v in re_plus_ra)
    zero_forcing = _forcing_is_zero(spaces, problem, config.t_end)
    decay_checked = zero_forcing and below_one
    decay_ok = (d_series[-1] <= d_series[0]) if decay_checked else True

    failures = []
    if not gronwall_ok:
        worst = max(d / b for d, b in zip(d_series, bound))
        failures.append(f"Gronwall bound violated (worst D/bound {worst:.6f})")
    if decay_checked and not decay_ok:
        failures.append("zero-forcing run with Re+Ra < 1 did not contract")
    return ContractionReport(
        header=CONTRACTION_HEADER, times=tuple(times), distance=tuple(d_series),
        gronwall_bound=tuple(bound), growth=tuple(growth),
        growth_offset=n_const, re_plus_ra=re_plus_ra,
        zero_forcing=zero_forcing, re_ra_below_one=below_one,
        monotone=monotone, gronwall_ok=gronwall_ok,
        decay_checked=decay_checked, decay_ok=decay_ok,
        failures=tuple(failures))


# ---------------------------------------------------------------------------
# form-property audit


@dataclass(frozen=True)
class FormCheck:
    name: str
    worst: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class FormsAuditReport:
    checks: tuple
    constants: dict | None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def worst_of(self, name: str) -> float:
        for c in self.checks:
            if c.name == name:
                return c.worst
        raise KeyError(name)


def _rel_skew(mat) -> float:
    scale = max(float(np.max(np.abs(mat.data))), 1e-300)
    asym = mat + mat.T
    if asym.nnz == 0:
        return 0.0
    return float(np.max(np.abs(asym.data))) / scale


def _abs_asym(mat) -> float:
    diff = mat - mat.T
    return float(np.max(np.abs(diff.data))) if diff.nnz else 0.0


def check_forms(spaces: FunctionSpaces, trials: int = 100,
                seed: int = 42) -> FormsAuditReport:
    """Audit the assembled operators' structural properties on random fields."""
    if trials == 0:
        return FormsAuditReport(checks=(), constants=None)

    rng = np.random.default_rng(seed)
    model = constant_model(1.0, 1.0)
    tanh_model = CoefficientModel(
        viscosity=tanh_blend_law(0.5, 2.0),
        conductivity=tanh_blend_law(0.7, 1.3))
    nv, nt_dim = spaces.velocity_dim, spaces.temperature_dim

    def rand_vel():
        return FieldVector("velocity", rng.standard_normal(nv))

    def rand_tmp():
        return FieldVector("temperature", rng.standard_normal(nt_dim))

    checks = []

    def record(name, worst, tol, exact=False):
        ok = (worst == 0.0) if exact else (worst <= tol)
        checks.append(FormCheck(name=name, worst=worst, tol=tol, passed=ok))

    # skew-symmetry of the advection operators
    worst_n = worst_c = 0.0
    for _ in range(trials):
        z_h = rand_vel()
        worst_n = max(worst_n, _rel_skew(
            forms.assemble_velocity_advection(spaces, z_h)))
        worst_c = max(worst_c, _rel_skew(
            forms.assemble_temperature_advection(spaces, z_h)))
    record("skew_velocity_advection", worst_n, 1e-13)
    record("skew_temperature_advection", worst_c, 1e-13)

    # exact symmetry of mass and diffusion matrices
    worst_sym = max(_abs_asym(forms.assemble_mass(spaces, "velocity")),
                    _abs_asym(forms.assemble_mass(spaces, "temperature")))
    record("symmetry_mass", worst_sym, 0.0, exact=True)
    worst_sym = 0.0
    for _ in range(min(trials, 20)):
        w_h = rand_tmp()
        worst_sym = max(
            worst_sym,
            _abs_asym(forms.assemble_velocity_diffusion(spaces, tanh_model, w_h)),
            _abs_asym(forms.assemble_temperature_diffusion(spaces, tanh_model, w_h)))
    record("symmetry_diffusion", worst_sym, 0.0, exact=True)

    # linearity in the coefficient: shifting gamma by a constant adds
    # that constant times the unit-coefficient operator
    shift = 0.75
    shifted = CoefficientModel(
        viscosity=tanh_blend_law(0.5 + shift, 2.0 + shift),
        conductivity=tanh_model.conductivity)
    unit_zero = forms.zeros_field(spaces, "temperature")
    a_unit = forms.assemble_velocity_diffusion(spaces, model, unit_zero)
    worst_lin = 0.0
    for _ in range(min(trials, 10)):
        w_h = rand_tmp()
        a_base = forms.assemble_velocity_diffusion(spaces, tanh_model, w_h)
        a_shift = forms.assemble_velocity_diffusion(spaces, shifted, w_h)
        resid = a_shift - a_base - shift * a_unit
        scale = float(np.max(np.abs(a_shift.data)))
        if resid.nnz:
            worst_lin = max(worst_lin, float(np.max(np.abs(resid.data))) / scale)
    record("coefficient_linearity", worst_lin, 1e-13)

    # continuity of b: calibrate C on `trials` triples, then verify on 10^3
    h_vel = forms.assemble_velocity_h1_gram(spaces)

    def h1_vel(f):
        return float(f.values @ (h_vel @ f.values)) ** 0.5

    h_lu = scipy.sparse.linalg.splu(h_vel.tocsc())

    def h1_unit(vals):
        f = FieldVector("velocity", vals)
        return FieldVector("velocity", vals / h1_vel(f))

    best = (0.0, None)
    for _ in range(trials):
        u, v, w = rand_vel(), rand_vel(), rand_vel()
        val = abs(forms.trilinear_b(spaces, u, v, w))
        ratio = val / (h1_vel(u) * h1_vel(v) * h1_vel(w))
        if ratio > best[0]:
            best = (ratio, (u, v, w))
    measured = best[0]
    if best[1] is not None:
        # sharpen the sampled maximum: b is linear in each slot, so the
        # exact best field for two slots held fixed is H^-1 times the
        # moment vector; cycling slots ascends monotonically
        u, v, w = (h1_unit(f.values) for f in best[1])
        for _ in range(30):
            r_u, _, _ = forms.b_moment_vectors(spaces, u, v, w)
            u = h1_unit(h_lu.solve(r_u))
            _, r_v, _ = forms.b_moment_vectors(spaces, u, v, w)
            v = h1_unit(h_lu.solve(r_v))
            _, _, r_w = forms.b_moment_vectors(spaces, u, v, w)
            w = h1_unit(h_lu.solve(r_w))
            ratio = abs(forms.trilinear_b(spaces, u, v, w))
            if ratio < measured * (1 + 1e-10):
                measured = max(measured, ratio)
                break
            measured = ratio
    c_used = 1.05 * measured
    worst_cont = 0.0
    verify_rng = np.random.default_rng(seed + 1)
    for _ in range(1000):
        u, v, w = (FieldVector("velocity", verify_rng.standard_normal(nv))
                   for _ in range(3))
        val = abs(forms.trilinear_b(spaces, u, v, w))
        worst_cont = max(worst_cont,
                         val / (c_used * h1_vel(u) * h1_vel(v) * h1_vel(w)))
    record("b_continuity", worst_cont, 1.0)

    # dual norm of z -> b(z, z, .) against the constrained test space
    free_v = _free_velocity_dofs(spaces)
    h_free_lu = scipy.sparse.linalg.splu(
        h_vel.tocsr()[free_v][:, free_v].tocsc())

    def dual_norm(z):
        r = (forms.assemble_velocity_advection(spaces, z) @ z.values)[free_v]
        return float(r @ h_free_lu.solve(r)) ** 0.5

    def rand_constrained():
        x = rng.standard_normal(nv)
        x[spaces.fixed_velocity_dofs] = 0.0
        return FieldVector("velocity", x)

    best_dual = (0.0, None)
    for _ in range(trials):
        z = rand_constrained()
        ratio = dual_norm(z) / h1_vel(z) ** 2
        if ratio > best_dual[0]:
            best_dual = (ratio, z)
    measured_dual = best_dual[0]
    if best_dual[1] is not None:
        # projected gradient ascent on the homogeneous ratio, sharpening
        # the sampled constant before the fresh-sample verification
        z = best_dual[1]
        x = z.values / h1_vel(z)
        alpha = 0.25
        val = dual_norm(FieldVector("velocity", x))
        for _ in range(60):
            zf = FieldVector("velocity", x)
            r = (forms.assemble_velocity_advection(spaces, zf) @ x)[free_v]
            y = np.zeros(nv)
            y[free_v] = h_free_lu.solve(r)
            r_u, r_v, _ = forms.b_moment_vectors(
                spaces, zf, zf, FieldVector("velocity", y))
            grad = r_u + r_v
            grad[spaces.fixed_velocity_dofs] = 0.0
            q = val ** 2
            if q <= 0.0:
                break
            step = grad / q - 2.0 * (h_vel @ x)
            cand = x + alpha * step
            cand[spaces.fixed_velocity_dofs] = 0.0
            cand = cand / h1_vel(FieldVector("velocity", cand))
            cand_val = dual_norm(FieldVector("velocity", cand))
            if cand_val > val:
                x, val = cand, cand_val
                alpha = min(alpha * 1.1, 1.0)
            else:
                alpha *= 0.5
                if alpha < 1e-12:
                    break
        measured_dual = max(measured_dual, val)
    c_dual = 1.15 * measured_dual
    worst_dual = 0.0
    verify_rng = np.random.default_rng(seed + 2)
    for _ in range(100):
        x = verify_rng.standard_normal(nv)
        x[spaces.fixed_velocity_dofs] = 0.0
        z = FieldVector("velocity", x)
        worst_dual = max(worst_dual, dual_norm(z) / (c_dual * h1_vel(z) ** 2))
    record("dual_norm_bound", worst_dual, 1.0)

    # coercivity constants and the discrete coercivity inequality, on one
    # divergence-free basis
    nullsp = _divergence_free_basis(spaces, free_v)
    constants = _constants_on_basis(spaces, free_v, nullsp)
    for key in ("c1", "c1_prime"):
        checks.append(FormCheck(name=f"coercivity_{key}_positive",
                                worst=constants[key], tol=0.0,
                                passed=constants[key] > 0.0))
    worst_coer = 0.0
    for _ in range(min(trials, 20)):
        y = rng.standard_normal(nullsp.shape[1])
        x = np.zeros(nv)
        x[free_v] = nullsp @ y
        z = FieldVector("velocity", x)
        w_h = rand_tmp()
        a_g = forms.assemble_velocity_diffusion(spaces, tanh_model, w_h)
        lhs = float(x @ (a_g @ x))
        rhs = tanh_model.gamma0 * constants["c1"] * h1_vel(z) ** 2
        worst_coer = max(worst_coer, (rhs - lhs) / max(rhs, 1e-300))
    record("coercivity_inequality", worst_coer, 1e-8)

    # product rule of c against an integrated-by-parts quadrature path
    worst_prod = 0.0
    for _ in range(trials):
        z, w, phi = rand_constrained(), rand_tmp(), rand_tmp()
        lhs = (forms.trilinear_c(spaces, z, w, phi)
               + forms.trilinear_c(spaces, z, phi, w))
        div_q = forms.div_at_quadrature(spaces, z)
        w_q = forms.scalar_at_quadrature(spaces, w)
        p_q = forms.scalar_at_quadrature(spaces, phi)
        volume = float(np.sum(spaces.quad_w * div_q * w_q * p_q))
        boundary = forms.boundary_normal_flux_product(spaces, z, w, phi)
        rhs = -volume + boundary
        worst_prod = max(worst_prod, abs(lhs - rhs) / max(1.0, abs(lhs)))
    record("c_product_rule", worst_prod, 1e-12)

    return FormsAuditReport(checks=tuple(checks), constants=constants)
