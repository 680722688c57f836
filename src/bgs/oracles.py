"""Verification drivers: manufactured solutions, refinement studies,
two-trajectory contraction, and form-property audits.

The manufactured forcing is closed form.  Every exact field is a
spatial field times exp(-t); the derivatives of the spatial parts are
written out by hand, and the forcings combine them with the coefficient
laws by the chain rule.  Tier-1 checks them against sympy and against a
nested finite-difference stencil (`tests/helpers_stencil.py`).  A
clamped law uses its one-sided slope at the clip points.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
import scipy.sparse.linalg

from . import forms
from .coefficients import CoefficientModel, constant_model, tanh_blend_law
from .forms import FieldVector, FunctionSpaces
from .mesh import build_rectangle_mesh
# bench/tracing.py times run and estimate_constants at this module's names
from .solver import (ProblemData, SolverConfig, State,
                     _divergence_free_solver, _free_block, _free_velocity_dofs,
                     estimate_constants, initialize_state, run)

# columns per block of the audit's trilinear and dual-norm samples
_AUDIT_BLOCK = 10

RATE_TARGETS = {"velocity_l2": 2.5, "velocity_rot": 1.6,
                "temperature_l2": 1.6, "head_l2": 1.6}


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


def _spatial_parts(points) -> dict:
    """The exact fields at t=0 and the derivatives the forcings read.

    The velocity is (d/dy, -d/dx) of the stream function a(x) s(y) with
    a = x^2 (1-x)^2 and s = sin^2(pi y), so its vorticity is
    -(a'' s + a s'').
    """
    p = np.asarray(points, dtype=float)
    x, y = p[..., 0], p[..., 1]
    pi = np.pi
    sin_x, cos_x = np.sin(pi * x), np.cos(pi * x)
    sin_y, cos_y = np.sin(pi * y), np.cos(pi * y)
    sin_2y, cos_2y = np.sin(2 * pi * y), np.cos(2 * pi * y)
    a, a1 = x ** 2 * (1 - x) ** 2, 2 * x * (1 - x) * (1 - 2 * x)
    a2, a3 = 2 - 12 * x + 12 * x ** 2, 24 * x - 12
    s, s1 = sin_y ** 2, pi * sin_2y
    s2, s3 = 2 * pi ** 2 * cos_2y, -4 * pi ** 3 * sin_2y
    return {
        "z": np.stack([a * s1, -a1 * s], axis=-1),
        "rot": -(a2 * s + a * s2),
        "rot_x": -(a3 * s + a1 * s2),
        "rot_y": -(a2 * s1 + a * s3),
        "w": x * sin_y,
        "w_x": sin_y,
        "w_y": pi * x * cos_y,
        "lap_w": -pi ** 2 * x * sin_y,
        "grad_p": np.stack([-pi * sin_x * cos_y, -pi * cos_x * sin_y], axis=-1),
    }


class _SpatialPartsCache:
    """`_spatial_parts`, computed once per read-only point set.

    The parts do not depend on t, and a solver step evaluates the forcing
    on the same read-only quadrature and boundary point arrays at every
    step.  Such arrays are recognised by identity; the cache holds them,
    so an id is never reused while cached, and keeps only the last few.
    What it hands out is read-only: a mapping proxy of frozen arrays.
    Writable point sets are computed afresh on every call.
    """

    SIZE = 4

    def __init__(self):
        self._entries = {}      # id(points) -> (points, parts)

    def __call__(self, points):
        if not (isinstance(points, np.ndarray) and not points.flags.writeable):
            return _spatial_parts(points)
        hit = self._entries.get(id(points))
        if hit is not None:
            return hit[1]
        parts = _spatial_parts(points)
        for arr in parts.values():
            arr.setflags(write=False)
        if len(self._entries) >= self.SIZE:
            del self._entries[next(iter(self._entries))]
        frozen = MappingProxyType(parts)
        self._entries[id(points)] = (points, frozen)
        return frozen


def exact_rot(points, t):
    """Vorticity d(z2)/dx - d(z1)/dy of the exact velocity, closed form."""
    return math.exp(-t) * _spatial_parts(points)["rot"]


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


def make_mms_problem(coeff_model: CoefficientModel, beta: float = 0.5,
                     g=(0.0, -1.0), buoyancy_sign: float = 1.0) -> ProblemData:
    """Manufactured problem with closed-form forcings.

    The momentum forcing realizes
        f1 = z_t + Rot(gamma(w) rot z) + rot z x z
             + buoyancy_sign * beta * g * w - grad P,
    with Rot s = (ds/dy, -ds/dx), so the discrete head converges to the
    manufactured P and v1 = P on GAMMA1 closes the boundary pairing.
    With e = exp(-t) and the t=0 parts of `_spatial_parts`, the chain
    rule gives
        Rot(gamma(w) om) = (gamma'(w) w_y om + gamma(w) om_y,
                            -gamma'(w) w_x om - gamma(w) om_x),
        div(k(w) grad w) = k'(w) |grad w|^2 + k(w) lap w,
    and z_t = -z, w_t = -w.
    """
    g_fn = as_vector_field(g)
    gamma, k = coeff_model.viscosity, coeff_model.conductivity
    spatial_parts = _SpatialPartsCache()

    def f1(points, t):
        d, e = spatial_parts(points), math.exp(-t)
        z, w, om = e * d["z"], e * d["w"], e * d["rot"]
        w_x, w_y = e * d["w_x"], e * d["w_y"]
        gam, dgam = gamma(w), gamma.derivative(w)
        rot_m = np.stack([dgam * w_y * om + gam * (e * d["rot_y"]),
                          -dgam * w_x * om - gam * (e * d["rot_x"])], axis=-1)
        adv = np.stack([-om * z[..., 1], om * z[..., 0]], axis=-1)
        buoy = (buoyancy_sign * beta) * w[..., None] \
            * g_fn(np.asarray(points, dtype=float))
        return -z + rot_m + adv + buoy - e * d["grad_p"]

    def f2(points, t):
        d, e = spatial_parts(points), math.exp(-t)
        z, w = e * d["z"], e * d["w"]
        w_x, w_y = e * d["w_x"], e * d["w_y"]
        div_flux = k.derivative(w) * (w_x ** 2 + w_y ** 2) \
            + k(w) * (e * d["lap_w"])
        return -w - div_flux + z[..., 0] * w_x + z[..., 1] * w_y

    def v1(points, t):
        return np.asarray(exact_head(np.asarray(points, dtype=float), t),
                          dtype=float)

    def v2(points, t):
        # conductivity-weighted normal derivative, outward normal; the
        # plus pairing in the load makes this the datum that closes the
        # weak temperature equation
        n = _outward_normal(points)
        d, e = spatial_parts(points), math.exp(-t)
        return k(e * d["w"]) * e * (n[..., 0] * d["w_x"] + n[..., 1] * d["w_y"])

    return ProblemData(
        model=coeff_model, beta=float(beta), g=g_fn, f1=f1, f2=f2, v1=v1,
        v2=v2,
        z0=lambda pts: np.asarray(exact_velocity(pts, 0.0), dtype=float),
        w0=lambda pts: np.asarray(exact_temperature(pts, 0.0), dtype=float),
        buoyancy_sign=float(buoyancy_sign))


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


def _lanes(levels: int) -> int:
    """How many levels run at once: one per CPU this process may use, and
    1 where processes cannot be forked."""
    if ("fork" not in multiprocessing.get_all_start_methods()
            or not hasattr(os, "sched_getaffinity")):
        return 1
    return min(levels, len(os.sched_getaffinity(0)))


def _run_in_child(sender, spaces: FunctionSpaces, problem: ProblemData,
                  config: SolverConfig) -> None:
    """Send (states, run seconds, warnings issued), or (exception, its
    traceback text) if the run raised."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            tic = time.perf_counter()
            states, _ = run(spaces, problem, config)
            result = (states, time.perf_counter() - tic,
                      [(w.message, w.category, w.filename, w.lineno)
                       for w in caught])
    except Exception as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:    # it would not cross the pipe: keep type and text
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        result = (exc, traceback.format_exc())
    sender.send(result)
    sender.close()


class _ChildTraceback(Exception):
    """The traceback of an exception raised in a child, as its cause."""

    def __str__(self):
        return self.args[0]


def _warn_again(message, category, filename: str, lineno: int) -> None:
    """Issue a child's warning as if raised at its place here: under its
    module's name and once-per-location registry."""
    module = next((m for m in list(sys.modules.values())
                   if getattr(m, "__file__", None) == filename), None)
    if module is None:
        warnings.warn_explicit(message, category, filename, lineno)
    else:
        warnings.warn_explicit(
            message, category, filename, lineno, module=module.__name__,
            registry=vars(module).setdefault("__warningregistry__", {}))


def _receive(proc, receiver):
    """The child's (states, run seconds), read before the child is joined;
    its exception is raised here and its warnings issued again.  The
    caller still owns the child: it terminates and joins it on any exit."""
    try:
        result = receiver.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"child process exited with code {proc.exitcode} "
                           "before sending its trajectory") from None
    proc.join()
    if isinstance(result[0], Exception):
        exc, child_traceback = result
        raise exc from _ChildTraceback(child_traceback)
    states, seconds, caught = result
    for message, category, filename, lineno in caught:
        _warn_again(message, category, filename, lineno)
    return states, seconds


def refinement_runs(problem: ProblemData, levels: int = 3, dt: float = 1e-3,
                    t_end: float = 0.1, base_n: int = 4,
                    gamma1_sides=("left",)) -> RefinementRuns:
    """Integrate problem on the nested n = base_n * 2**k meshes, k < levels.

    The finest lanes - 1 levels (`_lanes`) run in forked children while
    this process integrates the others; a child runs the same code on the
    same inherited data, so every state is the serial run's.  A failure is
    raised with its level, the lowest failing level first, and no child
    outlives the call.
    """
    if levels < 3:
        raise ValueError("refinement study needs at least 3 levels")
    config = SolverConfig(dt=dt, t_end=t_end)
    local = levels - _lanes(levels) + 1       # levels run in this process
    # fork, not spawn: the problem's closures are inherited, never pickled
    context = multiprocessing.get_context("fork") if local < levels else None
    spaces, build_s, children = {}, {}, {}
    try:
        # finest first, so the longest trajectories start soonest
        for k in reversed(range(levels)):
            n = base_n * 2 ** k
            tic = time.perf_counter()
            spaces[k] = forms.build_spaces(
                build_rectangle_mesh(n, n, gamma1_sides=gamma1_sides))
            build_s[k] = time.perf_counter() - tic
            if k >= local:
                receiver, sender = context.Pipe(duplex=False)
                proc = context.Process(target=_run_in_child,
                                       args=(sender, spaces[k], problem, config))
                proc.start()
                sender.close()
                children[k] = (proc, receiver)
        results = []
        for k in range(levels):
            n = base_n * 2 ** k
            try:
                if k in children:
                    states, seconds = _receive(*children[k])
                else:
                    tic = time.perf_counter()
                    states, _ = run(spaces[k], problem, config)
                    seconds = time.perf_counter() - tic
            except Exception as exc:
                raise type(exc)(f"level {k} (n={n}): {exc}") from exc
            results.append(LevelRun(n=n, spaces=spaces[k], states=tuple(states),
                                    wall_clock=build_s[k] + seconds))
    finally:
        for proc, receiver in children.values():
            proc.terminate()
            proc.join()
            receiver.close()
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
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def _interp_up(at_nodes: forms.PointEvaluator,
               at_vertices: forms.PointEvaluator, state: State) -> tuple:
    """Represent a coarse state exactly in the nested fine spaces, from
    evaluators at the fine P2 nodes and the fine vertices."""
    zv = at_nodes.velocity(state.z)
    z_up = np.empty(2 * len(zv))
    z_up[0::2] = zv[:, 0]
    z_up[1::2] = zv[:, 1]
    w_up = at_vertices.scalar(state.w)
    return (FieldVector("velocity", z_up), FieldVector("temperature", w_up))


def _trapezoid_sq(values, dt: float) -> float:
    weights = np.full(len(values), dt)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return float(np.sqrt(np.sum(weights * np.asarray(values) ** 2)))


def cauchy_report(runs: RefinementRuns) -> CauchyReport:
    """Time-integrated L2 distance between consecutive refinement levels."""
    e_vel, e_tmp, pairs = [], [], []
    for lc, lf in zip(runs.levels, runs.levels[1:]):
        coarse, fine = lc.spaces, lf.spaces
        # locate each fine point set in the coarse mesh once per pair
        at_nodes = forms.PointEvaluator(coarse, fine.node_coords)
        at_vertices = forms.PointEvaluator(coarse, fine.mesh.vertices)
        dz, dw = [], []
        for sc, sf in zip(lc.states, lf.states):
            z_up, w_up = _interp_up(at_nodes, at_vertices, sc)
            dz_vec = FieldVector("velocity", sf.z.values - z_up.values)
            dw_vec = FieldVector("temperature", sf.w.values - w_up.values)
            dz.append(forms.l2_norm_sq(fine, dz_vec) ** 0.5)
            dw.append(forms.l2_norm_sq(fine, dw_vec) ** 0.5)
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
                        failures=tuple(failures))


def cauchy_study(problem: ProblemData, levels: int = 3, dt: float = 1e-3,
                 t_end: float = 0.1, base_n: int = 4,
                 gamma1_sides=("left",)) -> CauchyReport:
    """Time-integrated L2 distance between consecutive refinement levels."""
    return cauchy_report(refinement_runs(problem, levels, dt, t_end, base_n,
                                         gamma1_sides))


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
    """Audit the assembled operators' structural properties on random fields.

    The continuity of b and the dual-norm bound are sampled in blocks of
    `_AUDIT_BLOCK` fields, evaluated as column stacks.  A block takes its
    fields from the same generator, in the same order, as one draw per
    field would (one (k, 3, n) draw holds k triples in turn), and the
    first of equal maxima is kept, so the samples do not depend on the
    block size; only the rounding of the evaluation does.
    """
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

    def rand_constrained():
        x = rng.standard_normal(nv)
        x[spaces.fixed_velocity_dofs] = 0.0
        return FieldVector("velocity", x)

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
    worst_sym = max(_abs_asym(spaces.mass_velocity),
                    _abs_asym(spaces.mass_temperature))
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

    def h1_columns(x):
        return np.sum(x * (h_vel @ x), axis=0) ** 0.5

    h_lu = scipy.sparse.linalg.splu(h_vel.tocsc())

    def h1_unit(vals):
        f = FieldVector("velocity", vals)
        return FieldVector("velocity", vals / h1_vel(f))

    def sample_blocks(gen, count, *shape):
        # (*shape, k) per block: the same numbers, in the same order, as
        # one draw of `shape` per sample
        for lo in range(0, count, _AUDIT_BLOCK):
            k = min(_AUDIT_BLOCK, count - lo)
            yield np.ascontiguousarray(
                np.moveaxis(gen.standard_normal((k, *shape)), 0, -1))

    def b_and_norms(triple):
        return (np.abs(forms.trilinear_b(spaces, *triple)),
                *(h1_columns(x) for x in triple))

    best = (0.0, None)
    for triple in sample_blocks(rng, trials, 3, nv):
        val, hu, hv, hw = b_and_norms(triple)
        ratio = val / (hu * hv * hw)
        j = int(np.argmax(ratio))
        if ratio[j] > best[0]:
            best = (float(ratio[j]), [x[:, j].copy() for x in triple])
    measured = best[0]
    if best[1] is not None:
        # sharpen the sampled maximum: b is linear in each slot, so the
        # exact best field for two slots held fixed is H^-1 times the
        # moment vector; cycling slots ascends monotonically
        u, v, w = (h1_unit(x) for x in best[1])
        for _ in range(30):
            r_u, = forms.b_moment_vectors(spaces, u, v, w, "u")
            u = h1_unit(h_lu.solve(r_u))
            r_v, = forms.b_moment_vectors(spaces, u, v, w, "v")
            v = h1_unit(h_lu.solve(r_v))
            r_w, = forms.b_moment_vectors(spaces, u, v, w, "w")
            w = h1_unit(h_lu.solve(r_w))
            ratio = abs(forms.trilinear_b(spaces, u, v, w))
            if ratio < measured * (1 + 1e-10):
                measured = max(measured, ratio)
                break
            measured = ratio
    c_used = 1.05 * measured
    worst_cont = 0.0
    for triple in sample_blocks(np.random.default_rng(seed + 1), 1000, 3, nv):
        val, hu, hv, hw = b_and_norms(triple)
        worst_cont = max(worst_cont,
                         float(np.max(val / (c_used * hu * hv * hw))))
    record("b_continuity", worst_cont, 1.0)

    # dual norm of z -> b(z, z, .) against the constrained test space;
    # b(z, z, phi_i) is row i of N(z) z
    free_v = _free_velocity_dofs(spaces)
    h_free = _free_block(h_vel, free_v)
    h_free_lu = scipy.sparse.linalg.splu(h_free)

    def dual_norms(x):
        """Dual norms of the columns of x, and H^-1 N(z) z on the free dofs."""
        r, = forms.b_moment_vectors(spaces, x, x, x, "w")
        r = r[free_v]
        y = h_free_lu.solve(r)
        return np.sum(r * y, axis=0) ** 0.5, y

    def constrained_blocks(gen, count):
        for x in sample_blocks(gen, count, nv):
            x[spaces.fixed_velocity_dofs] = 0.0
            yield x

    best_dual = (0.0, None)
    for x in constrained_blocks(rng, trials):
        ratio = dual_norms(x)[0] / h1_columns(x) ** 2
        j = int(np.argmax(ratio))
        if ratio[j] > best_dual[0]:
            best_dual = (float(ratio[j]), x[:, j].copy())
    measured_dual = best_dual[0]
    if best_dual[1] is not None:
        # projected gradient ascent on the homogeneous ratio, sharpening
        # the sampled constant before the fresh-sample verification
        x = best_dual[1] / h1_vel(FieldVector("velocity", best_dual[1]))
        alpha = 0.25
        val, y_free = dual_norms(x[:, None])
        val = float(val[0])
        for _ in range(60):
            y = np.zeros(nv)
            y[free_v] = y_free[:, 0]
            zf = FieldVector("velocity", x)
            r_u, r_v = forms.b_moment_vectors(
                spaces, zf, zf, FieldVector("velocity", y), "uv")
            grad = r_u + r_v
            grad[spaces.fixed_velocity_dofs] = 0.0
            q = val ** 2
            if q <= 0.0:
                break
            step = grad / q - 2.0 * (h_vel @ x)
            cand = x + alpha * step
            cand[spaces.fixed_velocity_dofs] = 0.0
            cand = cand / h1_vel(FieldVector("velocity", cand))
            cand_val, cand_y = dual_norms(cand[:, None])
            if cand_val[0] > val:
                x, val, y_free = cand, float(cand_val[0]), cand_y
                alpha = min(alpha * 1.1, 1.0)
            else:
                alpha *= 0.5
                if alpha < 1e-12:
                    break
        measured_dual = max(measured_dual, val)
    c_dual = 1.15 * measured_dual
    worst_dual = 0.0
    for x in constrained_blocks(np.random.default_rng(seed + 2), 100):
        ratio = dual_norms(x)[0] / (c_dual * h1_columns(x) ** 2)
        worst_dual = max(worst_dual, float(np.max(ratio)))
    record("dual_norm_bound", worst_dual, 1.0)

    # coercivity constants and the discrete coercivity inequality on
    # H1-orthogonal projections of random fields onto the divergence-free ones
    constants = estimate_constants(spaces)
    for key in ("c1", "c1_prime"):
        checks.append(FormCheck(name=f"coercivity_{key}_positive",
                                worst=constants[key], tol=0.0,
                                passed=constants[key] > 0.0))
    project = _divergence_free_solver(spaces, free_v, h_free)
    worst_coer = 0.0
    for _ in range(min(trials, 20)):
        x = np.zeros(nv)
        x[free_v] = project(h_free @ rng.standard_normal(len(free_v)))
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
