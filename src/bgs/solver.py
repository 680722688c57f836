"""Semi-implicit backward-Euler time stepper for the coupled system.

Each step solves the heat equation first (conductivity and transport
frozen at the previous iterate), then the velocity/head saddle problem
with the fresh temperature driving buoyancy and viscosity.  An optional
Picard loop repeats both stages at the latest iterates, converging to
the fully implicit scheme.  Skew advection plus SPD implicit diffusion
make the unforced energies non-increasing at every pass, so the loop
never needs damping at desk scale.  The saddle system is factored once on
the first pass of a run; every later pass, in the same step or a later
one, solves it by GMRES right-preconditioned with that factor and started
from the previous saddle solution, and refactors only when GMRES misses
its true-residual tolerance.  SuperLU factors the saddle system with
threshold pivoting (a diagonal pivot stays unless it is 1000x smaller than
its column's largest entry), which keeps COLAMD's fill-reducing order and
cuts the L+U fill by about 30%; a fresh factor's direct solve that misses
the tolerance is polished by GMRES with that factor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import forms
from .coefficients import CoefficientModel, constant_model
from .forms import FieldVector, FunctionSpaces


class SolverError(RuntimeError):
    """Linear-algebra failure inside a time step."""


class DivergenceError(SolverError):
    """A solve returned non-finite values."""


DEFAULT_CONSTANTS = {"c1": 1.0, "c1_prime": 1.0, "d": 1.0}


def _as_constants(raw) -> dict:
    out = dict(DEFAULT_CONSTANTS)
    if raw is None:
        return out
    unknown = set(raw) - set(out)
    if unknown:
        raise ValueError(f"unknown constant names: {sorted(unknown)}")
    for key, val in raw.items():
        val = float(val)
        if not (val > 0 and math.isfinite(val)):
            raise ValueError(f"constant {key} must be finite and > 0")
        out[key] = val
    return out


@dataclass(frozen=True)
class ProblemData:
    """Coefficients, forcing, boundary data and initial fields of one run.

    f1/f2 take (points, t); v1 is the head datum on GAMMA1, v2 the heat
    flux datum on GAMMA2.  z0/w0 take points only.  buoyancy_sign flips
    the coupling term for sign experiments; +1 puts +beta*(w g, phi) on
    the left of the momentum equation.
    """

    model: CoefficientModel
    beta: float
    g: "callable"
    f1: "callable"
    f2: "callable"
    v1: "callable"
    v2: "callable"
    z0: "callable"
    w0: "callable"
    buoyancy_sign: float = 1.0
    name: str = ""

    def __post_init__(self):
        if not (self.beta >= 0 and math.isfinite(self.beta)):
            raise ValueError("beta must be finite and >= 0")
        if self.buoyancy_sign not in (1.0, -1.0):
            raise ValueError("buoyancy_sign must be +1 or -1")


@dataclass(frozen=True)
class State:
    """Immutable snapshot of the discrete fields at one time."""

    t: float
    z: FieldVector
    w: FieldVector
    P: FieldVector


def whole_steps(dt: float, t_end: float) -> bool:
    """Whether t_end/dt is within 1e-9 of a whole number."""
    ratio = t_end / dt
    return abs(ratio - round(ratio)) <= 1e-9


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    picard_max: int = 25
    picard_tol: float = 1e-10
    constants_for_re_ra: dict = field(default_factory=lambda: dict(DEFAULT_CONSTANTS))

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be finite and > 0")
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise ValueError("t_end must be finite and > 0")
        if self.dt > self.t_end * (1 + 1e-12):
            raise ValueError("dt must not exceed t_end")
        if not whole_steps(self.dt, self.t_end):
            raise ValueError("t_end must be a whole number of dt steps")
        if self.picard_max < 1:
            raise ValueError("picard_max must be >= 1")
        if not (self.picard_tol > 0):
            raise ValueError("picard_tol must be > 0")
        object.__setattr__(self, "constants_for_re_ra",
                           _as_constants(self.constants_for_re_ra))

    @property
    def num_steps(self) -> int:
        # guard against 0.5/0.01 rounding up to 51 steps
        return max(1, math.ceil(self.t_end / self.dt - 1e-9))


@dataclass(frozen=True)
class Diagnostics:
    """Per-step scalars; the CSV columns in declaration order."""

    t: float
    kinetic: float
    thermal: float
    rot_seminorm2: float
    grad_w_norm2: float
    z_L4: float
    w_L4: float
    Re: float
    Ra: float
    Re_plus_Ra: float
    div_residual: float
    picard_iters: int
    picard_converged: bool = True   # warning flag, not a CSV column

    CSV_FIELDS = ("t", "kinetic", "thermal", "rot_seminorm2", "grad_w_norm2",
                  "z_L4", "w_L4", "Re", "Ra", "Re_plus_Ra", "div_residual",
                  "picard_iters")

    def csv_values(self):
        return tuple(getattr(self, name) for name in self.CSV_FIELDS)


def initialize_state(spaces: FunctionSpaces, problem: ProblemData) -> State:
    """Interpolate initial data and project onto the essential constraints."""
    z = forms.interpolate_velocity(spaces, lambda x, t: problem.z0(x))
    w = forms.interpolate_scalar(spaces, lambda x, t: problem.w0(x))
    z.values[spaces.fixed_velocity_dofs] = 0.0
    w.values[spaces.fixed_temperature_dofs] = 0.0
    return State(t=0.0, z=z, w=w, P=forms.zeros_field(spaces, "head"))


class _Layout:
    """Where each block entry of a linear system lands in its constrained CSC.

    Blocks are operator patterns placed at a row and column offset,
    optionally transposed.  ``system`` builds the matrix that
    ``(dm @ A @ dm + diag(fixed)).tocsc()`` gave for the block matrix A and
    the 0/1 free-dof mask dm, bit for bit:

    - an entry in a fixed row or column is dropped, and each fixed dof
      gets 1.0 on its diagonal;
    - every other entry keeps its value and is stored only if it is
      nonzero, because those sparse products and sums drop exact zeros.
      Storing them would change the pattern, and with it SuperLU's COLAMD
      ordering and the rounding of every solve.  The saddle factor pivots
      with a threshold (``_SADDLE_PIVOT_THRESH``) so that the rows COLAMD's
      column order puts on the diagonal mostly stay there.
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
        # source `offset` is the 1.0 appended after the block data
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
        self.shape = (n, n)

    def system(self, *block_data: np.ndarray) -> sp.csc_matrix:
        values = np.concatenate(block_data + (np.ones(1),))[self.src]
        keep = values != 0
        kept = np.zeros(len(keep) + 1, dtype=np.int32)
        np.cumsum(keep, out=kept[1:])
        return sp.csc_matrix((values[keep], self.indices[keep],
                              kept[self.indptr]), shape=self.shape)


# Picard passes after the first of a run solve the saddle system by GMRES
# preconditioned with the factor taken on the last direct solve.
_KRYLOV_RTOL = 1e-12
_KRYLOV_RESTART = 15
_KRYLOV_MAXITER = 2     # two restart cycles: at most 30 iterations


def _krylov_solve(system: sp.csc_matrix, rhs: np.ndarray, lu,
                  x0: np.ndarray) -> np.ndarray | None:
    """Restarted GMRES right-preconditioned by lu, from x0; None unless the
    true residual is tiny.

    Each z_j = lu.solve(v_j) is kept beside its Arnoldi vector v_j (the
    flexible form of Saad, 1993), so the update x += Z y needs no further
    solve: a call costs one LU solve per iteration.  With right
    preconditioning the Arnoldi residual |g_{j+1}| is that of system @ x
    itself, and a cycle stops once it is below the tolerance.
    """
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    stop = _KRYLOV_RTOL * rhs_norm
    m = _KRYLOV_RESTART
    x = x0.copy()
    for _ in range(_KRYLOV_MAXITER):
        r = rhs - system @ x
        beta = np.linalg.norm(r)
        if not beta > stop:         # converged, or a non-finite residual
            break
        v, z = [r / beta], []
        h = np.zeros((m + 1, m))    # Hessenberg, triangularized by rotations
        cs, sn = np.zeros(m), np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        for j in range(m):
            z.append(lu.solve(v[j]))
            # a non-finite z would spread NaN and warnings through the basis
            if not np.all(np.isfinite(z[j])):
                return None
            w = system @ z[j]
            for i in range(j + 1):  # modified Gram-Schmidt
                h[i, j] = v[i] @ w
                w -= h[i, j] * v[i]
            w_norm = np.linalg.norm(w)
            h[j + 1, j] = w_norm
            for i in range(j):
                h[i, j], h[i + 1, j] = (cs[i] * h[i, j] + sn[i] * h[i + 1, j],
                                        cs[i] * h[i + 1, j] - sn[i] * h[i, j])
            denom = math.hypot(h[j, j], w_norm)
            if denom == 0.0:        # singular: update from the columns before
                z.pop()
                break
            cs[j], sn[j] = h[j, j] / denom, w_norm / denom
            h[j, j], h[j + 1, j] = denom, 0.0
            g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
            # w_norm == 0 (lucky breakdown) gives g[j + 1] == 0 and stops here
            if abs(g[j + 1]) <= stop:
                break
            v.append(w / w_norm)
        k = len(z)
        y = np.zeros(k)             # back substitution in the triangle
        for i in reversed(range(k)):
            y[i] = (g[i] - h[i, i + 1:k] @ y[i + 1:]) / h[i, i]
        for y_i, z_i in zip(y, z):
            x += y_i * z_i
    # written so that a non-finite residual also rejects x
    if not np.linalg.norm(system @ x - rhs) <= _KRYLOV_RTOL * np.linalg.norm(rhs):
        return None
    return x


# SuperLU keeps a diagonal pivot unless it is this many times smaller than
# the largest entry of its column.  Partial pivoting (1.0) swaps rows away
# from the diagonal that COLAMD's ordering assumed and adds about 40% to the
# L+U fill of a saddle system; the temperature system's diagonal dominates
# already, so it keeps the default.
_SADDLE_PIVOT_THRESH = 1e-3


def _factor_saddle(system: sp.csc_matrix):
    """SuperLU factor of a velocity/head saddle system, threshold pivoting."""
    return spla.splu(system, diag_pivot_thresh=_SADDLE_PIVOT_THRESH)


class _LaggedFactor:
    """Holds a saddle factor and the last saddle solution across passes and steps.

    Viscosity moves by O(dt) between saddle solves, so one factor serves
    as the right preconditioner of the solves of many steps, each started
    from the last solution; it is replaced only when GMRES misses its
    true-residual check.  The factor uses threshold pivoting, so a fresh
    factor's direct solve is checked against the same true-residual
    tolerance and polished by GMRES with that factor when it misses.
    """

    def __init__(self):
        self.lu = None
        self.x = None

    def solve(self, system: sp.csc_matrix, rhs: np.ndarray) -> np.ndarray:
        if self.lu is not None:
            x = _krylov_solve(system, rhs, self.lu, self.x)
            if x is not None:
                self.x = x
                return x
            self.lu = None      # release the stale factor before refactoring
        self.lu = _factor_saddle(system)
        x = self.lu.solve(rhs)
        # a non-finite x is left to the caller's DivergenceError; if GMRES
        # misses too, the direct solution stands
        if (np.all(np.isfinite(x)) and not np.linalg.norm(system @ x - rhs)
                <= _KRYLOV_RTOL * np.linalg.norm(rhs)):
            polished = _krylov_solve(system, rhs, self.lu, x)
            if polished is not None:
                x = polished
        self.x = x
        return x


@dataclass(frozen=True)
class _Operators:
    """Matrices, system layouts and the saddle factor reused across steps."""

    mass_velocity: sp.csr_matrix
    mass_temperature: sp.csr_matrix
    divergence: sp.csr_matrix
    buoyancy: sp.csr_matrix
    temperature_layout: _Layout
    saddle_layout: _Layout
    saddle_factor: _LaggedFactor = field(default_factory=_LaggedFactor)


def build_operators(spaces: FunctionSpaces, problem: ProblemData) -> _Operators:
    nv = spaces.velocity_dim
    div = spaces.divergence_pattern
    return _Operators(
        mass_velocity=forms.assemble_mass(spaces, "velocity"),
        mass_temperature=forms.assemble_mass(spaces, "temperature"),
        divergence=forms.assemble_divergence_constraint(spaces),
        buoyancy=forms.assemble_buoyancy(spaces, problem.beta, problem.g),
        temperature_layout=_Layout(
            spaces.temperature_dim,
            [(spaces.temperature_pattern, 0, 0, False)],
            spaces.fixed_temperature_dofs),
        # [[K, D^T], [D, 0]]
        saddle_layout=_Layout(
            nv + spaces.head_dim,
            [(spaces.velocity_pattern, 0, 0, False), (div, 0, nv, True),
             (div, nv, 0, False)],
            spaces.fixed_velocity_dofs))


def _solve_constrained(layout: _Layout, block_data: tuple, rhs: np.ndarray,
                       stage: str, lagged: _LaggedFactor | None = None) -> np.ndarray:
    """Solve with essential dofs eliminated; fresh LU unless lagged is given."""
    system = layout.system(*block_data)
    rhs = rhs * layout.mask
    try:
        if lagged is None:
            x = spla.splu(system).solve(rhs)
        else:
            x = lagged.solve(system, rhs)
    except RuntimeError as exc:
        raise SolverError(f"{stage} stage: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise DivergenceError(f"{stage} stage returned non-finite values")
    return x


# The blocks of each system are summed as data arrays on one operator
# pattern.  M / dt is formed as M.data * (1.0 / dt), the product scipy's
# sparse M / dt computes, so the systems equal the sparse-sum form bit
# for bit.


def _temperature_pass(spaces, problem, config, ops, w_old, z_coeff, w_coeff,
                      load) -> np.ndarray:
    pattern = spaces.temperature_pattern
    a_k = forms.assemble_temperature_diffusion(spaces, problem.model, w_coeff)
    c_tilde = forms.assemble_temperature_advection(spaces, z_coeff)
    data = (pattern.data_of(ops.mass_temperature) * (1.0 / config.dt)
            + pattern.data_of(a_k))
    data += pattern.data_of(c_tilde)
    rhs = ops.mass_temperature @ w_old / config.dt + load
    return _solve_constrained(ops.temperature_layout, (data,), rhs,
                              "temperature")


def _velocity_pass(spaces, problem, config, ops, z_old, z_coeff, w_new,
                   load, lagged) -> tuple[np.ndarray, np.ndarray]:
    pattern = spaces.velocity_pattern
    a_g = forms.assemble_velocity_diffusion(spaces, problem.model,
                                            FieldVector("temperature", w_new))
    n_adv = forms.assemble_velocity_advection(spaces, z_coeff)
    k_data = (pattern.data_of(ops.mass_velocity) * (1.0 / config.dt)
              + pattern.data_of(a_g))
    k_data += pattern.data_of(n_adv)
    d_data = spaces.divergence_pattern.data_of(ops.divergence)
    rhs = np.concatenate([
        ops.mass_velocity @ z_old / config.dt + load
        - problem.buoyancy_sign * (ops.buoyancy @ w_new),
        np.zeros(spaces.head_dim)])
    x = _solve_constrained(ops.saddle_layout, (k_data, d_data, d_data), rhs,
                           "velocity/head", lagged)
    return x[:spaces.velocity_dim], x[spaces.velocity_dim:]


def _increment(new: np.ndarray, old: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(new)), 1e-14)
    return float(np.linalg.norm(new - old)) / scale


def step(spaces: FunctionSpaces, problem: ProblemData, config: SolverConfig,
         state: State, t_next: float | None = None,
         operators: _Operators | None = None) -> tuple[State, Diagnostics]:
    """One backward-Euler update: heat stage, then velocity/head saddle.

    Without operators the step builds its own, so it factors the saddle
    system afresh; run passes one set to every step, and with it the
    saddle factor.
    """
    ops = operators if operators is not None else build_operators(spaces, problem)
    t_new = state.t + config.dt if t_next is None else t_next

    load_w = forms.assemble_temperature_load(spaces, problem.f2, problem.v2, t_new)
    load_z = forms.assemble_velocity_load(spaces, problem.f1, problem.v1, t_new)

    z_coeff, w_coeff = state.z, state.w
    z_new = w_new = p_new = None
    passes = 0
    converged = True
    while True:
        passes += 1
        w_next = _temperature_pass(spaces, problem, config, ops,
                                   state.w.values, z_coeff, w_coeff, load_w)
        z_next, p_next = _velocity_pass(spaces, problem, config, ops,
                                        state.z.values, z_coeff, w_next, load_z,
                                        ops.saddle_factor)
        if z_new is not None:
            rel = max(_increment(z_next, z_new), _increment(w_next, w_new))
        else:
            rel = None
        z_new, w_new, p_new = z_next, w_next, p_next
        if rel is not None and rel < config.picard_tol:
            break
        if passes >= config.picard_max:
            if rel is not None and rel >= config.picard_tol:
                converged = False
                warnings.warn(f"Picard loop stopped at {passes} passes with "
                              f"relative increment {rel:.3e}", RuntimeWarning)
            break
        z_coeff = FieldVector("velocity", z_new)
        w_coeff = FieldVector("temperature", w_new)

    new_state = State(t=t_new,
                      z=FieldVector("velocity", z_new),
                      w=FieldVector("temperature", w_new),
                      P=FieldVector("head", p_new))
    diag = compute_diagnostics(spaces, new_state, config.constants_for_re_ra,
                               problem.model, picard_iters=passes,
                               picard_converged=converged,
                               divergence_matrix=ops.divergence)
    return new_state, diag


def run(spaces: FunctionSpaces, problem: ProblemData, config: SolverConfig,
        initial_state: State | None = None):
    """Advance from t=0 to t_end; returns (states incl. initial, diagnostics)."""
    state = initialize_state(spaces, problem) if initial_state is None else initial_state
    ops = build_operators(spaces, problem)
    states = [state]
    diagnostics = []
    for i in range(config.num_steps):
        t_next = (i + 1) * config.dt
        try:
            state, diag = step(spaces, problem, config, state,
                               t_next=t_next, operators=ops)
        except SolverError as exc:
            raise type(exc)(f"step {i + 1} (t={t_next:g}): {exc}") from exc
        states.append(state)
        diagnostics.append(diag)
    return states, diagnostics


def compute_diagnostics(spaces: FunctionSpaces, state: State, constants,
                        model: CoefficientModel, picard_iters: int = 0,
                        picard_converged: bool = True,
                        divergence_matrix: sp.spmatrix | None = None) -> Diagnostics:
    """Norms of the current fields plus the uniqueness-condition indicator."""
    cst = _as_constants(constants)
    d_mat = (divergence_matrix if divergence_matrix is not None
             else forms.assemble_divergence_constraint(spaces))
    z_l4 = forms.l4_norm(spaces, state.z)
    w_l4 = forms.l4_norm(spaces, state.w)
    re = 4.0 * cst["d"] * z_l4 / (model.gamma0 * cst["c1"])
    ra = (4.0 * cst["d"] ** 2 * w_l4 ** 2
          / (model.gamma0 * model.k0 * cst["c1"] * cst["c1_prime"]))
    return Diagnostics(
        t=state.t,
        kinetic=forms.l2_norm_sq(spaces, state.z),
        thermal=forms.l2_norm_sq(spaces, state.w),
        rot_seminorm2=forms.rot_seminorm_sq(spaces, state.z),
        grad_w_norm2=forms.scalar_grad_seminorm_sq(spaces, state.w),
        z_L4=z_l4,
        w_L4=w_l4,
        Re=re,
        Ra=ra,
        Re_plus_Ra=re + ra,
        div_residual=float(np.linalg.norm(d_mat @ state.z.values)),
        picard_iters=picard_iters,
        picard_converged=picard_converged)


def _free_block(matrix: sp.spmatrix, keep: np.ndarray) -> sp.csc_matrix:
    return matrix.tocsr()[keep][:, keep].tocsc()


def _free_velocity_dofs(spaces: FunctionSpaces) -> np.ndarray:
    return np.setdiff1d(np.arange(spaces.velocity_dim),
                        spaces.fixed_velocity_dofs)


def _divergence_free_solver(spaces: FunctionSpaces, free_v: np.ndarray,
                            block: sp.spmatrix):
    """u(r) from [[block, D^T], [D, 0]] [u; p] = [r; 0] on free dofs; one LU."""
    d = forms.assemble_divergence_constraint(spaces).tocsr()[:, free_v]
    lu = _factor_saddle(sp.bmat([[block, d.T], [d, None]], format="csc"))
    pad = np.zeros(d.shape[0])
    return lambda r: lu.solve(np.concatenate([r, pad]))[:len(free_v)]


def estimate_constants(spaces: FunctionSpaces) -> dict:
    """Discrete stand-ins for the coercivity and Sobolev constants.

    c1: smallest generalized eigenvalue of the unit-coefficient rot-rot
    plus div-div form A against the H1 Gram H on constrained, discretely
    divergence-free velocity fields.  With T mapping x to the u of
    [[A, D^T], [D, 0]] [u; p] = [H x; 0], 1/c1 is the largest eigenvalue
    of H T against H (ARPACK Lanczos).  c1_prime: the same minimum for the
    unit temperature stiffness, by shift-invert at 0.  d: L4/H1 ratio over
    the temperature space, by ascent from the constant function and the
    x-ramp; a lower bound.  Raises LinAlgError when an eigensolve fails.
    """
    unit = constant_model(1.0, 1.0)
    zero_w = forms.zeros_field(spaces, "temperature")
    free_v = _free_velocity_dofs(spaces)
    free_t = np.setdiff1d(np.arange(spaces.temperature_dim),
                          spaces.fixed_temperature_dofs)
    if len(free_t) < 2:     # ARPACK needs k=1 below the dimension
        raise np.linalg.LinAlgError("fewer than two free temperature dofs")
    a_unit = _free_block(
        forms.assemble_velocity_diffusion(spaces, unit, zero_w), free_v)
    h_vel = _free_block(forms.assemble_velocity_h1_gram(spaces), free_v)
    k_unit = _free_block(
        forms.assemble_temperature_diffusion(spaces, unit, zero_w), free_t)
    h_tmp = _free_block(forms.assemble_temperature_h1_gram(spaces), free_t)
    try:    # eigsh factors h_vel and k_unit itself
        project = _divergence_free_solver(spaces, free_v, a_unit)
        mu, x = spla.eigsh(
            spla.LinearOperator(h_vel.shape, dtype=float,
                                matvec=lambda v: h_vel @ project(h_vel @ v)),
            k=1, M=h_vel, which="LA", tol=1e-12, v0=np.ones(len(free_v)))
        c1_prime = spla.eigsh(k_unit, k=1, M=h_tmp, sigma=0,
                              v0=np.ones(len(free_t)),
                              return_eigenvectors=False)[0]
    except RuntimeError as exc:   # singular factor or no ARPACK convergence
        raise np.linalg.LinAlgError(f"constants eigensolve: {exc}") from exc
    # on a true eigenpair u = T x = mu x, with A-to-H Rayleigh quotient 1/mu
    u = project(h_vel @ x[:, 0])
    if not abs(mu[0] * (u @ (a_unit @ u)) / (u @ (h_vel @ u)) - 1.0) < 1e-8:
        raise np.linalg.LinAlgError(
            "no discretely divergence-free velocity directions on this mesh")
    return {"c1": float(1.0 / mu[0]), "c1_prime": float(c1_prime),
            "d": _sobolev_ratio_ascent(spaces)}


def _sobolev_ratio_ascent(spaces: FunctionSpaces) -> float:
    """Maximize ||f||_L4 / ||f||_H1 over the discrete temperature space."""
    gram = forms.assemble_temperature_h1_gram(spaces)
    n = spaces.temperature_dim

    def ratio(vec):
        f = FieldVector("temperature", vec)
        return forms.l4_norm(spaces, f) / float(vec @ (gram @ vec)) ** 0.5

    def l4_gradient(vec):
        # gradient of log ||f||_L4: r_i / q with q = sum w f^4, r_i = sum w f^3 N_i
        f = FieldVector("temperature", vec)
        fq = forms.scalar_at_quadrature(spaces, f)
        w3 = spaces.quad_w * fq ** 3
        q = float(np.sum(spaces.quad_w * fq ** 4))
        r = np.zeros(n)
        np.add.at(r, spaces.mesh.triangles,
                  np.einsum("tq,qa->ta", w3, spaces.p1_at_q))
        return r / q

    best = 0.0
    for vec in (np.ones(n), spaces.mesh.vertices[:, 0]):
        vec = vec / float(vec @ (gram @ vec)) ** 0.5
        cur = ratio(vec)
        alpha = 0.25
        for _ in range(200):
            grad = l4_gradient(vec) - (gram @ vec) / float(vec @ (gram @ vec))
            cand = vec + alpha * grad
            cand = cand / float(cand @ (gram @ cand)) ** 0.5
            val = ratio(cand)
            if val >= cur:
                vec, cur = cand, val
                alpha = min(alpha * 1.1, 1.0)
            else:
                alpha *= 0.5
                if alpha < 1e-12:
                    break
        best = max(best, cur)
    return best
