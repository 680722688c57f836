"""Semi-implicit backward-Euler time stepper for the coupled system.

Each step solves the heat equation first (conductivity and transport
frozen at the previous iterate), then the velocity/head saddle problem
with the fresh temperature driving buoyancy and viscosity.  An optional
Picard loop repeats both stages at the latest iterates, converging to
the fully implicit scheme.  Skew advection plus SPD implicit diffusion
make the unforced energies non-increasing at every pass, so the loop
never needs damping at desk scale.  The first pass of a step factors the
saddle system; later passes solve it by GMRES preconditioned with that
factor and refactor only when GMRES misses its tolerance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
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
      ordering and the rounding of every solve.
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


@dataclass(frozen=True)
class _Operators:
    """State-independent matrices and system layouts reused across steps."""

    mass_velocity: sp.csr_matrix
    mass_temperature: sp.csr_matrix
    divergence: sp.csr_matrix
    buoyancy: sp.csr_matrix
    temperature_layout: _Layout
    saddle_layout: _Layout


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


# Later Picard passes of a step solve the saddle system by GMRES
# preconditioned with the factor taken on the step's first pass.
_KRYLOV_RTOL = 1e-12
_KRYLOV_RESTART = 15
_KRYLOV_MAXITER = 1     # one restart cycle: at most 15 iterations


def _krylov_solve(system: sp.csc_matrix, rhs: np.ndarray, lu) -> np.ndarray | None:
    """GMRES preconditioned by lu; None unless the true residual is tiny."""
    precond = spla.LinearOperator(system.shape, matvec=lu.solve)
    x, info = spla.gmres(system, rhs, rtol=_KRYLOV_RTOL, atol=0.0,
                         restart=_KRYLOV_RESTART, maxiter=_KRYLOV_MAXITER,
                         M=precond)
    if info != 0:
        return None
    # written so that a non-finite residual also rejects x
    if not np.linalg.norm(system @ x - rhs) <= _KRYLOV_RTOL * np.linalg.norm(rhs):
        return None
    return x


class _LaggedFactor:
    """Holds the saddle factor of one step for reuse on its later passes."""

    def __init__(self):
        self.lu = None

    def solve(self, system: sp.csc_matrix, rhs: np.ndarray) -> np.ndarray:
        if self.lu is not None:
            x = _krylov_solve(system, rhs, self.lu)
            if x is not None:
                return x
            self.lu = None      # release the stale factor before refactoring
        self.lu = spla.splu(system)
        return self.lu.solve(rhs)


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
    """One backward-Euler update: heat stage, then velocity/head saddle."""
    ops = operators if operators is not None else build_operators(spaces, problem)
    t_new = state.t + config.dt if t_next is None else t_next

    load_w = forms.assemble_temperature_load(spaces, problem.f2, problem.v2, t_new)
    load_z = forms.assemble_velocity_load(spaces, problem.f1, problem.v1, t_new)

    z_coeff, w_coeff = state.z, state.w
    z_new = w_new = p_new = None
    lagged = _LaggedFactor()
    passes = 0
    converged = True
    while True:
        passes += 1
        w_next = _temperature_pass(spaces, problem, config, ops,
                                   state.w.values, z_coeff, w_coeff, load_w)
        z_next, p_next = _velocity_pass(spaces, problem, config, ops,
                                        state.z.values, z_coeff, w_next, load_z,
                                        lagged)
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


def _dense_free(matrix: sp.spmatrix, keep: np.ndarray) -> np.ndarray:
    return matrix.tocsr()[keep][:, keep].toarray()


def _free_velocity_dofs(spaces: FunctionSpaces) -> np.ndarray:
    return np.setdiff1d(np.arange(spaces.velocity_dim),
                        spaces.fixed_velocity_dofs)


def _divergence_free_basis(spaces: FunctionSpaces, free_v) -> np.ndarray:
    """Orthonormal basis of the divergence-free fields on the free dofs."""
    if spaces.velocity_dim > 3000:
        raise ValueError("estimate_constants needs a coarse mesh "
                         f"(velocity dim {spaces.velocity_dim} > 3000)")
    d_free = forms.assemble_divergence_constraint(spaces).toarray()[:, free_v]
    null = scipy.linalg.null_space(d_free)
    if null.shape[1] == 0:
        raise np.linalg.LinAlgError(
            "no discretely divergence-free velocity directions on this mesh")
    return null


def estimate_constants(spaces: FunctionSpaces) -> dict:
    """Discrete stand-ins for the coercivity and Sobolev constants.

    c1: smallest generalized eigenvalue of the unit-coefficient rot-rot
    plus div-div form against the H1 Gram, restricted to constrained,
    discretely divergence-free velocity fields.  c1_prime: analogous for
    the unit temperature stiffness.  d: L4/H1 ratio over the temperature
    space, by ascent from the constant function and the x-ramp; a lower bound.
    """
    free_v = _free_velocity_dofs(spaces)
    return _constants_on_basis(spaces, free_v,
                               _divergence_free_basis(spaces, free_v))


def _constants_on_basis(spaces: FunctionSpaces, free_v: np.ndarray,
                        null: np.ndarray) -> dict:
    """estimate_constants with the divergence-free basis already built."""
    unit = constant_model(1.0, 1.0)
    zero_w = forms.zeros_field(spaces, "temperature")

    a_unit = _dense_free(
        forms.assemble_velocity_diffusion(spaces, unit, zero_w), free_v)
    h_vel = _dense_free(forms.assemble_velocity_h1_gram(spaces), free_v)
    c1 = float(scipy.linalg.eigh(null.T @ a_unit @ null,
                                 null.T @ h_vel @ null,
                                 eigvals_only=True)[0])

    free_t = np.setdiff1d(np.arange(spaces.temperature_dim),
                          spaces.fixed_temperature_dofs)
    k_unit = _dense_free(
        forms.assemble_temperature_diffusion(spaces, unit, zero_w), free_t)
    h_tmp = _dense_free(forms.assemble_temperature_h1_gram(spaces), free_t)
    c1_prime = float(scipy.linalg.eigh(k_unit, h_tmp, eigvals_only=True)[0])

    return {"c1": c1, "c1_prime": c1_prime, "d": _sobolev_ratio_ascent(spaces)}


def _sobolev_ratio_ascent(spaces: FunctionSpaces) -> float:
    """Maximize ||f||_L4 / ||f||_H1 over the discrete temperature space."""
    gram = forms.assemble_temperature_h1_gram(spaces).toarray()
    n = spaces.temperature_dim

    def ratio(vec):
        f = FieldVector("temperature", vec)
        return forms.l4_norm(spaces, f) / float(vec @ gram @ vec) ** 0.5

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
        vec = vec / float(vec @ gram @ vec) ** 0.5
        cur = ratio(vec)
        alpha = 0.25
        for _ in range(200):
            grad = l4_gradient(vec) - (gram @ vec) / float(vec @ gram @ vec)
            cand = vec + alpha * grad
            cand = cand / float(cand @ gram @ cand) ** 0.5
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
