"""Semi-implicit backward-Euler time stepper for the coupled system.

Each step solves the heat equation first (conductivity and transport
frozen at the previous iterate), then the velocity/head saddle problem
with the fresh temperature driving buoyancy and viscosity.  A Picard loop
repeats both stages at the latest iterates, converging to the fully
implicit scheme.  Skew advection plus SPD implicit diffusion make the
unforced energies non-increasing at every pass, so the loop never needs
damping at desk scale.

The loop stops on the nonlinear residual of the iterate it already has
(Kelley, SIAM 1995, ch. 4-5).  Each pass after the first starts by
building, at the current iterate, what its solves need anyway: the
temperature system and the velocity advection.  With the viscosity data
kept from the pass that made the iterate, they give its residual in both
equations of the fully implicit step, by one matvec per system.  The step
returns the iterate once the larger of the two, each relative to its
system's masked right side, is at most picard_tol, and otherwise solves
with those kernels; picard_iters counts the passes that solved.  A loop
that reaches picard_max without meeting picard_tol returns its last
iterate with a warning; one pass (picard_max 1) is the linearly implicit
scheme, returned unchecked.

Both linear systems keep one factor for a whole run.  Each is factored on
the first pass of a run; every later pass, in the same step or a later
one, solves it by GMRES right-preconditioned with that factor and started
from the previous solution of the same system, and refactors only when
GMRES misses its true-residual stop.  That stop is inexact: 1e-4 times
the residual of the start, or 1e-12 relative if that is larger (Dembo,
Eisenstat & Steihaug, SINUM 19, 1982).  No solve is polished further:
the nonlinear residual that stops a step includes the error its last
solves left.  Every tolerance test takes its norms in units of the right
side's largest entry, so no finite residual overflows, and a non-finite
norm is a miss.  SuperLU factors the saddle system with threshold
pivoting (a diagonal pivot stays unless it is 1000x smaller than its
column's largest entry), which keeps COLAMD's fill-reducing order and
cuts the L+U fill by about 30%; the temperature system keeps SuperLU's
default.

A Picard pass builds one matrix per system and no other.  It adds the
data arrays of its operators on their fixed patterns (the data kernels of
`bgs.forms`), the system's layout places them into CSC arrays through a
structure it keeps until the set of exact zeros changes, and GMRES and
the residual checks multiply by scipy's sparse kernels directly; a scipy
matrix is built only to be factored.  The layouts, mass matrices and D
depend only on the mesh and live on `FunctionSpaces`; a run builds only
the buoyancy matrix and its two factors.

A run is the generator `steps`: it holds the operators, both factors and
the state before the current one, and yields each new state with its
diagnostics as its step ends; `run` lists what it yields.  From the second
step on, `steps` hands each step the state before its start, and the step
starts its Picard loop from the linear extrapolation 2 x_n - x_(n-1) of
velocity and temperature, which is O(dt^2) from the new fixed point where
the previous state is O(dt) (the extrapolated linearization of Baker,
Dougalis & Karakashian, Math. Comp. 39, 1982).  Both starts lead to the
same fixed point; the pass counts change, and where within picard_tol of
it the loop stops.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools

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
    """Whether t_end/dt is finite and within 1e-9 of a whole number."""
    ratio = t_end / dt
    return math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9


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
        return round(self.t_end / self.dt)


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


# Picard passes after the first of a run solve each system by GMRES
# preconditioned with the factor taken on its last direct solve.  A lagged
# solve stops at the larger of _KRYLOV_ETA times the residual of its start,
# the previous solution, and _KRYLOV_RTOL times |rhs|: an error that small
# is far below the change the next pass makes (the inexact Newton forcing
# term of Dembo, Eisenstat & Steihaug, SINUM 19, 1982), and whatever error
# the last solves leave is part of the nonlinear residual that stops a step.
_KRYLOV_RTOL = 1e-12
_KRYLOV_ETA = 1e-4
_KRYLOV_RESTART = 15
_KRYLOV_MAXITER = 2     # two restart cycles: at most 30 iterations


def _unit_exponent(v: np.ndarray) -> int:
    """e with max|v| = m 2^e, 1/2 <= m < 1 (0 for a zero or non-finite v).

    Norms of vectors scaled by 2^-e stay finite for any finite v, and the
    scaling is exact, so a tolerance test in those units gives the same
    answer as in plain units wherever plain norms neither overflow nor
    underflow.
    """
    return math.frexp(max(float(v.max()), -float(v.min())))[1]


def _norm_in_units(v: np.ndarray, e: int) -> float:
    """The 2-norm of v in units of 2^e; inf, not a warning, if it overflows."""
    with np.errstate(over="ignore", under="ignore"):
        return float(np.linalg.norm(np.ldexp(v, -e)))


def _matvec(system: tuple, x: np.ndarray) -> np.ndarray:
    """The square CSC matrix system = (data, indices, indptr) times x: the
    kernel scipy's `@` calls, into the zeroed buffer it allocates, without
    building the matrix or the dispatch around it."""
    data, indices, indptr = system
    n = len(indptr) - 1
    out = np.zeros(n)
    _sparsetools.csc_matvec(n, n, indptr, indices, data, x, out)
    return out


# an overflow or a NaN on the way ends in a non-finite norm, which is a miss
@np.errstate(over="ignore", invalid="ignore")
def _krylov_solve(system: tuple, rhs: np.ndarray, lu,
                  x0: np.ndarray) -> np.ndarray | None:
    """Restarted GMRES right-preconditioned by lu, from x0; None unless the
    true residual is below the stop.

    system is a CSC matrix's (data, indices, indptr), and the stop is
    max(_KRYLOV_RTOL |rhs|, _KRYLOV_ETA |rhs - system @ x0|).  Each
    z_j = lu.solve(v_j) is kept beside its Arnoldi vector v_j (the flexible
    form of Saad, 1993), so the update x += Z y needs no further solve: a
    call costs one LU solve per iteration.  With right preconditioning the
    Arnoldi residual |g_{j+1}| is that of system @ x itself, and a cycle
    stops once it is below the stop.  Norms, g and y are kept in units of
    2^e, e from rhs (`_unit_exponent`), so that no norm of a finite
    residual overflows; a non-finite norm is a miss.
    """
    e = _unit_exponent(rhs)
    rhs_norm = _norm_in_units(rhs, e)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    if not math.isfinite(rhs_norm):
        return None
    stop = _KRYLOV_RTOL * rhs_norm
    m = _KRYLOV_RESTART
    x = x0.copy()
    for cycle in range(_KRYLOV_MAXITER):
        r = rhs - _matvec(system, x)
        beta = _norm_in_units(r, e)
        if not math.isfinite(beta):
            return None
        if cycle == 0:
            stop = max(stop, _KRYLOV_ETA * beta)
        if beta <= stop:
            break
        v, z = [np.ldexp(r, -e) / beta], []
        h = np.zeros((m + 1, m))    # Hessenberg, triangularized by rotations
        cs, sn = np.zeros(m), np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        for j in range(m):
            z.append(lu.solve(v[j]))
            # a non-finite z would spread NaN and warnings through the basis
            if not np.all(np.isfinite(z[j])):
                return None
            w = _matvec(system, z[j])
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
        for y_i, z_i in zip(np.ldexp(y, e), z):
            x += y_i * z_i
    # written so that a non-finite residual also rejects x
    if not _norm_in_units(_matvec(system, x) - rhs, e) <= stop:
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


def _factor_temperature(system: sp.csc_matrix):
    """SuperLU factor of a temperature system, default pivoting."""
    return spla.splu(system)


class _LaggedFactor:
    """Holds one system's factor and last solution across passes and steps.

    Viscosity and conductivity move by O(dt) between solves, so one factor
    serves as the right preconditioner of the solves of many steps, each
    started from the last solution of the same system; it is replaced only
    when GMRES misses its true-residual check.  factor maps a system, as a
    scipy CSC matrix, to its SuperLU factor: `_factor_saddle` by default,
    `_factor_temperature` for the heat stage.  No solve is polished: the
    error it leaves is part of the nonlinear residual that stops a step.
    """

    def __init__(self, factor=_factor_saddle):
        self.factor = factor
        self.lu = None
        self.x = None

    def solve(self, system: tuple, rhs: np.ndarray) -> np.ndarray:
        """x with system @ x = rhs, system a CSC matrix's (data, indices,
        indptr); a non-finite x is left to the caller."""
        if self.lu is not None:
            x = _krylov_solve(system, rhs, self.lu, self.x)
            if x is not None:
                self.x = x
                return x
            self.lu = None      # release the stale factor before refactoring
        n = len(rhs)
        self.lu = self.factor(sp.csc_matrix(system, shape=(n, n)))
        self.x = self.lu.solve(rhs)
        return self.x


@dataclass(frozen=True)
class _Operators:
    """What a run carries from step to step beside the per-mesh structure
    of its spaces: the buoyancy matrix and one lagged factor per system."""

    buoyancy: sp.csr_matrix
    saddle_factor: _LaggedFactor = field(default_factory=_LaggedFactor)
    temperature_factor: _LaggedFactor = field(
        default_factory=lambda: _LaggedFactor(_factor_temperature))


def build_operators(spaces: FunctionSpaces, problem: ProblemData) -> _Operators:
    return _Operators(
        buoyancy=forms.assemble_buoyancy(spaces, problem.beta, problem.g))


def _checked(stage: str, solve, *args) -> np.ndarray:
    """solve(*args), its failures raised as SolverError of the stage."""
    try:
        x = solve(*args)
    except RuntimeError as exc:
        raise SolverError(f"{stage} stage: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise DivergenceError(f"{stage} stage returned non-finite values")
    return x


# The blocks of each system are summed as data arrays on one operator
# pattern.  The mass terms M / dt and the right sides' M x_n / dt + load
# terms do not change between the passes of a step, so a step forms them
# once.  M / dt is formed as M.data * (1.0 / dt), the product scipy's sparse
# M / dt computes, so the systems equal the sparse-sum form bit for bit.


def _temperature_system(spaces, problem, config, mass_dt, z_coeff,
                        w_coeff) -> tuple:
    """The constrained heat system at (z_coeff, w_coeff), the CSC arrays of
    `forms.Layout.system`: the system the next solve needs and the one the
    residual of the iterate (z_coeff, w_coeff) is taken in."""
    data = mass_dt + forms.temperature_diffusion_data(spaces, problem.model,
                                                      w_coeff)
    data += forms.temperature_advection_data(spaces, z_coeff)
    return spaces.temperature_layout.system(data)


def _velocity_pass(spaces, config, ops, mass_dt, k_data, n_data,
                   rhs) -> np.ndarray:
    """x = (z, p) of the constrained saddle system whose velocity block is
    M / dt + K + N, k_data and n_data the data of K and N on the velocity
    pattern, and rhs its masked right side."""
    block = mass_dt + k_data
    block += n_data
    d_data = spaces.divergence.data
    system = spaces.saddle_layout.system(block, d_data, d_data)
    return _checked("velocity/head", ops.saddle_factor.solve, system, rhs)


@np.errstate(over="ignore", invalid="ignore")
def _saddle_product(spaces: FunctionSpaces, block_data: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """[[A, D^T], [D, 0]] x on the free rows and 0 on the fixed ones, where
    A has block_data on the velocity pattern: the constrained saddle
    system's product, from the fixed patterns and no system build."""
    nv, nh = spaces.velocity_dim, spaces.head_dim
    pattern, d = spaces.velocity_pattern, spaces.divergence
    z, p = x[:nv], x[nv:]
    out = np.zeros(nv + nh)
    # scipy's kernels add onto the output; D's CSR arrays, read as CSC,
    # are those of D^T
    _sparsetools.csr_matvec(nv, nv, pattern.indptr, pattern.indices,
                            block_data, z, out[:nv])
    _sparsetools.csc_matvec(nv, nh, d.indptr, d.indices, d.data, p, out[:nv])
    _sparsetools.csr_matvec(nh, nv, d.indptr, d.indices, d.data, z, out[nv:])
    return out * spaces.saddle_layout.mask


@np.errstate(over="ignore", invalid="ignore")
def _relative_residual(product: np.ndarray, rhs: np.ndarray) -> float:
    """|product - rhs| / |rhs|, both norms in units of rhs's largest entry
    (`_unit_exponent`): 0.0 when the two are equal, and inf, a miss, when
    a norm is not finite or rhs is 0 and product is not."""
    e = _unit_exponent(rhs)
    r_norm = _norm_in_units(product - rhs, e)
    rhs_norm = _norm_in_units(rhs, e)
    if r_norm == 0.0:
        return 0.0
    if math.isfinite(r_norm) and 0.0 < rhs_norm < math.inf:
        return r_norm / rhs_norm
    return math.inf


def step(spaces: FunctionSpaces, problem: ProblemData, config: SolverConfig,
         state: State, t_next: float | None = None,
         operators: _Operators | None = None,
         previous: State | None = None) -> tuple[State, Diagnostics]:
    """One backward-Euler update: heat stage, then velocity/head saddle.

    Without operators the step builds its own, so it factors both systems
    afresh.  steps passes one set to every step, and with it both factors.
    Given previous, the state one step before state, the Picard loop
    starts from 2 x_n - x_(n-1) of velocity and temperature; without it,
    from state.
    """
    ops = operators if operators is not None else build_operators(spaces, problem)
    t_new = state.t + config.dt if t_next is None else t_next
    nv = spaces.velocity_dim

    load_w = forms.assemble_temperature_load(spaces, problem.f2, problem.v2, t_new)
    load_z = forms.assemble_velocity_load(spaces, problem.f1, problem.v1, t_new)
    rhs_w = ((spaces.mass_temperature @ state.w.values / config.dt + load_w)
             * spaces.temperature_layout.mask)
    rhs_z = spaces.mass_velocity @ state.z.values / config.dt + load_z
    scale = 1.0 / config.dt
    mass_w = spaces.mass_temperature.data * scale
    mass_z = spaces.mass_velocity.data * scale

    if previous is not None:
        z_coeff = FieldVector("velocity", 2.0 * state.z.values - previous.z.values)
        w_coeff = FieldVector("temperature",
                              2.0 * state.w.values - previous.w.values)
    else:
        z_coeff, w_coeff = state.z, state.w
    passes = 0
    converged = True
    while True:
        # the kernels at the iterate (z_coeff, w_coeff): the next solves
        # need them, and with the viscosity data k_data of the pass that
        # made the iterate they give its residual in the implicit scheme
        heat = _temperature_system(spaces, problem, config, mass_w, z_coeff,
                                   w_coeff)
        n_data = forms.velocity_advection_data(spaces, z_coeff)
        if passes:
            res = max(_relative_residual(_matvec(heat, w), rhs_w),
                      _relative_residual(
                          _saddle_product(spaces, mass_z + k_data + n_data, x),
                          rhs_x))
            if res <= config.picard_tol:
                break
            if passes >= config.picard_max:
                converged = False
                warnings.warn(f"Picard loop stopped at {passes} passes with "
                              f"residual {res:.3e}", RuntimeWarning)
                break
        w = _checked("temperature", ops.temperature_factor.solve, heat, rhs_w)
        k_data = forms.velocity_diffusion_data(
            spaces, problem.model, FieldVector("temperature", w))
        rhs_x = np.concatenate([
            rhs_z - problem.buoyancy_sign * (ops.buoyancy @ w),
            np.zeros(spaces.head_dim)]) * spaces.saddle_layout.mask
        x = _velocity_pass(spaces, config, ops, mass_z, k_data, n_data,
                           rhs_x)
        passes += 1
        if config.picard_max == 1:
            break       # the linearly implicit scheme, returned unchecked
        z_coeff = FieldVector("velocity", x[:nv])
        w_coeff = FieldVector("temperature", w)

    new_state = State(t=t_new,
                      z=FieldVector("velocity", x[:nv]),
                      w=FieldVector("temperature", w),
                      P=FieldVector("head", x[nv:]))
    diag = compute_diagnostics(spaces, new_state, config.constants_for_re_ra,
                               problem.model, picard_iters=passes,
                               picard_converged=converged)
    return new_state, diag


def steps(spaces: FunctionSpaces, problem: ProblemData, config: SolverConfig,
          state: State):
    """Advance state to t_end, yielding (state, diagnostics) after each
    step; a SolverError is raised again with its step number and time."""
    ops = build_operators(spaces, problem)
    previous = None
    for i in range(config.num_steps):
        t_next = (i + 1) * config.dt
        try:
            new_state, diag = step(spaces, problem, config, state, t_next=t_next,
                                   operators=ops, previous=previous)
        except SolverError as exc:
            raise type(exc)(f"step {i + 1} (t={t_next:g}): {exc}") from exc
        previous, state = state, new_state
        yield state, diag


def run(spaces: FunctionSpaces, problem: ProblemData, config: SolverConfig,
        initial_state: State | None = None):
    """Advance from t=0 to t_end; returns (states incl. initial, diagnostics)."""
    state = initialize_state(spaces, problem) if initial_state is None else initial_state
    pairs = list(steps(spaces, problem, config, state))
    return [state] + [s for s, _ in pairs], [d for _, d in pairs]


def re_ra(constants, gamma0: float, k0: float, z_l4: float,
          w_l4: float) -> tuple[float, float]:
    """The indicators Re = 4 d |z|_L4 / (gamma0 c1) and
    Ra = 4 d^2 |w|_L4^2 / (gamma0 k0 c1 c1') of the uniqueness condition
    Re + Ra < 1, with gamma0 and k0 the lower bounds of viscosity and
    conductivity.  Raises DivergenceError when either is not a finite
    float."""
    cst = _as_constants(constants)
    reason = f"Re/Ra not representable with z_L4={z_l4:.3e}, w_L4={w_l4:.3e}"
    try:
        re = 4.0 * cst["d"] * z_l4 / (gamma0 * cst["c1"])
        ra = (4.0 * cst["d"] ** 2 * w_l4 ** 2
              / (gamma0 * k0 * cst["c1"] * cst["c1_prime"]))
    except (OverflowError, ZeroDivisionError) as exc:
        raise DivergenceError(f"{reason}: {exc}") from exc
    if not (math.isfinite(re) and math.isfinite(ra)):
        raise DivergenceError(f"{reason}: Re={re}, Ra={ra}")
    return re, ra


def compute_diagnostics(spaces: FunctionSpaces, state: State, constants,
                        model: CoefficientModel, picard_iters: int = 0,
                        picard_converged: bool = True) -> Diagnostics:
    """Norms of the current fields plus the uniqueness-condition indicator."""
    z_l4 = forms.l4_norm(spaces, state.z)
    w_l4 = forms.l4_norm(spaces, state.w)
    re, ra = re_ra(constants, model.gamma0, model.k0, z_l4, w_l4)
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
        div_residual=float(np.linalg.norm(spaces.divergence @ state.z.values)),
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
    d = spaces.divergence[:, free_v]
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
