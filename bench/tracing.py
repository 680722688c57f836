"""Timing wrappers installed from outside the program, for the traced run.

Every wrapper is set at the module attribute its callers look up, so the
program itself is unchanged.  Spans nest on one stack: a span's self time
is its duration minus the time of the spans it encloses.  Nothing here is
imported by an untraced run.
"""

from __future__ import annotations

import dataclasses
import time

import scipy.sparse
import scipy.sparse.linalg

from bgs import cli, forms, oracles, solver

OPERATORS = ("assemble_velocity_diffusion", "assemble_velocity_advection",
             "assemble_temperature_diffusion", "assemble_temperature_advection")
FIXED = ("assemble_mass", "assemble_divergence_constraint", "assemble_buoyancy",
         "assemble_velocity_h1_gram", "assemble_temperature_h1_gram")
LOADS = ("assemble_velocity_load", "assemble_temperature_load")
NORMS = ("l2_norm_sq", "l4_norm", "rot_seminorm_sq", "div_seminorm_sq",
         "velocity_grad_seminorm_sq", "scalar_grad_seminorm_sq",
         "velocity_l2_error", "velocity_rot_error", "scalar_l2_error")
TRILINEAR = ("trilinear_b", "b_moment_vectors", "trilinear_c",
             "boundary_normal_flux_product")
POINT_EVAL = ("evaluate_velocity", "evaluate_scalar")
KRYLOV = ("gmres", "lgmres", "gcrotmk", "bicg", "bicgstab", "cg", "cgs",
          "minres", "qmr", "tfqmr")
FORCING = ("f1", "f2", "v1", "v2")

# unit of every per-layer metric, in report order
PER_LAYER = {"forms.build_spaces_s": "s"}
for _op in OPERATORS:
    PER_LAYER[f"forms.{_op}_s"] = "s"
    PER_LAYER[f"forms.{_op}_calls"] = "count"
PER_LAYER.update({
    "forms.assemble_fixed_s": "s",
    "forms.loads_self_s": "s",
    "forms.norms_s": "s",
    "forms.trilinear_s": "s",
    "forms.point_eval_s": "s",
    "solver.steps": "count",
    "solver.step_self_s": "s",
    "solver.picard_passes": "count",
    "solver.factorizations": "count",
    "solver.factorize_s": "s",
    "solver.lu_nnz_max": "count",
    "solver.lu_solves": "count",
    "solver.lu_solve_s": "s",
    "solver.krylov_calls": "count",
    "solver.saddle_build_s": "s",
    "solver.diagnostics_s": "s",
    "solver.estimate_constants_s": "s",
    "oracles.forcing_calls": "count",
    "oracles.forcing_s": "s",
    "oracles.study_self_s": "s",
    "oracles.audit_self_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
})


class Tracer:
    """Span totals, self times and counters, kept in memory."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {"picard_passes": 0, "lu_nnz_max": 0,
                                       "bytes_written": 0}
        self._stack: list[float] = []   # child time accumulated per open span
        self._undo: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            self._stack.append(0.0)
            tic = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - tic
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dur
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + dur
                self.self_time[name] = self.self_time.get(name, 0.0) + dur - children
        timed.__wrapped__ = fn
        return timed

    def patch(self, module, attr: str, name: str | None = None, wrapper=None):
        orig = getattr(module, attr)
        self._undo.append((module, attr, orig))
        setattr(module, attr, wrapper or self.wrap(name or attr, orig))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for attr in (("build_spaces",) + OPERATORS + FIXED + LOADS + NORMS
                     + TRILINEAR + POINT_EVAL):
            self.patch(forms, attr)
        self.patch(solver, "step", wrapper=self._step_wrapper(solver.step))
        self.patch(solver, "compute_diagnostics")
        # oracles binds run and estimate_constants at import
        for module in (solver, oracles):
            self.patch(module, "run")
            self.patch(module, "estimate_constants")
        for attr in ("convergence_study", "cauchy_study", "check_forms"):
            self.patch(oracles, attr)
        self.patch(oracles, "make_mms_problem",
                   wrapper=self._problem_factory(oracles.make_mms_problem))
        self.patch(cli, "write_diagnostics_csv")
        self.patch(cli, "write_vtk")
        self.patch(scipy.sparse, "bmat")
        self.patch(scipy.sparse.linalg, "splu",
                   wrapper=self._splu_wrapper(scipy.sparse.linalg.splu))
        for attr in KRYLOV:
            self.patch(scipy.sparse.linalg, attr, name=f"krylov.{attr}")

    def uninstall(self) -> None:
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    def _step_wrapper(self, fn):
        timed = self.wrap("step", fn)

        def step(*args, **kwargs):
            new_state, diag = timed(*args, **kwargs)
            self.counts["picard_passes"] += diag.picard_iters
            return new_state, diag
        return step

    def _splu_wrapper(self, fn):
        timed = self.wrap("splu", fn)
        tracer = self

        class TimedLU:
            def __init__(self, lu):
                self._lu = lu
                self.solve = tracer.wrap("lu_solve", lu.solve)

            def __getattr__(self, attr):
                return getattr(self._lu, attr)

        def splu(*args, **kwargs):
            lu = timed(*args, **kwargs)
            self.counts["lu_nnz_max"] = max(self.counts["lu_nnz_max"], lu.nnz)
            return TimedLU(lu)
        return splu

    def _problem_factory(self, fn):
        def make(*args, **kwargs):
            return self.wrap_problem(fn(*args, **kwargs))
        return make

    def wrap_problem(self, problem):
        """The same ProblemData with its forcing and boundary data timed."""
        return dataclasses.replace(problem, **{
            attr: self.wrap("forcing", getattr(problem, attr))
            for attr in FORCING})

    def add_bytes(self, nbytes: int) -> None:
        self.counts["bytes_written"] += nbytes

    # -- report -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Every per-layer metric as accumulated so far."""
        def tot(*names):
            return sum(self.total.get(n, 0.0) for n in names)

        def own(*names):
            return sum(self.self_time.get(n, 0.0) for n in names)

        out = {"forms.build_spaces_s": tot("build_spaces")}
        for op in OPERATORS:
            out[f"forms.{op}_s"] = tot(op)
            out[f"forms.{op}_calls"] = self.calls.get(op, 0)
        out.update({
            "forms.assemble_fixed_s": tot(*FIXED),
            "forms.loads_self_s": own(*LOADS),
            "forms.norms_s": tot(*NORMS),
            "forms.trilinear_s": tot(*TRILINEAR),
            "forms.point_eval_s": tot(*POINT_EVAL),
            "solver.steps": self.calls.get("step", 0),
            "solver.step_self_s": own("step"),
            "solver.picard_passes": self.counts["picard_passes"],
            "solver.factorizations": self.calls.get("splu", 0),
            "solver.factorize_s": tot("splu"),
            "solver.lu_nnz_max": self.counts["lu_nnz_max"],
            "solver.lu_solves": self.calls.get("lu_solve", 0),
            "solver.lu_solve_s": tot("lu_solve"),
            "solver.krylov_calls": sum(self.calls.get(f"krylov.{k}", 0)
                                       for k in KRYLOV),
            "solver.saddle_build_s": tot("bmat"),
            "solver.diagnostics_s": tot("compute_diagnostics"),
            "solver.estimate_constants_s": tot("estimate_constants"),
            "oracles.forcing_calls": self.calls.get("forcing", 0),
            "oracles.forcing_s": tot("forcing"),
            "oracles.study_self_s": own("convergence_study", "cauchy_study"),
            "oracles.audit_self_s": own("check_forms"),
            "cli.write_s": tot("write_diagnostics_csv", "write_vtk",
                               "write_constants"),
            "cli.bytes_written": self.counts["bytes_written"],
        })
        return out
