"""The three benchmark workloads.

Constructing a workload is its set-up: everything up to the first time
step or audit trial.  `round()` then does one whole, identical unit of
work, checks its output and returns (operations failed, check failures);
`ops` is the number of operations a round attempts.  `finish()` runs the
checks that compare rounds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import warnings

import numpy as np

from bgs import cli, forms, oracles, solver
from bgs.coefficients import CoefficientModel, tanh_blend_law

import checks


def _plain(name, fn):
    return fn


class Cavity:
    """`bgs run` on the buoyant cavity, 32x32, 5 steps, CSV and VTK out.

    The seed perturbs the initial temperature x sin(pi y) by
    a sin(k pi x) sin(m pi y), a in [-0.05, 0.05] and k, m in {1, 2};
    the perturbation vanishes on the boundary and leaves the Picard pass
    counts unchanged.
    """

    name = "cavity_n32"
    min_rounds = 2          # so the diagnostics.csv bytes are compared
    G_INF = 1.0             # |g| for "constant_down"
    RAW_CONFIG = {
        "mesh": {"nx": 32, "ny": 32, "gamma1_sides": ["left"]},
        "coefficients": {
            "viscosity": {"kind": "tanh_blend", "lo": 0.5, "hi": 2.0},
            "conductivity": {"kind": "tanh_blend", "lo": 0.7, "hi": 1.3}},
        "physics": {"beta": 1.0, "gravity": "constant_down"},
        "data": {"problem": "cavity_convection"},
        "time": {"dt": 0.01, "t_end": 0.05},
    }

    def __init__(self, seed: int, outdir: str, tracer=None):
        self.tracer = tracer
        self.cfg = cli.validate_config(dict(
            self.RAW_CONFIG, output={"directory": outdir, "vtk_every": 5}))
        self.spaces = forms.build_spaces(cli.build_mesh(self.cfg))
        problem = cli.build_problem(self.cfg, cli.build_model(self.cfg))
        problem = dataclasses.replace(problem,
                                      w0=_perturbed(problem.w0, seed))
        self.problem = tracer.wrap_problem(problem) if tracer else problem
        self.constants = {k: float(v) for k, v in
                          self.cfg["solver"]["constants"].items()}
        self.config = cli.build_solver_config(self.cfg, self.constants)
        self.ops = self.config.num_steps
        self.digests = []
        os.makedirs(outdir, exist_ok=True)

    def round(self):
        try:
            states, diags = solver.run(self.spaces, self.problem, self.config)
        except solver.SolverError:
            return self.ops, []
        failed = sum(not d.picard_converged for d in diags)
        paths = self._write(states, diags)
        with open(paths[0], "rb") as fh:
            self.digests.append(checks.digest(fh.read()))
        if self.tracer:
            self.tracer.add_bytes(sum(os.path.getsize(p) for p in paths))

        mesh = self.spaces.mesh
        kinetic = [checks.p2_energy(mesh.vertices, mesh.triangles,
                                    self.spaces.vel_nodes, s.z.values)
                   for s in states]
        thermal = [checks.p1_energy(mesh.vertices, mesh.triangles, s.w.values)
                   for s in states]
        return failed, checks.check_cavity(
            kinetic, thermal, diags, self.config.dt,
            self.problem.beta, self.G_INF)

    def _write(self, states, diags):
        """The artifacts `bgs run` writes, through the same writers."""
        out = self.cfg["output"]
        wrap = self.tracer.wrap if self.tracer else _plain
        csv_path = os.path.join(out["directory"], out["csv_name"])
        cli.write_diagnostics_csv(csv_path, diags)
        const_path = os.path.join(out["directory"], "constants.json")
        wrap("write_constants", _write_constants)(const_path, self.constants)
        paths = [csv_path, const_path]
        last = len(states) - 1
        for i, state in enumerate(states):
            if i % out["vtk_every"] == 0 or i == last:
                paths.append(os.path.join(out["directory"],
                                          f"fields_{i:06d}.vtk"))
                cli.write_vtk(paths[-1], self.spaces, state)
        return paths

    def finish(self):
        return checks.check_identical(self.digests)


def _perturbed(w0, seed: int):
    rng = np.random.default_rng(seed)
    amp = 0.05 * rng.uniform(-1.0, 1.0)
    kx, ky = (int(k) for k in rng.integers(1, 3, size=2))

    def w0_seeded(points):
        p = np.asarray(points)
        return w0(p) + amp * (np.sin(kx * np.pi * p[..., 0])
                              * np.sin(ky * np.pi * p[..., 1]))
    return w0_seeded


def _write_constants(path, constants):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"source": "defaults", **constants}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")


class MmsStudies:
    """convergence_study then cauchy_study, tanh model, meshes 4/8/16.

    The manufactured problem is fixed; the seed only picks the points at
    which the exact fields are compared with their closed forms.
    """

    name = "mms_studies"
    min_rounds = 1
    DT, T_END, LEVELS, BASE_N, BETA = 1e-3, 0.02, 3, 4, 0.5

    def __init__(self, seed: int, outdir: str, tracer=None):
        self.rng = np.random.default_rng(seed)
        self.model = CoefficientModel(viscosity=tanh_blend_law(0.5, 2.0),
                                      conductivity=tanh_blend_law(0.7, 1.3))
        self.problem = oracles.make_mms_problem(self.model, beta=self.BETA)
        steps = solver.SolverConfig(dt=self.DT, t_end=self.T_END).num_steps
        self.study_ops = self.LEVELS * steps
        self.ops = 2 * self.study_ops

    def round(self):
        failed = 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            try:
                conv = oracles.convergence_study(
                    self.model, levels=self.LEVELS, dt=self.DT,
                    t_end=self.T_END, beta=self.BETA, base_n=self.BASE_N)
            except solver.SolverError:
                conv, failed = None, failed + self.study_ops
            try:
                cauchy = oracles.cauchy_study(
                    self.problem, levels=self.LEVELS, dt=self.DT,
                    t_end=self.T_END, base_n=self.BASE_N)
            except solver.SolverError:
                cauchy, failed = None, failed + self.study_ops
        failed += sum("Picard loop stopped" in str(w.message) for w in caught)

        failures = checks.check_exact_fields(
            {"velocity": oracles.exact_velocity,
             "temperature": oracles.exact_temperature,
             "head": oracles.exact_head, "rot": oracles.exact_rot}, self.rng)
        if conv is not None and cauchy is not None:
            failures += checks.check_mms([lv.errors for lv in conv.levels],
                                         cauchy.e_velocity,
                                         cauchy.e_temperature)
        return failed, failures

    def finish(self):
        return []


class FormAudit:
    """check_forms on a 16x16 mesh, 100 trials, audit seed from --seed."""

    name = "form_audit_n16"
    min_rounds = 1
    TRIALS = 100

    def __init__(self, seed: int, outdir: str, tracer=None):
        cfg = cli.validate_config({"mesh": {"nx": 16, "ny": 16,
                                            "gamma1_sides": ["left"]}})
        self.spaces = forms.build_spaces(cli.build_mesh(cfg))
        self.seed = seed
        self.ops = self.TRIALS

    def round(self):
        try:
            report = oracles.check_forms(self.spaces, trials=self.TRIALS,
                                         seed=self.seed)
        except (solver.SolverError, np.linalg.LinAlgError):
            return self.ops, []
        worst = {c.name: c.worst for c in report.checks}
        return 0, checks.check_audit(report.passed, worst,
                                     report.constants["c1_prime"])

    def finish(self):
        return []


WORKLOADS = {w.name: w for w in (Cavity, MmsStudies, FormAudit)}
