"""Command-line front end: JSON config in, CSV/VTK artifacts out.

Subcommands: run (time integration), mms (manufactured-solution
convergence), cauchy (refinement differences), contract (two-trajectory
uniqueness study), check-forms (operator audit), estimate-constants.
Exit codes: 0 success, 2 config error (an unwritable output path
included), 3 solver/numeric error, 4 verification failure.  Every failure
prints one ERROR:-prefixed line.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys

import numpy as np

from . import forms, oracles, solver
from .coefficients import LAWS, CoefficientModel
from .mesh import SIDES, build_rectangle_mesh, refine_uniform

CSV_HEADER = ",".join(solver.Diagnostics.CSV_FIELDS)

PROBLEM_NAMES = ("zero", "mms", "cavity_convection")


class ConfigError(ValueError):
    """Carries every schema violation found, not just the first."""

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


# ---------------------------------------------------------------------------
# schema validation (runs before any mesh or matrix is allocated)


def _default_config() -> dict:
    return {
        "mesh": {"nx": 4, "ny": 4, "gamma1_sides": ["left"], "refinements": 0},
        "coefficients": {
            "viscosity": {"kind": "constant", "value": 1.0},
            "conductivity": {"kind": "constant", "value": 1.0},
        },
        "physics": {"beta": 0.0, "gravity": "constant_down",
                    "buoyancy_sign_flag": 1},
        "data": {"problem": "zero"},
        "time": {"dt": 0.01, "t_end": 0.1},
        "solver": {"picard_max": solver.SolverConfig.picard_max,
                   "picard_tol": solver.SolverConfig.picard_tol,
                   "constants": dict(solver.DEFAULT_CONSTANTS)},
        "output": {"directory": ".", "vtk_every": 0,
                   "csv_name": "diagnostics.csv"},
        "study": {"levels": 3, "base_n": 4, "delta": 1e-3},
    }


def _is_number(val) -> bool:
    """Whether a JSON value is a number; a bool is not."""
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _is_finite(val) -> bool:
    """Whether a JSON number is a finite float; an integer beyond float
    range is not."""
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


class _Check:
    def __init__(self):
        self.errors = []

    def fail(self, path, message):
        self.errors.append(f"{path}: {message}")

    def section(self, raw, path, allowed):
        if not isinstance(raw, dict):
            self.fail(path, f"must be an object, got {type(raw).__name__}")
            return False
        for key in sorted(set(raw) - set(allowed)):
            self.fail(f"{path}.{key}", "unknown key")
        return True

    def number(self, raw, path, key, lo=None, hi=None, strict_lo=False,
               integer=False):
        if key not in raw:
            return
        val = raw[key]
        if not _is_number(val):
            self.fail(f"{path}.{key}", f"must be a number, got {val!r}")
            return
        if integer and not (isinstance(val, int) or float(val).is_integer()):
            self.fail(f"{path}.{key}", f"must be an integer, got {val!r}")
            return
        if not _is_finite(val):
            self.fail(f"{path}.{key}", "must be finite")
            return
        if lo is not None and (val <= lo if strict_lo else val < lo):
            op = ">" if strict_lo else ">="
            self.fail(f"{path}.{key}", f"must be {op} {lo}, got {val!r}")
        if hi is not None and val > hi:
            self.fail(f"{path}.{key}", f"must be <= {hi}, got {val!r}")


def _validate_law(chk: _Check, raw, path):
    if not isinstance(raw, dict):
        chk.fail(path, "must be an object")
        return
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in LAWS:
        chk.fail(f"{path}.kind",
                 f"must be one of {sorted(LAWS)}, got {kind!r}")
        return
    params = LAWS[kind][1]
    chk.section(raw, path, {"kind", *params})
    for key in sorted(set(params) - set(raw)):
        chk.fail(f"{path}.{key}", f"required for kind {kind!r}")
    chk.number(raw, path, "value", lo=0.0, strict_lo=True)
    chk.number(raw, path, "intercept")
    chk.number(raw, path, "slope")
    chk.number(raw, path, "lo", lo=0.0, strict_lo=True)
    chk.number(raw, path, "hi", lo=0.0, strict_lo=True)
    lo, hi = raw.get("lo"), raw.get("hi")
    if _is_number(lo) and _is_number(hi) and hi < lo:
        chk.fail(f"{path}.hi", "must be >= lo")


def validate_config(raw) -> dict:
    """Check the entire document, collect all violations, merge defaults."""
    chk = _Check()
    cfg = _default_config()
    if not isinstance(raw, dict):
        raise ConfigError("top level: must be a JSON object")
    chk.section(raw, "config", cfg)

    mesh = raw.get("mesh", {})
    if chk.section(mesh, "mesh", cfg["mesh"]):
        chk.number(mesh, "mesh", "nx", lo=1, integer=True)
        chk.number(mesh, "mesh", "ny", lo=1, integer=True)
        chk.number(mesh, "mesh", "refinements", lo=0, hi=6, integer=True)
        sides = mesh.get("gamma1_sides", cfg["mesh"]["gamma1_sides"])
        if (not isinstance(sides, list) or not sides
                or not all(isinstance(s, str) for s in sides)):
            chk.fail("mesh.gamma1_sides", "must be a non-empty string list")
        else:
            for s in sides:
                if s not in SIDES:
                    chk.fail("mesh.gamma1_sides",
                             f"unknown side {s!r} (choose from {SIDES})")
            if set(sides) == set(SIDES):
                chk.fail("mesh.gamma1_sides",
                         "at least one side must remain GAMMA2")

    coeff = raw.get("coefficients", {})
    before = len(chk.errors)
    if chk.section(coeff, "coefficients", cfg["coefficients"]):
        for name in cfg["coefficients"]:
            if name in coeff:
                _validate_law(chk, coeff[name], f"coefficients.{name}")
    # valid laws, for the Re/Ra check
    laws = None
    if len(chk.errors) == before:
        laws = {**cfg["coefficients"], **coeff}

    phys = raw.get("physics", {})
    if chk.section(phys, "physics", cfg["physics"]):
        chk.number(phys, "physics", "beta", lo=0.0)
        grav = phys.get("gravity", cfg["physics"]["gravity"])
        if grav != "constant_down" and not (
                isinstance(grav, list) and len(grav) == 2
                and all(_is_number(c) and _is_finite(c) for c in grav)):
            chk.fail("physics.gravity",
                     'must be "constant_down" or a finite 2-vector')
        flag = phys.get("buoyancy_sign_flag",
                        cfg["physics"]["buoyancy_sign_flag"])
        if not _is_number(flag) or flag not in (1, -1):
            chk.fail("physics.buoyancy_sign_flag", f"must be 1 or -1, got {flag!r}")

    data = raw.get("data", {})
    if chk.section(data, "data", cfg["data"]):
        prob = data.get("problem", cfg["data"]["problem"])
        if prob not in PROBLEM_NAMES:
            chk.fail("data.problem",
                     f"must be one of {PROBLEM_NAMES}, got {prob!r}")

    tsec = raw.get("time", {})
    if chk.section(tsec, "time", cfg["time"]):
        chk.number(tsec, "time", "dt", lo=0.0, strict_lo=True)
        chk.number(tsec, "time", "t_end", lo=0.0, strict_lo=True)
        dt = tsec.get("dt", cfg["time"]["dt"])
        t_end = tsec.get("t_end", cfg["time"]["t_end"])
        if all(_is_number(v) and _is_finite(v) and v > 0 for v in (dt, t_end)):
            if dt > t_end * (1 + 1e-12):
                chk.fail("time.dt", "must not exceed time.t_end")
            elif not math.isfinite(t_end / dt):
                chk.fail("time.t_end", f"must be a finite number of time.dt "
                         f"steps, got {t_end!r}/{dt!r}")
            elif not solver.whole_steps(dt, t_end):
                chk.fail("time.t_end", f"must be a whole number of time.dt "
                         f"steps, got {t_end!r}/{dt!r}")

    solv = raw.get("solver", {})
    if chk.section(solv, "solver", cfg["solver"]):
        chk.number(solv, "solver", "picard_max", lo=1, integer=True)
        chk.number(solv, "solver", "picard_tol", lo=0.0, strict_lo=True)
        cst = solv.get("constants", {})
        # estimated constants are checked once estimated (_resolve_constants)
        if cst != "estimate":
            before = len(chk.errors)
            if chk.section(cst, "solver.constants", solver.DEFAULT_CONSTANTS):
                for key in solver.DEFAULT_CONSTANTS:
                    chk.number(cst, "solver.constants", key, lo=0.0,
                               strict_lo=True)
                if len(chk.errors) == before and laws is not None:
                    chk.errors += _re_ra_errors(cst, laws)

    out = raw.get("output", {})
    if chk.section(out, "output", cfg["output"]):
        chk.number(out, "output", "vtk_every", lo=0, integer=True)
        for key in ("directory", "csv_name"):
            if key in out and (not isinstance(out[key], str) or not out[key]):
                chk.fail(f"output.{key}", "must be a non-empty string")

    study = raw.get("study", {})
    if chk.section(study, "study", cfg["study"]):
        chk.number(study, "study", "levels", lo=3, integer=True)
        chk.number(study, "study", "base_n", lo=1, integer=True)
        chk.number(study, "study", "delta", lo=0.0)

    if chk.errors:
        raise ConfigError(chk.errors)

    for section, values in raw.items():
        cfg[section].update(values)
    return cfg


def load_config(path: str) -> dict:
    """Read and validate a config file; the private "_constants_given"
    records whether the file set solver.constants itself."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    cfg = validate_config(raw)
    cfg["_constants_given"] = "constants" in raw.get("solver", {})
    return cfg


# ---------------------------------------------------------------------------
# builders


def _build_law(raw):
    factory, params = LAWS[raw["kind"]]
    return factory(*(raw[key] for key in params))


def _re_ra_errors(constants, laws) -> list[str]:
    """The config violation, if any, of constants whose Re and Ra at unit
    L4 norms, that is their constant factors, are not finite for the lower
    bounds gamma0 and k0 of the viscosity and conductivity laws."""
    floors = [_build_law(laws[name]).lo for name in ("viscosity", "conductivity")]
    try:
        solver.re_ra(constants, *floors, 1.0, 1.0)
    except solver.DivergenceError:
        return ["solver.constants: 4*d/(gamma0*c1) and 4*d**2/(gamma0*k0*c1*"
                "c1_prime) must be finite, with gamma0 and k0 the lower "
                "bounds of the viscosity and conductivity laws"]
    return []


def build_model(cfg) -> CoefficientModel:
    return CoefficientModel(
        viscosity=_build_law(cfg["coefficients"]["viscosity"]),
        conductivity=_build_law(cfg["coefficients"]["conductivity"]))


def build_mesh(cfg):
    mcfg = cfg["mesh"]
    mesh = build_rectangle_mesh(int(mcfg["nx"]), int(mcfg["ny"]),
                                gamma1_sides=tuple(mcfg["gamma1_sides"]))
    for _ in range(int(mcfg["refinements"])):
        mesh = refine_uniform(mesh)
    return mesh


def _gravity_value(cfg):
    grav = cfg["physics"]["gravity"]
    return (0.0, -1.0) if grav == "constant_down" else tuple(grav)


def _zero_vec(points, t=0.0):
    return np.zeros(np.asarray(points).shape)


def _zero_scalar(points, t=0.0):
    return np.zeros(np.asarray(points).shape[:-1])


def build_problem(cfg, model: CoefficientModel) -> solver.ProblemData:
    name = cfg["data"]["problem"]
    beta = float(cfg["physics"]["beta"])
    sign = float(cfg["physics"]["buoyancy_sign_flag"])
    g_fn = oracles.as_vector_field(_gravity_value(cfg))
    if name == "mms":
        return oracles.make_mms_problem(model, beta=beta,
                                        g=_gravity_value(cfg),
                                        buoyancy_sign=sign)
    if name == "cavity_convection":
        return solver.ProblemData(
            model=model, beta=beta, g=g_fn,
            f1=_zero_vec, f2=_zero_scalar, v1=_zero_scalar, v2=_zero_scalar,
            z0=lambda pts: np.asarray(oracles.exact_velocity(pts, 0.0),
                                      dtype=float),
            w0=lambda pts: np.asarray(pts)[..., 0]
            * np.sin(np.pi * np.asarray(pts)[..., 1]),
            buoyancy_sign=sign)
    return solver.ProblemData(
        model=model, beta=beta, g=g_fn,
        f1=_zero_vec, f2=_zero_scalar, v1=_zero_scalar, v2=_zero_scalar,
        z0=lambda pts: np.zeros(np.asarray(pts).shape),
        w0=lambda pts: np.zeros(np.asarray(pts).shape[:-1]),
        buoyancy_sign=sign)


def build_solver_config(cfg, constants) -> solver.SolverConfig:
    scfg = cfg["solver"]
    return solver.SolverConfig(
        dt=float(cfg["time"]["dt"]), t_end=float(cfg["time"]["t_end"]),
        picard_max=int(scfg["picard_max"]),
        picard_tol=float(scfg["picard_tol"]),
        constants_for_re_ra=constants)


def _resolve_constants(cfg, spaces):
    """Returns (constants dict, source string); estimates get the Re/Ra check."""
    raw = cfg["solver"]["constants"]
    if raw == "estimate":
        constants = solver.estimate_constants(spaces)
        if errors := _re_ra_errors(constants, cfg["coefficients"]):
            raise ConfigError(errors)
        return constants, "estimated"
    source = "config" if cfg.get("_constants_given") else "defaults"
    return {k: float(v) for k, v in raw.items()}, source


# ---------------------------------------------------------------------------
# output writers


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_rows(path: str, header, rows) -> None:
    """Write the header, then each row of the iterable rows as it comes,
    flushed, so that the rows before a failure are on disk."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write((",".join(header) if isinstance(header, (list, tuple))
                  else header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if v is not None else "" for v in row)
                     + "\n")
            fh.flush()


def _write_report(cfg, command: str, header, rows) -> None:
    outdir = cfg["output"]["directory"]
    os.makedirs(outdir, exist_ok=True)
    _write_rows(os.path.join(outdir, f"report_{command}.csv"), header, rows)


def write_diagnostics_csv(path: str, diagnostics) -> None:
    _write_rows(path, CSV_HEADER, (diag.csv_values() for diag in diagnostics))


def _write_constants(outdir: str, constants: dict, source: str) -> None:
    with open(os.path.join(outdir, "constants.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"source": source, **constants}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_vtk(path: str, spaces: forms.FunctionSpaces, state) -> None:
    """Legacy ASCII unstructured-grid snapshot with vertex point data."""
    mesh = spaces.mesh
    nv, nt = mesh.num_vertices, mesh.num_triangles
    out = ["# vtk DataFile Version 3.0",
           f"fields at t={state.t:.17g}", "ASCII",
           "DATASET UNSTRUCTURED_GRID", f"POINTS {nv} double"]
    for x, y in mesh.vertices:
        out.append(f"{x:.17g} {y:.17g} 0")
    out.append(f"CELLS {nt} {4 * nt}")
    for a, b, c in mesh.triangles:
        out.append(f"3 {a} {b} {c}")
    out.append(f"CELL_TYPES {nt}")
    out.extend(["5"] * nt)
    out.append(f"POINT_DATA {nv}")
    out.append("VECTORS velocity double")
    zx, zy = state.z.values[0::2], state.z.values[1::2]
    for i in range(nv):
        out.append(f"{zx[i]:.17g} {zy[i]:.17g} 0")
    out.append("SCALARS temperature double 1")
    out.append("LOOKUP_TABLE default")
    out.extend(f"{v:.17g}" for v in state.w.values)
    out.append("SCALARS head double 1")
    out.append("LOOKUP_TABLE default")
    out.extend(f"{v:.17g}" for v in state.P.values)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# drivers


def _verdict(command: str, report) -> int:
    """4 with each failure of a verification report printed, else 0."""
    if not report.passed:
        for msg in report.failures:
            print(f"ERROR: verification: {command}: {msg}")
        return 4
    print(f"{command}: PASS")
    return 0


def _cmd_run(cfg, args) -> int:
    # a missing CSV directory fails here, before the run creates anything
    outdir = cfg["output"]["directory"]
    csv_path = os.path.join(outdir, cfg["output"]["csv_name"])
    csv_dir = os.path.normpath(os.path.dirname(csv_path))
    if csv_dir != os.path.normpath(outdir) and not os.path.isdir(csv_dir):
        raise FileNotFoundError(errno.ENOENT, "No such directory", csv_path)
    mesh = build_mesh(cfg)
    spaces = forms.build_spaces(mesh)
    model = build_model(cfg)
    problem = build_problem(cfg, model)
    constants, source = _resolve_constants(cfg, spaces)
    config = build_solver_config(cfg, constants)

    os.makedirs(outdir, exist_ok=True)
    every = int(cfg["output"]["vtk_every"])
    capped = False

    def snapshot(i, state):
        if every > 0 and (i % every == 0 or i == config.num_steps):
            write_vtk(os.path.join(outdir, f"fields_{i:06d}.vtk"), spaces, state)

    def streamed():
        # runs once the CSV is open, so an unwritable CSV leaves no
        # constants.json; each step's VTK file and CSV row are written
        # before the next step
        nonlocal capped
        _write_constants(outdir, constants, source)
        state = solver.initialize_state(spaces, problem)
        snapshot(0, state)
        for i, (state, diag) in enumerate(
                solver.steps(spaces, problem, config, state), start=1):
            snapshot(i, state)
            capped = capped or not diag.picard_converged
            yield diag

    write_diagnostics_csv(csv_path, streamed())
    if capped:
        print("warning: Picard loop hit its iteration cap in at least one step")
    print(f"run: {config.num_steps} steps on {mesh.num_vertices} vertices "
          f"-> {outdir}")
    return 0


def _cmd_mms(cfg, args) -> int:
    model = build_model(cfg)
    report = oracles.convergence_study(
        model, levels=int(cfg["study"]["levels"]),
        dt=float(cfg["time"]["dt"]), t_end=float(cfg["time"]["t_end"]),
        beta=float(cfg["physics"]["beta"]),
        g=_gravity_value(cfg), base_n=int(cfg["study"]["base_n"]),
        gamma1_sides=tuple(cfg["mesh"]["gamma1_sides"]),
        buoyancy_sign=float(cfg["physics"]["buoyancy_sign_flag"]))

    metrics = list(oracles.RATE_TARGETS)
    header = (["level", "n", "h"] + metrics
              + [f"rate_{m}" for m in metrics] + ["wall_clock"])
    rows = []
    for k, lv in enumerate(report.levels):
        rates = [report.rates[m][k - 1] if k else None for m in metrics]
        rows.append([k, lv.n, lv.h] + [lv.errors[m] for m in metrics]
                    + rates + [lv.wall_clock])
    _write_report(cfg, "mms", header, rows)

    for m in metrics:
        print(f"mms: {m} finest rate {report.rates[m][-1]:.3f} "
              f"(target {report.targets[m]})")
    return _verdict("mms", report)


def _cmd_cauchy(cfg, args) -> int:
    model = build_model(cfg)
    problem = build_problem(cfg, model)
    report = oracles.cauchy_study(
        problem, levels=int(cfg["study"]["levels"]),
        dt=float(cfg["time"]["dt"]), t_end=float(cfg["time"]["t_end"]),
        base_n=int(cfg["study"]["base_n"]),
        gamma1_sides=tuple(cfg["mesh"]["gamma1_sides"]))

    rows = []
    for k in range(len(report.e_velocity)):
        rows.append([k, report.e_velocity[k], report.e_temperature[k],
                     report.ratios_velocity[k - 1] if k else None,
                     report.ratios_temperature[k - 1] if k else None])
    _write_report(cfg, "cauchy", ["pair", "e_velocity", "e_temperature",
                                  "ratio_velocity", "ratio_temperature"], rows)

    print(f"cauchy: velocity ratios {[f'{r:.3f}' for r in report.ratios_velocity]}"
          f" temperature ratios {[f'{r:.3f}' for r in report.ratios_temperature]}")
    return _verdict("cauchy", report)


def _cmd_contract(cfg, args) -> int:
    mesh = build_mesh(cfg)
    spaces = forms.build_spaces(mesh)
    model = build_model(cfg)
    problem = build_problem(cfg, model)
    constants, _ = _resolve_constants(cfg, spaces)
    config = build_solver_config(cfg, constants)
    report = oracles.contraction_study(spaces, problem, config,
                                       delta=float(cfg["study"]["delta"]),
                                       seed=args.seed)

    rows = []
    for i, t in enumerate(report.times):
        rows.append([t, report.distance[i], report.gronwall_bound[i],
                     report.growth[i - 1] if i else None,
                     report.re_plus_ra[i - 1] if i else None])
    _write_report(cfg, "contract", f"# {report.header}\n"
                  "t,distance,gronwall_bound,growth,re_plus_ra", rows)

    print(f"contract: D(0)={report.distance[0]:.6e} "
          f"D(end)={report.distance[-1]:.6e} monotone={report.monotone} "
          f"gronwall_ok={report.gronwall_ok}")
    return _verdict("contract", report)


def _cmd_check_forms(cfg, args) -> int:
    trials = args.trials
    if trials < 0:
        raise ConfigError("--trials: must be >= 0")
    spaces = forms.build_spaces(build_mesh(cfg))
    report = oracles.check_forms(spaces, trials=trials, seed=args.seed)

    _write_report(cfg, "check-forms", ["name", "worst", "tol", "passed"],
                  [[c.name, c.worst, c.tol, c.passed] for c in report.checks])

    for c in report.checks:
        print(f"check-forms: {c.name}: worst={c.worst:.3e} "
              f"tol={c.tol:g} {'ok' if c.passed else 'FAIL'}")
    if not report.passed:
        bad = [c.name for c in report.checks if not c.passed]
        print(f"ERROR: verification: check-forms failed: {', '.join(bad)}")
        return 4
    print(f"check-forms: PASS ({len(report.checks)} checks, {trials} trials)")
    return 0


def _cmd_estimate_constants(cfg, args) -> int:
    spaces = forms.build_spaces(build_mesh(cfg))
    constants = solver.estimate_constants(spaces)
    _write_report(cfg, "estimate-constants", list(constants),
                  [list(constants.values())])
    _write_constants(cfg["output"]["directory"], constants, "estimated")
    print(f"estimate-constants: c1={constants['c1']:.6g} "
          f"c1_prime={constants['c1_prime']:.6g} d={constants['d']:.6g}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing / dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(2, f"ERROR: config: {message}\n")


# each subcommand: its driver, whether it needs --config, and whether it
# draws random samples, and so takes --seed
_COMMANDS = {
    "run": (_cmd_run, True, False),
    "mms": (_cmd_mms, True, False),
    "cauchy": (_cmd_cauchy, True, False),
    "contract": (_cmd_contract, True, True),
    "check-forms": (_cmd_check_forms, False, True),
    "estimate-constants": (_cmd_estimate_constants, True, False),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bgs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, need_config, seeded) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=need_config,
                       help="path to a JSON configuration file")
        if seeded:
            p.add_argument("--seed", type=int, default=42,
                           help="seed for oracle randomness")
        if name == "check-forms":
            p.add_argument("--trials", type=int, default=100)
    return parser


def dispatch(args) -> int:
    cfg = (_default_config() if args.config is None
           else load_config(args.config))
    if getattr(args, "seed", 0) < 0:
        raise ConfigError("--seed: must be a non-negative integer")
    return _COMMANDS[args.command][0](cfg, args)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return dispatch(args)
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"ERROR: config: {msg}", file=sys.stderr)
        return 2
    except solver.SolverError as exc:
        print(f"ERROR: solver: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"ERROR: numeric: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"ERROR: config: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ERROR: config: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
