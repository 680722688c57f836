"""Test-only copy of the config validator that the table-driven one
replaced.

The front end used to spell out each section's keys, the law kinds and
their parameters, the solver defaults and the JSON-number rule where each
check needed them, and treated a JSON null as an absent key in four
checks.  The copies below are kept verbatim, with the law builder and the
Re/Ra check they call, so tests can require `bgs.cli.validate_config` to
give the same messages, in the same order, and the same merged configs.
"""

import math

from bgs import solver
from bgs.cli import PROBLEM_NAMES, ConfigError
from bgs.coefficients import clamped_affine_law, constant_law, tanh_blend_law
from bgs.mesh import SIDES


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
        "solver": {"picard_max": 25, "picard_tol": 1e-10,
                   "constants": {"c1": 1.0, "c1_prime": 1.0, "d": 1.0}},
        "output": {"directory": ".", "vtk_every": 0,
                   "csv_name": "diagnostics.csv"},
        "study": {"levels": 3, "base_n": 4, "delta": 1e-3},
    }


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
        if isinstance(val, bool) or not isinstance(val, (int, float)):
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
    by_kind = {
        "constant": {"value"},
        "clamped_affine": {"intercept", "slope", "lo", "hi"},
        "tanh_blend": {"lo", "hi"},
    }
    if not isinstance(raw, dict):
        chk.fail(path, "must be an object")
        return
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in by_kind:
        chk.fail(f"{path}.kind",
                 f"must be one of {sorted(by_kind)}, got {kind!r}")
        return
    allowed = by_kind[kind] | {"kind"}
    chk.section(raw, path, allowed)
    for key in sorted(by_kind[kind] - set(raw)):
        chk.fail(f"{path}.{key}", f"required for kind {kind!r}")
    chk.number(raw, path, "value", lo=0.0, strict_lo=True)
    chk.number(raw, path, "intercept")
    chk.number(raw, path, "slope")
    chk.number(raw, path, "lo", lo=0.0, strict_lo=True)
    chk.number(raw, path, "hi", lo=0.0, strict_lo=True)
    if ("lo" in raw and "hi" in raw
            and isinstance(raw["lo"], (int, float))
            and isinstance(raw["hi"], (int, float))
            and not isinstance(raw["lo"], bool)
            and not isinstance(raw["hi"], bool)
            and raw["hi"] < raw["lo"]):
        chk.fail(f"{path}.hi", "must be >= lo")


def validate_config(raw) -> dict:
    """Check the entire document, collect all violations, merge defaults."""
    chk = _Check()
    cfg = _default_config()
    if not isinstance(raw, dict):
        raise ConfigError("top level: must be a JSON object")
    chk.section(raw, "config", set(cfg))

    mesh = raw.get("mesh", {})
    if chk.section(mesh, "mesh", {"nx", "ny", "gamma1_sides", "refinements"}):
        chk.number(mesh, "mesh", "nx", lo=1, integer=True)
        chk.number(mesh, "mesh", "ny", lo=1, integer=True)
        chk.number(mesh, "mesh", "refinements", lo=0, hi=6, integer=True)
        sides = mesh.get("gamma1_sides")
        if sides is not None:
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
    if chk.section(coeff, "coefficients", {"viscosity", "conductivity"}):
        for name in ("viscosity", "conductivity"):
            if name in coeff:
                _validate_law(chk, coeff[name], f"coefficients.{name}")
    # valid laws, for the Re/Ra check
    laws = None
    if len(chk.errors) == before:
        laws = {name: coeff.get(name, cfg["coefficients"][name])
                for name in ("viscosity", "conductivity")}

    phys = raw.get("physics", {})
    if chk.section(phys, "physics", {"beta", "gravity", "buoyancy_sign_flag"}):
        chk.number(phys, "physics", "beta", lo=0.0)
        grav = phys.get("gravity")
        if grav is not None and grav != "constant_down":
            ok = (isinstance(grav, list) and len(grav) == 2
                  and all(isinstance(c, (int, float)) and not isinstance(c, bool)
                          and _is_finite(c) for c in grav))
            if not ok:
                chk.fail("physics.gravity",
                         'must be "constant_down" or a finite 2-vector')
        flag = phys.get("buoyancy_sign_flag")
        if flag is not None and flag not in (1, -1):
            chk.fail("physics.buoyancy_sign_flag", f"must be 1 or -1, got {flag!r}")

    data = raw.get("data", {})
    if chk.section(data, "data", {"problem"}):
        prob = data.get("problem")
        if prob is not None and prob not in PROBLEM_NAMES:
            chk.fail("data.problem",
                     f"must be one of {PROBLEM_NAMES}, got {prob!r}")

    tsec = raw.get("time", {})
    if chk.section(tsec, "time", {"dt", "t_end"}):
        chk.number(tsec, "time", "dt", lo=0.0, strict_lo=True)
        chk.number(tsec, "time", "t_end", lo=0.0, strict_lo=True)
        dt = tsec.get("dt", cfg["time"]["dt"])
        t_end = tsec.get("t_end", cfg["time"]["t_end"])
        if (isinstance(dt, (int, float)) and isinstance(t_end, (int, float))
                and not isinstance(dt, bool) and not isinstance(t_end, bool)
                and _is_finite(dt) and _is_finite(t_end)
                and dt > 0 and t_end > 0):
            if dt > t_end * (1 + 1e-12):
                chk.fail("time.dt", "must not exceed time.t_end")
            elif not math.isfinite(t_end / dt):
                chk.fail("time.t_end", f"must be a finite number of time.dt "
                         f"steps, got {t_end!r}/{dt!r}")
            elif not solver.whole_steps(dt, t_end):
                chk.fail("time.t_end", f"must be a whole number of time.dt "
                         f"steps, got {t_end!r}/{dt!r}")

    solv = raw.get("solver", {})
    if chk.section(solv, "solver",
                   {"picard_max", "picard_tol", "constants"}):
        chk.number(solv, "solver", "picard_max", lo=1, integer=True)
        chk.number(solv, "solver", "picard_tol", lo=0.0, strict_lo=True)
        cst = solv.get("constants", {})
        # estimated constants are checked once estimated (_resolve_constants)
        if cst != "estimate":
            before = len(chk.errors)
            if chk.section(cst, "solver.constants", {"c1", "c1_prime", "d"}):
                for key in ("c1", "c1_prime", "d"):
                    chk.number(cst, "solver.constants", key, lo=0.0,
                               strict_lo=True)
                if len(chk.errors) == before and laws is not None:
                    chk.errors += _re_ra_errors(cst, laws)

    out = raw.get("output", {})
    if chk.section(out, "output", {"directory", "vtk_every", "csv_name"}):
        chk.number(out, "output", "vtk_every", lo=0, integer=True)
        for key in ("directory", "csv_name"):
            if key in out and (not isinstance(out[key], str) or not out[key]):
                chk.fail(f"output.{key}", "must be a non-empty string")

    study = raw.get("study", {})
    if chk.section(study, "study", {"levels", "base_n", "delta"}):
        chk.number(study, "study", "levels", lo=3, integer=True)
        chk.number(study, "study", "base_n", lo=1, integer=True)
        chk.number(study, "study", "delta", lo=0.0)

    if chk.errors:
        raise ConfigError(chk.errors)

    for section, values in raw.items():
        if isinstance(values, dict) and section != "coefficients":
            cfg[section].update(values)
    if "coefficients" in raw:
        for name in ("viscosity", "conductivity"):
            if name in raw["coefficients"]:
                cfg["coefficients"][name] = raw["coefficients"][name]
    return cfg


def _build_law(raw):
    kind = raw["kind"]
    if kind == "constant":
        return constant_law(raw["value"])
    if kind == "clamped_affine":
        return clamped_affine_law(raw["intercept"], raw["slope"],
                                  raw["lo"], raw["hi"])
    return tanh_blend_law(raw["lo"], raw["hi"])


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

