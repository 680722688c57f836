"""Correctness checks on the workloads' outputs.

Every threshold is written here and none is read from `bgs`.  Energies
are recomputed from the nodal values with closed-form element mass
matrices, and the manufactured fields are compared with their closed
forms, so the references do not come from the program's own quadrature
or stencils.  Each check returns a list of failure messages; empty means
the output is correct.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

DIV_RESIDUAL_MAX = 1e-10
ENERGY_REL_TOL = 1e-9
RATE_MIN = {"velocity_l2": 2.5, "velocity_rot": 1.6,
            "temperature_l2": 1.6, "head_l2": 1.6}
CAUCHY_RATIO_MAX = 0.6
EXACT_FIELD_REL_TOL = 1e-12
EXACT_ROT_ABS_TOL = 1e-7
SKEW_MAX = 1e-13
AUDIT_MAX = {"coefficient_linearity": 1e-13, "b_continuity": 1.0,
             "dual_norm_bound": 1.0, "coercivity_inequality": 1e-8,
             "c_product_rule": 1e-12}
EXACT_ZERO = ("symmetry_mass", "symmetry_diffusion")
POSITIVE = ("coercivity_c1_positive", "coercivity_c1_prime_positive")
# Rayleigh-Ritz: for conforming P1 with Dirichlet data on the left side
# only, c1' is at least lambda/(1+lambda) with lambda = pi^2/4, the first
# eigenvalue of the mixed Laplacian on the unit square
_LAM = math.pi ** 2 / 4
C1_PRIME_MIN = _LAM / (1 + _LAM)
C1_PRIME_MAX = C1_PRIME_MIN + 1e-3


# ---------------------------------------------------------------------------
# energies from closed-form element mass matrices

_P1_MASS = (np.ones((3, 3)) + np.eye(3)) / 12.0
# P2 nodes: vertices 0, 1, 2, then midpoints of edges (0,1), (1,2), (2,0)
_P2_MASS = np.array([
    [6, -1, -1, 0, -4, 0],
    [-1, 6, -1, 0, 0, -4],
    [-1, -1, 6, -4, 0, 0],
    [0, 0, -4, 32, 16, 16],
    [-4, 0, 0, 16, 32, 16],
    [0, -4, 0, 16, 16, 32]], dtype=float) / 180.0


def _areas(vertices, triangles) -> np.ndarray:
    a, b, c = (vertices[triangles[:, k]] for k in range(3))
    return 0.5 * np.abs((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                        - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def p1_energy(vertices, triangles, w) -> float:
    """||w||^2 of a continuous P1 field given by its vertex values."""
    loc = w[triangles]
    return float(np.sum(_areas(vertices, triangles)
                        * np.einsum("ta,ab,tb->t", loc, _P1_MASS, loc)))


def p2_energy(vertices, triangles, p2_nodes, z) -> float:
    """||z||^2 of a P2 vector field with interleaved (x, y) nodal values."""
    areas = _areas(vertices, triangles)
    total = 0.0
    for comp in (0, 1):
        loc = z[2 * p2_nodes + comp]
        total += float(np.sum(areas * np.einsum("ta,ab,tb->t", loc,
                                                _P2_MASS, loc)))
    return total


# ---------------------------------------------------------------------------
# cavity_n32


def check_cavity(kinetic, thermal, diags, dt: float, beta: float,
                 g_inf: float) -> list:
    """kinetic/thermal: recomputed energies of the states, t=0 included.

    Thermal energy must not increase; kinetic energy stays within the
    buoyant bound (kin0 + t*beta*|g|*sum_k |w^k|^2 dt) * exp(beta*t*|g|);
    the divergence residual stays below DIV_RESIDUAL_MAX; and the energies
    the program reports agree with the recomputed ones.
    """
    failures = []
    if len(kinetic) != len(diags) + 1 or len(thermal) != len(diags) + 1:
        return [f"expected {len(diags) + 1} states, got {len(kinetic)}"]
    for n, (a, b) in enumerate(zip(thermal, thermal[1:]), start=1):
        if not b <= a:
            failures.append(f"step {n}: thermal energy rose {a!r} -> {b!r}")
    acc = 0.0
    for n, diag in enumerate(diags, start=1):
        t = n * dt
        acc += thermal[n] * dt
        bound = (kinetic[0] + t * beta * g_inf * acc) * math.exp(beta * t * g_inf)
        if not kinetic[n] <= bound:
            failures.append(f"step {n}: kinetic {kinetic[n]!r} > bound {bound!r}")
        if not diag.div_residual <= DIV_RESIDUAL_MAX:
            failures.append(f"step {n}: div_residual {diag.div_residual!r}")
        for name, ref in (("kinetic", kinetic[n]), ("thermal", thermal[n])):
            got = getattr(diag, name)
            if not abs(got - ref) <= ENERGY_REL_TOL * abs(ref):
                failures.append(f"step {n}: reported {name} {got!r} != "
                                f"recomputed {ref!r}")
    return failures


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_identical(digests) -> list:
    """Every round must write the same diagnostics.csv bytes."""
    if len(set(digests)) > 1:
        return [f"diagnostics.csv differs between rounds: {sorted(set(digests))}"]
    return []


# ---------------------------------------------------------------------------
# mms_studies


def check_mms(errors, e_velocity, e_temperature) -> list:
    """errors: one dict per level, coarse to fine, of final-time errors.

    Errors decrease strictly, finest-pair rates meet RATE_MIN and both
    Cauchy ratios of consecutive refinement distances are at most
    CAUCHY_RATIO_MAX.  Rates and ratios are recomputed here.
    """
    failures = []
    for key, target in RATE_MIN.items():
        series = [lv[key] for lv in errors]
        if not all(b < a for a, b in zip(series, series[1:])):
            failures.append(f"{key}: errors not strictly decreasing {series}")
            continue
        rate = math.log2(series[-2] / series[-1])
        if not rate >= target:
            failures.append(f"{key}: finest-pair rate {rate:.3f} < {target}")
    for label, dist in (("velocity", e_velocity),
                        ("temperature", e_temperature)):
        for k in range(len(dist) - 1):
            ratio = dist[k + 1] / dist[k]
            if not ratio <= CAUCHY_RATIO_MAX:
                failures.append(f"cauchy {label} pair {k}: ratio {ratio:.3f} "
                                f"> {CAUCHY_RATIO_MAX}")
    return failures


def _closed_forms(x, y, t):
    """Manufactured fields from the stream function x^2 (1-x)^2 sin^2(pi y)."""
    e = np.exp(-t)
    sy = np.sin(np.pi * y)
    vel = np.stack([np.pi * x ** 2 * (1 - x) ** 2 * np.sin(2 * np.pi * y) * e,
                    -2 * x * (1 - x) * (1 - 2 * x) * sy ** 2 * e], axis=-1)
    rot = (-2 * (1 - 6 * x + 6 * x ** 2) * sy ** 2
           - 2 * np.pi ** 2 * x ** 2 * (1 - x) ** 2 * np.cos(2 * np.pi * y)) * e
    return {"velocity": vel, "temperature": x * sy * e,
            "head": np.cos(np.pi * x) * np.cos(np.pi * y) * e, "rot": rot}


def check_exact_fields(exact: dict, rng) -> list:
    """exact: the program's manufactured fields, name -> fn(points, t).

    They must match the closed forms of the manufactured solution, which
    are written out here, at random points and times.
    """
    pts = rng.uniform(0.0, 1.0, size=(64, 2))
    failures = []
    for t in rng.uniform(0.0, 0.1, size=3):
        ref = _closed_forms(pts[:, 0], pts[:, 1], t)
        for name, fn in exact.items():
            got = np.asarray(fn(pts, t), dtype=float)
            err = float(np.max(np.abs(got - ref[name])))
            scale = float(np.max(np.abs(ref[name])))
            tol = EXACT_ROT_ABS_TOL if name == "rot" else EXACT_FIELD_REL_TOL * scale
            if not err <= tol:
                failures.append(f"exact {name} at t={t:.4f}: off by {err:.3e}")
    return failures


# ---------------------------------------------------------------------------
# form_audit_n16


def check_audit(passed: bool, worst: dict, c1_prime: float) -> list:
    """worst: audit check name -> its worst measured value."""
    failures = [] if passed else ["the audit reports a failed check"]
    for name, value in worst.items():
        if name.startswith("skew_"):
            ok = value <= SKEW_MAX
        elif name in EXACT_ZERO:
            ok = value == 0.0
        elif name in POSITIVE:
            ok = value > 0.0
        elif name in AUDIT_MAX:
            ok = value <= AUDIT_MAX[name]
        else:
            failures.append(f"unknown audit check {name}")
            continue
        if not ok:
            failures.append(f"{name}: worst {value!r} out of range")
    expected = {"skew_velocity_advection", "skew_temperature_advection",
                *EXACT_ZERO, *POSITIVE, *AUDIT_MAX}
    if set(worst) != expected:
        failures.append(f"audit checks {sorted(worst)} != {sorted(expected)}")
    if not C1_PRIME_MIN <= c1_prime <= C1_PRIME_MAX:
        failures.append(f"c1' {c1_prime!r} outside [{C1_PRIME_MIN:.6f}, "
                        f"{C1_PRIME_MAX:.6f}]")
    return failures
