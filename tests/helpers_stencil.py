"""Nested-stencil reference for the manufactured forcings.

An independent check of the closed-form forcings of `bgs.oracles`:
every call evaluates the exact fields at time t and differentiates them
with nested 4th-order longdouble stencils, a derivative of a derivative
for the stress and flux terms.  It shares only the exact fields and the
boundary normal with `bgs.oracles`.
"""

import numpy as np

from bgs import oracles

FD_STEP = 1e-5


def fd_axis(fn, points, axis, h=FD_STEP):
    p = np.asarray(points, dtype=np.longdouble)
    hh = np.longdouble(h)

    def at(delta):
        q = p.copy()
        q[..., axis] += delta
        return np.asarray(fn(q), dtype=np.longdouble)

    return (-at(2 * hh) + 8 * at(hh) - 8 * at(-hh) + at(-2 * hh)) / (12 * hh)


def fd_gradient(fn, points):
    return np.stack([fd_axis(fn, points, 0), fd_axis(fn, points, 1)], axis=-1)


def fd_time(fn, points, t, h=FD_STEP):
    p = np.asarray(points, dtype=np.longdouble)
    tt, hh = np.longdouble(t), np.longdouble(h)

    def at(delta):
        return np.asarray(fn(p, tt + delta), dtype=np.longdouble)

    return (-at(2 * hh) + 8 * at(hh) - 8 * at(-hh) + at(-2 * hh)) / (12 * hh)


def rot_z(points, t):
    """Vorticity of `oracles.exact_velocity`, longdouble."""
    z = oracles.exact_velocity
    return (fd_axis(lambda q: z(q, t)[..., 1], points, 0)
            - fd_axis(lambda q: z(q, t)[..., 0], points, 1))


def nested_v2(coeff_model, points, t):
    """The flux datum v2 of `oracles.make_mms_problem` at boundary points."""
    n = oracles._outward_normal(points)
    grad_w = fd_gradient(lambda r: oracles.exact_temperature(r, t), points)
    k = coeff_model.conductivity(
        oracles.exact_temperature(np.asarray(points, dtype=np.longdouble), t))
    return np.asarray(k * (n * grad_w).sum(axis=-1), dtype=float)


def nested_forcings(coeff_model, beta=0.5, g=(0.0, -1.0), buoyancy_sign=1.0):
    """(f1, f2) of `oracles.make_mms_problem` by nested stencils per call."""
    g_fn = oracles.as_vector_field(g)
    exact_velocity = oracles.exact_velocity
    exact_temperature = oracles.exact_temperature

    def f1(points, t):
        z_t = fd_time(exact_velocity, points, t)
        om = rot_z(points, t)
        z = exact_velocity(np.asarray(points, dtype=np.longdouble), t)

        def stress(q):
            return coeff_model.viscosity(exact_temperature(q, t)) * rot_z(q, t)

        rot_m = np.stack([fd_axis(stress, points, 1),
                          -fd_axis(stress, points, 0)], axis=-1)
        adv = np.stack([-om * z[..., 1], om * z[..., 0]], axis=-1)
        w = exact_temperature(np.asarray(points, dtype=np.longdouble), t)
        buoy = (buoyancy_sign * beta) * w[..., None] \
            * np.asarray(g_fn(np.asarray(points, dtype=float)), dtype=np.longdouble)
        grad_p = fd_gradient(lambda q: oracles.exact_head(q, t), points)
        return np.asarray(z_t + rot_m + adv + buoy - grad_p, dtype=float)

    def f2(points, t):
        w_t = fd_time(exact_temperature, points, t)

        def flux(q):
            grad_w = fd_gradient(lambda r: exact_temperature(r, t), q)
            k = coeff_model.conductivity(exact_temperature(q, t))
            return k[..., None] * grad_w

        div_flux = (fd_axis(lambda q: flux(q)[..., 0], points, 0)
                    + fd_axis(lambda q: flux(q)[..., 1], points, 1))
        z = exact_velocity(np.asarray(points, dtype=np.longdouble), t)
        grad_w = fd_gradient(lambda r: exact_temperature(r, t), points)
        adv = (z * grad_w).sum(axis=-1)
        return np.asarray(w_t - div_flux + adv, dtype=float)

    return f1, f2
