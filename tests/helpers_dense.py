"""Independent dense-assembly reference used to cross-check the solver.

Everything here is intentionally written the slow way: explicit loops
over elements and quadrature points, a Duffy-transform tensor rule
instead of the symmetric triangle rule, basis functions derived by
Vandermonde inversion instead of hard-coded formulas, numpy.linalg.solve
instead of sparse LU.  It shares only the mesh arrays and the stated
conventions (node ordering, dof interleaving, constraint rules) with
the package.
"""

import numpy as np
import scipy.linalg

from bgs import forms
from bgs.coefficients import constant_model

MONO_P2 = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
MONO_P1 = [(0, 0), (1, 0), (0, 1)]
REF_NODES_P2 = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0),
                (0.5, 0.0), (0.5, 0.5), (0.0, 0.5)]
REF_NODES_P1 = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]


def _basis_coeffs(monomials, nodes):
    v = np.array([[x ** a * y ** b for (a, b) in monomials]
                  for (x, y) in nodes])
    return np.linalg.inv(v)


COEF_P2 = _basis_coeffs(MONO_P2, REF_NODES_P2)
COEF_P1 = _basis_coeffs(MONO_P1, REF_NODES_P1)


def eval_basis(coeffs, monomials, xi, eta):
    """Values and gradients of each basis function at one point."""
    nb = coeffs.shape[1]
    vals = np.zeros(nb)
    grads = np.zeros((nb, 2))
    for j in range(nb):
        for m, (a, b) in enumerate(monomials):
            c = coeffs[m, j]
            vals[j] += c * xi ** a * eta ** b
            if a > 0:
                grads[j, 0] += c * a * xi ** (a - 1) * eta ** b
            if b > 0:
                grads[j, 1] += c * b * xi ** a * eta ** (b - 1)
    return vals, grads


def gauss01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def duffy_rule(n=8):
    """Tensor Gauss rule collapsed onto the unit triangle."""
    x, w = gauss01(n)
    pts, wts = [], []
    for i in range(n):
        for j in range(n):
            pts.append((x[i], x[j] * (1.0 - x[i])))
            wts.append(w[i] * w[j] * (1.0 - x[i]))
    return np.array(pts), np.array(wts)


class DenseSpaces:
    """Connectivity and constraints rebuilt from the raw mesh arrays."""

    def __init__(self, mesh):
        self.mesh = mesh
        tris = np.asarray(mesh.triangles)
        nv = len(mesh.vertices)
        pair_set = set()
        for a, b, c in tris:
            for u, v in ((a, b), (b, c), (c, a)):
                pair_set.add((min(int(u), int(v)), max(int(u), int(v))))
        self.edges = sorted(pair_set)
        self.edge_index = {e: k for k, e in enumerate(self.edges)}
        self.nv = nv
        self.num_nodes = nv + len(self.edges)
        mids = np.array([0.5 * (mesh.vertices[a] + mesh.vertices[b])
                         for a, b in self.edges])
        self.node_xy = np.vstack([mesh.vertices, mids]) if len(self.edges) \
            else np.asarray(mesh.vertices)

        self.tri_nodes = []
        for a, b, c in tris:
            local = [int(a), int(b), int(c)]
            for u, v in ((a, b), (b, c), (c, a)):
                key = (min(int(u), int(v)), max(int(u), int(v)))
                local.append(nv + self.edge_index[key])
            self.tri_nodes.append(local)

        owner = {}
        for t, (a, b, c) in enumerate(tris):
            for u, v in ((a, b), (b, c), (c, a)):
                owner[(min(int(u), int(v)), max(int(u), int(v)))] = t
        self.edge_owner = owner

        comp = np.zeros(self.num_nodes, dtype=int)
        temp_fixed = set()
        for (u, v), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
            key = (min(int(u), int(v)), max(int(u), int(v)))
            mid = nv + self.edge_index[key]
            trio = (int(u), int(v), mid)
            if tag == 2:
                for nd in trio:
                    comp[nd] |= 3
            else:
                pu, pv = mesh.vertices[u], mesh.vertices[v]
                if abs(pv[1] - pu[1]) <= 1e-12:
                    bit = 1
                elif abs(pv[0] - pu[0]) <= 1e-12:
                    bit = 2
                else:
                    raise ValueError("non axis-aligned GAMMA1 edge")
                for nd in trio:
                    comp[nd] |= bit
                temp_fixed.add(int(u))
                temp_fixed.add(int(v))
        fixed = []
        for nd in range(self.num_nodes):
            if comp[nd] & 1:
                fixed.append(2 * nd)
            if comp[nd] & 2:
                fixed.append(2 * nd + 1)
        self.fixed_velocity = sorted(fixed)
        self.fixed_temperature = sorted(temp_fixed)

    def outward_normal(self, u, v):
        pu = self.mesh.vertices[u]
        pv = self.mesh.vertices[v]
        d = pv - pu
        length = float(np.hypot(d[0], d[1]))
        n = np.array([d[1], -d[0]]) / length
        key = (min(int(u), int(v)), max(int(u), int(v)))
        tri = self.mesh.triangles[self.edge_owner[key]]
        cent = self.mesh.vertices[tri].mean(axis=0)
        if np.dot(n, cent - 0.5 * (pu + pv)) > 0:
            n = -n
        return n, length


def _element_geometry(mesh, tri):
    p0 = mesh.vertices[tri[0]]
    jac = np.column_stack([mesh.vertices[tri[1]] - p0,
                           mesh.vertices[tri[2]] - p0])
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    jinv = np.array([[jac[1, 1], -jac[0, 1]],
                     [-jac[1, 0], jac[0, 0]]]) / det
    return p0, jac, det, jinv


def dense_velocity_mass(ds, nq=8):
    pts, wts = duffy_rule(nq)
    n = 2 * ds.num_nodes
    m = np.zeros((n, n))
    for t, tri in enumerate(np.asarray(ds.mesh.triangles)):
        _, _, det, _ = _element_geometry(ds.mesh, tri)
        nodes = ds.tri_nodes[t]
        for (xi, eta), wq in zip(pts, wts):
            vals, _ = eval_basis(COEF_P2, MONO_P2, xi, eta)
            for a in range(6):
                for b in range(6):
                    contrib = wq * det * vals[a] * vals[b]
                    m[2 * nodes[a], 2 * nodes[b]] += contrib
                    m[2 * nodes[a] + 1, 2 * nodes[b] + 1] += contrib
    return m


def dense_temperature_mass(ds, nq=8):
    pts, wts = duffy_rule(nq)
    n = ds.nv
    m = np.zeros((n, n))
    for t, tri in enumerate(np.asarray(ds.mesh.triangles)):
        _, _, det, _ = _element_geometry(ds.mesh, tri)
        for (xi, eta), wq in zip(pts, wts):
            vals, _ = eval_basis(COEF_P1, MONO_P1, xi, eta)
            for a in range(3):
                for b in range(3):
                    m[tri[a], tri[b]] += wq * det * vals[a] * vals[b]
    return m


def _phys_grads_p2(jinv, grads_ref):
    return grads_ref @ jinv


def dense_velocity_diffusion(ds, gamma_fn, w_vertex, nq=8):
    """(gamma(w_h) rot, rot) + (gamma(w_h) div, div) on the P2 pair."""
    pts, wts = duffy_rule(nq)
    n = 2 * ds.num_nodes
    a_mat = np.zeros((n, n))
    for t, tri in enumerate(np.asarray(ds.mesh.triangles)):
        _, _, det, jinv = _element_geometry(ds.mesh, tri)
        nodes = ds.tri_nodes[t]
        for (xi, eta), wq in zip(pts, wts):
            p1_vals, _ = eval_basis(COEF_P1, MONO_P1, xi, eta)
            w_here = sum(p1_vals[k] * w_vertex[tri[k]] for k in range(3))
            gam = float(gamma_fn(np.array([w_here]))[0])
            _, gref = eval_basis(COEF_P2, MONO_P2, xi, eta)
            g = _phys_grads_p2(jinv, gref)
            rot = np.zeros(12)
            div = np.zeros(12)
            for a in range(6):
                rot[2 * a] = -g[a, 1]
                rot[2 * a + 1] = g[a, 0]
                div[2 * a] = g[a, 0]
                div[2 * a + 1] = g[a, 1]
            for a in range(12):
                ga = nodes[a // 2] * 2 + a % 2
                for b in range(12):
                    gb = nodes[b // 2] * 2 + b % 2
                    a_mat[ga, gb] += wq * det * gam * (
                        rot[a] * rot[b] + div[a] * div[b])
    return a_mat


def dense_temperature_diffusion(ds, k_fn, w_vertex, nq=8):
    pts, wts = duffy_rule(nq)
    n = ds.nv
    a_mat = np.zeros((n, n))
    for t, tri in enumerate(np.asarray(ds.mesh.triangles)):
        _, _, det, jinv = _element_geometry(ds.mesh, tri)
        for (xi, eta), wq in zip(pts, wts):
            p1_vals, gref = eval_basis(COEF_P1, MONO_P1, xi, eta)
            w_here = sum(p1_vals[k] * w_vertex[tri[k]] for k in range(3))
            kv = float(k_fn(np.array([w_here]))[0])
            g = gref @ jinv
            for a in range(3):
                for b in range(3):
                    a_mat[tri[a], tri[b]] += wq * det * kv * (g[a] @ g[b])
    return a_mat


def dense_divergence(ds, nq=8):
    pts, wts = duffy_rule(nq)
    d_mat = np.zeros((ds.nv, 2 * ds.num_nodes))
    for t, tri in enumerate(np.asarray(ds.mesh.triangles)):
        _, _, det, jinv = _element_geometry(ds.mesh, tri)
        nodes = ds.tri_nodes[t]
        for (xi, eta), wq in zip(pts, wts):
            p1_vals, _ = eval_basis(COEF_P1, MONO_P1, xi, eta)
            _, gref = eval_basis(COEF_P2, MONO_P2, xi, eta)
            g = _phys_grads_p2(jinv, gref)
            for k in range(3):
                for a in range(6):
                    d_mat[tri[k], 2 * nodes[a]] += wq * det * p1_vals[k] * g[a, 0]
                    d_mat[tri[k], 2 * nodes[a] + 1] += wq * det * p1_vals[k] * g[a, 1]
    return d_mat


def dense_velocity_advection(ds, z_dofs, nq=8):
    """N[i,j] = integral rot(z_h) (z-hat x phi_j) . phi_i."""
    pts, wts = duffy_rule(nq)
    n = 2 * ds.num_nodes
    n_mat = np.zeros((n, n))
    for t, tri in enumerate(np.asarray(ds.mesh.triangles)):
        _, _, det, jinv = _element_geometry(ds.mesh, tri)
        nodes = ds.tri_nodes[t]
        for (xi, eta), wq in zip(pts, wts):
            vals, gref = eval_basis(COEF_P2, MONO_P2, xi, eta)
            g = _phys_grads_p2(jinv, gref)
            om = 0.0
            for a in range(6):
                om += g[a, 0] * z_dofs[2 * nodes[a] + 1] \
                    - g[a, 1] * z_dofs[2 * nodes[a]]
            # (z-hat x phi_j) . phi_i with phi_j the trial function
            for a in range(6):
                for b in range(6):
                    val = wq * det * om * vals[a] * vals[b]
                    n_mat[2 * nodes[a] + 1, 2 * nodes[b]] += val
                    n_mat[2 * nodes[a], 2 * nodes[b] + 1] -= val
    return n_mat


def dense_temperature_advection(ds, z_dofs, nq=8):
    """Skew-symmetrized transport (T - T^T)/2, T[a,b] = c(z, mu_b, mu_a)."""
    pts, wts = duffy_rule(nq)
    n = ds.nv
    t_one = np.zeros((n, n))
    for t, tri in enumerate(np.asarray(ds.mesh.triangles)):
        _, _, det, jinv = _element_geometry(ds.mesh, tri)
        nodes = ds.tri_nodes[t]
        for (xi, eta), wq in zip(pts, wts):
            p2_vals, _ = eval_basis(COEF_P2, MONO_P2, xi, eta)
            p1_vals, gref = eval_basis(COEF_P1, MONO_P1, xi, eta)
            g = gref @ jinv
            zx = sum(p2_vals[a] * z_dofs[2 * nodes[a]] for a in range(6))
            zy = sum(p2_vals[a] * z_dofs[2 * nodes[a] + 1] for a in range(6))
            for a in range(3):
                for b in range(3):
                    t_one[tri[a], tri[b]] += wq * det * p1_vals[a] * (
                        zx * g[b, 0] + zy * g[b, 1])
    return 0.5 * (t_one - t_one.T)


def dense_buoyancy(ds, beta, g_fn, nq=8):
    pts, wts = duffy_rule(nq)
    g_mat = np.zeros((2 * ds.num_nodes, ds.nv))
    for t, tri in enumerate(np.asarray(ds.mesh.triangles)):
        p0, jac, det, _ = _element_geometry(ds.mesh, tri)
        nodes = ds.tri_nodes[t]
        for (xi, eta), wq in zip(pts, wts):
            x = p0 + jac @ np.array([xi, eta])
            gv = np.asarray(g_fn(x[None, :]), dtype=float).reshape(2)
            p2_vals, _ = eval_basis(COEF_P2, MONO_P2, xi, eta)
            p1_vals, _ = eval_basis(COEF_P1, MONO_P1, xi, eta)
            for a in range(6):
                for j in range(3):
                    g_mat[2 * nodes[a], tri[j]] += \
                        wq * det * beta * gv[0] * p2_vals[a] * p1_vals[j]
                    g_mat[2 * nodes[a] + 1, tri[j]] += \
                        wq * det * beta * gv[1] * p2_vals[a] * p1_vals[j]
    return g_mat


def dense_velocity_load(ds, f1, v1, t, nq=8, nq_edge=6):
    pts, wts = duffy_rule(nq)
    out = np.zeros(2 * ds.num_nodes)
    for ti, tri in enumerate(np.asarray(ds.mesh.triangles)):
        p0, jac, det, _ = _element_geometry(ds.mesh, tri)
        nodes = ds.tri_nodes[ti]
        for (xi, eta), wq in zip(pts, wts):
            x = p0 + jac @ np.array([xi, eta])
            fv = np.asarray(f1(x[None, :], t), dtype=float).reshape(2)
            p2_vals, _ = eval_basis(COEF_P2, MONO_P2, xi, eta)
            for a in range(6):
                out[2 * nodes[a]] += wq * det * fv[0] * p2_vals[a]
                out[2 * nodes[a] + 1] += wq * det * fv[1] * p2_vals[a]
    s_pts, s_wts = gauss01(nq_edge)
    for (u, v), tag in zip(ds.mesh.boundary_edges, ds.mesh.boundary_tags):
        if tag != 1:
            continue
        n, length = ds.outward_normal(u, v)
        key = (min(int(u), int(v)), max(int(u), int(v)))
        mid = ds.nv + ds.edge_index[key]
        pu = ds.mesh.vertices[u]
        pv = ds.mesh.vertices[v]
        for s, ws in zip(s_pts, s_wts):
            x = pu + s * (pv - pu)
            val = float(np.asarray(v1(x[None, :], t), dtype=float).reshape(()))
            tr = [(1 - s) * (1 - 2 * s), s * (2 * s - 1), 4 * s * (1 - s)]
            for nd, trv in zip((int(u), int(v), mid), tr):
                out[2 * nd] += ws * length * val * trv * n[0]
                out[2 * nd + 1] += ws * length * val * trv * n[1]
    return out


def dense_temperature_load(ds, f2, v2, t, nq=8, nq_edge=6):
    pts, wts = duffy_rule(nq)
    out = np.zeros(ds.nv)
    for ti, tri in enumerate(np.asarray(ds.mesh.triangles)):
        p0, jac, det, _ = _element_geometry(ds.mesh, tri)
        for (xi, eta), wq in zip(pts, wts):
            x = p0 + jac @ np.array([xi, eta])
            fv = float(np.asarray(f2(x[None, :], t), dtype=float).reshape(()))
            p1_vals, _ = eval_basis(COEF_P1, MONO_P1, xi, eta)
            for a in range(3):
                out[tri[a]] += wq * det * fv * p1_vals[a]
    s_pts, s_wts = gauss01(nq_edge)
    for (u, v), tag in zip(ds.mesh.boundary_edges, ds.mesh.boundary_tags):
        if tag != 2:
            continue
        _, length = ds.outward_normal(u, v)
        pu = ds.mesh.vertices[u]
        pv = ds.mesh.vertices[v]
        for s, ws in zip(s_pts, s_wts):
            x = pu + s * (pv - pu)
            val = float(np.asarray(v2(x[None, :], t), dtype=float).reshape(()))
            out[int(u)] += ws * length * val * (1 - s)
            out[int(v)] += ws * length * val * s
    return out


def _apply_mask(matrix, rhs, fixed):
    m = matrix.copy()
    r = rhs.copy()
    for i in fixed:
        m[i, :] = 0.0
        m[:, i] = 0.0
        m[i, i] = 1.0
        r[i] = 0.0
    return m, r


def dense_semi_implicit_step(mesh, problem, dt, t_new, z0, w0,
                             picard_tol=1e-10, picard_max=25):
    """One heat-then-momentum update mirroring the package's scheme.

    Each Picard pass after the first starts from the residual of the
    iterate it has in the fully implicit system, each equation's relative
    to its right side, and returns that iterate once both are at most
    picard_tol; the count is of the passes that solved.
    """
    ds = DenseSpaces(mesh)
    nvel = 2 * ds.num_nodes
    nh = ds.nv
    m_vel = dense_velocity_mass(ds)
    m_tmp = dense_temperature_mass(ds)
    d_mat = dense_divergence(ds)
    g_mat = dense_buoyancy(ds, problem.beta, problem.g)
    load_w = dense_temperature_load(ds, problem.f2, problem.v2, t_new)
    load_z = dense_velocity_load(ds, problem.f1, problem.v1, t_new)

    def heat(z, w):
        """The masked heat system at transport z and conductivity of w."""
        a_k = dense_temperature_diffusion(ds, problem.model.conductivity, w)
        c_t = dense_temperature_advection(ds, z)
        return _apply_mask(m_tmp / dt + a_k + c_t, m_tmp @ w0 / dt + load_w,
                           ds.fixed_temperature)

    def saddle(z, w):
        """The masked saddle system at advection z, viscosity and buoyancy
        of w."""
        a_g = dense_velocity_diffusion(ds, problem.model.viscosity, w)
        n_adv = dense_velocity_advection(ds, z)
        mat = np.zeros((nvel + nh, nvel + nh))
        mat[:nvel, :nvel] = m_vel / dt + a_g + n_adv
        mat[:nvel, nvel:] = d_mat.T
        mat[nvel:, :nvel] = d_mat
        rhs = np.zeros(nvel + nh)
        rhs[:nvel] = (m_vel @ z0 / dt + load_z
                      - problem.buoyancy_sign * (g_mat @ w))
        return _apply_mask(mat, rhs, ds.fixed_velocity)

    def meets(system, x):
        mat, rhs = system
        return (np.linalg.norm(mat @ x - rhs)
                <= picard_tol * np.linalg.norm(rhs))

    z, w = z0.copy(), w0.copy()
    x = None
    passes = 0
    while True:
        heat_system = heat(z, w)
        if passes and ((meets(heat_system, w) and meets(saddle(z, w), x))
                       or passes >= picard_max):
            break
        w = np.linalg.solve(*heat_system)
        x = np.linalg.solve(*saddle(z, w))
        z = x[:nvel]
        passes += 1
        if picard_max == 1:
            break
    return z, w, x[nvel:], passes


def dense_coercivity_constants(spaces):
    """c1 and c1_prime by dense generalized eigensolves.

    Unlike the rest of this module, this takes the package's assembled
    matrices; what it checks independently is the eigensolve.  c1 is the
    smallest eigenvalue of the unit rot-rot plus div-div form against the
    H1 Gram on an orthonormal basis of the free, discretely divergence-free
    velocity fields (scipy's dense null_space of D); c1_prime that of the
    unit temperature stiffness against its H1 Gram on the free dofs.
    """
    unit = constant_model(1.0, 1.0)
    zero_w = forms.zeros_field(spaces, "temperature")

    def free_block(matrix, keep):
        return matrix.tocsr()[keep][:, keep].toarray()

    free_v = np.setdiff1d(np.arange(spaces.velocity_dim),
                          spaces.fixed_velocity_dofs)
    d_free = forms.assemble_divergence_constraint(spaces).toarray()[:, free_v]
    null = scipy.linalg.null_space(d_free)
    if null.shape[1] == 0:
        raise np.linalg.LinAlgError(
            "no discretely divergence-free velocity directions on this mesh")
    a_unit = free_block(
        forms.assemble_velocity_diffusion(spaces, unit, zero_w), free_v)
    h_vel = free_block(forms.assemble_velocity_h1_gram(spaces), free_v)
    c1 = scipy.linalg.eigh(null.T @ a_unit @ null, null.T @ h_vel @ null,
                           eigvals_only=True)[0]

    free_t = np.setdiff1d(np.arange(spaces.temperature_dim),
                          spaces.fixed_temperature_dofs)
    k_unit = free_block(
        forms.assemble_temperature_diffusion(spaces, unit, zero_w), free_t)
    h_tmp = free_block(forms.assemble_temperature_h1_gram(spaces), free_t)
    c1_prime = scipy.linalg.eigh(k_unit, h_tmp, eigvals_only=True)[0]
    return {"c1": float(c1), "c1_prime": float(c1_prime)}
