"""Temperature-dependent viscosity and conductivity laws with certified bounds.

Every law carries explicit lower/upper bounds and a Lipschitz constant;
the solver's stability and contraction diagnostics consume those numbers,
so ``audit_bounds_and_lipschitz`` cross-checks them empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScalarLaw:
    """One scalar coefficient law w -> value, bounded in [lo, hi].

    kind: 'constant' (value lo == hi), 'clamped_affine'
    (clip(intercept + slope*w, lo, hi)) or 'tanh_blend'
    (lo + (hi-lo)*(1+tanh w)/2). ``lipschitz`` is the exact Lipschitz
    constant of the law.
    """

    kind: str
    lo: float
    hi: float
    lipschitz: float
    intercept: float = 0.0
    slope: float = 0.0

    def __call__(self, w):
        w = np.asarray(w, dtype=float)
        if self.kind == "constant":
            return np.full_like(w, self.lo)
        if self.kind == "clamped_affine":
            return np.clip(self.intercept + self.slope * w, self.lo, self.hi)
        if self.kind == "tanh_blend":
            return self.lo + (self.hi - self.lo) * 0.5 * (1.0 + np.tanh(w))
        raise ValueError(f"unknown coefficient kind {self.kind!r}")

    def derivative(self, w):
        """Pointwise derivative of the law in w.

        A clamped law is not differentiable at its clip points; there it
        takes the one-sided slope 0 of the clipped side.
        """
        w = np.asarray(w, dtype=float)
        if self.kind == "constant":
            return np.zeros_like(w)
        if self.kind == "clamped_affine":
            v = self.intercept + self.slope * w
            return np.where((self.lo < v) & (v < self.hi), self.slope, 0.0)
        if self.kind == "tanh_blend":
            # not 1/cosh^2, which overflows for |w| beyond about 355
            return 0.5 * (self.hi - self.lo) * (1.0 - np.tanh(w) ** 2)
        raise ValueError(f"unknown coefficient kind {self.kind!r}")


def _check_bounds(lo: float, hi: float) -> None:
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("coefficient bounds must be finite")
    if lo <= 0:
        raise ValueError(f"lower coefficient bound must be positive, got {lo}")
    if hi < lo:
        raise ValueError(f"upper bound {hi} below lower bound {lo}")


def constant_law(value: float) -> ScalarLaw:
    _check_bounds(value, value)
    return ScalarLaw("constant", float(value), float(value), 0.0)


def clamped_affine_law(intercept: float, slope: float,
                       lo: float, hi: float) -> ScalarLaw:
    _check_bounds(lo, hi)
    if not (np.isfinite(intercept) and np.isfinite(slope)):
        raise ValueError("intercept and slope must be finite")
    return ScalarLaw("clamped_affine", float(lo), float(hi),
                     abs(float(slope)), float(intercept), float(slope))


def tanh_blend_law(lo: float, hi: float) -> ScalarLaw:
    _check_bounds(lo, hi)
    # derivative (hi-lo)/2 * sech^2(w), maximal at w = 0
    return ScalarLaw("tanh_blend", float(lo), float(hi),
                     0.5 * (float(hi) - float(lo)))


# each law kind: its factory and the factory's parameter names in call order
LAWS = {
    "constant": (constant_law, ("value",)),
    "clamped_affine": (clamped_affine_law, ("intercept", "slope", "lo", "hi")),
    "tanh_blend": (tanh_blend_law, ("lo", "hi")),
}


@dataclass(frozen=True)
class CoefficientModel:
    """Viscosity and conductivity laws bundled with their certificates."""

    viscosity: ScalarLaw
    conductivity: ScalarLaw

    @property
    def gamma0(self) -> float:
        return self.viscosity.lo

    @property
    def gamma1(self) -> float:
        return self.viscosity.hi

    @property
    def k0(self) -> float:
        return self.conductivity.lo

    @property
    def k1(self) -> float:
        return self.conductivity.hi

    @property
    def l1(self) -> float:
        return self.viscosity.lipschitz

    @property
    def l2(self) -> float:
        return self.conductivity.lipschitz


def constant_model(gamma: float, k: float) -> CoefficientModel:
    return CoefficientModel(constant_law(gamma), constant_law(k))


def _eval(law: ScalarLaw, w):
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite temperature passed to coefficient law")
    return law(w)


def eval_viscosity(model: CoefficientModel, w):
    """Pointwise viscosity gamma(w); w may be scalar or array."""
    return _eval(model.viscosity, w)


def eval_conductivity(model: CoefficientModel, w):
    """Pointwise conductivity k(w); w may be scalar or array."""
    return _eval(model.conductivity, w)


@dataclass(frozen=True)
class AuditReport:
    """Empirical check of declared bounds and Lipschitz constants."""

    worst_bound_violation: float   # max over samples; must be <= 0
    empirical_l1: float            # observed viscosity difference quotient
    empirical_l2: float            # observed conductivity difference quotient
    samples: int


def audit_bounds_and_lipschitz(model: CoefficientModel, samples: int = 2000,
                               seed: int = 42) -> AuditReport:
    """Sample both laws on [-50, 50] and report worst-case behavior.

    Uses a deterministic grid plus fixed-seed random pairs.  The worst
    bound violation must come out <= 0 and each empirical difference
    quotient must stay at or below the declared Lipschitz constant.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    grid = np.linspace(-50.0, 50.0, samples)
    rng = np.random.default_rng(seed)
    pa = rng.uniform(-50.0, 50.0, samples)
    pb = rng.uniform(-50.0, 50.0, samples)

    pts = np.concatenate([grid, pa, pb])
    g = eval_viscosity(model, pts)
    k = eval_conductivity(model, pts)
    viol = max(
        float(np.max(model.gamma0 - g)), float(np.max(g - model.gamma1)),
        float(np.max(model.k0 - k)), float(np.max(k - model.k1)),
    )

    def quotient(law):
        va, vb = law(pa), law(pb)
        ga, gb = law(grid[:-1]), law(grid[1:])
        dq = [np.abs(gb - ga) / np.abs(grid[1:] - grid[:-1])]
        keep = np.abs(pa - pb) > 1e-12
        dq.append(np.abs(va - vb)[keep] / np.abs(pa - pb)[keep])
        return float(max(np.max(d) for d in dq))

    return AuditReport(worst_bound_violation=viol,
                       empirical_l1=quotient(model.viscosity),
                       empirical_l2=quotient(model.conductivity),
                       samples=samples)
