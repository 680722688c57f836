"""Convergence rates and the Cauchy property from one refinement sequence.

The manufactured problem with temperature-dependent laws is integrated
once on each nested mesh (n = 4, 8, 16); both tables below read those
same trajectories.

Convergence: final-time errors against the manufactured fields.  Velocity
is quadratic, temperature and head are linear elements, so the expected
rates are roughly 3 for the velocity L2 error and 2 for the rest (the
time error is held far below the spatial one).

Cauchy: consecutive nested solutions are compared by exact interpolation
of the coarse run into the fine space, then a trapezoid rule in time.
Each velocity/temperature difference should be well under 0.6 of the
previous one; that geometric decay is what convergence of the sequence
rests on.
"""

from bgs.coefficients import CoefficientModel, tanh_blend_law
from bgs.oracles import (cauchy_report, convergence_report, make_mms_problem,
                         refinement_runs)


def main():
    model = CoefficientModel(viscosity=tanh_blend_law(0.5, 2.0),
                             conductivity=tanh_blend_law(0.7, 1.3))
    runs = refinement_runs(make_mms_problem(model), levels=3, dt=1e-3,
                           t_end=0.1, base_n=4)

    report = convergence_report(runs)
    keys = list(report.targets)
    print("  n      h " + "".join(f"{k:>16}" for k in keys))
    for lv in report.levels:
        row = f"{lv.n:3d} {lv.h:6.3f} "
        row += "".join(f"{lv.errors[k]:16.4e}" for k in keys)
        print(row)
    print("\nfinest-pair rates (targets in parentheses):")
    for k in keys:
        print(f"  {k:16s} {report.rates[k][-1]:5.2f}  ({report.targets[k]})")
    print(f"convergence study passed: {report.passed}")

    cauchy = cauchy_report(runs)
    print("\npair (coarse dofs, fine dofs):", cauchy.pair_levels)
    print("velocity differences:   ", [f"{e:.4e}" for e in cauchy.e_velocity])
    print("temperature differences:",
          [f"{e:.4e}" for e in cauchy.e_temperature])
    print("velocity ratios:   ", [f"{r:.3f}" for r in cauchy.ratios_velocity])
    print("temperature ratios:",
          [f"{r:.3f}" for r in cauchy.ratios_temperature])
    print(f"cauchy study passed: {cauchy.passed}")


if __name__ == "__main__":
    main()
