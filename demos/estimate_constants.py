"""Measure the discrete coercivity and Sobolev constants on nested meshes.

c1 and c1_prime come from sparse generalized eigensolves (ARPACK Lanczos)
on the constrained (and, for velocity, discretely divergence-free)
subspaces, with no basis of those subspaces; d is a projected-ascent lower
bound on the L4/H1 embedding constant. Refinement should shrink the infima
and grow the supremum, which the table shows for c1 and c1_prime. d stays
at 1, within 3e-14, on every mesh: the ascent returns to the constant
function, whose L4/H1 ratio on the unit square is exactly 1.
"""

from bgs import build_rectangle_mesh, build_spaces
from bgs.solver import estimate_constants


def main():
    print(f"{'n':>3} {'c1':>10} {'c1_prime':>10} {'d':>10} {'|d-1|':>8}")
    for n in (2, 4, 8, 16, 32):
        spaces = build_spaces(build_rectangle_mesh(n, n,
                                                   gamma1_sides=("left",)))
        cst = estimate_constants(spaces)
        print(f"{n:3d} {cst['c1']:10.7f} {cst['c1_prime']:10.7f} "
              f"{cst['d']:10.7f} {abs(cst['d'] - 1.0):8.1e}")
    print("\nuse these in SolverConfig(constants_for_re_ra=...) to make the "
          "Re+Ra diagnostic mesh-aware")


if __name__ == "__main__":
    main()
