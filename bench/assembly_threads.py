"""Reference figure: velocity-diffusion assembly time at BGS_THREADS 1 and 2.

Assembles the tanh-viscosity velocity diffusion of the cavity_n32 mesh at
a fixed random temperature field, REPEATS times per thread count, and
prints the median and quartiles of each.  The benchmark workloads run
with BGS_THREADS unset (serial); this figure is kept apart from them.

    python3 bench/assembly_threads.py
"""

import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from bgs import forms  # noqa: E402
from bgs.coefficients import CoefficientModel, tanh_blend_law  # noqa: E402
from bgs.mesh import build_rectangle_mesh  # noqa: E402

REPEATS = 21


def main() -> int:
    spaces = forms.build_spaces(build_rectangle_mesh(32, 32, ("left",)))
    model = CoefficientModel(viscosity=tanh_blend_law(0.5, 2.0),
                             conductivity=tanh_blend_law(0.7, 1.3))
    w = forms.FieldVector("temperature", np.random.default_rng(0)
                          .standard_normal(spaces.temperature_dim))
    results = {}
    for threads in ("1", "2"):
        os.environ["BGS_THREADS"] = threads
        forms.assemble_velocity_diffusion(spaces, model, w)   # warm-up
        times = []
        for _ in range(REPEATS):
            tic = time.perf_counter()
            results[threads] = forms.assemble_velocity_diffusion(spaces, model, w)
            times.append(time.perf_counter() - tic)
        q1, med, q3 = statistics.quantiles(times, n=4)
        print(f"BGS_THREADS={threads}: median {1e3 * med:.1f} ms "
              f"(quartiles {1e3 * q1:.1f}-{1e3 * q3:.1f} ms, {REPEATS} calls)")
    os.environ.pop("BGS_THREADS")
    same = (results["1"] != results["2"]).nnz == 0
    print(f"threaded result equals serial bit for bit: {same}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
