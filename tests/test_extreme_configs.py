"""The numeric contract of `bgs run` on extreme but valid configs.

Every config below but the ones marked rejected passes the schema.  A
run must exit 0 with finite output, 2 for a config error that names the
field or 3 for a numeric one, and never raise.  On
exit 0 the discrete divergence stays at rounding level: `div_residual` is
at most _DIV_BOUND * max(1, z_L4).  The largest ratio over these configs
is about 1e-15 (the dt 1e-12 cavity), and 1e-17 on the 16x16 demo cavity,
so the bound has a margin of 1e5 while a solve that returns its start
unconverged reads O(1).  On exit 3 the CSV holds the header and one row
per step finished before the failing one.  Meshes stay at 2x2, since
neither nx nor the refinements is bounded.
"""

import json
import re
import warnings

import numpy as np
import pytest

from bgs import cli

_DIV_BOUND = 1e-10

_CAVITY = {"data": {"problem": "cavity_convection"}}
_MMS = {"data": {"problem": "mms"}}
_WIDE_TANH = {"kind": "tanh_blend", "lo": 1e-6, "hi": 1e6}
_WIDE_AFFINE = {"kind": "clamped_affine", "intercept": 1.0, "slope": 1e6,
                "lo": 1e-6, "hi": 1e6}
# a JSON integer beyond float range
_HUGE_INT = 10 ** 400


def _with(base, **sections):
    return {**base, **sections}


# (id, config sections, the field validation rejects, or None)
CASES = [
    ("zero", {}, None),
    ("mms", _MMS, None),
    ("cavity", _CAVITY, None),
    ("beta_0", _with(_CAVITY, physics={"beta": 0.0}), None),
    ("beta_1e150", _with(_CAVITY, physics={"beta": 1e150}), None),
    ("beta_1e300", _with(_CAVITY, physics={"beta": 1e300}), None),
    ("beta_1e300_mms_flipped",
     _with(_MMS, physics={"beta": 1e300, "buoyancy_sign_flag": -1}), None),
    ("gravity_1e308",
     _with(_CAVITY, physics={"beta": 1.0, "gravity": [1e308, 1e308]}), None),
    ("gravity_-1e308",
     _with(_CAVITY, physics={"beta": 1.0, "gravity": [-1e308, -1e308]}), None),
    ("gravity_1e-308",
     _with(_CAVITY, physics={"beta": 1.0, "gravity": [1e-308, 1e-308]}), None),
    ("gravity_0", _with(_CAVITY, physics={"beta": 1.0, "gravity": [0.0, 0.0]}),
     None),
    ("dt_1e-12", _with(_CAVITY, time={"dt": 1e-12, "t_end": 2e-12}), None),
    ("dt_1e6", _with(_CAVITY, time={"dt": 1e6, "t_end": 2e6}), None),
    ("dt_1e6_mms", _with(_MMS, time={"dt": 1e6, "t_end": 2e6}), None),
    ("wide_tanh_laws",
     _with(_CAVITY, physics={"beta": 1.0},
           coefficients={"viscosity": _WIDE_TANH, "conductivity": _WIDE_TANH}),
     None),
    ("wide_affine_laws",
     _with(_MMS, coefficients={"viscosity": _WIDE_AFFINE,
                               "conductivity": _WIDE_AFFINE}), None),
    ("constants_1e300",
     _with(_CAVITY, solver={"constants": {"c1": 1e300, "c1_prime": 1e300,
                                          "d": 1e300}}), "solver.constants"),
    ("constants_1e-300",
     _with(_CAVITY, solver={"constants": {"c1": 1e-300, "c1_prime": 1e-300,
                                          "d": 1e-300}}), "solver.constants"),
    ("c1_1e300", _with(_CAVITY, solver={"constants": {"c1": 1e300,
                                                      "c1_prime": 1e300}}),
     None),
    # finite factors, but Re of the run's large velocity overflows
    ("re_overflows",
     _with(_CAVITY, physics={"beta": 1e8},
           solver={"constants": {"c1": 1e-150, "c1_prime": 1e160,
                                 "d": 5e153}}), None),
    ("picard_tol_1e-300", _with(_CAVITY, solver={"picard_tol": 1e-300}), None),
    ("picard_tol_1e300", _with(_MMS, solver={"picard_tol": 1e300}), None),
    ("picard_max_1", _with(_MMS, solver={"picard_max": 1}), None),
    # the conductivity's stiffness overflows at the first iterate: a numeric
    # failure of step 1 once output has begun, not a config error
    ("conductivity_1e308",
     {"mesh": {"nx": 2, "ny": 1, "gamma1_sides": ["left", "right"]},
      "coefficients": {"conductivity": {"kind": "tanh_blend", "lo": 1e308,
                                        "hi": 1e308}},
      "physics": {"beta": 3.0}, "data": {"problem": "zero"},
      "time": {"dt": 0.1, "t_end": 0.1}}, None),
    ("t_end_huge_int", _with(_CAVITY, time={"dt": 0.1, "t_end": _HUGE_INT}),
     "time.t_end"),
    ("beta_huge_int", _with(_CAVITY, physics={"beta": _HUGE_INT}),
     "physics.beta"),
    ("gravity_huge_int",
     _with(_CAVITY, physics={"beta": 1.0, "gravity": [_HUGE_INT, 0]}),
     "physics.gravity"),
    # t_end/dt overflows to inf
    ("steps_overflow", _with(_CAVITY, time={"dt": 1e-300, "t_end": 1e300}),
     "time.t_end"),
    # a kind that is no string, not even hashable
    ("law_kind_list", _with(_CAVITY, coefficients={"viscosity": {"kind": []}}),
     "coefficients.viscosity.kind"),
    ("law_kind_object",
     _with(_CAVITY, coefficients={"viscosity": {"kind": {}}}),
     "coefficients.viscosity.kind"),
    ("constants_unknown_key",
     _with(_CAVITY, solver={"constants": {"c1": 1.0, "bogus": 1}}),
     "solver.constants.bogus"),
    # null is a value, not an absent key
    ("gamma1_sides_null",
     _with(_CAVITY, mesh={"nx": 2, "ny": 2, "gamma1_sides": None}),
     "mesh.gamma1_sides"),
    ("gravity_null", _with(_CAVITY, physics={"gravity": None}),
     "physics.gravity"),
    ("buoyancy_sign_flag_null",
     _with(_CAVITY, physics={"buoyancy_sign_flag": None}),
     "physics.buoyancy_sign_flag"),
    ("problem_null", {"data": {"problem": None}}, "data.problem"),
]


@pytest.mark.parametrize("sections, rejected_field",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_extreme_config_keeps_the_exit_code_contract(tmp_path, capsys,
                                                     sections, rejected_field):
    out = tmp_path / "out"
    cfg = {"mesh": {"nx": 2, "ny": 2}, "time": {"dt": 0.1, "t_end": 0.3},
           "output": {"directory": str(out), "vtk_every": 1}, **sections}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["run", "--config", str(path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # the one warning a run may give is a Picard loop stopped at its cap
    assert all(w.category is RuntimeWarning
               and str(w.message).startswith("Picard loop stopped")
               for w in caught), [str(w.message) for w in caught]

    if rejected_field:
        assert code == 2 and err.startswith(f"ERROR: config: {rejected_field}: ")
        assert not out.exists()
        return
    assert code in (0, 3), err
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == cli.CSV_HEADER
    if code == 3:
        failed = int(re.match(r"ERROR: solver: step (\d+) ", err).group(1))
        assert len(lines) == failed
        assert len(list(out.glob("fields_*.vtk"))) == failed
        return
    steps = round(cfg["time"]["t_end"] / cfg["time"]["dt"])
    assert len(lines) == 1 + steps
    for line in lines[1:]:
        row = dict(zip(cli.CSV_HEADER.split(","),
                       (float(v) for v in line.split(","))))
        assert all(np.isfinite(v) for v in row.values())
        assert row["div_residual"] <= _DIV_BOUND * max(1.0, row["z_L4"])
