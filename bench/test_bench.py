"""Tests of the benchmark itself: its checks reject wrong results, and the
command prints exactly the metrics BENCHMARK.json names.

    python3 -m pytest bench -q
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from bgs import forms, oracles, solver  # noqa: E402
from bgs.mesh import build_rectangle_mesh  # noqa: E402
from workloads import Cavity  # noqa: E402


# ---------------------------------------------------------------------------
# cavity_n32 checks, on a small real run of the same scenario


@pytest.fixture(scope="module")
def small_cavity():
    spaces = forms.build_spaces(build_rectangle_mesh(4, 4, ("left",)))
    problem = Cavity(0, os.path.join(ROOT, ".bench_out", "test"), None).problem
    config = solver.SolverConfig(dt=0.01, t_end=0.04)
    states, diags = solver.run(spaces, problem, config)
    return spaces, problem, config, states, diags


def _energies(spaces, states):
    mesh = spaces.mesh
    kinetic = [checks.p2_energy(mesh.vertices, mesh.triangles,
                                spaces.vel_nodes, s.z.values) for s in states]
    thermal = [checks.p1_energy(mesh.vertices, mesh.triangles, s.w.values)
               for s in states]
    return kinetic, thermal


def test_closed_form_energies_match_quadrature():
    spaces = forms.build_spaces(build_rectangle_mesh(5, 3, ("left",)))
    rng = np.random.default_rng(0)
    mesh = spaces.mesh
    z = rng.standard_normal(spaces.velocity_dim)
    w = rng.standard_normal(spaces.temperature_dim)
    ref_z = forms.l2_norm_sq(spaces, forms.FieldVector("velocity", z))
    ref_w = forms.l2_norm_sq(spaces, forms.FieldVector("temperature", w))
    got_z = checks.p2_energy(mesh.vertices, mesh.triangles, spaces.vel_nodes, z)
    got_w = checks.p1_energy(mesh.vertices, mesh.triangles, w)
    assert got_z == pytest.approx(ref_z, rel=1e-12)
    assert got_w == pytest.approx(ref_w, rel=1e-12)


def test_cavity_check_accepts_the_program(small_cavity):
    spaces, problem, config, states, diags = small_cavity
    kinetic, thermal = _energies(spaces, states)
    assert checks.check_cavity(kinetic, thermal, diags, config.dt,
                               problem.beta, 1.0) == []


def test_temperature_scaled_up_mid_run_is_rejected(small_cavity):
    spaces, problem, config, states, diags = small_cavity
    bad = list(states)
    bad[2] = dataclasses.replace(
        bad[2], w=forms.FieldVector("temperature", 1.5 * bad[2].w.values))
    kinetic, thermal = _energies(spaces, bad)
    failures = checks.check_cavity(kinetic, thermal, diags, config.dt,
                                   problem.beta, 1.0)
    assert any("thermal energy rose" in f for f in failures)
    assert any("reported thermal" in f for f in failures)


def test_kinetic_above_buoyant_bound_is_rejected(small_cavity):
    spaces, problem, config, states, diags = small_cavity
    kinetic, thermal = _energies(spaces, states)
    kinetic[3] = 10.0 * kinetic[0] + 1.0
    failures = checks.check_cavity(kinetic, thermal, diags, config.dt,
                                   problem.beta, 1.0)
    assert any("> bound" in f for f in failures)


def test_divergence_residual_is_rejected(small_cavity):
    spaces, problem, config, states, diags = small_cavity
    kinetic, thermal = _energies(spaces, states)
    bad = list(diags)
    bad[1] = dataclasses.replace(bad[1], div_residual=1e-9)
    failures = checks.check_cavity(kinetic, thermal, bad, config.dt,
                                   problem.beta, 1.0)
    assert failures == ["step 2: div_residual 1e-09"]


def test_differing_csv_bytes_are_rejected():
    same = checks.digest(b"t,kinetic\n0.01,1\n")
    other = checks.digest(b"t,kinetic\n0.01,1.0000000000000002\n")
    assert checks.check_identical([same, same, same]) == []
    assert checks.check_identical([same, other]) != []


# ---------------------------------------------------------------------------
# mms_studies checks


def _errors(rates, base=1e-2):
    """Three levels of errors with the given pair rates for every metric."""
    out = []
    for k in range(3):
        out.append({key: base * 2.0 ** -sum(r[key] for r in rates[:k])
                    for key in checks.RATE_MIN})
    return out


GOOD_RATES = [{"velocity_l2": 3.0, "velocity_rot": 2.0,
               "temperature_l2": 2.0, "head_l2": 2.0}] * 2


def test_mms_check_accepts_good_rates():
    assert checks.check_mms(_errors(GOOD_RATES), (1.0, 0.3), (1.0, 0.4)) == []


def test_rate_below_threshold_is_rejected():
    rates = [GOOD_RATES[0], dict(GOOD_RATES[0], velocity_l2=2.4)]
    failures = checks.check_mms(_errors(rates), (1.0, 0.3), (1.0, 0.4))
    assert failures == ["velocity_l2: finest-pair rate 2.400 < 2.5"]


def test_errors_not_decreasing_are_rejected():
    rates = [dict(GOOD_RATES[0], head_l2=-0.1), GOOD_RATES[0]]
    failures = checks.check_mms(_errors(rates), (1.0, 0.3), (1.0, 0.4))
    assert len(failures) == 1 and "head_l2" in failures[0]


def test_cauchy_ratio_above_bound_is_rejected():
    failures = checks.check_mms(_errors(GOOD_RATES), (1.0, 0.3), (1.0, 0.61))
    assert failures == ["cauchy temperature pair 0: ratio 0.610 > 0.6"]


def test_exact_fields_match_closed_forms_and_a_wrong_one_is_rejected():
    exact = {"velocity": oracles.exact_velocity,
             "temperature": oracles.exact_temperature,
             "head": oracles.exact_head, "rot": oracles.exact_rot}
    assert checks.check_exact_fields(exact, np.random.default_rng(1)) == []
    exact["head"] = lambda p, t: 1.001 * oracles.exact_head(p, t)
    failures = checks.check_exact_fields(exact, np.random.default_rng(1))
    assert failures and all("exact head" in f for f in failures)


# ---------------------------------------------------------------------------
# form_audit_n16 checks


GOOD_AUDIT = {"skew_velocity_advection": 1e-16,
              "skew_temperature_advection": 0.0,
              "symmetry_mass": 0.0, "symmetry_diffusion": 0.0,
              "coefficient_linearity": 2e-16, "b_continuity": 3e-6,
              "dual_norm_bound": 7e-3, "coercivity_c1_positive": 0.97,
              "coercivity_c1_prime_positive": 0.7118,
              "coercivity_inequality": 0.0, "c_product_rule": 9e-16}


def test_audit_check_accepts_good_values():
    assert checks.check_audit(True, GOOD_AUDIT, 0.711764) == []


def test_c1_prime_below_rayleigh_ritz_bound_is_rejected():
    lam = math.pi ** 2 / 4
    assert checks.C1_PRIME_MIN == pytest.approx(0.711600, abs=1e-6)
    failures = checks.check_audit(True, GOOD_AUDIT, lam / (1 + lam) - 1e-6)
    assert len(failures) == 1 and failures[0].startswith("c1'")


@pytest.mark.parametrize("name, value", [
    ("symmetry_diffusion", 1e-300), ("skew_velocity_advection", 2e-13),
    ("c_product_rule", 1e-11), ("coercivity_c1_positive", 0.0)])
def test_out_of_range_audit_value_is_rejected(name, value):
    failures = checks.check_audit(True, dict(GOOD_AUDIT, **{name: value}),
                                  0.711764)
    assert failures == [f"{name}: worst {value!r} out of range"]


def test_failed_or_missing_audit_check_is_rejected():
    assert checks.check_audit(False, GOOD_AUDIT, 0.711764)
    partial = dict(GOOD_AUDIT)
    del partial["c_product_rule"]
    assert checks.check_audit(True, partial, 0.711764)


# ---------------------------------------------------------------------------
# tracing arithmetic


def test_self_time_excludes_enclosed_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()
        inner()
    tracer.wrap("outer", body)()
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert tracer.total["outer"] >= tracer.total["inner"] >= 0.04
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.total["outer"] - tracer.total["inner"], abs=1e-12)
    assert tracer.self_time["inner"] == tracer.total["inner"]


def test_install_and_uninstall_restore_every_attribute():
    before = (forms.build_spaces, solver.run, oracles.run)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert oracles.run is not before[2]
        assert oracles.estimate_constants.__wrapped__ is solver.estimate_constants.__wrapped__
    finally:
        tracer.uninstall()
    assert (forms.build_spaces, solver.run, oracles.run) == before


# ---------------------------------------------------------------------------
# the command


def _bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_exactly_the_named_metrics(trace, section):
    spec = _bench_spec()
    proc = subprocess.run(
        spec["command"] + ["--workload", "form_audit_n16", "--seed", "7",
                           "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 100 and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec[section]}
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_without_the_program_fails_without_a_result(tmp_path):
    spec = _bench_spec()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        spec["command"] + ["--workload", "cavity_n32", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
