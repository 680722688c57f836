"""Exit codes, config validation, and on-disk artifact formats."""

import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from bgs import cli, forms, oracles, solver


def write_config(path, **overrides):
    cfg = {
        "mesh": {"nx": 2, "ny": 2, "gamma1_sides": ["left"], "refinements": 0},
        "data": {"problem": "zero"},
        "time": {"dt": 0.1, "t_end": 0.2},
        "output": {"directory": str(path.parent / "out")},
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and key in cfg:
            cfg[key].update(val)
        else:
            cfg[key] = val
    path.write_text(json.dumps(cfg))
    return cfg


def read_lines(p):
    return p.read_text().splitlines()


# ---------------------------------------------------------------------------
# exit codes and validation


def test_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{nope")
    assert cli.main(["run", "--config", str(bad)]) == 2
    assert "ERROR: config:" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    assert "ERROR: config:" in capsys.readouterr().err


def test_missing_required_flag_exits_2(capsys):
    assert cli.main(["run"]) == 2
    assert "ERROR: config:" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_all_violations_reported_together(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, time={"dt": -0.1, "t_end": 0.2},
                 physics={"beta": -2.0}, turbo=True)
    assert cli.main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    lines = [l for l in err.splitlines() if l.startswith("ERROR: config:")]
    assert len(lines) >= 3
    assert any("dt" in l for l in lines)
    assert any("beta" in l for l in lines)
    assert any("turbo" in l for l in lines)


def test_unknown_constant_is_reported_with_every_other_violation(tmp_path,
                                                                 capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, mesh={"nx": 0}, study={"levels": 2},
                 solver={"constants": {"c1": 1.0, "bogus": 1}})
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "ERROR: config: mesh.nx: must be >= 1, got 0",
        "ERROR: config: solver.constants.bogus: unknown key",
        "ERROR: config: study.levels: must be >= 3, got 2"]


@pytest.mark.parametrize("output, path", [
    ({"directory": "taken"}, "taken"),
    ({"csv_name": "no/such/dir.csv"}, "no/such/dir.csv"),
    ({"directory": "made", "csv_name": "sub"}, "made/sub")])
def test_unwritable_output_path_exits_2_naming_it(tmp_path, capsys,
                                                  monkeypatch, output, path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("a file, not a directory")
    # an existing directory where the CSV should go
    (tmp_path / "made" / "sub").mkdir(parents=True)
    cfg = tmp_path / "cfg.json"
    write_config(cfg, output=output)
    assert cli.main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("ERROR: config: cannot write output: ")
    assert len(err.splitlines()) == 1 and path in err
    # nothing is left behind: no output directory, no constants.json
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "cfg.json", "made", "sub", "taken"]


def test_negative_seed_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert cli.main(["contract", "--config", str(cfg), "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_seed_is_offered_only_where_it_is_read(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert cli.main(["run", "--config", str(cfg), "--seed", "7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR: config: ") and "--seed" in err
    assert not (tmp_path / "out").exists()


def test_unknown_problem_name_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, data={"problem": "vortex"})
    assert cli.main(["run", "--config", str(cfg)]) == 2


def test_bad_coefficient_law_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, coefficients={"viscosity": {
        "kind": "tanh_blend", "lo": 2.0, "hi": 0.5}})
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert "viscosity" in capsys.readouterr().err


def test_t_end_not_whole_number_of_steps_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, time={"dt": 0.03, "t_end": 0.1})
    assert cli.main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "ERROR: config: time.t_end: must be a whole number" in err
    assert not (tmp_path / "out").exists()


def test_gamma1_sides_must_be_proper_subset(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, mesh={"gamma1_sides": ["left", "right", "top", "bottom"]})
    assert cli.main(["run", "--config", str(cfg)]) == 2
    cfg2 = tmp_path / "cfg2.json"
    write_config(cfg2, mesh={"gamma1_sides": []})
    assert cli.main(["run", "--config", str(cfg2)]) == 2


@pytest.mark.parametrize("command", ["mms", "cauchy"])
def test_mms_levels_below_three_exit_2(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, study={"levels": 2})
    assert cli.main([command, "--config", str(cfg)]) == 2
    assert "study.levels: must be >= 3, got 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_picard_enabled_is_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, solver={"picard_enabled": False})
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert "solver.picard_enabled: unknown key" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run artifacts


def test_run_zero_problem_writes_artifacts(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert cli.main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    lines = read_lines(out / "diagnostics.csv")
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 3  # header + two steps
    row = lines[1].split(",")
    assert len(row) == 12
    assert float(row[0]) == pytest.approx(0.1)
    # every norm column of the zero run is exactly zero
    assert all(field == "0" for field in row[1:11])
    assert row[11] == "1"      # the first iterate's residual is 0

    consts = json.loads((out / "constants.json").read_text())
    assert consts["source"] == "defaults"
    assert consts["c1"] == 1.0 and consts["c1_prime"] == 1.0 and consts["d"] == 1.0


def test_run_is_byte_deterministic(tmp_path):
    cfg_a = tmp_path / "a.json"
    write_config(cfg_a, data={"problem": "cavity_convection"},
                 physics={"beta": 1.0},
                 output={"directory": str(tmp_path / "out_a")})
    cfg_b = tmp_path / "b.json"
    write_config(cfg_b, data={"problem": "cavity_convection"},
                 physics={"beta": 1.0},
                 output={"directory": str(tmp_path / "out_b")})
    assert cli.main(["run", "--config", str(cfg_a)]) == 0
    assert cli.main(["run", "--config", str(cfg_b)]) == 0
    bytes_a = (tmp_path / "out_a" / "diagnostics.csv").read_bytes()
    bytes_b = (tmp_path / "out_b" / "diagnostics.csv").read_bytes()
    assert bytes_a == bytes_b


def test_run_with_config_constants_reported_as_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, solver={"constants": {
        "c1": 0.5, "c1_prime": 0.25, "d": 1.5}})
    assert cli.main(["run", "--config", str(cfg)]) == 0
    consts = json.loads((tmp_path / "out" / "constants.json").read_text())
    assert consts["source"] == "config"
    assert consts["c1"] == 0.5


@pytest.mark.parametrize("constants", [
    {"c1": 1e-300, "c1_prime": 1e-300, "d": 1e300},   # d ** 2 overflows
    {"c1": 1e-200, "c1_prime": 1e-200}])              # c1 * c1' is 0.0
def test_unrepresentable_re_ra_constants_exit_2(tmp_path, capsys, constants):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, solver={"constants": constants})
    assert cli.main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR: config: solver.constants: ")
    assert "Traceback" not in err


def test_overflowing_field_norms_exit_3(tmp_path, capsys, monkeypatch):
    # finite L4 norms so large that w_L4 ** 2 overflows a float
    monkeypatch.setattr(forms, "l4_norm", lambda spaces, f: 1e200)
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert cli.main(["run", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR: solver: step 1 (t=0.1): Re/Ra not representable")
    assert "Traceback" not in err


@pytest.mark.parametrize("solver_cfg", [
    {}, {"constants": {"c1": 1.0, "c1_prime": 1.0, "d": 1.0}}])
def test_underflowing_re_ra_denominator_exits_2(tmp_path, capsys, monkeypatch,
                                                solver_cfg):
    # gamma0 * k0 * c1 * c1' is 0.0 in floating point, with the default
    # constants and with constants given as numbers
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembly before the config was rejected")

    monkeypatch.setattr(forms, "build_spaces", no_assembly)
    tiny = {"kind": "constant", "value": 1e-200}
    cfg = tmp_path / "cfg.json"
    write_config(cfg, coefficients={"viscosity": tiny, "conductivity": tiny},
                 solver=solver_cfg)
    for command in ("run", "mms"):
        assert cli.main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR: config: solver.constants: 4*d/(gamma0*c1)")
        assert "Traceback" not in err


def test_underflowing_re_ra_denominator_with_estimated_constants_exits_2(
        tmp_path, capsys):
    # once the constants are estimated, gamma0 * k0 * c1 * c1' is 0.0: the
    # config is rejected before any step or output
    tiny = {"kind": "constant", "value": 1e-200}
    cfg = tmp_path / "cfg.json"
    write_config(cfg, coefficients={"viscosity": tiny, "conductivity": tiny},
                 solver={"constants": "estimate"})
    for command in ("run", "contract"):
        assert cli.main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR: config: solver.constants: 4*d/(gamma0*c1)")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("problem, dt, gravity", [
    # the 2-norm of the buoyancy right side overflows
    ("cavity_convection", 0.01, [1e308, 1e308]),
    ("cavity_convection", 0.1, [0.0, 1e308]),
    ("mms", 0.1, [0.0, 1e308])])
def test_overflowing_right_side_is_not_a_converged_solve(tmp_path, capsys,
                                                        problem, dt, gravity):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, data={"problem": problem},
                 time={"dt": dt, "t_end": 2 * dt},
                 physics={"beta": 1.0, "gravity": gravity})
    code = cli.main(["run", "--config", str(cfg)])  # warnings are errors here
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 3:
        assert err.startswith("ERROR: solver: step 1 ")
        return
    assert code == 0
    lines = read_lines(tmp_path / "out" / "diagnostics.csv")
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, (float(v) for v in line.split(","))))
        assert all(np.isfinite(v) for v in row.values())
        assert row["div_residual"] <= 1e-10 * max(1.0, row["z_L4"])


def test_run_vtk_snapshots(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, data={"problem": "cavity_convection"},
                 output={"directory": str(tmp_path / "out"), "vtk_every": 1})
    assert cli.main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    names = sorted(p.name for p in out.glob("fields_*.vtk"))
    assert names == ["fields_000000.vtk", "fields_000001.vtk",
                     "fields_000002.vtk"]
    lines = read_lines(out / "fields_000001.vtk")
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4] == "POINTS 9 double"
    pts = np.array([[float(v) for v in l.split()] for l in lines[5:14]])
    assert np.all(pts[:, 2] == 0.0)
    assert lines[14] == "CELLS 8 32"
    cell = lines[15].split()
    assert cell[0] == "3" and len(cell) == 4
    idx = lines.index("CELL_TYPES 8")
    assert set(lines[idx + 1:idx + 9]) == {"5"}
    assert "POINT_DATA 9" in lines
    assert "VECTORS velocity double" in lines
    assert "SCALARS temperature double 1" in lines
    assert "SCALARS head double 1" in lines
    assert lines.count("LOOKUP_TABLE default") == 2


def test_vtk_every_zero_writes_no_snapshots(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert cli.main(["run", "--config", str(cfg)]) == 0
    assert list((tmp_path / "out").glob("*.vtk")) == []


def _streamed_cavity(tmp_path, name):
    """A 4x4 tanh cavity config of 5 steps with a VTK file every 2 steps."""
    cfg = tmp_path / f"{name}.json"
    write_config(cfg, mesh={"nx": 4, "ny": 4},
                 coefficients={"viscosity": {"kind": "tanh_blend", "lo": 0.5,
                                             "hi": 2.0}},
                 data={"problem": "cavity_convection"}, physics={"beta": 1.0},
                 time={"dt": 0.1, "t_end": 0.5},
                 output={"directory": str(tmp_path / name), "vtk_every": 2})
    return cfg


def test_run_streams_the_bytes_of_run_and_write_diagnostics_csv(tmp_path):
    cfg_path = _streamed_cavity(tmp_path, "cli")
    assert cli.main(["run", "--config", str(cfg_path)]) == 0

    cfg = cli.load_config(str(cfg_path))
    spaces = forms.build_spaces(cli.build_mesh(cfg))
    problem = cli.build_problem(cfg, cli.build_model(cfg))
    constants, _ = cli._resolve_constants(cfg, spaces)
    states, diags = solver.run(spaces, problem,
                               cli.build_solver_config(cfg, constants))
    ref = tmp_path / "ref"
    ref.mkdir()
    cli.write_diagnostics_csv(str(ref / "diagnostics.csv"), diags)
    for i in (0, 2, 4, 5):
        cli.write_vtk(str(ref / f"fields_{i:06d}.vtk"), spaces, states[i])

    out = tmp_path / "cli"
    assert (sorted(p.name for p in out.iterdir())
            == sorted([p.name for p in ref.iterdir()] + ["constants.json"]))
    for p in ref.iterdir():
        assert (out / p.name).read_bytes() == p.read_bytes(), p.name


def test_failed_run_keeps_every_finished_step_on_disk(tmp_path, capsys,
                                                      monkeypatch):
    assert cli.main(["run", "--config",
                     str(_streamed_cavity(tmp_path, "whole"))]) == 0
    real_step = solver.step

    def failing_step(*args, t_next=None, **kwargs):
        if abs(t_next - 0.3) < 1e-12:
            raise solver.SolverError("velocity/head stage: induced failure")
        return real_step(*args, t_next=t_next, **kwargs)

    monkeypatch.setattr(solver, "step", failing_step)
    cfg = _streamed_cavity(tmp_path, "failed")
    assert cli.main(["run", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR: solver: step 3 (t=0.3): velocity/head stage")

    out, whole = tmp_path / "failed", tmp_path / "whole"
    # the header and the rows of steps 1 and 2, as a whole run writes them
    assert read_lines(out / "diagnostics.csv") == read_lines(
        whole / "diagnostics.csv")[:3]
    assert sorted(p.name for p in out.iterdir()) == [
        "constants.json", "diagnostics.csv", "fields_000000.vtk",
        "fields_000002.vtk"]
    for name in ("constants.json", "fields_000000.vtk", "fields_000002.vtk"):
        assert (out / name).read_bytes() == (whole / name).read_bytes()


# ---------------------------------------------------------------------------
# study subcommands


def test_check_forms_runs_without_config(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["check-forms", "--trials", "5"]) == 0
    lines = read_lines(tmp_path / "report_check-forms.csv")
    assert lines[0] == "name,worst,tol,passed"
    assert len(lines) > 5
    assert all(l.endswith("True") for l in lines[1:])
    assert "check-forms: PASS" in capsys.readouterr().out


def test_check_forms_zero_trials(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["check-forms", "--trials", "0"]) == 0
    assert read_lines(tmp_path / "report_check-forms.csv") == [
        "name,worst,tol,passed"]


def test_estimate_constants_artifacts(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert cli.main(["estimate-constants", "--config", str(cfg)]) == 0
    consts = json.loads((tmp_path / "out" / "constants.json").read_text())
    assert consts["source"] == "estimated"
    assert 0 < consts["c1"] < 1 and 0 < consts["c1_prime"] < 1
    lines = read_lines(tmp_path / "out" / "report_estimate-constants.csv")
    assert lines[0] == "c1,c1_prime,d"
    vals = [float(v) for v in lines[1].split(",")]
    assert vals[0] == pytest.approx(consts["c1"])


def test_estimate_constants_at_n32(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, mesh={"nx": 32, "ny": 32})
    assert cli.main(["estimate-constants", "--config", str(cfg)]) == 0
    consts = json.loads((tmp_path / "out" / "constants.json").read_text())
    assert consts["source"] == "estimated"
    assert consts["c1"] == pytest.approx(0.9748256, abs=1e-6)
    assert consts["c1_prime"] == pytest.approx(0.711641, abs=1e-6)


def _no_arpack_convergence(*args, **kwargs):
    raise spla.ArpackNoConvergence("ARPACK error -1: No convergence",
                                   np.empty(0), np.empty((0, 0)))


@pytest.mark.parametrize("n, eigsh, message", [
    (1, spla.eigsh, "no discretely divergence-free"),
    (4, _no_arpack_convergence, "constants eigensolve: ARPACK error -1")])
def test_estimate_constants_failure_exits_3(tmp_path, capsys, monkeypatch,
                                            n, eigsh, message):
    monkeypatch.setattr(spla, "eigsh", eigsh)
    cfg = tmp_path / "cfg.json"
    write_config(cfg, mesh={"nx": n, "ny": n})
    assert cli.main(["estimate-constants", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR: numeric: {message}")
    assert "Traceback" not in err


def test_contract_zero_problem_passes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, mesh={"nx": 4, "ny": 4},
                 time={"dt": 0.05, "t_end": 0.15})
    assert cli.main(["contract", "--config", str(cfg)]) == 0
    lines = read_lines(tmp_path / "out" / "report_contract.csv")
    assert lines[0].startswith("# D(t)")
    assert lines[1] == "t,distance,gronwall_bound,growth,re_plus_ra"
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) > 0  # seeded perturbation distance
    assert first[3] == "" and first[4] == ""  # no growth data at t=0
    assert len(lines) == 2 + 4
    assert "contract: PASS" in capsys.readouterr().out


def test_contract_seed_changes_direction_not_verdict(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, mesh={"nx": 4, "ny": 4},
                 time={"dt": 0.05, "t_end": 0.1})
    assert cli.main(["contract", "--config", str(cfg), "--seed", "42"]) == 0
    first = (tmp_path / "out" / "report_contract.csv").read_bytes()
    assert cli.main(["contract", "--config", str(cfg), "--seed", "7"]) == 0
    second = (tmp_path / "out" / "report_contract.csv").read_bytes()
    assert first != second  # different perturbation direction


def test_mms_passes_buoyancy_sign_flag(tmp_path, monkeypatch):
    signs = []
    make = oracles.make_mms_problem

    def spy(*args, **kwargs):
        problem = make(*args, **kwargs)
        signs.append(problem.buoyancy_sign)
        return problem

    monkeypatch.setattr(oracles, "make_mms_problem", spy)
    cfg = tmp_path / "cfg.json"
    write_config(cfg, physics={"buoyancy_sign_flag": -1},
                 study={"levels": 3, "base_n": 2},
                 time={"dt": 0.05, "t_end": 0.1})
    assert cli.main(["mms", "--config", str(cfg)]) in (0, 4)
    assert signs == [-1.0]


def test_cauchy_zero_problem_reports_zero_distance_as_exit_4(tmp_path, capsys):
    # the default zero problem gives every level the same trajectory, so
    # each pair distance is 0 and no ratio is defined
    cfg = tmp_path / "cfg.json"
    write_config(cfg, study={"levels": 3, "base_n": 2},
                 time={"dt": 0.05, "t_end": 0.1})
    assert cli.main(["cauchy", "--config", str(cfg)]) == 4
    out = capsys.readouterr().out
    assert ("ERROR: verification: cauchy: velocity pair 0: coarser distance "
            "is 0, ratio undefined") in out
    lines = read_lines(tmp_path / "out" / "report_cauchy.csv")
    assert lines == ["pair,e_velocity,e_temperature,ratio_velocity,"
                     "ratio_temperature", "0,0,0,,", "1,0,0,nan,nan"]


def test_mms_small_study_reports_failures_as_exit_4(tmp_path, capsys):
    # two coarse levels with a huge dt: rate targets cannot be met, the
    # command must say so and exit 4 rather than raise
    cfg = tmp_path / "cfg.json"
    write_config(cfg, study={"levels": 3, "base_n": 2},
                 time={"dt": 0.05, "t_end": 0.1})
    code = cli.main(["mms", "--config", str(cfg)])
    out = capsys.readouterr().out
    lines = read_lines(tmp_path / "out" / "report_mms.csv")
    assert lines[0].startswith("level,n,h,")
    assert len(lines) == 4
    if code == 4:
        assert "ERROR: verification: mms:" in out
    else:
        assert code == 0
