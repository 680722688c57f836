"""Exit codes, config validation, and on-disk artifact formats."""

import json

import numpy as np
import pytest

from bgs import cli, oracles


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


def test_negative_seed_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert cli.main(["run", "--config", str(cfg), "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


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
    assert row[11] == "2"

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
