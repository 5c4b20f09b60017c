"""JSON config parsing and the four CLI workflows (exit codes, CSV, JSON)."""

import ast
import contextlib
import csv
import hashlib
import inspect
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import prestress_tube
from prestress_tube import config, driver, find_opening_angle, maxwell
from prestress_tube.cli import FLOAT_FMT, _parser, _write_csv, main
from prestress_tube.errors import (ConfigError, DomainError, NonPositiveDeterminant,
                                   NonPositiveStretch, SingularTensor)
from prestress_tube.tube import (N_QUAD, NEWTON_MAXIT, NEWTON_TOL, solve_inverse_sf,
                                 solve_load_free)

from conftest import equilibrate_opened
from reference import OpeningMap

MEDIA_BLOCK = {"c1_kpa": 3.0, "c2_kpa": 2.0, "k1_kpa": 2.3632, "k2": 0.8393,
               "beta_deg": 29.0}
ADV_BLOCK = {"c1_kpa": 0.3, "c2_kpa": 0.2, "k1_kpa": 0.562, "k2": 0.7112,
             "beta_deg": 62.0}
MEDIA_SECTOR_BLOCK = {"R_i_mm": 1.0, "R_o_mm": 1.4, "L_mm": 1.0, "alpha_deg": 160.0}
ADV_SECTOR_BLOCK = {"R_i_mm": 1.5, "R_o_mm": 1.8, "L_mm": 1.0, "alpha_deg": 140.0}
VISC_BLOCK = {"mu_matrix_kpa": 5.0, "eta_matrix_kpa_s": 0.5, "k1_visc_kpa": 5.3,
              "k2_visc": 0.8393, "eta_fibre_kpa_s": 0.53}

IDENT = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
# the summary's keys (bench/inputs.py and bench/oracles.py read them)
SUMMARY_KEYS = {"workflow", "converged", "iterations", "residuals", "key_results", "csv"}
TUBE_RESIDUALS = {"p_net_kpa", "F_red_kpa_mm2"}
S = 1.3 ** -0.5
F_STRETCH = [[S, 0.0, 0.0], [0.0, S, 0.0], [0.0, 0.0, 1.3]]


def inverse_config():
    return {
        "workflow": "inverse-sf",
        "geometry": {"r_i_mm": 0.71, "r_interface_mm": 0.97, "r_o_mm": 1.1,
                     "l_mm": 3.0, "alpha_deg": 160.0},
        "media": dict(MEDIA_BLOCK),
        "adventitia": dict(ADV_BLOCK),
    }


def load_free_config():
    return {
        "workflow": "load-free",
        "media": dict(MEDIA_BLOCK, sector=dict(MEDIA_SECTOR_BLOCK)),
        "adventitia": dict(ADV_BLOCK, sector=dict(ADV_SECTOR_BLOCK)),
    }


def scan_config():
    cfg = load_free_config()
    cfg["workflow"] = "energy-scan"
    return cfg


def failing_load_free_config():
    """A one-layer load-free wall whose Newton fails by itself: stiff fibres (k2 20)
    in a thick sector opened 210 deg end at its iteration limit, |res| = 7.524e+04."""
    block = {"c1_kpa": 3.0, "c2_kpa": 0.0, "k1_kpa": 2.0, "k2": 20.0, "beta_deg": 0.0}
    return {"workflow": "load-free", "media": dict(block, sector={
        "R_i_mm": 1.0, "R_o_mm": 2.1, "L_mm": 1.0, "alpha_deg": 210.0})}


def point_config():
    return {
        "workflow": "point-test",
        "material": dict(MEDIA_BLOCK, **VISC_BLOCK),
        "f0": IDENT,
        "program": {"dt_s": 0.002,
                    "keyframes": [[0.0, IDENT], [0.1, F_STRETCH], [0.6, F_STRETCH]]},
    }


def opening_map_point_config():
    """point_config with its F0 from an opening map instead of a matrix."""
    cfg = point_config()
    del cfg["f0"]
    cfg["f0_opening_map"] = {"k": 1.8, "c": 1.1, "ri_mm": 0.71, "Ri_mm": 1.39, "r_mm": 0.9}
    return cfg


WORKFLOW_CONFIGS = [("inverse-sf", inverse_config), ("load-free", load_free_config),
                    ("energy-scan", scan_config), ("point-test", point_config)]


def write_config(tmp_path, cfg, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def run_cli(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def fresh_process_env():
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(prestress_tube.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def read_csv(path):
    lines = path.read_text().splitlines()
    comment, header = lines[0], lines[1].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    return comment, header, data


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_missing_field_is_named():
    cfg = inverse_config()
    del cfg["geometry"]["r_i_mm"]
    with pytest.raises(ConfigError, match=r"geometry\.r_i_mm"):
        config.parse_tube(cfg["geometry"], "geometry", 2)


def test_non_numeric_field_rejected():
    with pytest.raises(ConfigError, match="must be a number"):
        config.parse_sector({"R_i_mm": "one", "R_o_mm": 1.4, "L_mm": 1.0,
                             "alpha_deg": 160.0}, "sector")


def test_parse_layer_equilibrium_only():
    layer = config.parse_layer(dict(MEDIA_BLOCK), "media")
    assert layer.iso_maxwell is None
    assert layer.fibre_maxwell == ()
    assert layer.sector is None


def test_parse_layer_maxwell_needs_all_constants():
    block = dict(MEDIA_BLOCK, mu_matrix_kpa=5.0)
    with pytest.raises(ConfigError, match="eta_matrix_kpa_s"):
        config.parse_layer(block, "media")
    layer = config.parse_layer(dict(MEDIA_BLOCK, **VISC_BLOCK), "media")
    assert layer.iso_maxwell is not None
    assert len(layer.fibre_maxwell) == 2


def test_parse_f0_matrix_and_opening_map():
    f0 = config.parse_f0({"f0": IDENT})
    assert_allclose(f0.F0, np.eye(3))
    m = {"k": 1.8, "c": 1.1, "ri_mm": 0.71, "Ri_mm": 1.39, "r_mm": 0.9}
    f0m = config.parse_f0({"f0_opening_map": m})
    expect = OpeningMap(k=1.8, c=1.1, ri=0.71, Ri=1.39).F0(0.9)
    assert_allclose(f0m.F0, expect, rtol=1e-14)
    with pytest.raises(ConfigError, match="f0"):
        config.parse_f0({})
    with pytest.raises(ConfigError):
        config.parse_f0({"f0": [[1.0, 0.0], [0.0, 1.0]]})
    with pytest.raises(ConfigError, match="unimodular"), np.errstate(invalid="ignore"):
        config.parse_f0({"f0": [[math.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]})
    # an inadmissible opening map is a config error naming the field
    # (r_mm = 0.3 with Ri_mm = 0.5 lies inside the hole the map leaves)
    for field, bad in (("k", {"k": 0.9}), ("c", {"c": 0.0}), ("c", {"c": -1.1}),
                       ("r_mm", {"r_mm": 0.0}), ("ri_mm", {"ri_mm": -0.71}),
                       ("r_mm", {"Ri_mm": 0.5, "r_mm": 0.3})):
        with pytest.raises(ConfigError, match=rf"f0_opening_map\.{field}"):
            config.parse_f0({"f0_opening_map": dict(m, **bad)})


def test_parse_program():
    cfg = point_config()
    prog = config.parse_program(cfg)
    assert prog.dt == pytest.approx(0.002)
    assert prog.t_end == pytest.approx(0.6)
    cfg["program"]["dt_s"] = "bogus"
    with pytest.raises(ConfigError, match=r'field "program\.dt_s" must be a number'):
        config.parse_program(cfg)
    with pytest.raises(ConfigError, match=r"keyframes\[0\]"):
        config.parse_program({"program": {"dt_s": 0.01, "keyframes": [[0.0]]}})
    nan_frame = [[math.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(ConfigError, match="det F"), np.errstate(invalid="ignore"):
        config.parse_program({"program": {"dt_s": 0.01,
                                          "keyframes": [[0.0, IDENT], [1.0, nan_frame]]}})


def test_parse_workflow_mismatch():
    with pytest.raises(ConfigError, match="does not match"):
        config.parse_workflow({"workflow": "load-free"}, "inverse-sf")
    with pytest.raises(ConfigError, match="does not match"):
        config.parse_workflow({"workflow": "banana"}, "inverse-sf")


# ---------------------------------------------------------------------------
# CLI: happy paths
# ---------------------------------------------------------------------------

def test_cli_inverse_sf(tmp_path, capsys):
    cfg_path = write_config(tmp_path, inverse_config())
    out = tmp_path / "profile.csv"
    rc, stdout, _ = run_cli(capsys, "inverse-sf", "--config", str(cfg_path),
                            "--out", str(out))
    assert rc == 0
    summary = json.loads(stdout)
    assert set(summary) == SUMMARY_KEYS | {"diagnostics"}
    assert set(summary["residuals"]) == TUBE_RESIDUALS
    assert summary["workflow"] == "inverse-sf"
    assert summary["converged"] is True
    key = summary["key_results"]
    assert key["Ri_mm"] == pytest.approx(1.3815, abs=2e-4)
    assert key["R_interface_mm"] == pytest.approx(1.6415, abs=2e-4)
    assert key["Ro_mm"] == pytest.approx(1.7829, abs=2e-4)
    assert key["L_mm"] == pytest.approx(3.0009, abs=2e-4)
    assert key["alpha_deg"] == pytest.approx(160.0)
    # the quadrature-refinement check is printed, outside key_results
    quad = summary["diagnostics"]["quad_check"]
    assert set(quad) == {"p_refine_change", "F_refine_change"}
    assert 0.0 <= quad["p_refine_change"] < 1e-10 and 0.0 <= quad["F_refine_change"] < 1e-10

    comment, header, data = read_csv(out)
    digest = hashlib.sha256(cfg_path.read_bytes()).hexdigest()
    assert comment == f"# prestress-tube 0.1.0 config_sha256={digest}"
    assert header == ["r_mm", "T_rr_kpa", "T_theta_kpa", "T_zz_kpa"]
    assert data[0, 0] == pytest.approx(0.71)
    assert data[-1, 0] == pytest.approx(1.1)
    assert abs(data[0, 1]) < 1e-12  # traction-free inner surface


def test_cli_load_free(tmp_path, capsys):
    cfg_path = write_config(tmp_path, load_free_config())
    out = tmp_path / "profile.csv"
    rc, stdout, _ = run_cli(capsys, "load-free", "--config", str(cfg_path),
                            "--out", str(out))
    assert rc == 0
    summary = json.loads(stdout)
    assert set(summary) == SUMMARY_KEYS | {"diagnostics"}
    assert set(summary["residuals"]) == TUBE_RESIDUALS
    assert 0.0 <= summary["diagnostics"]["quad_check"]["F_refine_change"] < 1e-10
    key = summary["key_results"]
    assert key["r_i_mm"] == pytest.approx(0.4740, abs=2e-4)
    assert key["r_interface_mm"] == pytest.approx(0.8687, abs=2e-4)
    assert key["r_o_mm"] == pytest.approx(1.1644, abs=2e-4)
    assert key["l_mm"] == pytest.approx(1.0063, abs=2e-4)


def test_cli_energy_scan_with_grid_block(tmp_path, capsys):
    cfg = scan_config()
    cfg["grid"] = {"start_deg": 118.0, "end_deg": 130.0, "step_deg": 2.0}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "curve.csv"
    rc, stdout, _ = run_cli(capsys, "energy-scan", "--config", str(cfg_path),
                            "--out", str(out))
    assert rc == 0
    key = json.loads(stdout)["key_results"]
    assert key["argmin_deg"] == pytest.approx(124.6, abs=0.3)
    assert key["e_min_microj"] == pytest.approx(0.029851, rel=1e-3)
    assert key["rho_interface_mm"] > 0.0
    assert key["l_open_mm"] > 0.0
    _, header, data = read_csv(out)
    assert header == ["alpha_deg", "E_microJ"]
    assert data.shape == (7, 2)
    assert_allclose(data[:, 0], np.arange(118.0, 131.0, 2.0))
    assert np.all(data[:, 1] >= key["e_min_microj"] - 1e-12)
    # the summary reports the returned state: Newton-converged, on the moment root
    summary = json.loads(stdout)
    assert set(summary) == SUMMARY_KEYS
    assert set(summary["residuals"]) == TUBE_RESIDUALS | {"moment_kpa_mm2"}
    assert summary["converged"] is True
    assert summary["iterations"] >= 1
    res, c1, ro = summary["residuals"], MEDIA_BLOCK["c1_kpa"], MEDIA_SECTOR_BLOCK["R_o_mm"]
    assert abs(res["p_net_kpa"]) < NEWTON_TOL * c1
    assert abs(res["F_red_kpa_mm2"]) < NEWTON_TOL * c1 * ro ** 2
    assert abs(res["moment_kpa_mm2"]) < 1e-6


def test_cli_energy_scan_to_the_last_admissible_angles(tmp_path, capsys):
    # every angle starts cold, so a grid that ends next to 360 deg converges
    cfg = scan_config()
    cfg["grid"] = {"start_deg": 300.0, "end_deg": 359.0, "step_deg": 0.5}
    cfg_path = write_config(tmp_path, cfg)
    rc, stdout, _ = run_cli(capsys, "energy-scan", "--config", str(cfg_path),
                            "--out", str(tmp_path / "x.csv"))
    assert rc == 0
    assert json.loads(stdout)["key_results"]["argmin_deg"] == 300.0


@pytest.mark.parametrize("grid, argv, field", [
    ({"step_deg": "two"}, [], "grid.step_deg"),
    ({"step_deg": 0.0}, [], "grid.step_deg"),
    ({"start_deg": 130.0, "end_deg": 120.0}, ["--out", "x.csv"], "grid.end_deg"),
    ({"start_deg": 300.0, "end_deg": 359.6, "step_deg": 1.0}, [], "grid.end_deg"),
    ({"start_deg": 300.0, "end_deg": 359.0, "step_deg": 100.0}, [], "grid.end_deg"),
    ({"start_deg": "bogus"}, ["--out", "x.csv"], 'field "grid.start_deg" must be a number'),
    ({"end_deg": "bogus"}, ["--out", "x.csv"], 'field "grid.end_deg" must be a number'),
    ({"step_deg": "bogus"}, ["--out", "x.csv"], 'field "grid.step_deg" must be a number'),
])
def test_cli_exit_1_bad_grid(tmp_path, capsys, monkeypatch, grid, argv, field):
    # named before anything is written, to the default path or to --out (argv)
    monkeypatch.chdir(tmp_path)
    cfg = scan_config()
    cfg["grid"] = grid
    cfg_path = write_config(tmp_path, cfg)
    rc, stdout, stderr = run_cli(capsys, "energy-scan", "--config", str(cfg_path), *argv)
    assert rc == 1
    assert stderr.startswith("config error:")
    assert field in stderr
    assert stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_cli_point_test(tmp_path, capsys):
    cfg_path = write_config(tmp_path, point_config())
    out = tmp_path / "trace.csv"
    rc, stdout, _ = run_cli(capsys, "point-test", "--config", str(cfg_path),
                            "--out", str(out))
    assert rc == 0
    key = json.loads(stdout)["key_results"]
    assert key["steps"] == 300
    assert key["peak_overstress_kpa"] > 0.1
    assert key["final_overstress_kpa"] < key["peak_overstress_kpa"]
    comment, header, data = read_csv(out)
    assert header[0] == "t_s"
    assert header[-1] == "overstress_kpa"
    assert data.shape[0] == 301
    # the summary reports the driver's own check: max |det Ci - 1| over the trace
    summary = json.loads(stdout)
    assert set(summary) == SUMMARY_KEYS
    assert set(summary["residuals"]) == {"det_ci_max_dev", "fibre_r_max"}
    assert 0.0 <= summary["residuals"]["det_ci_max_dev"] < 1e-10
    # and what the fibre local solves did
    assert summary["converged"] is True
    assert 1 <= summary["iterations"] <= maxwell.NEWTON_MAXIT
    assert 0.0 <= summary["residuals"]["fibre_r_max"] < maxwell.NEWTON_TOL
    # numbers are written with 12 significant digits
    first_line = out.read_text().splitlines()[2]
    for tok in first_line.split(","):
        digits = tok.replace("-", "").replace("+", "").replace(".", "").lstrip("0")
        assert len(digits.split("e")[0]) <= 12


def test_cli_point_test_exit_2_when_not_converged(tmp_path, capsys, monkeypatch):
    # one 1e4 s step to a hoop stretch of 1.5: the fibre Newton stops moving at
    # |r| = 2.35e-11 > NEWTON_TOL; the step is far too long for the dt check,
    # which is switched off here to reach that local solve
    lam = 1.5
    f = [[lam ** -0.5, 0.0, 0.0], [0.0, lam, 0.0], [0.0, 0.0, lam ** -0.5]]
    fib = maxwell.FibreMaxwellParams(5.3, 0.8393, 0.53, np.array([0.0, 1.0, 0.0]))
    assert maxwell.fibre_evolve((lam,), 1.0, (1e4,), fib)[2] > maxwell.NEWTON_TOL
    cfg = point_config()
    cfg["material"]["beta_deg"] = 0.0
    cfg["program"] = {"dt_s": 1e4, "keyframes": [[0.0, IDENT], [1e4, f]]}
    monkeypatch.setattr(driver, "MIN_STEPS_PER_TAU", 1e-12)
    rc, stdout, _ = run_cli(capsys, "point-test", "--config", str(write_config(tmp_path, cfg)),
                            "--out", str(tmp_path / "x.csv"))
    summary = json.loads(stdout)
    assert summary["converged"] is False
    assert summary["residuals"]["fibre_r_max"] == pytest.approx(2.35e-11, rel=0.01)
    # the summary names the local solve that ended above its tolerance, and its |r|
    assert re.fullmatch(r"fibre stretch update ended at \|r\| = 2\.3[45]\de-11 > "
                        r"maxwell\.NEWTON_TOL = 1e-12", summary["error"])
    assert rc == 2


def test_csv_writer_matches_csv_module(tmp_path):
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, (50, 4))
    rows[:4] = [[0.0, -0.0, 5e-324, -1.7976931348623157e308],
                [1e-310, 123456789012345.6, 0.1, 1.0 / 3.0],
                [1e21, -1e-5, 1e16, 2.5],
                [-0.0, 0.0, 1e-7, 999999999999.5]]
    header = ["a", "b_kpa", "c", "d"]
    _write_csv(str(tmp_path / "new.csv"), header, rows, "abc")
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        fh.write("# prestress-tube 0.1.0 config_sha256=abc\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([FLOAT_FMT % float(v) for v in row])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    # lists of tuples (the energy curve) and an empty table
    _write_csv(str(tmp_path / "list.csv"), header, [tuple(r) for r in rows], "abc")
    assert (tmp_path / "list.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    _write_csv(str(tmp_path / "empty.csv"), header, [], "abc")
    assert (tmp_path / "empty.csv").read_text().splitlines()[1:] == [",".join(header)]


def test_csv_writer_overwrites_and_trims(tmp_path):
    # a write over an existing longer or shorter file leaves the bytes a write into
    # a new path leaves: the old file's tail beyond the new length is cut
    header, rows = ["a", "b_kpa"], np.arange(60.0).reshape(30, 2) / 7.0
    _write_csv(str(tmp_path / "new.csv"), header, rows, "abc")
    want = (tmp_path / "new.csv").read_bytes()
    for old in (b"x" * (3 * len(want)), b"y" * (len(want) // 3), b""):
        (tmp_path / "old.csv").write_bytes(old)
        _write_csv(str(tmp_path / "old.csv"), header, rows, "abc")
        assert (tmp_path / "old.csv").read_bytes() == want


def test_csv_writer_file_modes(tmp_path):
    # a new file gets 0o666 & ~umask, as open(path, "w") gives it; an existing file keeps its mode
    def mode(name):
        return stat.S_IMODE(os.stat(tmp_path / name).st_mode)
    previous = os.umask(0o027)
    try:
        _write_csv(str(tmp_path / "new.csv"), ["a"], [[1.0]], "abc")
        with open(tmp_path / "ref.csv", "w"):
            pass
    finally:
        os.umask(previous)
    assert mode("new.csv") == mode("ref.csv") == 0o640
    (tmp_path / "new.csv").chmod(0o604)
    _write_csv(str(tmp_path / "new.csv"), ["a"], [[1.0], [2.0]], "abc")
    assert mode("new.csv") == 0o604


@pytest.mark.parametrize("workflow, make_config", WORKFLOW_CONFIGS)
def test_cli_writes_to_dev_null(tmp_path, capsys, workflow, make_config):
    # a character device takes the CSV without the trim a regular file gets
    rc, stdout, stderr = run_cli(capsys, workflow, "--config",
                                 str(write_config(tmp_path, make_config())), "--out", os.devnull)
    assert (rc, stderr) == (0, "")
    assert json.loads(stdout)["csv"] == os.devnull


def test_cli_parser_is_built_once():
    assert _parser() is _parser()


def test_cli_csv_is_deterministic(tmp_path, capsys):
    cfg_path = write_config(tmp_path, point_config())
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(capsys, "point-test", "--config", str(cfg_path), "--out", str(out1))[0] == 0
    assert run_cli(capsys, "point-test", "--config", str(cfg_path), "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


# flags for run parameters, which only the config file sets
REMOVED_FLAGS = (["--tol", "1e-9"], ["--grid-start", "10"], ["--grid-end", "20"],
                 ["--grid-step", "1"], ["--dt", "0.001"])


@pytest.mark.parametrize("workflow, make_config", WORKFLOW_CONFIGS)
def test_cli_csv_header_hash_identifies_the_run(tmp_path, capsys, monkeypatch, workflow,
                                                make_config):
    # every run parameter comes from the config file whose SHA-256 heads the CSV: the
    # same file writes the same bytes, and neither a flag nor an "output" field is a
    # second way in (each exits 1 before anything is written)
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path, make_config())
    digest = hashlib.sha256(cfg_path.read_bytes()).hexdigest()
    for name in ("a.csv", "b.csv"):
        assert run_cli(capsys, workflow, "--config", str(cfg_path), "--out", name)[0] == 0
    first = (tmp_path / "a.csv").read_bytes()
    assert first == (tmp_path / "b.csv").read_bytes()
    assert first.split(b"\n")[0].decode() == (f"# prestress-tube {prestress_tube.__version__} "
                                              f"config_sha256={digest}")
    for flag in REMOVED_FLAGS:
        with pytest.raises(SystemExit) as exc:
            main([workflow, "--config", str(cfg_path), "--out", "c.csv", *flag])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (1, "")
        assert f"unrecognized arguments: {' '.join(flag)}" in err
    with_output = write_config(tmp_path, dict(make_config(), output="c.csv"), "output.json")
    rc, stdout, stderr = run_cli(capsys, workflow, "--config", str(with_output))
    assert (rc, stdout, stderr) == (1, "", 'config error: unknown field "output"\n')
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv", "output.json",
                                                         "run.json"]


def test_cli_default_output_path(tmp_path, capsys, monkeypatch):
    # without --out the CSV goes to <workflow>.csv in the working directory
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path, point_config())
    rc, stdout, _ = run_cli(capsys, "point-test", "--config", str(cfg_path))
    assert rc == 0
    assert (tmp_path / "point_test.csv").exists()
    assert json.loads(stdout)["csv"] == "point_test.csv"


def test_cli_inverse_single_layer_no_opening(tmp_path, capsys):
    cfg = {
        "workflow": "inverse-sf",
        "geometry": {"r_i_mm": 0.8, "r_o_mm": 1.2, "l_mm": 2.0, "alpha_deg": 0.0},
        "media": dict(MEDIA_BLOCK),
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "p.csv"
    rc, stdout, _ = run_cli(capsys, "inverse-sf", "--config", str(cfg_path),
                            "--out", str(out))
    assert rc == 0
    key = json.loads(stdout)["key_results"]
    assert key["Ri_mm"] == pytest.approx(0.8, abs=1e-8)
    assert key["Ro_mm"] == pytest.approx(1.2, abs=1e-8)
    assert key["L_mm"] == pytest.approx(2.0, abs=1e-8)
    assert "R_interface_mm" not in key


@pytest.mark.parametrize("workflow, make_config, keys", [
    ("inverse-sf", inverse_config, {"Ri_mm", "R_interface_mm", "Ro_mm", "L_mm", "alpha_deg"}),
    ("load-free", load_free_config, {"r_i_mm", "r_interface_mm", "r_o_mm", "l_mm"}),
])
@pytest.mark.parametrize("n_layers", [1, 2])
def test_cli_radius_key_results_follow_the_layer_count(tmp_path, capsys, workflow, make_config,
                                                       keys, n_layers):
    # one interface radius key per boundary between layers, in the config and the results
    cfg = make_config()
    if n_layers == 1:
        del cfg["adventitia"]
        cfg.get("geometry", {}).pop("r_interface_mm", None)
        keys = {key for key in keys if "interface" not in key}
    rc, stdout, _ = run_cli(capsys, workflow, "--config", str(write_config(tmp_path, cfg)),
                            "--out", str(tmp_path / "x.csv"))
    assert rc == 0
    assert set(json.loads(stdout)["key_results"]) == keys


# ---------------------------------------------------------------------------
# CLI: failure modes
# ---------------------------------------------------------------------------

def test_cli_exit_1_missing_field(tmp_path, capsys):
    cfg = inverse_config()
    del cfg["geometry"]["l_mm"]
    cfg_path = write_config(tmp_path, cfg)
    rc, stdout, stderr = run_cli(capsys, "inverse-sf", "--config", str(cfg_path),
                                 "--out", str(tmp_path / "x.csv"))
    assert rc == 1
    assert "geometry.l_mm" in stderr
    assert stdout == ""


def test_cli_exit_1_unreadable_config(tmp_path, capsys):
    rc, _, stderr = run_cli(capsys, "inverse-sf", "--config",
                            str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.csv"))
    assert rc == 1
    assert "cannot read config" in stderr


@pytest.mark.parametrize("target", ["missing-directory", "existing-directory"])
@pytest.mark.parametrize("workflow, make_config", WORKFLOW_CONFIGS)
def test_cli_exit_1_unwritable_output(tmp_path, capsys, workflow, make_config, target):
    # the --out path cannot be opened for writing: one "config error:" line, exit 1
    # and nothing on stdout, not a traceback
    out = tmp_path / "nowhere" / "x.csv" if target == "missing-directory" else tmp_path
    rc, stdout, stderr = run_cli(capsys, workflow, "--config",
                                 str(write_config(tmp_path, make_config())), "--out", str(out))
    assert (rc, stdout) == (1, "")
    assert stderr.startswith(f"config error: cannot write output file {out}: ")
    assert stderr.count("\n") == 1


@pytest.mark.parametrize("argv, output, message", [
    (["--out", ""], None, "config error: --out must be a non-empty path"),
    ([], "", 'config error: unknown field "output"'),
    (["--out", "x.csv"], "", 'config error: unknown field "output"'),
    (["--out", "x.csv"], 3, 'config error: unknown field "output"'),
], ids=["empty-out", "empty-output", "empty-output-under-out", "number-output"])
def test_cli_exit_1_empty_output_path(tmp_path, capsys, monkeypatch, argv, output, message):
    # an empty --out is an error, not the default path; the output path has no config
    # field, so an "output" in the config, empty or not, is an unknown field
    monkeypatch.chdir(tmp_path)
    cfg = point_config() if output is None else dict(point_config(), output=output)
    rc, stdout, stderr = run_cli(capsys, "point-test", "--config",
                                 str(write_config(tmp_path, cfg)), *argv)
    assert (rc, stdout) == (1, "")
    assert stderr.startswith(message)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_cli_exit_1_bad_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"workflow": "inverse-sf",')
    rc, _, stderr = run_cli(capsys, "inverse-sf", "--config", str(p),
                            "--out", str(tmp_path / "x.csv"))
    assert rc == 1
    assert "not valid JSON" in stderr


@pytest.mark.parametrize("text, message", [
    ("[]", "config root must be a JSON object"),
    ('"point-test"', "config root must be a JSON object"),
    ("3", "config root must be a JSON object"),
    *((json.dumps(dict(point_config(), program={"dt_s": 0.002, "keyframes": frames})),
       'field "program.keyframes" must be a non-empty list of [t_s, F] pairs')
      for frames in ([], {}, "x")),
], ids=["root-list", "root-string", "root-number", "keyframes-empty", "keyframes-object",
        "keyframes-string"])
def test_cli_exit_1_on_a_root_or_keyframes_of_the_wrong_kind(tmp_path, capsys, text, message):
    p = tmp_path / "run.json"
    p.write_text(text)
    rc, stdout, stderr = run_cli(capsys, "point-test", "--config", str(p),
                                 "--out", str(tmp_path / "x.csv"))
    assert (rc, stdout, stderr) == (1, "", f"config error: {message}\n")
    assert not (tmp_path / "x.csv").exists()


def test_cli_exit_1_workflow_mismatch(tmp_path, capsys):
    cfg_path = write_config(tmp_path, inverse_config())
    rc, _, stderr = run_cli(capsys, "load-free", "--config", str(cfg_path),
                            "--out", str(tmp_path / "x.csv"))
    assert rc == 1
    assert "does not match" in stderr


def test_cli_exit_1_bad_opening_map(tmp_path, capsys):
    for field, bad in (("k", {"k": 0.5}), ("r_mm", {"Ri_mm": 0.5, "r_mm": 0.3})):
        cfg = point_config()
        del cfg["f0"]
        cfg["f0_opening_map"] = dict({"k": 1.8, "c": 1.1, "ri_mm": 0.71, "Ri_mm": 1.39,
                                      "r_mm": 0.9}, **bad)
        cfg_path = write_config(tmp_path, cfg)
        rc, stdout, stderr = run_cli(capsys, "point-test", "--config", str(cfg_path),
                                     "--out", str(tmp_path / "x.csv"))
        assert rc == 1
        assert stderr.startswith("config error:")
        assert f"f0_opening_map.{field}" in stderr
        assert stdout == ""


def test_cli_exit_1_opening_angle_out_of_range(tmp_path, capsys):
    cfg = inverse_config()
    cfg["geometry"]["alpha_deg"] = 400.0
    cfg_path = write_config(tmp_path, cfg)
    rc, _, stderr = run_cli(capsys, "inverse-sf", "--config", str(cfg_path),
                            "--out", str(tmp_path / "x.csv"))
    assert rc == 1
    assert "geometry.alpha_deg" in stderr


@pytest.mark.parametrize("argv, message", [
    (["inverse-sf", "--config"], "argument --config: expected one argument"),
    (["no-such-workflow", "--config", "{cfg}"], "invalid choice: 'no-such-workflow'"),
    (["inverse-sf"], "the following arguments are required: --config"),
    (["point-test", "--config", "{cfg}", "--tol", "1e-9"], "unrecognized arguments: --tol"),
])
def test_cli_usage_error_exits_1(tmp_path, capsys, argv, message):
    # a usage error is invalid input, exit 1; 2 means a numerical failure
    cfg_path = write_config(tmp_path, point_config())
    with pytest.raises(SystemExit) as exc:
        main([a.format(cfg=cfg_path) for a in argv])
    out, err = capsys.readouterr()
    assert exc.value.code == 1
    assert out == "" and err.startswith("usage: prestress-tube") and message in err
    # help is no error
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "-h"] if argv[0] != "no-such-workflow" else ["-h"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: prestress-tube")


@pytest.mark.parametrize("workflow", ["inverse-sf", "load-free", "energy-scan"])
def test_cli_energy_scan_solver_block(tmp_path, capsys, workflow):
    # one solver block for every wall workflow: the Newton stops at tube.NEWTON_TOL
    # within NEWTON_MAXIT, so tol and max_iter are unknown fields ...
    make_config = dict(WORKFLOW_CONFIGS)[workflow]
    out = tmp_path / "x.csv"
    for key, value in (("tol", 1e-12), ("max_iter", 5)):
        cfg = make_config()
        cfg["solver"] = {key: value}
        rc, stdout, stderr = run_cli(capsys, workflow, "--config",
                                     str(write_config(tmp_path, cfg)), "--out", str(out))
        assert (rc, stdout, stderr) == (1, "", f'config error: unknown field "solver.{key}"\n')
        assert not out.exists()
    # ... while quad_points sets the node count: of each tube solve ...
    cfg = make_config()
    cfg["solver"] = {"quad_points": 3}
    if workflow != "energy-scan":
        rc, stdout, _ = run_cli(capsys, workflow, "--config", str(write_config(tmp_path, cfg)),
                                "--out", str(out))
        assert rc == 0
        layers = config.parse_layers(cfg, need_sector=workflow == "load-free")
        if workflow == "inverse-sf":
            tube, alpha = config.parse_tube(cfg["geometry"], "geometry", len(layers))
            sol, default = (solve_inverse_sf(tube, alpha, layers, n) for n in (3, N_QUAD))
        else:
            sol, default = (solve_load_free(layers, n) for n in (3, N_QUAD))
        check = json.loads(stdout)["diagnostics"]["quad_check"]
        assert check == sol.report.quad_check != default.report.quad_check
        return
    # ... and of every energy evaluation
    cfg["grid"] = {"start_deg": 122.0, "end_deg": 126.0, "step_deg": 2.0}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "curve.csv"
    rc, _, _ = run_cli(capsys, "energy-scan", "--config", str(cfg_path), "--out", str(out))
    assert rc == 0
    layers = config.parse_layers(cfg, need_sector=True)
    _, _, data = read_csv(out)
    for a_deg, e in data:
        e3 = equilibrate_opened(layers, math.radians(a_deg), npts=3)[1]
        e32 = equilibrate_opened(layers, math.radians(a_deg))[1]
        assert e == pytest.approx(e3, rel=1e-11)
        assert e != pytest.approx(e32, rel=1e-9)


def test_wall_solvers_take_one_knob_the_solver_block_sets():
    # every wall solver's one defaulted parameter is npts, the one key parse_solver
    # returns: a solver option cannot come back on one workflow's side only
    for solver in (solve_inverse_sf, solve_load_free, find_opening_angle):
        params = inspect.signature(solver).parameters.values()
        assert [p.name for p in params if p.default is not p.empty] == ["npts"]
    assert config.parse_solver({"solver": {"quad_points": 7}}) == {"npts": 7}
    assert config.parse_solver({}) == {}


@pytest.mark.parametrize("solver, argv, field", [
    # tol and max_iter are unknown fields: no field sets the Newton's stop
    ({"tol": -1.0}, ["--out", "x.csv"], "solver.tol"),
    ({"tol": 0.0}, ["--out", "x.csv"], "solver.tol"),
    ({"tol": -math.inf}, ["--out", "x.csv"], "solver.tol"),
    ({"tol": math.nan}, [], "solver.tol"),
    ({"tol": math.inf}, [], "solver.tol"),
    ({"max_iter": True}, [], "solver.max_iter"),
    ({"quad_points": True}, [], "solver.quad_points"),
    ({"quad_points": 1}, ["--out", "x.csv"], "solver.quad_points"),
    ({"quad_points": "12"}, ["--out", "x.csv"], "solver.quad_points"),
    ({"quad_points": None}, [], "solver.quad_points"),   # null is no default either
])
def test_cli_exit_1_bad_solver_block(tmp_path, capsys, monkeypatch, solver, argv, field):
    # named before anything is written, to the default path or to --out (argv)
    monkeypatch.chdir(tmp_path)
    cfg = load_free_config()
    cfg["solver"] = solver
    cfg_path = write_config(tmp_path, cfg)
    rc, stdout, stderr = run_cli(capsys, "load-free", "--config", str(cfg_path), *argv)
    assert rc == 1
    assert stderr.startswith("config error:")
    assert field in stderr
    assert stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_cli_exit_1_unused_interface_radius(tmp_path, capsys):
    # a one-layer wall has no interface: the radius would be silently ignored
    cfg = inverse_config()
    del cfg["adventitia"]
    cfg_path = write_config(tmp_path, cfg)
    rc, stdout, stderr = run_cli(capsys, "inverse-sf", "--config", str(cfg_path),
                                 "--out", str(tmp_path / "x.csv"))
    assert rc == 1
    assert stderr.startswith("config error:")
    assert "geometry.r_interface_mm" in stderr
    assert stdout == ""


def test_cli_exit_2_nonconvergence(tmp_path, capsys):
    cfg_path = write_config(tmp_path, failing_load_free_config())
    rc, stdout, _ = run_cli(capsys, "load-free", "--config", str(cfg_path),
                            "--out", str(tmp_path / "x.csv"))
    assert rc == 2
    summary = json.loads(stdout)
    assert set(summary) == {"workflow", "converged", "error", "residuals", "last_iterate"}
    assert set(summary["residuals"]) == {"norm"}
    assert summary["converged"] is False
    assert len(summary["last_iterate"]) == 2
    assert summary["error"].startswith(f"no convergence in {NEWTON_MAXIT} Newton iterations")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("frames", [[[0.0, IDENT]], [[0.0, IDENT], [0.1, F_STRETCH]]])
@pytest.mark.parametrize("dt_s, argv", [(math.inf, ["--out", "x.csv"]),   # written as Infinity,
                                        (-math.inf, ["--out", "x.csv"]),  # -Infinity and NaN
                                        (math.nan, [])])
def test_cli_exit_1_non_finite_dt(tmp_path, capsys, monkeypatch, frames, dt_s, argv):
    # one keyframe leaves no keyframe spacing to trip over a bad dt; named before
    # anything is written, to the default path or to --out (argv)
    monkeypatch.chdir(tmp_path)
    cfg = point_config()
    cfg["program"] = {"dt_s": dt_s, "keyframes": frames}
    rc, stdout, stderr = run_cli(capsys, "point-test", "--config", str(write_config(tmp_path, cfg)),
                                 *argv)
    assert rc == 1
    assert stderr.startswith("config error:")
    assert "dt must be a finite number > 0" in stderr
    assert stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


@pytest.mark.parametrize("frames", [
    [[0.0, IDENT], [math.inf, F_STRETCH]],                    # written as Infinity
    [[0.0, IDENT], [0.1, F_STRETCH], [math.inf, F_STRETCH]],
    [[0.0, IDENT], [-math.inf, F_STRETCH]],
    [[-math.inf, IDENT], [0.1, F_STRETCH]],
])
def test_cli_exit_1_non_finite_keyframe_time(tmp_path, capsys, frames):
    cfg = point_config()
    cfg["program"]["keyframes"] = frames
    path = write_config(tmp_path, cfg)
    assert "Infinity" in path.read_text()
    rc, stdout, stderr = run_cli(capsys, "point-test", "--config", str(path),
                                 "--out", str(tmp_path / "x.csv"))
    assert rc == 1
    assert stderr.startswith('config error: invalid "program":')
    assert "finite" in stderr
    assert stdout == ""


TRUE_IDENT = [[True, False, False], [False, True, False], [False, False, True]]
STR_IDENT = [["1", "0", "0"], ["0", "1.0", "0"], ["0", "0", "1e0"]]


@pytest.mark.parametrize("path, value, field", [
    (("f0",), STR_IDENT, "f0[0][0]"),
    (("f0",), TRUE_IDENT, "f0[0][0]"),
    (("program", "keyframes", 1, 0), "0.1", "program.keyframes[1][0]"),
    (("program", "keyframes", 0, 0), False, "program.keyframes[0][0]"),
    (("program", "keyframes", 1, 1), STR_IDENT, "program.keyframes[1][1][0][0]"),
    (("program", "keyframes", 1, 1), TRUE_IDENT, "program.keyframes[1][1][0][0]"),
])
def test_cli_exit_1_matrix_entry_not_a_number(tmp_path, capsys, path, value, field):
    # numeric strings and booleans would convert to floats (the identity, 0.1, 0.0);
    # they are rejected as every scalar field rejects them
    cfg = point_config()
    *keys, last = path
    target = cfg
    for key in keys:
        target = target[key]
    target[last] = value
    rc, stdout, stderr = run_cli(capsys, "point-test", "--config",
                                 str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "x.csv"))
    assert rc == 1
    assert stderr.startswith(f'config error: field "{field}" must be a number')
    assert stdout == ""


def test_config_bounds_the_sizes_it_sets():
    # the Gauss rule, the angle grid and the point-test steps are bounded by the parser,
    # before a solver allocates them; each bound admits the bench's largest configs
    # (64 points, 12 angles, 160 steps)
    most = config.MAX_QUAD_POINTS
    assert config.parse_solver({"solver": {"quad_points": most}}) == {"npts": most}
    with pytest.raises(ConfigError, match=r"solver\.quad_points"):
        config.parse_solver({"solver": {"quad_points": most + 1}})
    # a 0.1 deg grid over the circle holds MAX_GRID_ANGLES angles, a finer one more
    grid = config.parse_grid({"grid": {"start_deg": 0.0, "end_deg": 359.9, "step_deg": 0.1}})
    assert np.arange(grid[0], grid[1] + 0.5 * grid[2], grid[2]).size == config.MAX_GRID_ANGLES
    with pytest.raises(ConfigError, match=r"grid\.step_deg"):
        config.parse_grid({"grid": {"start_deg": 0.0, "end_deg": 359.9, "step_deg": 0.09}})
    with pytest.raises(ConfigError, match=r"grid\.step_deg"):
        config.parse_grid({"grid": {"step_deg": 1e-6}})
    # t_end / dt steps
    cfg = {"program": {"dt_s": 1.0 / config.MAX_STEPS, "keyframes": [[0.0, IDENT], [1.0, IDENT]]}}
    assert config.parse_program(cfg).dt == 1.0 / config.MAX_STEPS
    cfg["program"]["dt_s"] = 0.5 / config.MAX_STEPS
    with pytest.raises(ConfigError, match=r'"program\.dt_s" makes'):
        config.parse_program(cfg)


@pytest.mark.parametrize("value", [math.nan, math.inf])      # written as NaN, Infinity
@pytest.mark.parametrize("workflow, field", [
    ("point-test", "material.c1_kpa"),
    ("point-test", "material.k2"),
    ("point-test", "material.eta_fibre_kpa_s"),
    ("point-test", "material.mu_matrix_kpa"),
    ("inverse-sf", "media.c1_kpa"),
    ("inverse-sf", "media.beta_deg"),
    ("energy-scan", "media.sector.L_mm"),
])
def test_cli_exit_1_non_finite_constant(tmp_path, capsys, workflow, field, value):
    cfg = {"point-test": point_config, "inverse-sf": inverse_config,
           "energy-scan": scan_config}[workflow]()
    *blocks, key = field.split(".")
    block = cfg
    for name in blocks:
        block = block[name]
    block[key] = value
    rc, stdout, stderr = run_cli(capsys, workflow, "--config", str(write_config(tmp_path, cfg)),
                                 "--out", str(tmp_path / "x.csv"))
    assert rc == 1
    assert stderr.startswith("config error:")
    assert stdout == ""


@pytest.mark.parametrize("field", ["f0_opening_map.k", "f0_opening_map.c",
                                   "f0_opening_map.r_mm", "F[0][0]", "F[2][2]", "f0[0][0]",
                                   "f0[1][2]"])
def test_cli_exit_1_non_finite_point_input(tmp_path, capsys, field):
    # an opening-map constant, a keyframe entry of Infinity (det F = inf > 0) or an F0 entry
    cfg = point_config()
    if field.startswith("F"):
        F = [row[:] for row in F_STRETCH]
        F[int(field[2])][int(field[5])] = math.inf
        cfg["program"]["keyframes"][1][1] = F
    elif field.startswith("f0["):
        cfg["f0"] = [row[:] for row in IDENT]
        cfg["f0"][int(field[3])][int(field[6])] = math.inf
    else:
        del cfg["f0"]
        cfg["f0_opening_map"] = {"k": 1.8, "c": 1.1, "ri_mm": 0.71, "Ri_mm": 1.39, "r_mm": 0.9}
        cfg["f0_opening_map"][field.split(".")[1]] = math.inf
    path = write_config(tmp_path, cfg)
    assert "Infinity" in path.read_text()
    rc, stdout, stderr = run_cli(capsys, "point-test", "--config", str(path),
                                 "--out", str(tmp_path / "x.csv"))
    assert rc == 1
    assert stderr.startswith("config error:")
    assert stdout == ""


def test_cli_exit_1_both_f0_fields(tmp_path, capsys):
    cfg = point_config()
    cfg["f0_opening_map"] = {"k": 1.8, "c": 1.1, "ri_mm": 0.71, "Ri_mm": 1.39, "r_mm": 0.9}
    rc, stdout, stderr = run_cli(capsys, "point-test", "--config", str(write_config(tmp_path, cfg)),
                                 "--out", str(tmp_path / "x.csv"))
    assert rc == 1
    assert stderr.startswith("config error:")
    assert stderr == 'config error: unknown field "f0_opening_map"\n'
    assert stdout == ""


UNKNOWN_FIELD_CASES = [
    ("solver", {"tolerance": 1e-12, "max_iterations": 40}, "solver.tolerance"),
    ("bogus_field", 1, "bogus_field"),
    ("geometry", dict(inverse_config()["geometry"], typo_kpa=1.0), "geometry.typo_kpa"),
    ("media", dict(MEDIA_BLOCK, sector=dict(MEDIA_SECTOR_BLOCK)), "media.sector"),
    ("program", point_config()["program"], "program"),
    ("grid", {"step_deg": "x"}, "grid"),
    ("media", dict(MEDIA_BLOCK, k1_visc_kpa=5.3), "media.k1_visc_kpa"),
]


@pytest.mark.parametrize("key, value, field", UNKNOWN_FIELD_CASES,
                         ids=[case[2] for case in UNKNOWN_FIELD_CASES])
def test_cli_exit_1_unknown_field(tmp_path, capsys, key, value, field):
    # a field no parser of the workflow reads is an error, found before the solve and
    # before the CSV is opened: an existing output file keeps its bytes
    cfg = dict(inverse_config(), **{key: value})
    out = tmp_path / "x.csv"
    out.write_bytes(b"previous run\n")
    rc, stdout, stderr = run_cli(capsys, "inverse-sf", "--config", str(write_config(tmp_path, cfg)),
                                 "--out", str(out))
    assert (rc, stdout) == (1, "")
    assert stderr == f'config error: unknown field "{field}"\n'
    assert out.read_bytes() == b"previous run\n"


@pytest.mark.parametrize("workflow, make_config", WORKFLOW_CONFIGS)
def test_cli_exit_1_unknown_field_in_every_workflow(tmp_path, capsys, workflow, make_config):
    # at the top level and inside each block the workflow reads
    cfg = make_config()
    blocks = [()] + [(key,) for key, v in cfg.items() if isinstance(v, dict)] + \
        [(key, "sector") for key, v in cfg.items() if isinstance(v, dict) and "sector" in v]
    for path in blocks:
        cfg = make_config()
        block = cfg
        for key in path:
            block = block[key]
        block["extra"] = 1.0
        rc, stdout, stderr = run_cli(capsys, workflow, "--config", str(write_config(tmp_path, cfg)),
                                     "--out", str(tmp_path / "x.csv"))
        assert (rc, stdout) == (1, "")
        assert stderr == f'config error: unknown field "{".".join(path + ("extra",))}"\n'


@pytest.mark.parametrize("text, key", [
    ('"solver": {"quad_points": 512, "quad_points": 16}', "quad_points"),
    ('"output": "a.csv", "output": "b.csv"', "output"),
])
def test_cli_exit_1_repeated_field(tmp_path, capsys, text, key):
    # JSON keeps the last of two equal keys; the parser names the key instead
    cfg_text = json.dumps(inverse_config())[:-1] + ", " + text + "}"
    path = tmp_path / "run.json"
    path.write_text(cfg_text)
    rc, stdout, stderr = run_cli(capsys, "inverse-sf", "--config", str(path),
                                 "--out", str(tmp_path / "x.csv"))
    assert (rc, stdout) == (1, "")
    assert stderr == f'config error: repeated field "{key}"\n'


@pytest.mark.parametrize("key", ["ri_mm", "Ri_mm"])
def test_cli_exit_1_on_opening_map_overflow(tmp_path, capsys, key):
    # an opening map whose F0 overflows a float is invalid input naming the block, and
    # not a radius "outside the layer": 1e308 squared is inf
    cfg = point_config()
    del cfg["f0"]
    cfg["f0_opening_map"] = {"k": 1.8, "c": 1.1, "ri_mm": 0.71, "Ri_mm": 1.39, "r_mm": 0.9}
    cfg["f0_opening_map"][key] = 1e308
    rc, stdout, stderr = run_cli(capsys, "point-test", "--config", str(write_config(tmp_path, cfg)),
                                 "--out", str(tmp_path / "x.csv"))
    assert (rc, stdout) == (1, "")
    assert stderr.startswith('config error: field "f0_opening_map" gives an F0 outside')
    assert "outside the layer" not in stderr


@pytest.mark.parametrize("workflow, block, key", [
    ("point-test", "material", "c1_kpa"),
    ("point-test", "material", "c2_kpa"),
    ("point-test", "material", "k2_visc"),
    ("point-test", "f0_opening_map", "k"),   # a finite F0 that overflows in the driver
    ("inverse-sf", "geometry", "r_o_mm"),
    ("load-free", "media", "k2"),
    ("energy-scan", "adventitia", "c1_kpa"),
])
def test_cli_exit_2_on_overflow(tmp_path, capsys, workflow, block, key):
    # a finite input that overflows a float is a numerical failure with its error
    # named, not a traceback, a warning or a converged run with a non-finite CSV
    cfg = dict(WORKFLOW_CONFIGS)[workflow]()
    if block == "f0_opening_map":
        del cfg["f0"]
        cfg[block] = {"k": 1.8, "c": 1.1, "ri_mm": 0.71, "Ri_mm": 1.39, "r_mm": 0.9}
    cfg[block][key] = 1e308
    rc, stdout, stderr = run_cli(capsys, workflow, "--config", str(write_config(tmp_path, cfg)),
                                 "--out", str(tmp_path / "x.csv"))
    summary = json.loads(stdout)
    assert (rc, stderr, summary["converged"]) == (2, "", False)
    # an overflow inside a wall solve's residual makes the line search back off, and
    # one at the solve's start names the start inadmissible
    assert summary["error"].startswith(("FloatingPointError:", "OverflowError:",
                                        "inadmissible start (non-finite residual)"))


def test_cli_exit_2_on_an_inadmissible_start(tmp_path, capsys):
    # a stiff media sector closed from 300 deg overflows its fibre exponential at
    # the load-free solve's start: a numerical failure that names the start
    media = {"c1_kpa": 3.0, "c2_kpa": 0.0, "k1_kpa": 2.0, "k2": 60.0, "beta_deg": 0.0,
             "sector": {"R_i_mm": 1.0, "R_o_mm": 2.0, "L_mm": 1.0, "alpha_deg": 300.0}}
    cfg = {"workflow": "load-free", "media": media}
    rc, stdout, stderr = run_cli(capsys, "load-free", "--config", str(write_config(tmp_path, cfg)),
                                 "--out", str(tmp_path / "x.csv"))
    summary = json.loads(stdout)
    assert (rc, stderr, summary["converged"]) == (2, "", False)
    assert summary["error"] == "inadmissible start (non-finite residual)"
    assert_allclose(summary["last_iterate"], [0.2887, 1.0], atol=1e-4)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("k2, error", [
    (15.0, "line search stalled at |res| = "), (15.05, "inadmissible start (non-finite Jacobian)")])
def test_cli_exit_2_on_an_overflowing_jacobian(tmp_path, capsys, k2, error):
    # a stiff media sector closed from 320 deg whose residual is finite where its
    # complex-step Jacobian overflows, at a trial or at the start: a numerical failure
    # with its last iterate, not a floating-point error
    media = {"c1_kpa": 3.0, "c2_kpa": 0.0, "k1_kpa": 2.0, "k2": k2, "beta_deg": 0.0,
             "sector": {"R_i_mm": 1.0, "R_o_mm": 2.0, "L_mm": 1.0, "alpha_deg": 320.0}}
    cfg = {"workflow": "load-free", "media": media}
    rc, stdout, stderr = run_cli(capsys, "load-free", "--config", str(write_config(tmp_path, cfg)),
                                 "--out", str(tmp_path / "x.csv"))
    summary = json.loads(stdout)
    assert (rc, stderr, summary["converged"]) == (2, "", False)
    assert summary["error"].startswith(error)
    assert len(summary["last_iterate"]) == 2 and np.all(np.isfinite(summary["last_iterate"]))
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("text", [
    b'{"workflow": "inverse-sf", "output": "\xff.csv"}',             # not UTF-8
    b'{"workflow": "inverse-sf", "l_mm": 1' + b"0" * 5000 + b"}",   # past int()'s digit limit
], ids=["non-utf8-byte", "over-long-integer"])
def test_cli_exit_1_on_undecodable_config(tmp_path, text):
    # a config that json cannot turn into values is a config error, in a fresh
    # process as from the shell: one "config error:" line, not a traceback
    path = tmp_path / "run.json"
    path.write_bytes(text)
    proc = subprocess.run([sys.executable, "-m", "prestress_tube.cli", "inverse-sf", "--config",
                           str(path), "--out", str(tmp_path / "x.csv")],
                          capture_output=True, text=True, env=fresh_process_env(), timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("config error: config is not valid JSON: ")
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("workflow, field", [
    ("inverse-sf", "media.c1_kpa"),
    ("inverse-sf", "geometry.r_o_mm"),
    ("point-test", "f0[0][0]"),
    ("point-test", "program.keyframes[1][0]"),
    ("energy-scan", "grid.step_deg"),
])
def test_cli_exit_1_on_integer_beyond_float_range(tmp_path, capsys, workflow, field):
    # an integer literal past the float range, 10^400, is invalid input naming its
    # field, as 1e400 is; not an OverflowError exit 2
    cfg = dict(WORKFLOW_CONFIGS)[workflow]()
    big = 10 ** 400
    if field == "f0[0][0]":
        cfg["f0"] = [[big, 0.0, 0.0], IDENT[1], IDENT[2]]
    elif field.startswith("program"):
        cfg["program"]["keyframes"][1][0] = big
    else:
        block, key = field.split(".")
        cfg.setdefault(block, {})[key] = big
    rc, stdout, stderr = run_cli(capsys, workflow, "--config", str(write_config(tmp_path, cfg)),
                                 "--out", str(tmp_path / "x.csv"))
    assert (rc, stdout) == (1, "")
    assert stderr.startswith("config error:") and stderr.count("\n") == 1
    assert f'field "{field}" must be a finite number (got 401 digits)' in stderr


@pytest.mark.parametrize("value, message", [("one", "must be a number (got 'one')"),
                                            (10 ** 400, "must be a finite number (got 401 digits)")],
                         ids=["string", "401-digit-integer"])
@pytest.mark.parametrize("workflow, field", [("inverse-sf", "geometry.r_o_mm"),
                                             ("load-free", "media.sector.R_i_mm")])
def test_cli_field_error_in_a_built_block_has_one_prefix(tmp_path, capsys, workflow, field,
                                                         value, message):
    # a field error inside a geometry or a sector names the field once, with no
    # "invalid geometry"/"invalid sector" prefix around it
    cfg = dict(WORKFLOW_CONFIGS)[workflow]()
    *path, key = field.split(".")
    block = cfg
    for name in path:
        block = block[name]
    block[key] = value
    rc, stdout, stderr = run_cli(capsys, workflow, "--config", str(write_config(tmp_path, cfg)),
                                 "--out", str(tmp_path / "x.csv"))
    assert (rc, stdout) == (1, "")
    assert stderr == f'config error: field "{field}" {message}\n'


def test_cli_c1_zero_round_trip(tmp_path, capsys):
    # a matrix with c1 = 0 < c2 (Mooney-Rivlin admits it): inverse-sf, then load-free on
    # its sectors gives the tube back to 1e-13 (3.1e-14 measured)
    cfg = inverse_config()
    for name in ("media", "adventitia"):
        cfg[name]["c1_kpa"] = 0.0
    rc, stdout, _ = run_cli(capsys, "inverse-sf", "--config", str(write_config(tmp_path, cfg)),
                            "--out", str(tmp_path / "inverse.csv"))
    assert rc == 0
    key = json.loads(stdout)["key_results"]
    split = key["R_interface_mm"]
    sectors = {"media": (key["Ri_mm"], split), "adventitia": (split, key["Ro_mm"])}
    lf = {"workflow": "load-free"}
    for name, (lo, hi) in sectors.items():
        lf[name] = dict(cfg[name], sector={"R_i_mm": lo, "R_o_mm": hi, "L_mm": key["L_mm"],
                                           "alpha_deg": key["alpha_deg"]})
    rc, stdout, _ = run_cli(capsys, "load-free", "--config", str(write_config(tmp_path, lf)),
                            "--out", str(tmp_path / "load_free.csv"))
    assert rc == 0
    back = json.loads(stdout)["key_results"]
    geom = cfg["geometry"]
    for name in ("r_i_mm", "r_interface_mm", "r_o_mm", "l_mm"):
        assert back[name] == pytest.approx(geom[name], rel=1e-13)


def test_cli_point_test_config_hash_without_hashlib(tmp_path):
    # the CSV header carries the config's sha256; a fresh interpreter running
    # point-test never loads hashlib's OpenSSL backend for it
    cfg_path = write_config(tmp_path, point_config())
    out = tmp_path / "trace.csv"
    script = ("import sys\n"
              "from prestress_tube.cli import main\n"
              f"rc = main(['point-test', '--config', {str(cfg_path)!r}, '--out', {str(out)!r}])\n"
              "print(rc, '_hashlib' in sys.modules, 'hashlib' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=fresh_process_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False False"
    digest = hashlib.sha256(cfg_path.read_bytes()).hexdigest()
    assert read_csv(out)[0] == f"# prestress-tube 0.1.0 config_sha256={digest}"


def test_cli_exit_2_unresolvable_dt(tmp_path, capsys):
    cfg = point_config()
    cfg["program"]["dt_s"] = 0.5  # far above the fastest relaxation time / 10
    cfg_path = write_config(tmp_path, cfg)
    rc, stdout, _ = run_cli(capsys, "point-test", "--config", str(cfg_path),
                            "--out", str(tmp_path / "x.csv"))
    assert rc == 2
    summary = json.loads(stdout)
    assert set(summary) == {"workflow", "converged", "error", "residuals"}
    assert summary["residuals"] == {}
    assert summary["converged"] is False
    assert "DomainError" in summary["error"]


@pytest.mark.parametrize("error", [DomainError, SingularTensor, NonPositiveDeterminant,
                                   NonPositiveStretch])
def test_cli_exit_2_on_every_domain_error(tmp_path, capsys, monkeypatch, error):
    # the domain errors are one family: each, raised inside a workflow, is a
    # numerical failure named by its type, and no CSV is written
    def failing(*args, **kwargs):
        raise error("inadmissible")

    monkeypatch.setattr(prestress_tube.cli, "solve_load_free", failing)
    out = tmp_path / "x.csv"
    rc, stdout, _ = run_cli(capsys, "load-free", "--config",
                            str(write_config(tmp_path, load_free_config())), "--out", str(out))
    assert rc == 2
    summary = json.loads(stdout)
    assert summary["converged"] is False
    assert f"{error.__name__}: " in summary["error"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# dimensional oracles: every workflow through main, its inputs in scaled units
# ---------------------------------------------------------------------------

def _unit_factor(name: str, s: float, m: float, tau: float) -> float:
    """How a config field or an output of this name scales with lengths x s, moduli
    x m and times x tau, read off its unit suffix; a viscosity (kPa s) is a modulus
    times a time, an energy (microJ = kPa mm^3) a modulus times a volume."""
    name = name.lower()
    for suffix, factor in (("_kpa_s", m * tau), ("_kpa", m), ("_mm", s),
                           ("_microj", m * s ** 3), ("_s", tau)):
        if name.endswith(suffix):
            return factor
    return 1.0


def _scaled_config(cfg: dict, s: float, m: float, tau: float) -> dict:
    """cfg with every length, modulus, viscosity and time (dt and keyframe times) scaled."""
    out = {}
    for key, v in cfg.items():
        if isinstance(v, dict):
            out[key] = _scaled_config(v, s, m, tau)
        elif key == "keyframes":
            out[key] = [[t * tau, f] for t, f in v]
        elif isinstance(v, float):
            out[key] = v * _unit_factor(key, s, m, tau)
        else:
            out[key] = v
    return out


def _run_in(tmp, workflow, cfg):
    """main on cfg in tmp: (key_results, CSV header, CSV rows)."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main([workflow, "--config", str(write_config(tmp, cfg)),
                   "--out", str(tmp / "out.csv")])
    assert rc == 0, out.getvalue()
    _, header, data = read_csv(tmp / "out.csv")
    return json.loads(out.getvalue())["key_results"], header, data


@pytest.fixture(scope="module")
def scale_tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("scale")


@pytest.mark.parametrize("workflow, make_config",
                         WORKFLOW_CONFIGS[:3] + [("point-test", opening_map_point_config)])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(s=st.floats(-30.0, 30.0).map(lambda e: 10.0 ** e),
       m=st.floats(-30.0, 30.0).map(lambda e: 10.0 ** e),
       tau=st.floats(-30.0, 30.0).map(lambda e: 10.0 ** e))
def test_cli_results_scale_with_their_units(scale_tmp, workflow, make_config, s, m, tau):
    # lengths x s, moduli and viscosities x m, times, dt and viscosities x tau:
    # every result scales by its unit (radii by s, stresses by m, energies by
    # m s^3, point-test times by tau), and angles, stretches and det Ci stay.
    # The CSV holds 12 significant digits, so its columns are compared to
    # 1e-11 of their unit's largest value
    key0, header0, data0 = _run_in(scale_tmp, workflow, make_config())
    key, header, data = _run_in(scale_tmp, workflow, _scaled_config(make_config(), s, m, tau))
    assert set(key) == set(key0) and header == header0 and data.shape == data0.shape
    for name, v in key.items():
        if name.endswith("_deg"):
            assert abs(v - key0[name]) <= 1e-10
        else:
            assert v / _unit_factor(name, s, m, tau) == pytest.approx(key0[name], rel=1e-12)
    factors = np.array([_unit_factor(name, s, m, tau) for name in header])
    got = data / factors
    for f in set(factors.tolist()):
        cols = factors == f
        assert np.max(np.abs(got[:, cols] - data0[:, cols])) <= \
            1e-11 * np.max(np.abs(data0[:, cols]))


# ---------------------------------------------------------------------------
# the package holds only code its workflows run
# ---------------------------------------------------------------------------

def _package_definitions():
    """{(source path, first line): name} of every top-level function and class method
    of the package; the first line is that of the first decorator, as in the code
    object."""
    defs = {}
    for path in Path(prestress_tube.__file__).resolve().parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(fn, ast.FunctionDef):
                    line = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    owner = "" if fn is node else f"{node.name}."
                    defs[(str(path), line)] = f"{path.stem}.{owner}{fn.name}"
    return defs


def test_every_definition_is_reached_by_a_workflow(tmp_path, capsys):
    # one run of each workflow, point-test with its F0 from an opening map, and
    # a load-free wall stopped by its iteration limit enter every function and
    # method the package defines: none is there for the tests alone
    runs = [("inverse-sf", inverse_config()), ("load-free", load_free_config()),
            ("energy-scan", scan_config()), ("point-test", opening_map_point_config()),
            ("load-free", failing_load_free_config())]
    for name in [n for n in sys.modules if n.split(".")[0] == "prestress_tube"]:
        for obj in vars(sys.modules[name]).values():   # functools.cache'd helpers
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for i, (workflow, cfg) in enumerate(runs):
            codes.append(main([workflow, "--config", str(write_config(tmp_path, cfg, f"{i}.json")),
                               "--out", str(tmp_path / f"{i}.csv")]))
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0, 0, 0, 0, 2]
    entered = {(str(Path(f).resolve()), line) for f, line in entered if "prestress_tube" in f}
    assert sorted(name for key, name in _package_definitions().items() if key not in entered) == []


def test_every_exception_class_is_raised_by_the_package():
    # every class errors.py defines is named by a raise statement of the package:
    # none is there only for except clauses and imports to list
    package = Path(prestress_tube.__file__).resolve().parent
    classes = {node.name for node in ast.parse((package / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None))
    assert "NoConvergence" in classes and sorted(classes - raised) == []
