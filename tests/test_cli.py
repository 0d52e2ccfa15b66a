import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from infeig import cli, fieldio
from infeig.config import parse_config
from infeig.errors import ConfigError
from infeig.grid import Grid


def disk_config(tmp_path, h=1 / 24, **overrides):
    n_half = int(round(1.0 / h)) + 2
    n = 2 * n_half + 1
    raw = {
        "grid": {"nx": n, "ny": n, "h": h,
                 "origin": [-n_half * h, -n_half * h]},
        "domain": [{"shape": "disk", "center": [0.0, 0.0], "radius": 1.0}],
        "weight": {"kind": "regions", "background": 1.0},
        "p_list": [4],
        "solver": {"tol": 1e-4, "max_iter": 5000},
        "output_prefix": str(tmp_path / "out"),
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path, raw


class TestConfig:
    def test_unknown_top_level_key(self, tmp_path):
        _, raw = disk_config(tmp_path)
        raw["banana"] = 1
        with pytest.raises(ConfigError, match="banana"):
            parse_config(raw)

    def test_unknown_nested_key(self, tmp_path):
        _, raw = disk_config(tmp_path)
        raw["solver"] = {"tol": 1e-8, "momentum": 0.9}
        with pytest.raises(ConfigError, match="momentum"):
            parse_config(raw)

    def test_missing_required(self, tmp_path):
        _, raw = disk_config(tmp_path)
        del raw["domain"]
        with pytest.raises(ConfigError, match="domain"):
            parse_config(raw)

    def test_p_out_of_range(self, tmp_path):
        _, raw = disk_config(tmp_path)
        raw["p_list"] = [4, 100]
        with pytest.raises(ConfigError, match="100"):
            parse_config(raw)

    def test_zero_order_must_be_positive(self, tmp_path):
        _, raw = disk_config(tmp_path)
        raw["zero_order"] = {"value": -1.0}
        with pytest.raises(ConfigError, match="positive"):
            parse_config(raw)

    def test_bad_weight_kind(self, tmp_path):
        _, raw = disk_config(tmp_path)
        raw["weight"] = {"kind": "checkerboard"}
        with pytest.raises(ConfigError, match="checkerboard"):
            parse_config(raw)

    def test_affine_and_radial_weights_build(self, tmp_path):
        _, raw = disk_config(tmp_path)
        for wspec in ({"kind": "affine", "gradient": [1.0, 0.0]},
                      {"kind": "radial", "coeffs": [0.5, 0.0, -1.0]}):
            raw["weight"] = wspec
            cfg = parse_config(raw)
            mask = cfg.build_mask()
            w = cfg.build_weight(mask)
            assert w.sign_changing


def check_argv(edit):
    """Builds `check` argv on a zero field file whose parsed header dict and
    body lines are passed through `edit` before writing."""
    def build(tmp_path):
        path, raw = disk_config(tmp_path)
        grid = parse_config(raw).grid
        fpath = tmp_path / "field.csv"
        fieldio.save_array(fpath, grid, np.zeros(grid.shape), "scalar")
        header, *body = fpath.read_text().splitlines()
        header, body = edit(json.loads(header), body)
        fpath.write_text("\n".join([json.dumps(header)] + body) + "\n")
        return ["check", "--config", str(path), "--field", str(fpath),
                "--lam", "1.0"]
    return build


def check_flags(*flags):
    """`check` argv on a valid zero field file with `flags` appended (the last
    of a repeated flag wins); "{tmp}" in a flag is the test's tmp_path."""
    def build(tmp_path):
        argv = check_argv(lambda hd, body: (hd, body))(tmp_path)
        return argv + [f.format(tmp=tmp_path) for f in flags]
    return build


def config_argv(command, *flags, **overrides):
    def build(tmp_path):
        path, _ = disk_config(tmp_path, **overrides)
        return [command, "--config", str(path), *flags]
    return build


MALFORMED = {
    "field_header_missing_h": check_argv(
        lambda hd, body: ({k: v for k, v in hd.items() if k != "h"}, body)),
    "field_header_bad_nx": check_argv(lambda hd, body: ({**hd, "nx": 1}, body)),
    "field_non_numeric_cell": check_argv(
        lambda hd, body: (hd, ["abc" + body[0][1:]] + body[1:])),
    "field_missing": check_flags("--field", "{tmp}/missing.csv"),
    "out_dir_missing": check_flags("--out", "{tmp}/missing/out"),
    "lam_negative": check_flags("--lam", "-1"),
    "lam_zero": check_flags("--lam", "0"),
    "lam_nan": check_flags("--lam", "nan"),
    "lam_inf": check_flags("--lam", "inf"),
    "p_list_decreasing": config_argv("sweep", p_list=[8, 4]),
    "p_list_repeated": config_argv("sweep", p_list=[4, 4]),
    "pack_k_zero": config_argv("pack", pack={"k": 0}),
    "pack_flag_k_zero": config_argv("pack", "--k", "0"),
    "pack_flag_seed_negative": config_argv("pack", "--k", "3", "--seed", "-1"),
    "pack_restarts_zero": config_argv("pack", "--k", "3", pack={"restarts": 0}),
    "pack_restarts_non_numeric": config_argv("pack", "--k", "3",
                                             pack={"restarts": "abc"}),
    "region_value_missing": config_argv("limits", weight={
        "kind": "regions", "background": -1.0, "regions": [
            {"shape": "disk", "center": [0.0, 0.0], "radius": 0.5}]}),
    "region_value_non_numeric": config_argv("limits", weight={
        "kind": "regions", "background": -1.0, "regions": [
            {"shape": "disk", "center": [0.0, 0.0], "radius": 0.5,
             "value": "abc"}]}),
    "affine_gradient_one_element": config_argv(
        "limits", weight={"kind": "affine", "gradient": [1.0]}),
    "disk_center_one_element": config_argv(
        "limits", domain=[{"shape": "disk", "center": [0.0], "radius": 1.0}]),
    "grid_nx_null": config_argv("limits",
                                grid={"nx": None, "ny": 9, "h": 0.25}),
    "viscosity_c_tol_non_numeric": config_argv("limits",
                                               viscosity={"c_tol": "abc"}),
    "seed_non_numeric": config_argv("limits", seed="abc"),
    "solver_not_object": config_argv("sweep", solver=5),
    "weight_not_object": config_argv("limits", weight=[1.0]),
    "domain_not_list": config_argv("limits", domain={"shape": "disk"}),
    "regions_not_list": config_argv("limits", weight={
        "kind": "regions", "background": 1.0, "regions": 5}),
    "zero_order_non_numeric": config_argv("sweep", zero_order={"value": "abc"}),
    "solver_tol_non_numeric": config_argv("sweep", solver={"tol": "abc"}),
    "solver_tol_negative": config_argv("sweep", solver={"tol": -1.0}),
    "solver_max_iter_negative": config_argv("sweep", solver={"max_iter": -1}),
    "solver_max_iter_fractional": config_argv("sweep", solver={"max_iter": 2.5}),
}


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_is_one_error_line(self, tmp_path, capsys, case):
        assert cli.main(MALFORMED[case](tmp_path)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize costs ~0.3 s and ~20 MB at start-up; the CLI needs none of it
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys, infeig.cli; "
                "sys.exit('scipy.optimize' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_sweep_leaves_scipy_sparse_unloaded(self, tmp_path):
        # importing scipy.sparse.linalg adds ~8 MB to a sweep's ~60 MB peak
        # RSS, close to the benchmark's 10 % bound on peak_rss_mb: the solver
        # preconditions with a diagonal so that it needs no sparse matrix
        path, _ = disk_config(tmp_path, h=1 / 16, p_list=[4, 8],
                              zero_order={"value": 1.0})
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys, infeig.cli; "
                f"assert infeig.cli.main(['sweep', '--config', {str(path)!r}]) == 0; "
                "sys.exit('scipy.sparse' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_config_error_is_exit_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["limits", "--config", str(path)]) == 1

    def test_geometry_error_is_exit_3(self, tmp_path):
        # one candidate node cannot host two balls
        path, _ = disk_config(
            tmp_path,
            weight={"kind": "regions", "background": -1.0, "regions": [
                {"shape": "disk", "center": [0.0, 0.0], "radius": 0.02,
                 "value": 1.0}]})
        assert cli.main(["pack", "--config", str(path), "--k", "2"]) == 3

    def test_unconverged_sweep_is_exit_2(self, tmp_path):
        path, _ = disk_config(tmp_path, solver={"tol": 1e-14, "max_iter": 3})
        assert cli.main(["sweep", "--config", str(path)]) == 2

    def test_grid_mismatch_is_exit_1(self, tmp_path):
        path, raw = disk_config(tmp_path)
        other = Grid(9, 9, 0.5, (-2.0, -2.0))
        fpath = tmp_path / "field.csv"
        fieldio.save_array(fpath, other, np.zeros((9, 9)), "scalar")
        assert cli.main(["check", "--config", str(path), "--field",
                         str(fpath), "--lam", "1.0"]) == 1


class TestCommands:
    def test_limits_round_trip(self, tmp_path, capsys):
        path, raw = disk_config(tmp_path)
        assert cli.main(["limits", "--config", str(path)]) == 0
        rec = json.loads((tmp_path / "out_limits.json").read_text())
        assert rec["r_plus"] == pytest.approx(1.0, abs=2 / 24)
        assert rec["lambda1_inf"] == pytest.approx(1.0, rel=0.1)
        assert rec["lambda2_inf"] == pytest.approx(2.0, rel=0.1)
        assert rec["mu1_inf"] is None
        out = capsys.readouterr().out
        assert "lambda1_inf" in out

    def test_sweep_outputs(self, tmp_path):
        path, raw = disk_config(tmp_path, p_list=[2, 4])
        assert cli.main(["sweep", "--config", str(path)]) == 0
        lines = (tmp_path / "out_sweep.csv").read_text().strip().split("\n")
        assert lines[0] == ("p,lambda_root,target,deviation,cone_bound,"
                            "iterations,converged")
        assert len(lines) == 3
        row = lines[1].split(",")
        assert float(row[0]) == 2.0
        assert float(row[3]) == pytest.approx(
            abs(float(row[1]) - float(row[2])), rel=1e-12)
        # per-p fields exist and round-trip on the config grid
        g, vals, kind = fieldio.load_array(tmp_path / "out_field_p4.csv")
        assert kind == "scalar"
        assert (g.nx, g.ny) == (raw["grid"]["nx"], raw["grid"]["ny"])
        assert np.isfinite(vals).all() and vals.max() > 0

    def test_check_cone_passes(self, tmp_path):
        h = 1 / 64
        path, raw = disk_config(tmp_path, h=h)
        cfg = parse_config(raw)
        X, Y = cfg.grid.coords()
        u = np.maximum(1.0 - np.hypot(X, Y), 0.0)
        fpath = tmp_path / "cone.csv"
        fieldio.save_array(fpath, cfg.grid, u, "scalar")
        assert cli.main(["check", "--config", str(path), "--field",
                         str(fpath), "--lam", "1.0"]) == 0
        rec = json.loads((tmp_path / "out_check.json").read_text())
        assert rec["passes"]["pos"]
        assert rec["max_residual"]["pos"] <= 4 * h

    def test_check_zero_field(self, tmp_path):
        path, raw = disk_config(tmp_path)
        cfg = parse_config(raw)
        fpath = tmp_path / "zero.csv"
        fieldio.save_array(fpath, cfg.grid,
                           np.zeros(cfg.grid.shape), "scalar")
        assert cli.main(["check", "--config", str(path), "--field",
                         str(fpath), "--lam", "1.0"]) == 0
        rec = json.loads((tmp_path / "out_check.json").read_text())
        assert rec["counts"]["pos"] == 0 and rec["counts"]["neg"] == 0
        assert rec["max_residual"]["zero"] == 0.0

    def test_pack_output(self, tmp_path):
        path, _ = disk_config(tmp_path)
        assert cli.main(["pack", "--config", str(path), "--k", "2"]) == 0
        rec = json.loads((tmp_path / "out_pack.json").read_text())
        assert rec["k"] == 2 and rec["exact"]
        assert rec["radius"] == pytest.approx(0.5, abs=2 / 24)

    def test_pack_ignores_seed(self, tmp_path):
        path, _ = disk_config(tmp_path)
        outs = []
        for seed in ("0", "7"):
            out = tmp_path / f"seed{seed}"
            assert cli.main(["pack", "--config", str(path), "--k", "3",
                             "--out", str(out), "--seed", seed]) == 0
            outs.append((tmp_path / f"seed{seed}_pack.json").read_bytes())
        assert outs[0] == outs[1]

    def test_field_round_trip_bit_identical(self, tmp_path):
        path, raw = disk_config(tmp_path)
        assert cli.main(["sweep", "--config", str(path)]) == 0
        g, vals, _ = fieldio.load_array(tmp_path / "out_field_p4.csv")
        second = tmp_path / "copy.csv"
        fieldio.save_array(second, g, vals, "scalar")
        assert second.read_text() == (tmp_path / "out_field_p4.csv").read_text()

    def test_determinism(self, tmp_path):
        path, _ = disk_config(tmp_path)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            assert cli.main(["sweep", "--config", str(path), "--out",
                             str(out), "--seed", "5"]) == 0
            assert cli.main(["limits", "--config", str(path), "--out",
                             str(out), "--seed", "5"]) == 0
        for suffix in ("_sweep.csv", "_field_p4.csv", "_limits.json"):
            a = (tmp_path / ("a" + suffix)).read_bytes()
            b = (tmp_path / ("b" + suffix)).read_bytes()
            assert a == b
