import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from infeig import cli, cone_field, fieldio
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
        # p has no upper bound: log space keeps every finite p's powers finite
        _, raw = disk_config(tmp_path)
        raw["p_list"] = [4, 100]
        assert parse_config(raw).p_list == (4.0, 100.0)
        raw["p_list"] = [1.5]
        with pytest.raises(ConfigError, match=r"p_list.*\[1\.5\]"):
            parse_config(raw)

    def test_viscosity_auto_and_zero_eps_parse(self, tmp_path):
        # null thresholds mean auto, and eps_regime = 0 leaves only the
        # nodes with m u = 0 to the zero regime
        _, raw = disk_config(tmp_path)
        raw["viscosity"] = {"kink_tol": None, "c_tol": 0.5, "eps_regime": 0}
        opts = parse_config(raw).viscosity
        assert (opts.kink_tol, opts.c_tol, opts.eps_regime) == (None, 0.5, 0.0)

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


def check_argv(edit, **overrides):
    """Builds `check` argv on a zero field file whose parsed header dict and
    body lines are passed through `edit` before writing, under the disk
    config with `overrides`."""
    def build(tmp_path):
        grid = parse_config(disk_config(tmp_path)[1]).grid
        path, _ = disk_config(tmp_path, **overrides)
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
        argv = check_config()(tmp_path)
        return argv + [f.format(tmp=tmp_path) for f in flags]
    return build


def check_config(**overrides):
    """`check` argv on a valid zero field file under the disk config with
    `overrides`."""
    return check_argv(lambda hd, body: (hd, body), **overrides)


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
    "field_nan": check_argv(
        lambda hd, body: (hd, ["nan" + body[0][1:]] + body[1:])),
    "field_inf": check_argv(
        lambda hd, body: (hd, ["inf" + body[0][1:]] + body[1:])),
    # a 0/1 body under "mask", which is no field kind
    "field_kind_mask": check_argv(
        lambda hd, body: ({**hd, "kind": "mask"}, ["1" + body[0][1:]] + body[1:])),
    "field_kind_unknown": check_argv(
        lambda hd, body: ({**hd, "kind": "banana"}, body)),
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
    # Disk.contains squares the radius: -0.9 would silently act as 0.9
    "domain_disk_radius_negative": config_argv("limits", domain=[
        {"shape": "disk", "center": [0.0, 0.0], "radius": -0.9}]),
    "domain_disk_radius_zero": config_argv("limits", domain=[
        {"shape": "disk", "center": [0.0, 0.0], "radius": 0.0}]),
    "region_disk_radius_negative": config_argv("limits", weight={
        "kind": "regions", "background": -1.0, "regions": [
            {"shape": "disk", "center": [0.0, 0.0], "radius": -0.5,
             "value": 1.0}]}),
    # str() made these None_limits.json, ['a', 'b']_limits.json and
    # _limits.json in the working directory
    "output_prefix_null": config_argv("limits", output_prefix=None),
    "output_prefix_list": config_argv("limits", output_prefix=["a", "b"]),
    "output_prefix_empty": config_argv("limits", output_prefix=""),
    # a region's op was accepted and ignored
    "region_op": config_argv("limits", weight={
        "kind": "regions", "background": -1.0, "regions": [
            {"shape": "disk", "center": [0.0, 0.0], "radius": 0.5,
             "value": 1.0, "op": "difference"}]}),
    # a polygon of fewer than 3 vertices covers no node
    "domain_polygon_no_vertices": config_argv("limits", domain=[
        {"shape": "disk", "center": [0.0, 0.0], "radius": 1.0},
        {"shape": "polygon", "vertices": []}]),
    "region_polygon_two_vertices": config_argv("limits", weight={
        "kind": "regions", "background": 1.0, "regions": [
            {"shape": "polygon", "vertices": [[0.0, 0.0], [0.5, 0.5]],
             "value": -1.0}]}),
    "rect_reversed": config_argv("limits", domain=[
        {"shape": "rect", "min": [-1.0, 1.0], "max": [1.0, -1.0]}]),
    "grid_nx_null": config_argv("limits",
                                grid={"nx": None, "ny": 9, "h": 0.25}),
    "viscosity_c_tol_non_numeric": config_argv("limits",
                                               viscosity={"c_tol": "abc"}),
    # check would scale its regime tolerance by c_tol <= 0 and exclude every
    # node by a kink_tol <= 0, yet still exit 0
    "viscosity_c_tol_negative": check_config(viscosity={"c_tol": -1}),
    "viscosity_c_tol_zero": check_config(viscosity={"c_tol": 0}),
    "viscosity_kink_tol_negative": check_config(viscosity={"kink_tol": -1}),
    "viscosity_kink_tol_zero": check_config(viscosity={"kink_tol": 0}),
    "viscosity_eps_regime_negative": check_config(
        viscosity={"eps_regime": -1}),
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
    # a radial weight that overflows inside the disk printed a
    # RuntimeWarning and ended as "no positive region", exit 3
    "weight_not_finite_inside": config_argv("limits", weight={
        "kind": "radial", "coeffs": [-1e308, 1e308, 1e308]}),
    # squaring the radius raised OverflowError in Disk.contains
    "domain_disk_radius_huge": config_argv("limits", domain=[
        {"shape": "disk", "center": [0.0, 0.0], "radius": 1e155}]),
    # the squared cell differences underflowed to 0, and the sweep raised
    # from math.log
    "grid_h_tiny": config_argv(
        "sweep", grid={"nx": 9, "ny": 9, "h": 1e-170},
        domain=[{"shape": "rect", "min": [5e-171, 5e-171],
                 "max": [7.5e-170, 7.5e-170]}]),
}


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_is_one_error_line(self, tmp_path, capsys, case):
        assert cli.main(MALFORMED[case](tmp_path)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_cli_leaves_scipy_unloaded(self, tmp_path):
        # importing scipy.ndimage alone cost ~0.4 s of every start-up; the
        # CLI needs no scipy module, through any geometry or check command
        path, raw = disk_config(tmp_path, h=1 / 16)
        grid = parse_config(raw).grid
        field = tmp_path / "cone.csv"
        fieldio.save_array(field, grid, cone_field(
            (grid.nx // 2, grid.ny // 2), 1.0, grid).u, "scalar")
        common = ["--config", str(path), "--out", str(tmp_path / "run")]
        runs = [["limits"], ["pack", "--k", "3"],
                ["check", "--field", str(field), "--lam", "1"]]
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys, infeig.cli\n"
                f"for argv in {runs!r}:\n"
                f"    assert infeig.cli.main(argv[:1] + {common!r} + argv[1:]) == 0\n"
                "sys.exit(' '.join(m for m in sys.modules\n"
                "                  if m.split('.')[0] == 'scipy') or None)\n")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_sweep_leaves_scipy_unloaded(self, tmp_path):
        # a sweep peaks at ~42.6 MB RSS: scipy.sparse.linalg would add ~8 MB
        # and scipy.linalg ~5 MB and 62 ms of import, against the
        # benchmark's 10 % bound on peak_rss_mb. The solver applies its
        # stiffness by numpy scatters and factors its coarse matrix with
        # numpy.linalg, so no scipy module loads
        path, _ = disk_config(tmp_path, h=1 / 16, p_list=[4, 8],
                              zero_order={"value": 1.0})
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys, infeig.cli; "
                f"assert infeig.cli.main(['sweep', '--config', {str(path)!r}]) == 0; "
                "sys.exit(' '.join(m for m in sys.modules\n"
                "                  if m.split('.')[0] == 'scipy') or None)")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

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

    def test_sweep_past_convergence_is_exit_2(self, tmp_path, capsys):
        # p = 1e300 is finite and accepted; its solve cannot certify, and
        # that is a row with converged 0, not a crash or a RuntimeWarning
        path, _ = disk_config(
            tmp_path,
            grid={"nx": 49, "ny": 49, "h": 0.04375, "origin": [-1.05, -1.05]},
            weight={"kind": "regions", "background": -1.0, "regions": [
                {"shape": "disk", "center": [0.0, 0.0], "radius": 0.25,
                 "value": 1.0}]},
            p_list=[64, 1e300], solver={})
        assert cli.main(["sweep", "--config", str(path)]) == 2
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "out_sweep.csv").read_text().strip().split("\n")
        assert [(float(r.split(",")[0]), r.split(",")[-1])
                for r in rows[1:]] == [(64.0, "1"), (1e300, "0")]

    def test_check_nonfinite_residual_is_exit_2(self, tmp_path, capsys):
        # the 33 x 33 ex1 disk scaled by 1e-148: the second differences of
        # its certified p = 4 field overflow over h^2, so its max residuals
        # are not finite: exit 2, one error line and no RuntimeWarning
        s = 1e-148
        path, _ = disk_config(
            tmp_path,
            grid={"nx": 33, "ny": 33, "h": 2.1 * s / 32,
                  "origin": [-1.05 * s, -1.05 * s]},
            domain=[{"shape": "disk", "center": [0.0, 0.0], "radius": s}],
            weight={"kind": "regions", "background": -1.0, "regions": [
                {"shape": "disk", "center": [0.0, 0.0], "radius": 0.5 * s,
                 "value": 1.0}]})
        assert cli.main(["sweep", "--config", str(path)]) == 0
        row = (tmp_path / "out_sweep.csv").read_text().splitlines()[1]
        lam = row.split(",")[1]
        capsys.readouterr()
        field = str(tmp_path / "out_field_p4.csv")
        assert cli.main(["check", "--config", str(path), "--field", field,
                         "--lam", lam]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

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

    def test_sweep_prints_stop_and_residual(self, tmp_path, capsys):
        # each p's line says why its solve stopped and at what KKT residual,
        # so a stall shows without a script
        path, _ = disk_config(tmp_path, h=1 / 16, p_list=[2, 4])
        assert cli.main(["sweep", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [line.split(":")[0] for line in lines] == ["p=2", "p=4"]
        for line in lines:
            pairs = dict(kv.split("=") for kv in line.split()[1:])
            assert pairs["converged"] == "True" and pairs["stop"] == "tol"
            assert 0.0 < float(pairs["residual"]) <= 1e-4
        path, _ = disk_config(tmp_path, h=1 / 16,
                              solver={"tol": 1e-14, "max_iter": 3})
        assert cli.main(["sweep", "--config", str(path)]) == 2
        pairs = dict(kv.split("=") for kv in
                     capsys.readouterr().out.split()[1:])
        assert pairs["converged"] == "False" and pairs["stop"] == "max_iter"
        assert float(pairs["residual"]) > 1e-14

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

    def test_check_boundary_max_reads_the_file(self, tmp_path):
        # a 33 x 33 field equal to 7 everywhere: boundary_max is the largest
        # |value| the file holds outside the domain, while the residuals
        # see the field zeroed there, as for the masked file
        path, raw = disk_config(tmp_path, h=1 / 14)
        cfg = parse_config(raw)
        grid, inside = cfg.grid, cfg.build_mask().inside
        assert grid.shape == (33, 33)
        recs = []
        for name, vals in (("full", np.full(grid.shape, 7.0)),
                           ("masked", np.where(inside, 7.0, 0.0))):
            fpath = tmp_path / f"{name}.csv"
            fieldio.save_array(fpath, grid, vals, "scalar")
            assert cli.main(["check", "--config", str(path), "--field",
                             str(fpath), "--lam", "1.0", "--out",
                             str(tmp_path / name)]) == 0
            recs.append(json.loads(
                (tmp_path / f"{name}_check.json").read_text()))
        full, masked = recs
        assert full.pop("boundary_max") == 7.0
        assert masked.pop("boundary_max") == 0.0
        assert full == masked

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
