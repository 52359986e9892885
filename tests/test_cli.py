import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import dumps_canonical_prepass, write_csv_per_cell
from nlmedium import cli, fieldspace, serialize
from nlmedium.cli import EXIT_BAD_JSON, EXIT_NUMERICS, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from nlmedium.medium import MediumParams, gamma_response
from nlmedium.nonlinear import chi3, lambda_from_config
from nlmedium.serialize import (
    comb_from_obj,
    comb_to_obj,
    dumps_canonical,
    fmt_float,
    load_json_file,
    write_csv,
)


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "medium": {
            "omega0": 1.0,
            "chi_s": 1.0,
            "alpha": 0.5,
            "rho": 0.8,
            "nu": {"type": "constant", "nu0": 0.1, "omega_cut": 6.0},
            "g": 1,
            "loop_cutoff": 30.0,
        },
        "lambda": {"isotropic": [0.05, 0.08, 0.05]},
        "grids": {"omega": {"start": 0.2, "stop": 1.8, "n": 5}, "k": [0.0]},
        "loop": {"n_points": 16384, "cutoff": 12.0},
        "seed": 7,
        "outputs": {"dir": str(tmp_path / "out"), "format": "csv"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    return header, rows


class TestCommands:
    def test_chi1_static_row(self, tmp_path):
        cfg = {
            "medium": {"omega0": 1.0, "chi_s": 0.7, "alpha": 0.5, "rho": 1.0, "g": 1, "loop_cutoff": 30.0},
            "grids": {"omega": {"start": 0.0, "stop": 0.5, "n": 3}},
            "outputs": {"dir": str(tmp_path), "format": "csv"},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "chi1"]) == EXIT_OK
        header, rows = read_csv(tmp_path / "chi1.csv")
        assert header == ["omega", "component", "re", "im"]
        first = [r for r in rows if r[0] == "0" and r[1] == "00"][0]
        assert float(first[2]) == pytest.approx(0.7)
        assert float(first[3]) == 0.0

    def test_wick_dump_has_seven_terms(self, config_path, tmp_path):
        assert main(["--config", config_path, "wick-dump", "--order", "4"]) == EXIT_OK
        data = read_json(tmp_path / "out" / "wick_order4.json")
        assert data["order"] == 4
        assert len(data["terms"]) == 7

    def test_kk_check_lossless_note(self, tmp_path):
        cfg = {
            "medium": {"omega0": 1.0, "chi_s": 1.0, "alpha": 0.5, "rho": 1.0, "g": 1, "loop_cutoff": 30.0},
            "outputs": {"dir": str(tmp_path), "format": "json"},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "kk-check"]) == EXIT_OK
        report = read_json(tmp_path / "kk_check.json")
        assert report["lossless"] is True
        assert report["note"] == "no absorption; KK trivially satisfied"

    def test_chi3_csv_columns(self, config_path, tmp_path):
        assert main(["--config", config_path, "chi3"]) == EXIT_OK
        header, rows = read_csv(tmp_path / "out" / "chi3.csv")
        assert header == ["w", "w1", "w2", "w3", "component", "re", "im"]
        assert len(rows) == 5 * 81

    def test_propagators_and_dyson(self, config_path, tmp_path):
        assert main(["--config", config_path, "propagators"]) == EXIT_OK
        data = read_json(tmp_path / "out" / "propagators.json")
        assert len(data["samples"]) == 5
        assert main(["--config", config_path, "dyson", "--mode", "single"]) == EXIT_OK
        dressed = read_json(tmp_path / "out" / "dyson.json")
        assert dressed["samples"][0]["mode"] == "single"

    def test_propagators_grid_flags(self, config_path, tmp_path):
        assert (
            main(
                [
                    "--config",
                    config_path,
                    "propagators",
                    "--omega-grid",
                    "0.3:1.5:4",
                    "--k",
                    "0.0",
                    "1.1",
                ]
            )
            == EXIT_OK
        )
        data = read_json(tmp_path / "out" / "propagators.json")
        assert len(data["samples"]) == 8
        assert {s["k"] for s in data["samples"]} == {0.0, 1.1}

    def test_displacement_without_config(self, tmp_path):
        medium = {
            "omega0": 1.0,
            "chi_s": 1.0,
            "alpha": 0.5,
            "rho": 0.8,
            "nu": {"type": "constant", "nu0": 0.1, "omega_cut": 6.0},
            "g": 1,
            "loop_cutoff": 30.0,
        }
        (tmp_path / "m.json").write_text(json.dumps(medium))
        (tmp_path / "l.json").write_text(json.dumps({"isotropic": [0.05, 0.08, 0.05]}))
        (tmp_path / "comb.json").write_text(
            json.dumps([{"omega": 0.9, "amp": [[0.1, 0.0], [0.0, 0.0], [0.0, 0.0]]}])
        )
        dst = tmp_path / "d.json"
        code = main(
            [
                "displacement",
                "--in",
                str(tmp_path / "comb.json"),
                "--medium",
                str(tmp_path / "m.json"),
                "--lambda",
                str(tmp_path / "l.json"),
                "--out",
                str(dst),
            ]
        )
        assert code == EXIT_OK
        assert comb_from_obj(read_json(dst)).is_conjugate_closed()

    def test_displacement_round_trip(self, config_path, tmp_path):
        comb = [{"omega": 0.9, "amp": [[0.1, 0.02], [0.0, 0.0], [0.0, 0.0]]}]
        src = tmp_path / "comb.json"
        src.write_text(json.dumps(comb))
        dst = tmp_path / "out" / "d.json"
        assert main(["--config", config_path, "displacement", "--in", str(src), "--out", str(dst)]) == EXIT_OK
        out = read_json(dst)
        # mirrored input line plus mixing products, conjugate-closed
        freqs = sorted(e["omega"] for e in out)
        assert any(math.isclose(w, 2.7, abs_tol=1e-9) for w in freqs)
        parsed = comb_from_obj(out)
        assert parsed.is_conjugate_closed()

    def test_duffing_compare_report(self, config_path, tmp_path):
        assert main(["--config", config_path, "duffing-compare", "--drive-freq", "0.24"]) == EXIT_OK
        rep = read_json(tmp_path / "out" / "duffing_compare.json")
        assert rep["tolerance_pass"] is True
        assert 2.99 <= rep["exponent"] <= 3.01


    def test_dyson_without_loop_cutoff(self, tmp_path):
        # the default loop window must stay inside the kernel support
        cfg = {
            "medium": {
                "omega0": 1.0,
                "chi_s": 1.0,
                "alpha": 0.5,
                "rho": 0.05,
                "nu": {"type": "constant", "nu0": 0.1, "omega_cut": 6.0},
                "loop_cutoff": 30.0,
            },
            "lambda": {"isotropic": [0.05, 0.08, 0.05]},
            "grids": {"omega": [0.7]},
            "outputs": {"dir": str(tmp_path), "format": "json"},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "dyson"]) == EXIT_OK
        sample = read_json(tmp_path / "dyson.json")["samples"][0]
        assert math.isfinite(sample["error_estimate"])
        cfg["loop"] = {"cutoff": 30.0}
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "dyson"]) == EXIT_VALIDATION

    def test_dyson_self_energy_is_the_same_for_every_k(self, tmp_path):
        cfg = {
            "medium": {
                "omega0": 1.0,
                "chi_s": 1.0,
                "alpha": 0.5,
                "rho": 0.2,
                "nu": {"type": "constant", "nu0": 0.1, "omega_cut": 10.0},
                "loop_cutoff": 30.0,
            },
            "lambda": {"isotropic": [0.25, 0.4, 0.35]},
            "grids": {"omega": [0.0, 0.3, 0.9, 1.4], "k": [0.0, 1.3]},
            "loop": {"n_points": 1024, "cutoff": 12.0},
            "outputs": {"dir": str(tmp_path), "format": "json"},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "dyson"]) == EXIT_OK
        samples = read_json(tmp_path / "dyson.json")["samples"]
        assert [(s["k"], s["omega"]) for s in samples] == [(k, w) for k in (0.0, 1.3) for w in (0.3, 0.9, 1.4)]
        for at_zero, at_k in zip(samples[:3], samples[3:]):
            assert at_zero["self_energy"] == at_k["self_energy"]
            assert at_zero["error_estimate"] == at_k["error_estimate"]
            assert at_zero["AA"] != at_k["AA"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_chi3_on_an_empty_set_of_quadruples(self, config_path, tmp_path, fmt):
        # the grid's one frequency is 0, which chi3 skips, and no quadruples are given
        cfg = read_json(config_path)
        cfg["grids"] = {"omega": [0.0]}
        del cfg["seed"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "--out", str(tmp_path), "--format", fmt, "chi3"]) == EXIT_OK
        expected = "w,w1,w2,w3,component,re,im\n" if fmt == "csv" else '{"samples":[],"seed":0}\n'
        assert (tmp_path / f"chi3.{fmt}").read_text() == expected

    @pytest.mark.parametrize("command", ["propagators", "dyson"])
    def test_empty_k_grid(self, config_path, tmp_path, command):
        cfg = read_json(config_path)
        cfg["grids"]["k"] = []
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "--out", str(tmp_path), command]) == EXIT_OK
        assert read_json(tmp_path / f"{command}.json") == {"samples": [], "seed": 7}

    def test_samples_equal_one_sample_functions(self, tmp_path):
        # each sample of the batched grid is bitwise what the one-sample
        # library functions give for it (JSON numbers round-trip exactly)
        medium = {"omega0": 1.0, "chi_s": 1.0, "alpha": 0.5, "rho": 0.2, "loop_cutoff": 30.0}
        medium["nu"] = {"type": "constant", "nu0": 0.1, "omega_cut": 10.0}
        cfg = {
            "medium": medium,
            "lambda": {"isotropic": [0.25, 0.4, 0.35]},
            "grids": {"omega": {"start": -1.5, "stop": 2.0, "n": 15}, "k": [0.0, 1.3]},
            "loop": {"n_points": 1024, "cutoff": 12.0},
            "outputs": {"dir": str(tmp_path), "format": "json"},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "propagators"]) == EXIT_OK
        assert main(["--config", str(path), "dyson"]) == EXIT_OK
        med = MediumParams.from_config(medium)
        lam = lambda_from_config(cfg["lambda"])
        quad = fieldspace.LoopQuadrature(1024, 12.0)
        tree = read_json(tmp_path / "propagators.json")["samples"]
        dressed = read_json(tmp_path / "dyson.json")["samples"]
        assert len(tree) == len(dressed) == 28
        for t, d in zip(tree, dressed):
            ctx = fieldspace.PlaneWaveContext(k=t["k"], polarization=[1.0, 0.0, 0.0], omega=t["omega"])
            g0 = fieldspace.tree_propagators(med, ctx)
            pi = fieldspace.self_energy(med, lam, t["omega"], quad)
            g = fieldspace.dyson_dress(g0, pi.value).resummed
            assert d["self_energy"] == complex_pairs(pi.value) and d["error_estimate"] == pi.error_estimate
            for name in ("AA", "AX", "XA", "XX"):
                assert t[name] == complex_pairs(getattr(g0, name.lower()))
                assert d[name] == complex_pairs(getattr(g, name.lower()))


def complex_pairs(matrix):
    return [[[v.real, v.imag] for v in row] for row in matrix.tolist()]


def kk_check_report(tmp_path, peak, width):
    """kk-check of the criterion-2 medium with a Gaussian coupling of this shape."""
    grid_nu = np.linspace(0.0, 16.0, 400)
    cfg = {
        "medium": {
            "omega0": 1.0,
            "chi_s": 1.0,
            "alpha": 0.5,
            "rho": 0.05,
            "loop_cutoff": 25.0,
            "nu": {
                "type": "tabulated",
                "grid": grid_nu.tolist(),
                "values": (peak * np.exp(-((grid_nu / width) ** 2))).tolist(),
            },
        },
        "grids": {"omega": {"start": 0.0, "stop": 20.0, "n": 4096}},
        "outputs": {"dir": str(tmp_path), "format": "json"},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "kk-check"]) == EXIT_OK
    return read_json(tmp_path / "kk_check.json")


class TestKramersKronigCheck:
    @pytest.mark.parametrize("peak, width", [(0.12, 5.0), (0.15, 3.0)])
    def test_passes_where_re_chi1_crosses_zero(self, tmp_path, peak, width):
        report = kk_check_report(tmp_path, peak, width)
        assert report["pass"] is True
        assert report["max_rel_error_interior"] < 1e-3

    def test_fails_on_a_wrong_reconstruction(self, tmp_path):
        report = kk_check_report(tmp_path, 0.2, 4.0)
        assert report["pass"] is False
        assert report["max_rel_error_interior"] > 1.0


class TestExitCodes:
    def test_unknown_command(self, config_path):
        assert main(["--config", config_path, "no-such-command"]) == EXIT_USAGE

    def test_no_command(self):
        assert main([]) == EXIT_USAGE

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["--config", str(bad), "chi1"]) == EXIT_BAD_JSON

    # each input file has one placeholder number, standing in for the token
    _INPUTS = {
        "config": {"loop": {"cutoff": 6.5}, "seed": 3},
        "medium": {"omega0": 1.0, "chi_s": 1.25, "alpha": 0.5, "rho": 0.8, "loop_cutoff": 30.0},
        "lambda": {"isotropic": [0.05, 0.08, 0.0625]},
        "in": [{"omega": 0.3, "amp": [[0.0078125, 0.0], [0.0, 0.0], [0.0, 0.0]]}],
    }
    _PLACEHOLDERS = {"config": "6.5", "medium": "1.25", "lambda": "0.0625", "in": "0.0078125"}

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize("role", ["config", "medium", "lambda", "in"])
    def test_non_finite_number_rejected(self, tmp_path, capsys, role, token):
        # Python's json reads these tokens as floats; they are not JSON numbers
        paths = {name: tmp_path / f"{name}.json" for name in self._INPUTS}
        for name, obj in self._INPUTS.items():
            paths[name].write_text(json.dumps(obj))
        argv = ["--config", str(paths["config"]), "--out", str(tmp_path / "out"), "displacement"]
        argv += ["--in", str(paths["in"]), "--medium", str(paths["medium"]), "--lambda", str(paths["lambda"])]
        assert main(argv) == EXIT_OK
        text = paths[role].read_text()
        assert text.count(self._PLACEHOLDERS[role]) == 1
        paths[role].write_text(text.replace(self._PLACEHOLDERS[role], token))
        capsys.readouterr()
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert token in err and str(paths[role]) in err

    def test_validation_error(self, tmp_path):
        cfg = {"medium": {"omega0": -1.0, "chi_s": 1.0, "alpha": 1.0, "rho": 1.0}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "chi1"]) == EXIT_VALIDATION

    def test_numerics_error(self, tmp_path):
        # lossless chi1 grid crossing the resonance hits the response pole
        cfg = {
            "medium": {"omega0": 1.0, "chi_s": 1.0, "alpha": 0.5, "rho": 1.0, "g": 1, "loop_cutoff": 30.0},
            "grids": {"omega": {"start": 0.5, "stop": 1.5, "n": 3}},
            "outputs": {"dir": str(tmp_path), "format": "csv"},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "chi1"]) == EXIT_NUMERICS

    def test_loop_node_on_matter_pole(self, tmp_path, capsys):
        # eps0 - g alpha**2 Gamma(W) vanishes at the loop node W = 0.5, where
        # the k = 0 photon kernel W**2 * m is singular
        cfg = {
            "medium": {"omega0": 1, "chi_s": 3, "alpha": 0.5, "rho": 1, "nu": {"type": "zero"}, "loop_cutoff": 30},
            "lambda": {"isotropic": [0.25, 0.4, 0.35]},
            "grids": {"omega": {"start": 0.1, "stop": 0.3, "n": 3}},
            "loop": {"n_points": 97, "cutoff": 0.75},
            "outputs": {"dir": str(tmp_path / "out")},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "dyson"]) == EXIT_NUMERICS
        err = capsys.readouterr().err
        assert err == "error: k = 0 photon kernel singular at loop node |W| = 0.5\n"

    @pytest.mark.parametrize(
        "section, key",
        [
            ("medium", "omgea0"),
            ("medium", "ieps"),
            ("grids", "omgea"),
            ("loop", "n_point"),
            ("drive", "frq"),
            ("outputs", "fromat"),
        ],
    )
    def test_unknown_config_key(self, tmp_path, capsys, section, key):
        cfg = {
            "medium": {"omega0": 1.0, "chi_s": 1.0, "alpha": 0.5, "rho": 1.0, "loop_cutoff": 30.0},
            "lambda": {"isotropic": [0.05, 0.08, 0.05]},
            "grids": {"omega": [0.5]},
            "loop": {"n_points": 256},
            "drive": {"freq": 0.24},
            "outputs": {"dir": str(tmp_path), "format": "json"},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "wick-dump", "--order", "1"]) == EXIT_OK
        cfg[section][key] = 1.0
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "wick-dump", "--order", "1"]) == EXIT_VALIDATION
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, edit",
        [
            ("medium", "rho", lambda cfg: cfg["medium"].pop("rho")),
            ("loop", "n_points", lambda cfg: cfg["loop"].update(n_points="abc")),
            ("grids.omega", "n", lambda cfg: cfg["grids"]["omega"].pop("n")),
            ("medium.nu", "omega_cut", lambda cfg: cfg["medium"]["nu"].pop("omega_cut")),
            # a JSON integer that float() cannot convert (OverflowError)
            ("medium", "chi_s", lambda cfg: cfg["medium"].update(chi_s=10**400)),
        ],
        ids=["missing-rho", "text-n-points", "grid-without-n", "constant-nu-without-cut", "integer-beyond-float"],
    )
    def test_bad_config_value(self, config_path, tmp_path, capsys, section, key, edit):
        cfg = read_json(config_path)
        edit(cfg)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "dyson"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert repr(section) in err and repr(key) in err

    @pytest.mark.parametrize(
        "section, key, edit",
        [
            ("medium", "g", lambda cfg: cfg["medium"].update(g=0.5)),
            ("grids.omega", "n", lambda cfg: cfg["grids"]["omega"].update(n=2.5)),
            ("loop", "n_points", lambda cfg: cfg["loop"].update(n_points=256.5)),
            ("drive", "ladder", lambda cfg: cfg.update(drive={"freq": 0.24, "ladder": 2.5})),
            ("top level", "seed", lambda cfg: cfg.update(seed=7.5)),
        ],
        ids=["medium-g", "grid-n", "loop-n-points", "drive-ladder", "seed"],
    )
    def test_fractional_integer_key(self, config_path, tmp_path, capsys, section, key, edit):
        # int() would truncate: "g": 0.5 used to run as a vacuum, with an all-zero chi1
        cfg = read_json(config_path)
        edit(cfg)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "chi1"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert repr(section) in err and repr(key) in err

    def test_integral_float_keys_accepted(self, config_path, tmp_path):
        cfg = read_json(config_path)
        cfg["grids"]["omega"]["n"] = 5.0
        cfg["medium"]["g"] = 1.0
        cfg["seed"] = 7.0
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "--out", str(tmp_path / "a"), "chi1"]) == EXIT_OK
        assert main(["--config", config_path, "--out", str(tmp_path / "b"), "chi1"]) == EXIT_OK
        assert (tmp_path / "a" / "chi1.csv").read_bytes() == (tmp_path / "b" / "chi1.csv").read_bytes()

    @pytest.mark.parametrize(
        "key, value",
        [("format", "JSON"), ("format", 3), ("dir", 5)],
        ids=["format-upper-case", "format-number", "dir-number"],
    )
    def test_bad_outputs_value(self, config_path, tmp_path, capsys, key, value):
        cfg = read_json(config_path)
        cfg["outputs"][key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "chi1"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert repr("outputs") in err and repr(key) in err

    def test_bad_omega_grid_flag(self, config_path, capsys):
        assert main(["--config", config_path, "propagators", "--omega-grid", "0:1:x"]) == EXIT_VALIDATION
        assert "--omega-grid" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["0:nan:3", "inf:2:3", "0:-inf:3"])
    def test_non_finite_omega_grid_flag(self, config_path, tmp_path, capsys, spec):
        out = tmp_path / "flags"
        assert main(["--config", config_path, "--out", str(out), "propagators", "--omega-grid", spec]) == EXIT_VALIDATION
        assert "--omega-grid expects start:stop:n with finite start and stop" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["propagators", "--k", "nan"],
            ["propagators", "--k", "0", "inf"],
            ["duffing-compare", "--drive-freq", "nan"],
            ["duffing-compare", "--drive-freq", "inf"],
        ],
        ids=["k-nan", "k-inf", "drive-nan", "drive-inf"],
    )
    def test_non_finite_flag(self, config_path, tmp_path, capsys, argv):
        # a usage error before any artifact is written, as for a flag that is not a number
        out = tmp_path / "flags"
        assert main(["--config", config_path, "--out", str(out), *argv]) == EXIT_USAGE
        assert "expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags, k",
        [("propagators", ["--k", "-1.3", "0.0"], [0.0]), ("propagators", [], [-1.3, 0.0]), ("dyson", [], [-1.3, 0.0])],
        ids=["propagators-flag", "propagators-config", "dyson-config"],
    )
    def test_negative_k(self, config_path, tmp_path, capsys, command, flags, k):
        cfg = read_json(config_path)
        cfg["grids"]["k"] = k
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "flags"
        assert main(["--config", str(path), "--out", str(out), command, *flags]) == EXIT_VALIDATION
        assert "wavevector magnitude must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, key",
        [
            ({"omega": 0.9}, "amp"),
            ({"omega": 0.9, "amp": [[0.1, 0.0], [0.0], [0.0, 0.0]]}, "amp"),
            ({"omega": 0.9, "amp": [[0.1, 0.0], [0.0, 0.0]]}, "amp"),
            ({"omega": "x", "amp": [[0.1, 0.0], [0.0, 0.0], [0.0, 0.0]]}, "omega"),
        ],
        ids=["missing-amp", "short-pair", "two-pairs", "text-omega"],
    )
    def test_bad_comb_line(self, config_path, tmp_path, capsys, line, key):
        src = tmp_path / "comb.json"
        src.write_text(json.dumps([line]))
        assert main(["--config", config_path, "displacement", "--in", str(src)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert repr("comb line 0") in err and repr(key) in err

    @pytest.mark.parametrize(
        "section, edit",
        [
            ("medium.nu", lambda cfg: cfg["medium"].update(nu=3)),
            ("lambda", lambda cfg: cfg.update({"lambda": 3})),
        ],
        ids=["nu-not-object", "lambda-not-object"],
    )
    def test_config_section_not_object(self, config_path, tmp_path, capsys, section, edit):
        cfg = read_json(config_path)
        edit(cfg)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "chi1"]) == EXIT_VALIDATION
        assert f"config section {section!r} must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["3", "[1, 2]", '"medium"'])
    def test_config_not_object(self, tmp_path, capsys, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main(["--config", str(path), "chi1"]) == EXIT_VALIDATION
        assert "config must be an object" in capsys.readouterr().err

    def test_threads_flag_removed(self, config_path):
        assert main(["--config", config_path, "--threads", "2", "wick-dump", "--order", "2"]) == EXIT_USAGE


class TestDeterminism:
    def test_byte_identical_artifacts(self, config_path, tmp_path):
        a = tmp_path / "A"
        b = tmp_path / "B"
        for out in (a, b):
            assert main(["--config", config_path, "--out", str(out), "chi1"]) == EXIT_OK
            assert main(["--config", config_path, "--out", str(out), "wick-dump", "--order", "4"]) == EXIT_OK
        assert (a / "chi1.csv").read_bytes() == (b / "chi1.csv").read_bytes()
        assert (a / "wick_order4.json").read_bytes() == (b / "wick_order4.json").read_bytes()

    def test_json_artifacts_reparse(self, config_path, tmp_path):
        assert main(["--config", config_path, "--format", "json", "chi1"]) == EXIT_OK
        data = read_json(tmp_path / "out" / "chi1.json")
        for sample in data["samples"]:
            assert len(sample["chi1"]) == 3
        # canonical writer round-trips floats exactly
        value = data["samples"][1]["chi1"][0][0][0]
        assert json.loads(dumps_canonical({"v": value}))["v"] == value

    def test_canonical_json_number_format(self):
        # JSON carries the shortest round-trip repr; CSV cells carry %.17g
        obj = {"a": 0.1, "b": np.float64(0.1), "c": 1.0 / 3.0, "n": 3, "z": complex(0.1, -2.5)}
        assert dumps_canonical(obj) == '{"a":0.1,"b":0.1,"c":0.3333333333333333,"n":3,"z":[0.1,-2.5]}\n'
        assert dumps_canonical([1e-17, 2.0, -0.0]) == "[1e-17,2.0,-0.0]\n"
        assert fmt_float(0.1) == "0.10000000000000001"

    def test_comb_serialization_round_trip(self):
        from nlmedium.displacement import FrequencyComb

        comb = FrequencyComb.from_lines([(0.9, [0.1 + 0.2j, 0.0, 1e-17j])])
        again = comb_from_obj(json.loads(dumps_canonical(comb_to_obj(comb))))
        assert len(again.lines) == len(comb.lines)
        for (w1, a1), (w2, a2) in zip(comb.lines, again.lines):
            assert w1 == w2
            assert np.array_equal(a1, a2)


# floats that stress the formats: signed zeros, the smallest subnormal,
# infinities, nan, and values whose %.17g and repr differ
_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 0.1, 1.0 / 3.0, 1e300])
_FLOATS = st.one_of(_SPECIAL, st.floats())
_SCALARS = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.builds(complex, _FLOATS, _FLOATS),
    st.builds(complex, _FLOATS, _FLOATS).map(np.complex128),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    hnp.arrays(
        st.sampled_from([np.float64, np.complex128, np.int64]), hnp.array_shapes(min_dims=0, max_dims=2, max_side=3)
    ),
)
# NaN with a payload and with the sign bit set: distinct bit patterns of nan
_NANS = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64).tolist()


@st.composite
def _csv_tables(draw):
    """(lead, values, components) for ``write_csv``, drawn from a small pool of numbers."""
    pool = draw(st.lists(st.one_of(_FLOATS, st.sampled_from(_NANS)), min_size=1, max_size=6))
    samples, n_lead, count = draw(st.integers(0, 9)), draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def numbers(*shape):
        cells = draw(st.lists(st.sampled_from(pool), min_size=math.prod(shape), max_size=math.prod(shape)))
        return np.asarray(cells, dtype=float).reshape(shape)

    values = np.empty((samples, count), dtype=complex)
    # set the parts one by one: re + 1j * im would turn inf into nan
    values.real, values.imag = numbers(samples, count), numbers(samples, count)
    components = draw(st.lists(st.text("01%x", min_size=1, max_size=3), min_size=count, max_size=count))
    return numbers(samples, n_lead), values, components


_OBJECTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=12,
)


class TestWriterAgainstReference:
    """The one-pass writers give the bytes of the reference writers in ``conftest``."""

    @given(_OBJECTS)
    @settings(max_examples=300, deadline=None)
    def test_json_matches_prepass(self, obj):
        assert dumps_canonical(obj) == dumps_canonical_prepass(obj)

    @given(_csv_tables(), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_csv_matches_per_cell(self, tmp_path_factory, table, block_rows):
        # blocks of one to four samples, so that tables split into several
        # blocks and equal numbers recur within and across them
        lead, values, components = table
        out = tmp_path_factory.mktemp("csv")
        header = [f"f{j}" for j in range(lead.shape[1])] + ["component", "re", "im"]
        with mock.patch.object(serialize, "_CSV_BLOCK_ROWS", block_rows):
            write_csv(out / "new.csv", header, lead, values, components)
        rows = [
            (*lead[s], comp, values[s, c].real, values[s, c].imag)
            for s in range(lead.shape[0])
            for c, comp in enumerate(components)
        ]
        write_csv_per_cell(out / "ref.csv", header, rows)
        assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()

    def test_signed_zeros_keep_their_sign(self, tmp_path):
        values = np.zeros((2, 1), dtype=complex)
        values.real, values.imag = [[-0.0], [0.0]], [[0.0], [-0.0]]
        write_csv(tmp_path / "z.csv", ["w", "component", "re", "im"], [[0.0], [-0.0]], values, ["00"])
        assert (tmp_path / "z.csv").read_text() == "w,component,re,im\n0,00,-0,0\n-0,00,0,-0\n"

    def test_chi1_csv_peak_memory(self, tmp_path, smooth_lossy):
        # tracemalloc peak of writing the 4096-point chi1.csv: 2,663,000 B
        # with the generator writer that formatted the whole table in one
        # pass; the block writer must stay within that plus 10%
        grid = np.linspace(0.0, 20.0, 4096)
        gamma = gamma_response(smooth_lossy, grid)
        values = (gamma[:, None, None] * np.eye(3, dtype=complex) / smooth_lossy.eps0).reshape(grid.size, 9)
        header = ("omega", "component", "re", "im")
        tracemalloc.start()
        try:
            write_csv(tmp_path / "chi1.csv", header, grid[:, None], values, cli._COMPONENTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 2_663_000

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_chi1_and_chi3_artifacts(self, config_path, tmp_path, fmt):
        # omega = 0 is on the grid, and above the resonance of this lossless
        # medium Re chi1 < 0 and Im chi1 = 0, where signed zeros occur
        cfg = read_json(config_path)
        del cfg["medium"]["nu"]
        cfg["grids"] = {"omega": {"start": 0.0, "stop": 3.0, "n": 12}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / fmt
        for command in ("chi1", "chi3"):
            assert main(["--config", str(path), "--out", str(out), "--format", fmt, command]) == EXIT_OK
        medium = MediumParams.from_config(cfg["medium"])
        lam = lambda_from_config(cfg["lambda"])
        grid = np.linspace(0.0, 3.0, 12)
        # the chi1 tensor chi1 I, from gamma
        spectrum = gamma_response(medium, grid)[:, None, None] * np.eye(3, dtype=complex) / medium.eps0
        assert np.any(spectrum.real < 0)
        quads = [(w, w, w) for w in grid if w != 0.0]
        tensors = [chi3(medium, lam, w, w, w, w).reshape(-1) for w, _, _ in quads]
        ref = tmp_path / "ref"
        ref.mkdir()
        if fmt == "json":
            def pairs(values):
                return [[v.real, v.imag] for v in values]

            chi1_samples = [
                {"omega": w, "chi1": [pairs(row) for row in m]} for w, m in zip(grid, spectrum)
            ]
            chi3_samples = [
                {"w": w, "w1": w, "w2": w, "w3": w, "chi3": pairs(t)} for (w, _, _), t in zip(quads, tensors)
            ]
            (ref / "chi1.json").write_text(dumps_canonical_prepass({"seed": 7, "samples": chi1_samples}))
            (ref / "chi3.json").write_text(dumps_canonical_prepass({"seed": 7, "samples": chi3_samples}))
        else:
            comps = [f"{i}{j}" for i in range(3) for j in range(3)]
            chi1_rows = [
                (w, c, v.real, v.imag)
                for w, m in zip(grid, spectrum)
                for c, v in zip(comps, m.reshape(-1))
            ]
            chi3_rows = [
                (w, w, w, w, a + b, v.real, v.imag)
                for (w, _, _), t in zip(quads, tensors)
                for (a, b), v in zip(((a, b) for a in comps for b in comps), t)
            ]
            write_csv_per_cell(ref / "chi1.csv", ("omega", "component", "re", "im"), chi1_rows)
            write_csv_per_cell(ref / "chi3.csv", ("w", "w1", "w2", "w3", "component", "re", "im"), chi3_rows)
            assert "-0" in (out / "chi1.csv").read_text().replace("\n", ",").split(",")
        for name in (f"chi1.{fmt}", f"chi3.{fmt}"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()


class TestEntryPoints:
    """``--config`` and ``--medium``/``--lambda`` files holding its sections write the same bytes."""

    @pytest.mark.parametrize(
        "command, flags, name",
        [
            ("displacement", ["--in"], "displacement.json"),
            ("duffing-compare", ["--drive-freq", "0.24"], "duffing_compare.json"),
        ],
    )
    def test_same_bytes(self, config_path, tmp_path, command, flags, name):
        cfg = read_json(config_path)
        medium, lam, comb = tmp_path / "m.json", tmp_path / "l.json", tmp_path / "comb.json"
        medium.write_text(json.dumps(cfg["medium"]))
        lam.write_text(json.dumps(cfg["lambda"]))
        comb.write_text(json.dumps([{"omega": 0.9, "amp": [[0.1, 0.02], [0.0, 0.0], [0.0, 0.0]]}]))
        if command == "displacement":
            flags = flags + [str(comb)]
        sources = {
            "config": ["--config", config_path, command],
            "files": [command, "--medium", str(medium), "--lambda", str(lam)],
        }
        written = []
        for tag, argv in sources.items():
            out = tmp_path / tag
            assert main(["--out", str(out), "--seed", "7"] + argv + flags) == EXIT_OK
            written.append((out / name).read_bytes())
        assert written[0] == written[1]

    def test_each_file_is_read_once(self, config_path, tmp_path, monkeypatch):
        cfg = read_json(config_path)
        medium, lam = tmp_path / "m.json", tmp_path / "l.json"
        medium.write_text(json.dumps(cfg["medium"]))
        lam.write_text(json.dumps(cfg["lambda"]))
        reads = []

        def counting_load(path):
            reads.append(str(path))
            return load_json_file(path)

        monkeypatch.setattr(cli, "load_json_file", counting_load)
        files = ["--medium", str(medium), "--lambda", str(lam)]
        for config in ([], ["--config", config_path]):
            reads.clear()
            argv = ["--out", str(tmp_path / "out")] + config + ["duffing-compare", "--drive-freq", "0.24"] + files
            assert main(argv) == EXIT_OK
            assert sorted(reads) == sorted(config[1:] + [str(medium), str(lam)])
