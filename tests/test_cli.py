import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import erestab.cli
import erestab.scan
from erestab import __version__
from erestab.cli import (
    _COMMANDS,
    MAX_RANGE_POINTS,
    ConfigError,
    _atomic_write,
    _build_parser,
    main,
    parse_range,
    run,
)
from erestab.linearization import symmetric_beta
from erestab.polygon_config import PolygonSystem, Site, solve_site
from erestab.svg import emit_svg

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"
SRC = Path(__file__).parent.parent / "src"


def run_cli(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_flag_rejected(args, tmp_path, monkeypatch, capsys):
    """argparse exits 2 on the last flag of ``args`` and nothing is written."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert args[-2] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def assert_config_rejected(args, config, tmp_path, monkeypatch, capsys) -> str:
    """``args`` with a config file holding ``config`` exits 2 and writes
    nothing; returns the error text."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run_cli(args + ["--config", str(cfg)], tmp_path, monkeypatch, capsys)
    assert code == 2 and "configuration error" in err
    assert list(tmp_path.iterdir()) == [cfg]
    return err


class TestRangeParsing:
    def test_inclusive_endpoints(self):
        assert parse_range("0:9:3") == [0.0, 3.0, 6.0, 9.0]
        # a grid value within half a step of stop counts as the endpoint
        assert parse_range("0:0.95:0.02")[-1] == pytest.approx(0.96)
        assert parse_range("0:0.94:0.02")[-1] == pytest.approx(0.94)
        vals = parse_range("0:1:0.1")
        assert len(vals) == 11 and vals[-1] == pytest.approx(1.0)

    def test_single_and_list(self):
        assert parse_range("0.5") == [0.5]
        assert parse_range("0.1,0.2") == [0.1, 0.2]

    def test_bad_inputs(self):
        for text in ("0:1", "1:0:0.1", "0:1:-0.5", "a,b"):
            with pytest.raises(ConfigError):
                parse_range(text)

    # 9 / 1e-310 overflows to inf; 9 / 1e-9 would be a list of 9e9 floats.
    @pytest.mark.parametrize("text", ["0:9:1e-310", "0:9:1e-9"])
    def test_oversized_range_is_2_and_writes_nothing(self, text, tmp_path, monkeypatch, capsys):
        code, _, err = run_cli(["scan-theta", "--beta", text, "--e", "0", "--csv", "x.csv"],
                               tmp_path, monkeypatch, capsys)
        assert code == 2 and f"fewer than {MAX_RANGE_POINTS} steps" in err
        assert list(tmp_path.iterdir()) == []


class TestStabilityCommand:
    def test_symmetric_chain_end_to_end(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["stability", "--family", "collinear", "--m", "0.25,0.5,0.25",
             "--e", "0.0", "--tol", "1e-10"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["beta_hls"] == pytest.approx(symmetric_beta(0.5), abs=1e-9)
        assert data["lambda3"] + data["lambda4"] == pytest.approx(3.0, abs=1e-9)
        assert data["verdict"] == "Hyperbolic"
        assert len(data["eigenvalues"]) == 4

    def test_guess_seeds_equilibrium(self, tmp_path, monkeypatch, capsys):
        args = ["stability", "--family", "collinear", "--m", "0.25,0.5,0.25", "--e", "0"]
        runs = [run_cli(args + extra, tmp_path, monkeypatch, capsys)
                for extra in ([], ["--guess", "0,1"], ["--guess", "0.1,1.2"])]
        assert [code for code, _, _ in runs] == [0, 0, 0]
        default, same, near = (json.loads(out) for _, out, _ in runs)
        assert same == default
        assert near["beta_hls"] == pytest.approx(default["beta_hls"], abs=1e-9)

    def test_polygon_family(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["stability", "--family", "polygon", "--n", "8", "--m0-over-m", "1000",
             "--site", "S3", "--e", "0.1", "--tol", "1e-10"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "StronglyLinearlyStable"


class TestMstarCommand:
    def test_writes_json_and_manifest(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run_cli(["find-mstar", "--mstar-tol", "1e-6"],
                               tmp_path, monkeypatch, capsys)
        assert code == 0
        assert 0.84 < json.loads(out)["m_star"] < 0.87
        saved = json.loads((tmp_path / "mstar.json").read_text())
        assert set(saved) == {"m_star", "bracket", "bracket_width", "tolerance"}
        assert saved["bracket_width"] < 1e-6
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "find-mstar"
        assert manifest["version"]
        assert manifest["artifacts"] == ["mstar.json"]
        assert set(manifest) >= {"command", "parameters", "tolerances", "version",
                                 "started_at", "duration_s"}

    def test_non_monotone_chain_is_3_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # beta(m2) crosses 1 at m2 = 1/3 and is back above 1 on [0.5, 0.7)
        monkeypatch.setattr(erestab.scan, "symmetric_beta",
                            lambda m: 2.0 - 3.0 * m if m < 0.5 else (1.5 if m < 0.7 else 0.5))
        code, _, err = run_cli(["find-mstar", "--json", "m.json"], tmp_path, monkeypatch, capsys)
        assert code == 3 and "not monotone" in err
        assert list(tmp_path.iterdir()) == []


class TestScanThetaCommand:
    ARGS = ["scan-theta", "--beta", "0.5,2.0", "--e", "0,0.2",
            "--csv", "out.csv", "--tol", "1e-10"]

    # The mass and polygon goldens each hold failed rows: the inadmissible
    # (0.6, 0.6) cell and the 1e30 site-bracket failures.
    @pytest.mark.parametrize(
        "golden, args",
        [
            ("golden_theta.csv", ARGS),
            ("golden_mass.csv",
             ["scan-mass", "--m1", "0.05,0.6", "--m3", "0.05,0.6", "--e", "0",
              "--csv", "out.csv", "--tol", "1e-10"]),
            ("golden_polygon.csv",
             ["polygon-verdicts", "--n", "8", "--m0-over-m", "1000,1e30", "--e", "0",
              "--sites", "S1,S3", "--csv", "out.csv", "--tol", "1e-10"]),
        ],
        ids=["theta", "mass", "polygon"],
    )
    def test_matches_golden_csv(self, golden, args, tmp_path, monkeypatch, capsys):
        code, _, _ = run_cli(list(args), tmp_path, monkeypatch, capsys)
        assert code == 0
        assert (tmp_path / "out.csv").read_text() == (DATA / golden).read_text()

    def test_matches_golden_json(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run_cli(self.ARGS + ["--json", "out.json"], tmp_path, monkeypatch, capsys)
        assert code == 0
        assert (tmp_path / "out.json").read_text() == (DATA / "golden_theta.json").read_text()

    def test_rerun_byte_identical(self, tmp_path, monkeypatch, capsys):
        run_cli(list(self.ARGS), tmp_path, monkeypatch, capsys)
        first = (tmp_path / "out.csv").read_bytes()
        run_cli(list(self.ARGS), tmp_path, monkeypatch, capsys)
        assert (tmp_path / "out.csv").read_bytes() == first

    def test_csv_schema_header(self, tmp_path, monkeypatch, capsys):
        run_cli(list(self.ARGS), tmp_path, monkeypatch, capsys)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0].startswith("# erestab scan-theta csv v1 settings=")
        assert lines[1].split(",")[:7] == [
            "beta", "e", "verdict", "phi_1", "nu_1", "phi_m1", "nu_m1"
        ]


class TestConfigFile:
    def test_overrides_flags(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "find-mstar",
            "parameters": {"tol": 1e-6},
            "output": {"json": "custom.json"},
        }))
        code, _, _ = run_cli(["find-mstar", "--mstar-tol", "1e-5", "--config", str(cfg)],
                             tmp_path, monkeypatch, capsys)
        assert code == 0
        assert json.loads((tmp_path / "custom.json").read_text())["tolerance"] == 1e-6

    def test_unknown_keys_rejected(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "find-mstar", "parameters": {"bogus": 1}}))
        code, _, err = run_cli(["find-mstar", "--config", str(cfg)],
                               tmp_path, monkeypatch, capsys)
        assert code == 2
        assert "bogus" in err


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path, monkeypatch, capsys):
        code, _, err = run_cli(["index", "--alpha", "oops", "--beta", "1", "--e", "0",
                                "--omega", "1"], tmp_path, monkeypatch, capsys)
        assert code == 2 and "configuration error" in err
        code, _, _ = run_cli(["stability", "--family", "collinear", "--m", "0.5,0.5,0.5",
                              "--e", "2.0"], tmp_path, monkeypatch, capsys)
        assert code == 2

    def test_numerical_failure_is_3(self, tmp_path, monkeypatch, capsys):
        # heavy-center site collapses onto the vertex circle past the bracket
        code, _, err = run_cli(
            ["polygon", "--n", "8", "--m0-over-m", "1e30", "--site", "S1"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 3 and "numerical failure" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["scan-mass", "--m1", "0.1", "--m3", "0.1", "--e", "2.0"],
            ["polygon-verdicts", "--n", "8", "--m0-over-m", "1000", "--e", "2.0",
             "--sites", "S3"],
        ],
        ids=["scan-mass", "polygon-verdicts"],
    )
    def test_out_of_range_sweep_e_is_2(self, args, tmp_path, monkeypatch, capsys):
        code, _, err = run_cli(args + ["--csv", "out.csv"], tmp_path, monkeypatch, capsys)
        assert code == 2 and "configuration error" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["scan-theta", "--beta", ",", "--e", "0"],
            ["scan-theta", "--beta", "1", "--e", ","],
            ["scan-mass", "--m1", ",", "--m3", "0.2"],
            ["polygon-verdicts", "--n", ",", "--m0-over-m", "1000", "--e", "0"],
        ],
        ids=["scan-theta-beta", "scan-theta-e", "scan-mass", "polygon-verdicts"],
    )
    def test_empty_sweep_list_is_2(self, args, tmp_path, monkeypatch, capsys):
        code, out, err = run_cli(args + ["--csv", "out.csv"], tmp_path, monkeypatch, capsys)
        assert code == 2 and "nonempty" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args",
        [
            ["index", "--alpha", "0.5", "--beta", "1.5", "--e", "0.995", "--omega", "-1"],
            ["stability", "--family", "collinear", "--m", "0.25,0.5,0.25", "--e", "0.995"],
            ["stability", "--family", "polygon", "--n", "8", "--m0-over-m", "1000",
             "--site", "S3", "--e", "0.995"],
        ],
        ids=["index", "stability-collinear", "stability-polygon"],
    )
    def test_eccentricity_above_limit_is_2(self, args, tmp_path, monkeypatch, capsys):
        code, out, err = run_cli(args, tmp_path, monkeypatch, capsys)
        assert code == 2 and "configuration error" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    CC = ["cc", "--m", "2,3,5"]
    POLYGON = ["polygon", "--n", "8", "--m0-over-m", "1000", "--site", "S3"]
    STABILITY = ["stability", "--family", "collinear", "--m", "0.25,0.5,0.25", "--e", "0"]
    STABILITY_POLYGON = ["stability", "--family", "polygon", "--n", "8",
                         "--m0-over-m", "1000", "--site", "S3", "--e", "0.1"]
    INDEX = ["index", "--alpha", "0.5", "--beta", "1.5", "--e", "0.2", "--omega", "-1"]

    UNWRITTEN_OUTPUTS = [
        (INDEX, "csv"),
        (INDEX, "svg"),
        (CC, "csv"),
        (POLYGON, "svg"),
        (STABILITY, "csv"),
        (["find-mstar"], "svg"),
        (["polygon-verdicts", "--n", "8", "--m0-over-m", "1000", "--e", "0",
          "--sites", "S3"], "svg"),
    ]

    @pytest.mark.parametrize("args, key", UNWRITTEN_OUTPUTS,
                             ids=[f"{a[0]}-{k}" for a, k in UNWRITTEN_OUTPUTS])
    def test_unwritten_output_flag_is_2(self, args, key, tmp_path, monkeypatch, capsys):
        assert_flag_rejected(args + [f"--{key}", f"out.{key}"], tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("args, key", UNWRITTEN_OUTPUTS,
                             ids=[f"{a[0]}-{k}" for a, k in UNWRITTEN_OUTPUTS])
    def test_unwritten_output_config_key_is_2(self, args, key, tmp_path, monkeypatch,
                                              capsys):
        err = assert_config_rejected(args, {"output": {key: f"out.{key}"}},
                                     tmp_path, monkeypatch, capsys)
        assert key in err

    # A prefix of a flag is not that flag: argparse would otherwise take
    # --m for --m0-over-m and --site for --sites.
    ABBREVIATED_FLAGS = [
        ["polygon", "--n", "8", "--site", "S3", "--json", "out.json", "--m", "1000"],
        ["polygon-verdicts", "--n", "8", "--m0-over-m", "1000", "--e", "0",
         "--sites", "S3", "--json", "out.json", "--site", "S1"],
    ]

    @pytest.mark.parametrize("args", ABBREVIATED_FLAGS,
                             ids=[f"{a[0]}{a[-2]}" for a in ABBREVIATED_FLAGS])
    def test_abbreviated_flag_is_2(self, args, tmp_path, monkeypatch, capsys):
        assert_flag_rejected(args, tmp_path, monkeypatch, capsys)

    # Only stability and the three sweeps integrate, so only they read the
    # tolerances; find-mstar's own tolerance is --mstar-tol / parameters.tol.
    UNREAD_TOLERANCES = [
        (args + ["--json", "out.json"], key)
        for args in (CC, POLYGON, INDEX, ["find-mstar"])
        for key in ("tol", "circle_tol")
    ]

    @pytest.mark.parametrize("args, key", UNREAD_TOLERANCES,
                             ids=[f"{a[0]}-{k}" for a, k in UNREAD_TOLERANCES])
    def test_unread_tolerance_flag_is_2(self, args, key, tmp_path, monkeypatch, capsys):
        flag = "--" + key.replace("_", "-")
        assert_flag_rejected(args + [flag, "1e-9"], tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("args, key", UNREAD_TOLERANCES,
                             ids=[f"{a[0]}-{k}" for a, k in UNREAD_TOLERANCES])
    def test_unread_tolerance_config_key_is_2(self, args, key, tmp_path, monkeypatch,
                                              capsys):
        err = assert_config_rejected(args, {"tolerances": {key: 1e-9}},
                                     tmp_path, monkeypatch, capsys)
        assert key in err

    # Each stability family reads only its own parameters besides family and
    # e: collinear m and guess, polygon n, m0_over_m and site.
    OTHER_FAMILY = [
        (STABILITY, "n", "8"),
        (STABILITY, "m0_over_m", "1000"),
        (STABILITY, "site", "S3"),
        (STABILITY_POLYGON, "m", "0.2,0.3"),
        (STABILITY_POLYGON, "guess", "5,5"),
    ]

    @pytest.mark.parametrize("args, key, value", OTHER_FAMILY,
                             ids=[f"{a[2]}-{k}" for a, k, _ in OTHER_FAMILY])
    def test_other_family_flag_is_2(self, args, key, value, tmp_path, monkeypatch, capsys):
        flag = "--" + key.replace("_", "-")
        code, _, err = run_cli(args + [flag, value, "--json", "s.json"],
                               tmp_path, monkeypatch, capsys)
        assert code == 2 and flag in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, key, value", OTHER_FAMILY,
                             ids=[f"{a[2]}-{k}" for a, k, _ in OTHER_FAMILY])
    def test_other_family_config_key_is_2(self, args, key, value, tmp_path, monkeypatch,
                                          capsys):
        err = assert_config_rejected(args + ["--json", "s.json"],
                                     {"parameters": {key: value}},
                                     tmp_path, monkeypatch, capsys)
        assert "--" + key.replace("_", "-") in err

    def test_bad_tolerance_writes_nothing(self, tmp_path, monkeypatch, capsys):
        code, _, err = run_cli(self.STABILITY + ["--tol", "banana", "--json", "s.json"],
                               tmp_path, monkeypatch, capsys)
        assert code == 2 and "banana" in err
        assert list(tmp_path.iterdir()) == []

    # Tolerances every point would reject: an integrator tolerance below
    # 1e-13 or a circle tolerance outside (0, 1).
    BAD_TOLERANCES = [
        (STABILITY_POLYGON, "circle_tol", -1.0),
        (STABILITY_POLYGON, "circle_tol", 1.0),
        (["scan-theta", "--beta", "1,2", "--e", "0.1"], "tol", 1e-20),
        (["scan-theta", "--beta", "1,2", "--e", "0.1"], "circle_tol", 0.0),
        (["scan-theta", "--beta", "8", "--e", "0.3"], "circle_tol", 5.0),
        (["scan-mass", "--m1", "0.1", "--m3", "0.1"], "circle_tol", -1e-6),
        (["polygon-verdicts", "--n", "8", "--m0-over-m", "1000", "--e", "0",
          "--sites", "S3"], "tol", 1e-20),
    ]
    BAD_TOLERANCE_IDS = [f"{a[0]}-{k}={v:g}" for a, k, v in BAD_TOLERANCES]

    @pytest.mark.parametrize("args, key, value", BAD_TOLERANCES, ids=BAD_TOLERANCE_IDS)
    def test_bad_tolerance_value_is_2(self, args, key, value, tmp_path, monkeypatch, capsys):
        flag = "--" + key.replace("_", "-")
        code, _, err = run_cli(args + [f"{flag}={value}", "--json", "out.json"],
                               tmp_path, monkeypatch, capsys)
        assert code == 2 and "tolerance" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, key, value", BAD_TOLERANCES, ids=BAD_TOLERANCE_IDS)
    def test_bad_tolerance_config_value_is_2(self, args, key, value, tmp_path, monkeypatch,
                                             capsys):
        err = assert_config_rejected(args + ["--json", "out.json"],
                                     {"tolerances": {key: value}}, tmp_path, monkeypatch, capsys)
        assert "tolerance" in err

    # A list given to a parameter that takes one value, with the flag whose
    # value it replaces.
    ONE_VALUE_LISTS = [
        (POLYGON, "--n", [8, 12]),
        (POLYGON, "--site", ["S3", "S1"]),
        (POLYGON, "--m0-over-m", [10, 100]),
        (STABILITY_POLYGON, "--n", [4, 8]),
        (STABILITY_POLYGON, "--site", ["S3", "S2"]),
        (STABILITY_POLYGON, "--e", [0.1, 0.2]),
        (INDEX, "--alpha", [0.5, 0.7]),
    ]
    ONE_VALUE_IDS = [f"{a[0]}{f}" for a, f, _ in ONE_VALUE_LISTS]

    @pytest.mark.parametrize("args, flag, values", ONE_VALUE_LISTS, ids=ONE_VALUE_IDS)
    def test_list_for_one_value_flag_is_2(self, args, flag, values, tmp_path, monkeypatch,
                                          capsys):
        argv = list(args)
        argv[argv.index(flag) + 1] = ",".join(str(v) for v in values)
        code, _, err = run_cli(argv + ["--json", "out.json"], tmp_path, monkeypatch, capsys)
        assert code == 2 and "configuration error" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, flag, values", ONE_VALUE_LISTS, ids=ONE_VALUE_IDS)
    def test_list_for_one_value_config_key_is_2(self, args, flag, values, tmp_path,
                                                monkeypatch, capsys):
        i = args.index(flag)
        key = flag[2:].replace("-", "_")
        assert_config_rejected(args[:i] + args[i + 2:] + ["--json", "out.json"],
                               {"parameters": {key: values}}, tmp_path, monkeypatch, capsys)

    # A number that is not finite, with the flag whose value it replaces.
    NON_FINITE = [
        (INDEX, "--alpha", "nan"),
        (INDEX, "--beta", "inf"),
        (INDEX[:-2] + ["--rho", "0.25"], "--rho", "nan"),
        (POLYGON, "--m0-over-m", "inf"),
        (STABILITY, "--m", "0.25,nan,0.25"),
        (["scan-mass", "--m1", "0.1", "--m3", "0.1"], "--m1", "nan"),
        (["scan-theta", "--beta", "1", "--e", "0"], "--beta", "0:inf:1"),
        (["polygon-verdicts", "--n", "8", "--m0-over-m", "1000", "--e", "0",
          "--sites", "S3"], "--m0-over-m", "10,nan"),
    ]

    @pytest.mark.parametrize("args, flag, value", NON_FINITE,
                             ids=[f"{a[0]}{f}={v}" for a, f, v in NON_FINITE])
    def test_non_finite_number_is_2(self, args, flag, value, tmp_path, monkeypatch, capsys):
        argv = list(args)
        argv[argv.index(flag) + 1] = value
        code, _, err = run_cli(argv + ["--json", "out.json"], tmp_path, monkeypatch, capsys)
        assert code == 2 and "finite" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args, config",
        [
            (INDEX, {"parameters": {"alpha": float("nan")}}),
            (["scan-mass", "--m3", "0.1"], {"parameters": {"m1": [0.1, float("inf")]}}),
            (STABILITY, {"tolerances": {"tol": float("nan")}}),
        ],
        ids=["index-alpha", "scan-mass-m1", "stability-tol"],
    )
    def test_non_finite_config_value_is_2(self, args, config, tmp_path, monkeypatch,
                                          capsys):
        err = assert_config_rejected(args + ["--json", "out.json"], config,
                                     tmp_path, monkeypatch, capsys)
        assert "finite" in err

    @pytest.mark.parametrize("guess", ["0.5", "0.5,1,2"], ids=["one", "three"])
    def test_guess_not_a_point_is_2(self, guess, tmp_path, monkeypatch, capsys):
        code, _, err = run_cli(self.STABILITY + ["--guess", guess, "--json", "out.json"],
                               tmp_path, monkeypatch, capsys)
        assert code == 2 and "two numbers" in err
        assert list(tmp_path.iterdir()) == []

    def test_missing_parameter_is_2(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run_cli(["scan-theta", "--beta", "0:1:0.5"],
                             tmp_path, monkeypatch, capsys)
        assert code == 2

    # Inputs rejected after parsing, with a text of the error each one gives.
    REJECTED = [
        ([], "command is required"),
        (["stability", "--family", "other", "--e", "0"], "family must be"),
        (INDEX + ["--rho", "0.25"], "exactly one of --omega and --rho"),
        (INDEX[:-2], "exactly one of --omega and --rho"),
        (INDEX[:-1] + ["0.5"], "--omega accepts 1 or -1"),
        (["polygon", "--n", "8.5", "--m0-over-m", "1000", "--site", "S3"], "integer"),
        (["polygon-verdicts", "--n", "8", "--m0-over-m", "1000", "--e", "0",
          "--sites", "S4"], "S1,S2,S3"),
    ]

    @pytest.mark.parametrize("args, message", REJECTED,
                             ids=["no-command", "family", "omega-and-rho",
                                  "neither-omega-nor-rho", "omega-0.5", "n-8.5", "sites-S4"])
    def test_rejected_input_is_2(self, args, message, tmp_path, monkeypatch, capsys):
        code, out, err = run_cli(args + ["--json", "out.json"] if args else [],
                                 tmp_path, monkeypatch, capsys)
        assert code == 2 and message in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    # Config files that cannot be used, as the text of the file (None: no
    # file at all), with the command they are given to.
    BAD_CONFIG_FILES = [
        (["find-mstar"], None, "cannot read config file"),
        (["find-mstar"], "{", "cannot read config file"),
        (["find-mstar"], "[1]", "must hold a JSON object"),
        (["find-mstar"], '{"bogus": 1}', "bogus"),
        (["find-mstar"], '{"command": "cc"}', "conflicts"),
        (["find-mstar"], '{"parameters": [1]}', "must be an object"),
        (CC, '{"parameters": {"m": {"a": 1}}}', "expected a number"),
    ]

    @pytest.mark.parametrize("args, text, message", BAD_CONFIG_FILES,
                             ids=["missing", "malformed", "list", "unknown-key",
                                  "other-command", "parameters-list", "m-object"])
    def test_bad_config_file_is_2(self, args, text, message, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.json"
        if text is not None:
            cfg.write_text(text)
        code, out, err = run_cli(args + ["--json", "out.json", "--config", str(cfg)],
                                 tmp_path, monkeypatch, capsys)
        assert code == 2 and message in err
        assert out == ""
        assert list(tmp_path.iterdir()) == ([] if text is None else [cfg])

    @staticmethod
    def forbid_computing(monkeypatch):
        def computed(*args, **kwargs):
            raise AssertionError("computed before the output paths were checked")

        for name in ("collinear_config", "morse_index", "scan_theta"):
            monkeypatch.setattr(erestab.cli, name, computed)

    def test_output_directory_missing_is_2(self, tmp_path, monkeypatch, capsys):
        self.forbid_computing(monkeypatch)
        path = str(tmp_path / "nonexistent" / "dir" / "out.json")
        code, out, err = run_cli(self.INDEX + ["--json", path], tmp_path, monkeypatch, capsys)
        assert code == 2 and "is not a directory" in err and path in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_output_directory_a_file_is_2(self, tmp_path, monkeypatch, capsys):
        self.forbid_computing(monkeypatch)
        readme = tmp_path / "README.md"
        readme.write_text("text\n")
        code, out, err = run_cli(["scan-theta", "--beta", "1.5", "--e", "0.3",
                                  "--csv", "README.md/x.csv"], tmp_path, monkeypatch, capsys)
        assert code == 2 and "README.md/x.csv" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == [readme]

    @pytest.mark.parametrize("args, output", [
        (INDEX, {"json": 5}),
        (["scan-theta", "--beta", "1.5", "--e", "0.3"], {"csv": ""}),
    ], ids=["json-number", "csv-empty"])
    def test_output_not_a_path_is_2(self, args, output, tmp_path, monkeypatch, capsys):
        self.forbid_computing(monkeypatch)
        err = assert_config_rejected(args, {"output": output}, tmp_path, monkeypatch, capsys)
        assert "must be a non-empty path" in err

    # Outputs that would write one file twice: two outputs on one file, or
    # an output on the manifest.json that lands next to the first artifact.
    COLLIDING_OUTPUTS = [
        ["cc", "--m", "0.5,0.3,0.2", "--json", "manifest.json"],
        ["scan-theta", "--beta", "1.5", "--e", "0.3", "--csv", "out.txt", "--json", "out.txt"],
        ["scan-theta", "--beta", "1.5", "--e", "0.3", "--csv", "./out.txt", "--json", "out.txt"],
    ]

    @pytest.mark.parametrize("args", COLLIDING_OUTPUTS,
                             ids=["json-on-manifest", "csv-and-json", "dot-slash"])
    def test_colliding_outputs_are_2(self, args, tmp_path, monkeypatch, capsys):
        self.forbid_computing(monkeypatch)
        code, out, err = run_cli(args, tmp_path, monkeypatch, capsys)
        assert code == 2 and "must name distinct files" in err
        assert args[-1] in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output_is_2(self, tmp_path, monkeypatch, capsys):
        # a directory where the file should go: the write itself fails
        (tmp_path / "out.json").mkdir()
        code, out, err = run_cli(self.INDEX + ["--json", "out.json"],
                                 tmp_path, monkeypatch, capsys)
        assert code == 2 and "cannot write out.json: Is a directory" in err
        assert out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert list((tmp_path / "out.json").iterdir()) == []

    def test_unknown_command_in_run_config(self):
        with pytest.raises(ConfigError, match="unknown command"):
            run({"command": "nope", "parameters": {}, "output": {}, "tolerances": {}})

    def test_run_config_without_a_command(self):
        with pytest.raises(ConfigError, match="needs a command"):
            run({"parameters": {}})

    # A Python caller of run() gets the layout checks of a config file.
    @pytest.mark.parametrize("cfg, message", [
        ({"command": "cc", "parameters": {"m": "0.5,0.3,0.2"}, "outputs": {"json": "x.json"}},
         "unknown config keys: ['outputs']"),
        ({"command": "cc", "parameters": {"m": "0.5,0.3,0.2"}, "output": None},
         "config section 'output' must be an object"),
    ], ids=["outputs-misspelled", "output-none"])
    def test_run_config_layout_is_checked(self, cfg, message, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError) as exc:
            run(cfg)
        assert message in str(exc.value)
        assert list(tmp_path.iterdir()) == []

    def test_missing_run_config_sections_are_empty(self):
        summary, artifacts = run({"command": "polygon",
                                  "parameters": {"n": 8, "m0_over_m": 1000, "site": "S3"}})
        assert artifacts == []
        assert summary == run({"command": "polygon", "output": {}, "tolerances": {},
                               "parameters": {"n": 8, "m0_over_m": 1000, "site": "S3"}})[0]

    # A one-element list or a range of one point is one value, for every
    # parameter that takes one value.
    ONE_VALUE_FORMS = [
        ("--n", [8]),
        ("--n", "8:8:1"),
        ("--m0-over-m", [1000]),
        ("--m0-over-m", "1000:1000:1"),
        ("--site", ["S3"]),
    ]

    @pytest.mark.parametrize("flag, value", ONE_VALUE_FORMS,
                             ids=[f"{f}={v}" for f, v in ONE_VALUE_FORMS])
    def test_one_element_list_is_one_value(self, flag, value, tmp_path, monkeypatch, capsys):
        code, _, _ = run_cli(self.POLYGON + ["--json", "plain.json"],
                             tmp_path, monkeypatch, capsys)
        assert code == 0
        i = self.POLYGON.index(flag)
        if isinstance(value, str):
            args = self.POLYGON[:i + 1] + [value] + self.POLYGON[i + 2:]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"parameters": {flag[2:].replace("-", "_"): value}}))
            args = self.POLYGON[:i] + self.POLYGON[i + 2:] + ["--config", str(cfg)]
        code, _, _ = run_cli(args + ["--json", "one.json"], tmp_path, monkeypatch, capsys)
        assert code == 0
        assert (tmp_path / "one.json").read_text() == (tmp_path / "plain.json").read_text()


INDEX_POINT = ["index", "--alpha", "0.5", "--beta", "1.5", "--e", "0.2"]


class TestIndexCommand:
    def test_anchor_value(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["index", "--alpha", "0.5", "--beta", "1.5", "--e", "0.2", "--omega", "-1"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["phi"] == 2 and data["nu"] == 0

    def test_rho_parameterization(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["index", "--alpha", "0.5", "--beta", "0.5", "--e", "0.0", "--rho", "0.25"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        assert json.loads(out)["rho"] == pytest.approx(0.25)

    # 0.005, 0.006, 0.985 and 0.996 each came back one ulp off through
    # e^{2 pi i rho} and its phase; -1e-20 wraps to 1.0 before it wraps to 0
    @pytest.mark.parametrize("rho, solved", [
        ("0.005", 0.005), ("0.006", 0.006), ("0.985", 0.985), ("0.996", 0.996),
        ("1.25", 0.25), ("-0.25", 0.75), ("-1e-20", 0.0),
    ])
    def test_rho_is_solved_and_reported_as_given(self, rho, solved, tmp_path, monkeypatch,
                                                 capsys):
        code, out, _ = run_cli(INDEX_POINT + [f"--rho={rho}"], tmp_path, monkeypatch, capsys)
        assert code == 0
        assert json.loads(out)["rho"] == solved

    def test_rho_one_is_omega_one(self, tmp_path, monkeypatch, capsys):
        outputs = []
        for flags in (["--rho", "1"], ["--omega", "1"]):
            code, out, _ = run_cli(INDEX_POINT + flags, tmp_path, monkeypatch, capsys)
            assert code == 0
            outputs.append(json.loads(out))
        assert outputs[0]["rho"] == 0.0
        assert outputs[0] == outputs[1]


def run_in_subprocess(argv, tmp_path, blas_threads):
    """``python argv`` in a fresh interpreter with ``blas_threads`` BLAS
    threads; returns the completed process."""
    threads = str(blas_threads)
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads,
           "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
    return subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True,
                          text=True, env=env, timeout=120)


# A sweep integrates its points as one batch, and OpenBLAS may split a batch's
# stage sums over threads once m x n passes about 9216; a one-point sum, 16
# rows, never did.  CI pins one thread, so these are the only guards of the
# bits at two.
def test_mass_golden_at_two_blas_threads(tmp_path):
    args = ["scan-mass", "--m1", "0.05,0.6", "--m3", "0.05,0.6", "--e", "0",
            "--csv", "out.csv", "--tol", "1e-10"]
    assert run_in_subprocess(["-m", "erestab.cli", *args], tmp_path, 2).returncode == 0
    assert (tmp_path / "out.csv").read_text() == (DATA / "golden_mass.csv").read_text()


# 100 points make 1600 rows, past the threshold from the fifth stage on
BATCH_DIGEST = """
import hashlib
import numpy as np
from erestab.linearization import StabilityParams
from erestab.monodromy import integrate_fundamentals
ps = [StabilityParams.from_beta_hls(0.09 * i, 0.0095 * i) for i in range(100)]
digest = hashlib.sha256()
for mono in integrate_fundamentals(ps, 1e-12):
    digest.update(mono.gamma_end.tobytes() + repr(mono.step_metadata).encode())
print(digest.hexdigest())
"""


def test_batch_bits_at_two_blas_threads(tmp_path):
    digests = [run_in_subprocess(["-c", BATCH_DIGEST], tmp_path, threads).stdout
               for threads in (1, 2)]
    assert digests[0] and digests[0] == digests[1]


# The single-point commands of the README, one golden file each.  They run in
# a fresh interpreter with one BLAS thread, as CI does: the last bits of a
# dense eigensolve, and so min_eigenvalue and kernel_gap, depend on the
# thread count.
@pytest.mark.parametrize(
    "golden, args",
    [
        ("golden_index_omega_minus_one.json", INDEX_POINT + ["--omega", "-1"]),
        ("golden_index_omega_one.json", INDEX_POINT + ["--omega", "1"]),
        ("golden_index_rho_quarter.json", INDEX_POINT + ["--rho", "0.25"]),
        ("golden_stability_collinear.json",
         ["stability", "--family", "collinear", "--m", "0.25,0.5,0.25", "--e", "0.0"]),
        ("golden_stability_polygon.json",
         ["stability", "--family", "polygon", "--n", "8", "--m0-over-m", "1000",
          "--site", "S3", "--e", "0.1"]),
    ],
    ids=["index-omega-minus-one", "index-omega-one", "index-rho-quarter",
         "stability-collinear", "stability-polygon"],
)
def test_single_point_json_matches_golden(golden, args, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-m", "erestab.cli", *args, "--json", "out.json"],
                          cwd=tmp_path, capture_output=True, env=env, timeout=120)
    assert done.returncode == 0
    assert (tmp_path / "out.json").read_text() == (DATA / golden).read_text()


# Every verdict class plus an unknown one (drawn in the Error colour), all on
# one x so that the x range is degenerate; the middle curve has no points.
GOLDEN_CHART_POINTS = [
    (2.5, 0.1 * k + 0.0125, cls)
    for k, cls in enumerate(
        ["StronglyLinearlyStable", "LinearlyStable", "SpectrallyStableNotLinear",
         "Hyperbolic", "Unstable", "Error", "NotAVerdict"]
    )
]
GOLDEN_CHART_CURVES = [
    ("BetaS", [(2.5, 0.05), (2.5, 0.3333333)]),
    ("BetaM", []),
    ("BetaK", [(2.5, 0.2), (2.5, 0.45), (2.5, 0.7071)]),
]


class TestSvg:
    def test_chart_matches_golden(self):
        doc = emit_svg(GOLDEN_CHART_POINTS, GOLDEN_CHART_CURVES,
                       title="stability over (beta, e)", xlabel="beta", ylabel="e")
        assert doc == (DATA / "golden_chart.svg").read_text()

    def test_empty_chart_matches_golden(self):
        assert emit_svg([]) == (DATA / "golden_chart_empty.svg").read_text()

    def test_empty_plot_valid_with_warning(self):
        doc = emit_svg([], [], title="empty")
        assert doc.startswith("<svg ") and doc.rstrip().endswith("</svg>")
        assert "warning: no data" in doc

    def test_single_point_marker_class(self):
        doc = emit_svg([(1.0, 2.0, "StronglyLinearlyStable")], [])
        assert doc.count('class="StronglyLinearlyStable"') == 1
        assert "warning" not in doc

    def test_deterministic_bytes(self):
        pts = [(0.1, 0.2, "Unstable"), (0.4, 0.1, "LinearlyStable")]
        curves = [("BetaS", [(0.1, 0.0), (0.2, 0.5)])]
        assert emit_svg(pts, curves) == emit_svg(pts, curves)

    def test_curves_labeled(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run_cli(
            ["scan-theta", "--beta", "0:9:4.5", "--e", "0", "--svg", "plot.svg",
             "--tol", "1e-9"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        doc = (tmp_path / "plot.svg").read_text()
        for name in ("BetaS", "BetaM", "BetaK"):
            assert f'class="{name}"' in doc

    def test_curve_rows_thinned_to_eleven(self, tmp_path, monkeypatch, capsys):
        asked = []

        def no_curves(e_list, settings):
            asked.append(list(e_list))
            return []

        monkeypatch.setattr(erestab.cli, "find_curves", no_curves)
        code, _, _ = run_cli(["scan-theta", "--beta", "9", "--e", "0:0.9:0.05",
                              "--svg", "s.svg"], tmp_path, monkeypatch, capsys)
        assert code == 0
        e_grid = parse_range("0:0.9:0.05")
        assert len(e_grid) == 19
        assert asked == [[e_grid[i] for i in np.linspace(0, 18, 11).astype(int)]]
        assert asked[0][0] == 0.0 and asked[0][-1] == pytest.approx(0.9)
        assert "<polyline" not in (tmp_path / "s.svg").read_text()

    # 0:0.95:0.05 ends at 0.9500000000000001, within rounding of CURVE_E_MAX;
    # 0.96 is past it.
    @pytest.mark.parametrize("e_range, last_row", [("0:0.95:0.05", 0.95), ("0.96", None)])
    def test_curve_rows_end_at_cap(self, e_range, last_row, tmp_path, monkeypatch, capsys):
        asked = []

        def no_curves(e_list, settings):
            asked.append(list(e_list))
            return []

        monkeypatch.setattr(erestab.cli, "find_curves", no_curves)
        code, _, _ = run_cli(["scan-theta", "--beta", "9", "--e", e_range, "--svg", "s.svg"],
                             tmp_path, monkeypatch, capsys)
        assert code == 0
        if last_row is None:
            assert asked == [[]]
        else:
            assert len(asked[0]) == 11 and asked[0][-1] == last_row

    def test_mass_chart(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run_cli(["scan-mass", "--m1", "0.05,0.6", "--m3", "0.05,0.6", "--e", "0",
                              "--svg", "m.svg", "--tol", "1e-10"], tmp_path, monkeypatch, capsys)
        assert code == 0
        doc = (tmp_path / "m.svg").read_text()
        assert ">stable masses at e=0</text>" in doc
        # one marker per cell; only the inadmissible (0.6, 0.6) cell failed
        assert doc.count(' class="') == 4
        assert doc.count('class="Error"') == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["artifacts"] == ["m.svg"]


class TestCcAndPolygonCommands:
    def test_cc_json(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run_cli(["cc", "--m", "2,3,5", "--json", "cc.json"],
                               tmp_path, monkeypatch, capsys)
        assert code == 0
        data = json.loads((tmp_path / "cc.json").read_text())
        assert data["cc_residual"] < 1e-10
        assert len(data["positions"]) == 3

    @pytest.mark.parametrize(
        "golden, args",
        [
            ("golden_cc_three.json", ["--m", "0.25,0.5,0.25"]),
            ("golden_cc_ordered.json", ["--m", "0.1,0.2,0.3,0.4", "--ordering", "2,0,3,1"]),
        ],
        ids=["three", "ordered"],
    )
    def test_cc_json_matches_golden(self, golden, args, tmp_path, monkeypatch, capsys):
        code, _, _ = run_cli(["cc", *args, "--json", "cc.json"], tmp_path, monkeypatch, capsys)
        assert code == 0
        assert (tmp_path / "cc.json").read_text() == (DATA / golden).read_text()

    def test_polygon_json(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run_cli(["polygon", "--n", "8", "--m0-over-m", "1000", "--site", "S3",
                              "--json", "p.json"], tmp_path, monkeypatch, capsys)
        assert code == 0
        data = json.loads((tmp_path / "p.json").read_text())
        assert list(data) == ["n", "m0_over_M", "site", "rho", "theta", "omega_sq", "A",
                              "B_re", "B_im", "l2", "l3", "lambda3", "lambda4"]
        bang = solve_site(PolygonSystem.from_mass_ratio(8, 1000.0), Site.S3)
        assert (data["n"], data["m0_over_M"], data["site"]) == (8, 1000.0, "S3")
        for key in ("rho", "theta", "omega_sq", "A", "l2", "l3", "lambda3", "lambda4"):
            assert data[key] == getattr(bang, key), key
        assert (data["B_re"], data["B_im"]) == (bang.B.real, bang.B.imag)

    def test_polygon_verdicts_csv(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run_cli(
            ["polygon-verdicts", "--n", "8", "--m0-over-m", "1000", "--e", "0",
             "--sites", "S1,S3", "--csv", "pv.csv", "--json", "pv.json", "--tol", "1e-10"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        lines = (tmp_path / "pv.csv").read_text().splitlines()
        assert len(lines) == 4  # header comment + columns + 2 rows
        assert "Unstable" in lines[2] and "StronglyLinearlyStable" in lines[3]
        rows = json.loads((tmp_path / "pv.json").read_text())["rows"]
        assert [(r["site"], r["verdict"]) for r in rows] == [
            ("S1", "Unstable"), ("S3", "StronglyLinearlyStable")
        ]


def test_atomic_write_failed_replace_keeps_target(tmp_path, monkeypatch):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(erestab.cli.os, "replace", failing_replace)
    with pytest.raises(OSError, match="replace failed"):
        _atomic_write(str(target), "new\n")
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def readme_commands() -> list[list[str]]:
    """The argv of every ``erestab`` line in the README's command-line block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("erestab ")]


def test_module_entry_point():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-m", "erestab.cli", "--version"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0
    assert done.stdout == __version__ + "\n"


def test_readme_commands_parse():
    argvs = readme_commands()
    assert {argv[0] for argv in argvs} == set(_COMMANDS)
    parser = _build_parser()
    for argv in argvs:
        parser.parse_args(argv)
