import json
import os
from pathlib import Path

import pytest

from erestab.cli import ConfigError, main, parse_range
from erestab.linearization import symmetric_beta
from erestab.svg import PlotStyle, emit_svg

DATA = Path(__file__).parent / "data"


def run_cli(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


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
        assert saved["bracket_width"] < 1e-6
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "find-mstar"
        assert manifest["version"]
        assert manifest["artifacts"] == ["mstar.json"]
        assert set(manifest) >= {"command", "parameters", "tolerances", "version",
                                 "started_at", "duration_s"}


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

    UNWRITTEN_OUTPUTS = [
        (["index", "--alpha", "0.5", "--beta", "1.5", "--e", "0.2", "--omega", "-1"], "csv"),
        (["index", "--alpha", "0.5", "--beta", "1.5", "--e", "0.2", "--omega", "-1"], "svg"),
        (["cc", "--m", "2,3,5"], "csv"),
        (["polygon", "--n", "8", "--m0-over-m", "1000", "--site", "S3"], "svg"),
        (["stability", "--family", "collinear", "--m", "0.25,0.5,0.25", "--e", "0"], "csv"),
        (["find-mstar"], "svg"),
        (["polygon-verdicts", "--n", "8", "--m0-over-m", "1000", "--e", "0",
          "--sites", "S3"], "svg"),
    ]

    @pytest.mark.parametrize("args, key", UNWRITTEN_OUTPUTS,
                             ids=[f"{a[0]}-{k}" for a, k in UNWRITTEN_OUTPUTS])
    def test_unwritten_output_flag_is_2(self, args, key, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(args + [f"--{key}", f"out.{key}"])
        assert exc.value.code == 2
        assert f"--{key}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, key", UNWRITTEN_OUTPUTS,
                             ids=[f"{a[0]}-{k}" for a, k in UNWRITTEN_OUTPUTS])
    def test_unwritten_output_config_key_is_2(self, args, key, tmp_path, monkeypatch,
                                              capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"output": {key: f"out.{key}"}}))
        code, _, err = run_cli(args + ["--config", str(cfg)], tmp_path, monkeypatch, capsys)
        assert code == 2 and "configuration error" in err and key in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_missing_parameter_is_2(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run_cli(["scan-theta", "--beta", "0:1:0.5"],
                             tmp_path, monkeypatch, capsys)
        assert code == 2


class TestIndexCommand:
    def test_anchor_value(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["index", "--alpha", "0.5", "--beta", "1.5", "--e", "0.2", "--omega", "-1"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["phi"] == 2 and data["nu"] == 0 and data["stabilized"]

    def test_rho_parameterization(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["index", "--alpha", "0.5", "--beta", "0.5", "--e", "0.0", "--rho", "0.25"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        assert json.loads(out)["rho"] == pytest.approx(0.25)


class TestSvg:
    def test_empty_plot_valid_with_warning(self):
        doc = emit_svg([], [], PlotStyle(title="empty"))
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


class TestCcAndPolygonCommands:
    def test_cc_json(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run_cli(["cc", "--m", "2,3,5", "--json", "cc.json"],
                               tmp_path, monkeypatch, capsys)
        assert code == 0
        data = json.loads((tmp_path / "cc.json").read_text())
        assert data["cc_residual"] < 1e-10
        assert len(data["positions"]) == 3

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
