"""Command-line interface: file formats, exit codes, reproducibility."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from besselkit import Disk, DiskSampler, Family, FuzzConfig, fuzz, sample_disk_family, theorem21
from besselkit.cli import (
    CliInputError,
    family_payload,
    main,
    parse_complex,
    read_family_file,
    write_family_file,
)

ORTHO_FILE = {
    "field_mode": "complex",
    "x": [[1.0, 0.0], [0.0, 0.0]],
    "ys": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
}


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1", 1 + 0j),
            ("-2.5", -2.5 + 0j),
            ("1+2i", 1 + 2j),
            ("1-2i", 1 - 2j),
            ("3i", 3j),
            ("-i", -1j),
            ("1 + 2i", 1 + 2j),
            ("1+2j", 1 + 2j),
            ("0.5e-3i", 0.0005j),
        ],
    )
    def test_accepted(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize("text", ["", "abc", "1+2k", "inf", "nan"])
    def test_rejected(self, text):
        with pytest.raises(CliInputError):
            parse_complex(text)


class TestFamilyFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(40)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ys = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        fam = Family(x, ys)
        disk = Disk(0.25 + 0.125j, 3.5 - 1.75j)
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        path = tmp_path / "fam.json"
        write_family_file(
            str(path), family_payload(fam, disk, coeffs, p_values=(1.5, 3.0))
        )
        data = read_family_file(str(path))
        assert np.array_equal(data["family"].x, fam.x)
        assert np.array_equal(data["family"].ys, fam.ys)
        assert data["disk"].gamma == disk.gamma
        assert data["disk"].Gamma == disk.Gamma
        assert np.array_equal(data["coeffs"], coeffs)
        assert data["p_values"] == (1.5, 3.0)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"x": [[1, 0]]}))
        with pytest.raises(CliInputError, match="ys"):
            read_family_file(str(path))

    def test_invalid_json_line_diagnostic(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"x": [[1, 0]\n  "ys": []}')
        with pytest.raises(CliInputError, match="line"):
            read_family_file(str(path))

    def test_bad_pair_located(self, tmp_path):
        payload = dict(ORTHO_FILE)
        payload["x"] = [[1.0, 0.0], [0.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CliInputError, match=r"x\[1\]"):
            read_family_file(str(path))

    def test_non_finite_numbers_located(self, tmp_path, capsys):
        # json reads NaN, Infinity and overflowing literals as non-finite floats
        for key, template in (
            ("p", "[{}]"),
            ("gamma", "[{}, 0.0]"),
            ("coeffs", "[[1.0, 0.0], [{}, 0.0]]"),
        ):
            for literal in ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400):
                path = tmp_path / "bad.json"
                text = json.dumps(ORTHO_FILE)[:-1] + f', "{key}": {template.format(literal)}'
                if key == "gamma":
                    text += ', "Gamma": [3.0, 0.0]'
                path.write_text(text + "}")
                with pytest.raises(CliInputError, match=rf"bad\.json: {key}.*finite"):
                    read_family_file(str(path))
                assert main(["eval", "--input", str(path)]) == 1
                assert key in capsys.readouterr().err
        # JSON booleans are not numbers, though a Python bool is an int
        for key, value in (
            ("x", [[True, False], [0.0, 0.0]]),
            ("ys", [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [False, 0.0]]]),
            ("gamma", [True, 0.0]),
            ("coeffs", [[1.0, 0.0], [0.0, False]]),
        ):
            payload = dict(ORTHO_FILE, **{key: value})
            if key == "gamma":
                payload["Gamma"] = [3.0, 0.0]
            path.write_text(json.dumps(payload))
            with pytest.raises(CliInputError, match=rf"bad\.json: {key}.*finite"):
                read_family_file(str(path))
            assert main(["eval", "--input", str(path)]) == 1
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"x": []}, r"x: expected a non-empty list"),
            ({"x": [1.0, 0.0]}, r"x\[0\]: expected a finite \[re, im\] pair"),
            ({"ys": []}, r"ys must be a non-empty list"),
            ({"ys": [[1.0, 0.0]]}, r"ys\[0\]\[0\]: expected a finite"),
            ({"ys": [[]]}, r"ys\[0\]: expected a non-empty list"),
            ({"field_mode": "quaternion"}, r"field_mode must be 'real' or 'complex'"),
            ({"coeffs": [[1.0, 0.0]]}, r"coeffs has length 1, family has 2 vectors"),
            ({"p": 1.5}, r"p must be a list"),
            ({"p": [1.5, 1.0]}, r"p\[1\]: expected a finite number > 1"),
        ],
        ids=["x-empty", "x-pair", "ys-empty", "ys-vector", "ys-row-empty", "mode", "coeffs", "p-list", "p-value"],
    )
    def test_malformed_content_located(self, tmp_path, capsys, change, match):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(ORTHO_FILE, **change)))
        with pytest.raises(CliInputError, match=rf"bad\.json: {match}"):
            read_family_file(str(path))
        assert main(["eval", "--input", str(path)]) == 1
        assert "bad.json" in capsys.readouterr().err

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "bad.json"
        for text in ("[]", "1.5", '"family"'):
            path.write_text(text)
            with pytest.raises(CliInputError, match="top level must be a JSON object"):
                read_family_file(str(path))

    def test_gamma_requires_big_gamma(self, tmp_path):
        payload = dict(ORTHO_FILE)
        payload["gamma"] = [1.0, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CliInputError, match="together"):
            read_family_file(str(path))


class TestEval:
    def write(self, tmp_path, payload):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_orthonormal_family_exit_zero(self, tmp_path, capsys):
        code = main(["eval", "--input", self.write(tmp_path, ORTHO_FILE)])
        out = capsys.readouterr().out
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()]
        ids = {r["bound_id"] for r in reports}
        assert {"boas_bellman", "bombieri", "selberg", "heilbronn"} <= ids
        for r in reports:
            if r["preconditions_met"]:
                assert r["slack"] >= -1e-9 * max(1.0, abs(r["rhs"]))

    def test_dimension_mismatch_exit_one(self, tmp_path, capsys):
        payload = {
            "field_mode": "complex",
            "x": [[1.0, 0.0]],
            "ys": [[[1.0, 0.0], [0.0, 0.0]]],
        }
        code = main(["eval", "--input", self.write(tmp_path, payload)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_one(self, capsys):
        assert main(["eval", "--input", "/nonexistent/f.json"]) == 1

    def test_usage_errors_exit_one(self, tmp_path, capsys):
        # argparse would exit 2, the code of a violated inequality
        path = self.write(tmp_path, ORTHO_FILE)
        for argv in (
            ["eval"],
            ["eval", "--inptu", path],
            ["eval", "--input", path, "--fromat", "csv"],
            ["eval", "--input", path, "--format", "xml"],
            ["evaluate", "--input", path],
            [],
        ):
            assert main(argv) == 1, argv
            assert capsys.readouterr().err.startswith("error: besselkit")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "abc"])
    def test_bad_tolerance_exit_one_on_every_command(self, tmp_path, capsys, value):
        commands = (
            ["eval", "--input", self.write(tmp_path, ORTHO_FILE)],
            ["fuzz", "--instances", "5", "--output", str(tmp_path / "f.json")],
            ["extremal", "--target", "thm21", "--gamma", "1", "--Gamma", "3", "--n", "2"],
            ["compare", "--instances", "5", "--output", str(tmp_path / "c.csv")],
        )
        for argv in commands:
            assert main(argv + [f"--tolerance={value}"]) == 1, argv
            assert "--tolerance" in capsys.readouterr().err

    def test_csv_format(self, tmp_path, capsys):
        code = main(
            ["eval", "--input", self.write(tmp_path, ORTHO_FILE), "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "bound_id,lhs,rhs,slack,ratio,preconditions_met,reason"

    def test_extremal_fixture_is_tight(self, tmp_path, capsys):
        fam_path = tmp_path / "extremal.json"
        assert (
            main(
                [
                    "extremal",
                    "--target",
                    "thm21",
                    "--gamma",
                    "1",
                    "--Gamma",
                    "3",
                    "--n",
                    "2",
                    "--output",
                    str(fam_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(["eval", "--input", str(fam_path)])
        out = capsys.readouterr().out
        assert code == 0
        reports = {json.loads(l)["bound_id"]: json.loads(l) for l in out.splitlines()}
        rep = reports["theorem21"]
        assert abs(rep["slack"]) <= 1e-9 * max(1.0, rep["rhs"])

    def test_full_surface_real_mode_file(self, tmp_path, capsys):
        payload = {
            "field_mode": "real",
            "x": [[2.0, 0.0], [1.0, 0.0]],
            "ys": [[[1.0, 0.0], [0.0, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
            "gamma": [-4.0, 0.0],
            "Gamma": [5.0, 0.0],
            "coeffs": [[1.0, 0.0], [-0.5, 0.0]],
            "p": [2.5],
        }
        code = main(["eval", "--input", self.write(tmp_path, payload)])
        out = capsys.readouterr().out
        assert code == 0
        reports = {json.loads(l)["bound_id"]: json.loads(l) for l in out.splitlines()}
        assert reports["theorem21"]["preconditions_met"]
        assert reports["pecaric_first"]["preconditions_met"]
        assert reports["dragomir04_b2"]["preconditions_met"]
        # Re(Gamma * conj(gamma)) = -20 < 0: reported inapplicable, not an error
        assert not reports["theorem22"]["preconditions_met"]
        assert reports["dragomir_pq"]["preconditions_met"]

    def test_real_mode_file_with_imaginary_part_exit_one(self, tmp_path, capsys):
        base = {"field_mode": "real", "x": [[1.0, 0.0]], "ys": [[[1.0, 0.0]]]}
        for where, extra in (
            ("x[0]", {"x": [[1.0, 0.5]]}),
            ("ys[0][0]", {"ys": [[[1.0, -2.0]]]}),
            ("gamma", {"gamma": [1.0, 1.0], "Gamma": [3.0, 0.0]}),
            ("Gamma", {"gamma": [1.0, 0.0], "Gamma": [3.0, 1e-300]}),
            ("coeffs[0]", {"coeffs": [[1.0, 0.25]]}),
        ):
            assert main(["eval", "--input", self.write(tmp_path, {**base, **extra})]) == 1
            assert f": {where}: a real-mode file needs imaginary part 0.0" in capsys.readouterr().err

    def test_coefficient_outside_disk_is_flagged_not_fatal(self, tmp_path, capsys):
        payload = {
            "field_mode": "complex",
            "x": [[3.0, 0.0]],
            "ys": [[[1.0, 0.0]]],  # coefficient 3, disk only reaches 2
            "gamma": [0.0, 0.0],
            "Gamma": [2.0, 0.0],
        }
        code = main(["eval", "--input", self.write(tmp_path, payload)])
        out = capsys.readouterr().out
        assert code == 0
        reports = {json.loads(l)["bound_id"]: json.loads(l) for l in out.splitlines()}
        assert not reports["theorem21"]["preconditions_met"]
        assert "0" in reports["theorem21"]["reason"]
        assert reports["boas_bellman"]["preconditions_met"]

    def test_sides_beyond_double_range_exit_zero(self, tmp_path, capsys):
        # disk instance 0 at scale 1e160: its sharp sides overflow to NaN slacks, which
        # eval prints and, as fuzz does, does not count as a violation
        cfg = FuzzConfig(instances=64, disk_sampler=DiskSampler(scale=1e160))
        fam, disk = sample_disk_family(cfg, 0)
        path = self.write(tmp_path, family_payload(fam, disk))
        assert main(["eval", "--input", path]) == 0
        reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert any(r["preconditions_met"] and math.isnan(r["slack"]) for r in reports)
        assert not [v for v in fuzz(cfg).violations if v["sampler"] == "disk" and v["instance_seed"] == 0]
        # a disk whose |Gamma - gamma| leaves the double range gives NaN sides, judged alike
        payload = {"x": [[1.0, 0.0]], "ys": [[[1.0, 0.0]]], "gamma": [1.5e308, 1.5e308], "Gamma": [0.0, 0.0]}
        assert main(["eval", "--input", self.write(tmp_path, payload)]) == 0
        reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert any(r["preconditions_met"] and math.isnan(r["slack"]) for r in reports)

    def test_violation_exit_code_wiring(self, tmp_path, monkeypatch, capsys):
        # no real family violates a theorem; force one through the dispatcher
        from besselkit import report as report_mod
        from besselkit import cli as cli_mod

        fake = [report_mod.evaluated("boas_bellman", 2.0, 1.0)]
        monkeypatch.setattr(cli_mod, "check_all", lambda *a, **k: fake)
        code = main(["eval", "--input", self.write(tmp_path, ORTHO_FILE)])
        assert code == 2

    def test_report_lines_as_json_dumps(self):
        # the kept encoder writes the bytes of json.dumps(..., sort_keys=True), for skipped reports (None
        # sides) and for NaN and infinite sides
        from besselkit import cli as cli_mod
        from besselkit import report as report_mod

        reports = [
            report_mod.skipped("theorem21", "coefficient 0 lies outside the disk"),
            report_mod.evaluated("boas_bellman", math.nan, 1.0),
            report_mod.evaluated("bombieri", math.inf, 2.0),
            report_mod.evaluated("selberg", 1.0, math.inf),
            report_mod.evaluated("heilbronn", -math.inf, 0.0),
            report_mod.evaluated("dragomir03", 0.5, 1.0),
        ]
        assert any(r.lhs is None for r in reports)
        expected = "".join(json.dumps(r.as_dict(), sort_keys=True) + "\n" for r in reports)
        assert cli_mod._reports_text(reports, "json") == expected
        assert "NaN" in expected and "Infinity" in expected and "-Infinity" in expected and "null" in expected


class TestExtremalCommand:
    def test_worked_sqrt_form(self, tmp_path, capsys):
        out_path = tmp_path / "fam.json"
        code = main(
            [
                "extremal",
                "--target",
                "thm21",
                "--gamma",
                "1+0i",
                "--Gamma",
                "3+0i",
                "--n",
                "2",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["bound"]["lhs"] == pytest.approx(2 * math.sqrt(2), rel=1e-9)
        assert summary["bound"]["rhs"] == pytest.approx(2 * math.sqrt(2), rel=1e-9)
        assert summary["max_residual"] <= 1e-9
        data = read_family_file(str(out_path))
        rep = theorem21(data["family"], data["disk"])
        assert rep.is_tight(1e-9)

    def test_worked_squared_form(self, capsys):
        code = main(
            ["extremal", "--target", "thm22", "--gamma", "1", "--Gamma", "3", "--n", "2"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["bound"]["lhs"] == pytest.approx(6.0, rel=1e-9)
        assert summary["bound"]["rhs"] == pytest.approx(6.0, rel=1e-9)

    def test_centerless_exit_two(self, capsys):
        code = main(
            ["extremal", "--target", "thm21", "--gamma", "1+0i", "--Gamma=-1+0i", "--n", "2"]
        )
        assert code == 2
        assert "infeasible" in capsys.readouterr().err
        # centered (Gamma + gamma != 0), but |center|^2 underflows, or |Gamma - gamma|
        # or |center| itself leaves the double range
        ends_cases = (
            ["--gamma", "1e-170", "--Gamma", "3e-170"],
            ["--gamma", "5e-324", "--Gamma", "0"],
            ["--gamma", "1.5e308+1.5e308i", "--Gamma", "0"],
            ["--gamma", "1.5e308+1.5e308i", "--Gamma", "1.5e308+1.5e308i"],
        )
        for ends in ends_cases:
            assert main(["extremal", "--target", "thm21", "--n", "3", *ends]) == 2
            assert "double range" in capsys.readouterr().err
        assert main(["extremal", "--target", "thm22", "--n", "2", *ends_cases[-1]]) == 2
        assert "double range" in capsys.readouterr().err

    def test_infeasible_band_exit_two(self, capsys):
        code = main(
            ["extremal", "--target", "thm21", "--gamma=(-1)", "--Gamma", "3", "--n", "3"]
        )
        assert code == 2

    def test_single_vector_exit_two(self, capsys):
        # |phase sum| = 1 - 1e-13, within 1e-12 of 1, yet one test vector never attains equality
        code = main(
            ["extremal", "--target", "thm22", "--gamma", "1", "--Gamma=1e-13+1i", "--n", "1"]
        )
        assert code == 2
        assert "n = 1" in capsys.readouterr().err

    def test_bad_complex_literal_exit_one(self, capsys):
        code = main(
            ["extremal", "--target", "thm21", "--gamma", "huh", "--Gamma", "3", "--n", "2"]
        )
        assert code == 1
        for sizes in (["--n", "0"], ["--n", "2", "--dim", "0"]):
            code = main(["extremal", "--target", "thm21", "--gamma", "1", "--Gamma", "3", *sizes])
            assert code == 1
            assert "must be >= 1" in capsys.readouterr().err


class TestFuzzCommand:
    def test_reproducible_bytes(self, tmp_path):
        args = ["fuzz", "--seed", "9", "--instances", "150", "--n", "1:5", "--dim", "1:4"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_degree_invariant_bytes(self, tmp_path):
        base = ["fuzz", "--seed", "11", "--instances", "600"]
        out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
        assert main(base + ["--workers", "1", "--output", str(out1)]) == 0
        assert main(base + ["--workers", "2", "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_instances(self, tmp_path):
        out = tmp_path / "zero.json"
        assert main(["fuzz", "--instances", "0", "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["violations"] == []
        assert data["checked"] == {}

    def test_summary_schema(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["fuzz", "--seed", "3", "--instances", "40", "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        for key in ("config", "checked", "violations", "min_slack", "tight", "tightness_wins"):
            assert key in data
        assert data["config"]["master_seed"] == 3
        # a single integer is a range of one value
        assert main(["fuzz", "--instances", "4", "--n", "5", "--dim", "2", "--output", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert (config["n_range"], config["d_range"]) == ([5, 5], [2, 2])

    def test_unwritable_output_exit_one(self, capsys):
        code = main(["fuzz", "--instances", "5", "--output", "/nonexistent/dir/out.json"])
        assert code == 1
        for argv in (
            ["compare", "--instances", "5"],
            ["extremal", "--target", "thm21", "--gamma", "1", "--Gamma", "3", "--n", "2"],
        ):
            assert main(argv + ["--output", "/nonexistent/dir/out"]) == 1
            assert "cannot write output" in capsys.readouterr().err

    def test_bad_range_exit_one(self, tmp_path, capsys):
        assert main(["fuzz", "--instances", "5", "--n", "x:y", "--output", "/tmp/o.json"]) == 1
        for argv in (["--n", "1:2:3"], ["--n", "0:3"], ["--dim", "4:2"], ["--instances", "-1"]):
            assert main(["fuzz", *argv, "--output", str(tmp_path / "o.json")]) == 1, argv
            assert capsys.readouterr().err.startswith("error: ")
        for command in ("fuzz", "compare"):
            for workers in ("0", "-3"):
                argv = [command, "--instances", "5", "--workers", workers, "--output", str(tmp_path / "o")]
                assert main(argv) == 1, argv
                assert capsys.readouterr().err.startswith("error: ")

    def test_internal_error_propagates(self, monkeypatch):
        # only malformed input exits 1: a ValueError raised inside the library is a bug, with its traceback
        def broken(*args, **kwargs):
            raise ValueError("internal shape bug")

        for command, name in (("fuzz", "fuzz"), ("compare", "tightness_compare")):
            monkeypatch.setattr(f"besselkit.cli.{name}", broken)
            with pytest.raises(ValueError, match="internal shape bug"):
                main([command, "--instances", "3"])


class TestCompareCommand:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "t.csv"
        args = [
            "compare",
            "--seed",
            "5",
            "--instances",
            "120",
            "--ensemble",
            "orthonormal",
            "--output",
            str(out),
        ]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "bound_id,wins,mean_ratio"
        rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
        assert int(rows["theorem21"][1]) == 0
        assert int(rows["theorem22"][1]) == 0
        assert sum(int(r[1]) for r in rows.values()) == 120

    def test_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["compare", "--seed", "6", "--instances", "80", "--ensemble", "disk"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "cli.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "besselkit.cli",
                "fuzz",
                "--seed",
                "2",
                "--instances",
                "20",
                "--output",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["violations"] == []
