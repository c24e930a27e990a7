import json
import re
import textwrap
from pathlib import Path

import pytest

from trendcomp import cli
from trendcomp.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    cmd_analyze,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyzeTable:
    def test_trial_report(self, capsys, liarozole_csv):
        code, out, err = run_cli(capsys, "analyze", "--input", liarozole_csv)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split() == [
            "comparison", "dunnett", "williams", "ctp_pairwise", "ctp_williams",
        ]
        assert lines[1].split() == ["50", "-", "0", "0.1535", "...", "0.2210", "0.1529"]
        assert lines[2].split() == ["75", "-", "0", "0.3623", "...", "0.2210", "0.1529"]
        assert lines[3].split() == ["150", "-", "0", "0.0056", "0.0039", "0.0023", "0.0039"]

    def test_rerun_is_byte_identical(self, capsys, liarozole_csv):
        _, out1, _ = run_cli(capsys, "analyze", "--input", liarozole_csv)
        _, out2, _ = run_cli(capsys, "analyze", "--input", liarozole_csv)
        assert out1 == out2

    def test_two_group_file(self, capsys, tmp_path):
        p = tmp_path / "two.csv"
        p.write_text("dose,n,responders\n0,40,5\n10,40,14\n")
        code, out, _ = run_cli(capsys, "analyze", "--input", str(p))
        assert code == EXIT_OK
        cells = out.splitlines()[1].split()
        # one dose: all four procedures reduce to the same raw one-sided p
        assert cells[3:] == [cells[3]] * 4

    @pytest.mark.parametrize("blank", ["   \n", ",,\n"], ids=["spaces", "commas"])
    def test_blank_row_is_skipped(self, capsys, liarozole_csv, tmp_path, blank):
        p = tmp_path / "blank.csv"
        p.write_text(Path(liarozole_csv).read_text() + blank)
        _, plain, _ = run_cli(capsys, "analyze", "--input", liarozole_csv)
        code, out, err = run_cli(capsys, "analyze", "--input", str(p))
        assert (code, err) == (EXIT_OK, "")
        assert out == plain

    def test_byte_order_mark_gives_same_report(self, capsys, liarozole_csv, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + Path(liarozole_csv).read_bytes())
        _, plain, _ = run_cli(capsys, "analyze", "--input", liarozole_csv)
        code, marked, _ = run_cli(capsys, "analyze", "--input", str(p))
        assert code == EXIT_OK
        assert marked == plain


class TestAnalyzeJson:
    def test_json_matches_table_numbers(self, capsys, liarozole_csv):
        _, out, _ = run_cli(
            capsys, "analyze", "--input", liarozole_csv, "--format", "json"
        )
        payload = json.loads(out)
        assert payload["control"] == "0"
        assert "alpha" not in payload
        assert payload["boundary_policy"] == "haldane"
        assert payload["correction_applied"] == [False] * 4
        assert "seed" not in payload
        rows = payload["rows"]
        assert [r["dose"] for r in rows] == ["50", "75", "150"]
        assert rows[0]["williams"] is None
        assert rows[1]["williams"] is None
        assert rows[2]["dunnett"] == pytest.approx(0.0056458, abs=5e-4)
        assert rows[2]["williams"] == pytest.approx(0.0039287, abs=5e-4)
        assert rows[2]["ctp_pairwise"] == pytest.approx(0.0023162, abs=1e-6)
        assert rows[2]["ctp_williams"] == pytest.approx(0.0039287, abs=5e-4)
        fam = payload["williams_family"]
        assert fam["global"] == min(fam["adjusted_rows"])
        assert len(fam["adjusted_rows"]) == 3

    def test_json_rerun_identical(self, capsys, liarozole_csv):
        _, out1, _ = run_cli(
            capsys, "analyze", "--input", liarozole_csv, "--format", "json"
        )
        _, out2, _ = run_cli(
            capsys, "analyze", "--input", liarozole_csv, "--format", "json"
        )
        assert out1 == out2


class TestAnalyzeErrors:
    def test_missing_file_is_parse_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "analyze", "--input", str(tmp_path / "nope.csv")
        )
        assert code == EXIT_PARSE
        assert out == ""
        assert "error:" in err

    def test_bad_counts_is_parse_error(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("dose,n,responders\n0,10,3\n1,10,12\n")
        code, _, err = run_cli(capsys, "analyze", "--input", str(p))
        assert code == EXIT_PARSE
        assert "error:" in err

    def test_counts_outside_ascii_digits_are_parse_error(self, capsys, tmp_path):
        # int() read these rows as n = (12, 10), and analyze exited 0
        p = tmp_path / "digits.csv"
        p.write_text("dose,n,responders\n0,\u0661\u0662,3\n1,1_0,2\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", "--input", str(p))
        assert code == EXIT_PARSE
        assert out == ""
        assert "line 2" in err

    def test_repeated_dose_label_is_parse_error(self, capsys, tmp_path):
        p = tmp_path / "twice.csv"
        p.write_text("dose,n,responders\n0,34,2\n50,35,6\n50,36,4\n150,34,13\n")
        code, out, err = run_cli(capsys, "analyze", "--input", str(p))
        assert code == EXIT_PARSE
        assert out == ""
        assert "'50'" in err

    def test_reject_policy_boundary_is_numeric_error(self, capsys, tmp_path):
        p = tmp_path / "zero.csv"
        p.write_text("dose,n,responders\n0,20,0\n1,20,8\n")
        code, _, err = run_cli(
            capsys, "analyze", "--input", str(p), "--boundary", "reject"
        )
        assert code == EXIT_NUMERIC
        assert "error:" in err

    def test_degenerate_data_is_numeric_error(self, capsys, tmp_path):
        p = tmp_path / "allzero.csv"
        p.write_text("dose,n,responders\n0,20,0\n1,20,0\n")
        code, _, err = run_cli(capsys, "analyze", "--input", str(p))
        assert code == EXIT_NUMERIC

    def test_too_many_dose_groups_is_numeric_error(self, capsys, tmp_path):
        # 33 dose groups: one contrast more than the MVN layer supports
        p = tmp_path / "wide.csv"
        p.write_text("dose,n,responders\n" + "".join(f"{i},20,{1 + i % 5}\n" for i in range(34)))
        code, out, err = run_cli(capsys, "analyze", "--input", str(p))
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "exceeds" in err

    def test_node_cap_is_numeric_error(self, capsys, tmp_path):
        # group variances about 1e5 apart need a quadrature rule above the cap
        # for a family of four rows; three rows take their closed form
        p = tmp_path / "unequal.csv"
        p.write_text(
            "dose,n,responders\n0,100000,50000\n1,3,1\n"
            + "".join(f"{d},100000,50000\n" for d in (2, 3, 4))
        )
        code, out, err = run_cli(capsys, "analyze", "--input", str(p))
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "cap of 4096" in err

    def test_unknown_boundary_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", "x.csv", "--boundary", "smooth"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag", [("--format", "xml"), ("--alpha", "0.1")], ids=["format-xml", "alpha"]
    )
    def test_option_rejected_by_argparse(self, capsys, flag):
        # analyze reports p-values and takes no significance level
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", "x.csv", *flag])
        assert exc.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestCmdAnalyzeApi:
    def test_returns_rendered_string(self, liarozole_csv):
        report = cmd_analyze(liarozole_csv)
        assert report.startswith("comparison")
        assert report.endswith("\n")


@pytest.fixture()
def study_config(tmp_path):
    p = tmp_path / "study.yaml"
    p.write_text(
        textwrap.dedent(
            """
            schema_version: 1
            master_seed: 7
            defaults:
              replicates: 120
            scenarios:
              - name: tiny
                pi: [0.1, 0.3, 0.5]
                n: [15, 15, 15]
                seed: 3
            """
        )
    )
    return str(p)


class TestSimulateCommand:
    def test_table_output(self, capsys, study_config):
        code, out, err = run_cli(capsys, "simulate", "--config", study_config)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split() == [
            "scenario", "n", "pi",
            "D1", "D2", "Da", "W2", "Wa",
            "P1", "P2", "Pa", "C1", "C2", "Ca",
        ]
        cells = lines[1].split()
        assert cells[0] == "tiny"
        assert cells[1] == "15,15,15"
        assert cells[2] == "0.1,0.3,0.5"
        for cell in cells[3:]:
            assert 0.0 <= float(cell) <= 1.0
        assert "tiny: 120 replicates" in err
        assert re.search(r"tiny: 120 replicates in \d+\.\ds, \d+ replicates/s \(", err)
        assert re.search(
            r"maxT bounds settled by the sandwich \d+, by closed form or second-order bounds \d+, "
            r"integrated \d+\)",
            err,
        )

    def test_json_output(self, capsys, study_config):
        code, out, _ = run_cli(
            capsys, "simulate", "--config", study_config, "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        (res,) = payload["results"]
        assert res["name"] == "tiny"
        assert res["replicates"] == 120
        assert res["seed"] == 3
        assert "mvn_tol" not in res
        assert len(res["rates"]["dunnett"]["per_dose"]) == 2
        assert "elapsed" not in res

    def test_parallelism_does_not_change_stdout(self, capsys, study_config):
        _, out1, _ = run_cli(capsys, "simulate", "--config", study_config)
        _, out2, _ = run_cli(
            capsys, "simulate", "--config", study_config, "--parallelism", "2"
        )
        assert out1 == out2

    def test_bad_config_is_parse_error(self, capsys, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("schema_version: 1\nmaster_seed: 0\nscenarios: []\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(p))
        assert code == EXIT_PARSE
        assert "error:" in err

    def test_node_cap_is_numeric_error(self, capsys, tmp_path):
        # bounds of four-row families the second-order bounds leave open go to
        # a rule above the cap
        p = tmp_path / "unequal.yaml"
        p.write_text(
            "schema_version: 1\nmaster_seed: 7\nscenarios:\n"
            "  - {n: [100000, 3, 100000, 100000, 100000], pi: [0.5, 0.5, 0.504, 0.504, 0.504],"
            " replicates: 20}\n"
        )
        code, out, err = run_cli(capsys, "simulate", "--config", str(p))
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "cap of 4096" in err

    def test_bounds_settle_a_design_too_unequal_to_integrate(self, capsys, tmp_path):
        # too unequal for the quadrature (the same design with a fourth dose
        # raises), but no family has more than three rows, so each bound the
        # sandwich leaves open takes the closed form
        p = tmp_path / "unequal.yaml"
        p.write_text(
            "schema_version: 1\nmaster_seed: 7\nscenarios:\n"
            "  - {n: [100000, 3, 100000, 100000], pi: [0.5, 0.2, 0.5, 0.5], replicates: 20}\n"
        )
        code, out, err = run_cli(capsys, "simulate", "--config", str(p))
        assert code == EXIT_OK
        assert out.startswith("scenario ")
        assert re.search(r"by closed form or second-order bounds [1-9]\d*, integrated 0\)", err)

    def test_missing_config_is_parse_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "simulate", "--config", str(tmp_path / "no.yaml"))
        assert code == EXIT_PARSE

    def test_replicates_above_the_cap_is_parse_error(self, capsys, tmp_path, monkeypatch):
        # were the config accepted, 2**32 + 1 replicates would run for days
        monkeypatch.setattr(cli, "run_study", lambda *a, **kw: pytest.fail("study ran"))
        p = tmp_path / "study.yaml"
        p.write_text(
            "schema_version: 1\nmaster_seed: 0\nscenarios:\n"
            "  - {pi: [0.1, 0.2], n: [5, 5], replicates: 4294967297}\n"
        )
        code, out, err = run_cli(capsys, "simulate", "--config", str(p))
        assert code == EXIT_PARSE == 2
        assert out == ""
        assert "scenarios[0]: replicates must be at most 2**32" in err

    def test_zero_parallelism_rejected(self, capsys, study_config):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", study_config, "--parallelism", "0"])
        assert exc.value.code == 2
