import json
from pathlib import Path

import jsonschema
import pytest
from jsonschema import Draft7Validator
from referencing import Registry, Resource

import taboowalk.cli as cli
from taboowalk import ExtrapolationUnstable, save_model, simple_walk_1d, validate_model

SCHEMA_DIR = Path(cli.__file__).parent / "schemas"


def _validator(name):
    registry = Registry()
    for path in SCHEMA_DIR.glob("*.json"):
        res = Resource.from_contents(json.loads(path.read_text()))
        registry = registry.with_resource(uri=path.name, resource=res)
    schema = json.loads((SCHEMA_DIR / name).read_text())
    return Draft7Validator(schema, registry=registry)


@pytest.fixture(scope="module")
def simple_model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "simple.json"
    save_model(simple_walk_1d(1.0), path)
    return str(path)


@pytest.fixture(scope="module")
def nonsimple_model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "nonsimple.json"
    save_model(validate_model(1, {(1,): 0.4, (2,): 0.1}), path)
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestLimitCommand:
    def test_gambler_value(self, capsys, simple_model_file):
        code, out = run_cli(capsys, "limit", simple_model_file, "--x", "2", "--y", "5", "--z", "0")
        assert code == 0
        rec = json.loads(out)
        assert rec["limit"] == 0.4
        assert rec["method"] == "closed-form"
        _validator("limit_record.schema.json").validate(rec)

    def test_plain_hitting_without_z(self, capsys, simple_model_file):
        code, out = run_cli(capsys, "limit", simple_model_file, "--x", "2", "--y", "5")
        assert code == 0
        assert json.loads(out)["limit"] == 1.0

    def test_minus_reports_atom(self, capsys, simple_model_file):
        code, out = run_cli(
            capsys, "limit", simple_model_file, "--x", "4", "--y", "5", "--z", "0", "--minus"
        )
        rec = json.loads(out)
        assert rec["variant"] == "minus"
        assert rec["atom_at_zero"] == 0.5
        _validator("limit_record.schema.json").validate(rec)

    def test_verify_three_way(self, capsys, simple_model_file):
        code, out = run_cli(
            capsys,
            "limit", simple_model_file,
            "--x", "2", "--y", "5", "--z", "0",
            "--verify", "--paths", "20000", "--seed", "7",
        )
        assert code == 0
        rec = json.loads(out)
        ver = rec["verify"]
        assert ver["oracle"]["lower"] <= rec["limit"] <= ver["oracle"]["upper"]
        mc = ver["monte_carlo"]
        assert abs(mc["probability"] - rec["limit"]) <= 4 * mc["std_error"]
        _validator("limit_record.schema.json").validate(rec)

    def test_invalid_query_exits_2(self, capsys, simple_model_file):
        code, out = run_cli(capsys, "limit", simple_model_file, "--x", "2", "--y", "5", "--z", "5")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidQuery"

    def test_bad_model_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"d": 1, "jumps": [{"z": [2], "rate": 0.5}]}')
        code, out = run_cli(capsys, "limit", str(bad), "--x", "0", "--y", "2", "--z", "4")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "NotIrreducible"

    @pytest.mark.parametrize("flag", [["--points", "0"], ["--rel-tol", "0"]])
    def test_zero_quadrature_flag_exits_2(self, capsys, simple_model_file, flag):
        code, out = run_cli(
            capsys, "limit", simple_model_file, "--x", "2", "--y", "5", "--z", "0", *flag
        )
        assert code == 2
        assert "error" in json.loads(out)

    def test_manifest_records_given_argv(self, capsys, simple_model_file):
        argv = ["limit", simple_model_file, "--x", "2", "--y", "5", "--z", "0"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["manifest"]["argv"] == argv


class TestInputContract:
    """Bad input exits 2 with an error record; anything else is not input."""

    @pytest.mark.parametrize(
        "args",
        [
            ["limit", "--x", "2", "--y", "5", "--z", "0", "--verify", "--paths", "0"],
            ["limit", "--x", "2", "--y", "5", "--z", "0", "--points", "18.5"],
            ["limit", "--x", "2", "--y", "5", "--z", "0", "--rel-tol", "nan"],
            ["limit", "--x", "2", "--y", "5", "--z", "0", "--verify", "--radius", "0"],
            ["curve", "--x", "0", "--y", "1", "--step", "0", "--horizon", "5", "--out", "c.csv"],
            ["curve", "--x", "0", "--y", "1", "--step", "0.1", "--horizon=-5", "--out", "c.csv"],
            ["simulate", "--x", "0", "--y", "3", "--z", "0", "--t-list=-1,5"],
            ["simulate", "--x", "0", "--y", "3", "--z", "0", "--t-list", "0"],
            ["simulate", "--x", "0", "--y", "3", "--z", "0", "--t-list", "5,x"],
        ],
    )
    def test_bad_flag_value_exits_2(self, capsys, simple_model_file, args):
        code, out = run_cli(capsys, args[0], simple_model_file, *args[1:])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ArgumentError"

    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"d": 1, "jumps": [', "ModelError"),
            ('{"d": 1}', "ModelError"),
            ('{"d": 1, "jumps": [{"z": ["a"], "rate": 0.5}]}', "ModelError"),
            ('{"d": 1, "jumps": [{"z": [1], "rate": null}]}', "ModelError"),
        ],
    )
    def test_malformed_model_file_exits_2(self, capsys, tmp_path, text, error):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out = run_cli(capsys, "limit", str(bad), "--x", "0", "--y", "2", "--z", "4")
        assert code == 2
        assert json.loads(out)["error"]["type"] == error

    def test_wrong_dimension_exits_2(self, capsys, simple_model_file):
        code, out = run_cli(capsys, "limit", simple_model_file, "--x", "2,0", "--y", "5")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidQuery"

    def test_query_outside_box_exits_2(self, capsys, simple_model_file):
        code, out = run_cli(
            capsys, "limit", simple_model_file, "--x", "200", "--y", "5", "--z", "0",
            "--verify", "--radius", "100", "--paths", "10",
        )
        assert code == 2
        assert json.loads(out)["error"]["type"] == "QueryOutsideBox"

    def test_internal_value_error_propagates(self, capsys, simple_model_file, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "taboo_limit", broken)
        with pytest.raises(ValueError, match="internal"):
            cli.main(["limit", simple_model_file, "--x", "2", "--y", "5", "--z", "0"])
        assert capsys.readouterr().out == ""


class TestTailCommand:
    def test_squeezed_target(self, capsys, simple_model_file):
        code, out = run_cli(capsys, "tail", simple_model_file, "--x", "1", "--y", "4", "--z", "6")
        assert code == 0
        rec = json.loads(out)
        assert rec["order"] == "t^-1/2"
        assert rec["constant"] == pytest.approx(2.3936536824085968)
        _validator("tail_record.schema.json").validate(rec)

    def test_zero_order(self, capsys, simple_model_file):
        code, out = run_cli(capsys, "tail", simple_model_file, "--x", "-1", "--y", "2", "--z", "0")
        rec = json.loads(out)
        assert rec["order"] == "zero"

    def test_minus_variant_same_numbers(self, capsys, simple_model_file):
        _, out_plus = run_cli(capsys, "tail", simple_model_file, "--x", "1", "--y", "4", "--z", "6")
        _, out_minus = run_cli(
            capsys, "tail", simple_model_file, "--x", "1", "--y", "4", "--z", "6", "--minus"
        )
        plus, minus = json.loads(out_plus), json.loads(out_minus)
        assert plus["constant"] == minus["constant"]
        assert minus["variant"] == "minus"

    def test_extract_close_to_closed_form(self, capsys, nonsimple_model_file):
        code, out = run_cli(
            capsys, "tail", nonsimple_model_file, "--x", "1", "--y", "3", "--z", "0", "--extract"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["extracted_constant"] == pytest.approx(rec["constant"], rel=0.05)
        _validator("tail_record.schema.json").validate(rec)

    def test_unstable_extraction_exits_3(self, capsys, nonsimple_model_file, monkeypatch):
        def boom(model, q, cfg=None):
            raise ExtrapolationUnstable("ladder moved", estimates=[1.0, 2.0])

        monkeypatch.setattr(cli, "tail_extract", boom)
        code, out = run_cli(
            capsys, "tail", nonsimple_model_file, "--x", "1", "--y", "3", "--z", "0", "--extract"
        )
        assert code == 3
        rec = json.loads(out)
        assert rec["extracted_constant"] is None
        assert rec["partial_estimates"] == [1.0, 2.0]
        assert rec["constant"] > 0  # partial output still present


class TestCurveCommand:
    def test_csv_contract(self, capsys, tmp_path, simple_model_file):
        out_file = tmp_path / "curve.csv"
        code, _ = run_cli(
            capsys,
            "curve", simple_model_file,
            "--x", "2", "--y", "5", "--z", "0",
            "--step", "0.05", "--horizon", "200", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "t,H_xyz,H_xzy,limit_xyz,limit_xzy"
        first = lines[1].split(",")
        assert float(first[1]) == 0.0 and float(first[2]) == 0.0
        last_data = lines[-2].split(",")
        assert abs(float(last_data[1]) - 0.4) <= 0.01
        assert lines[-1].startswith("# limit_xyz=")
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        _validator("manifest.schema.json").validate(manifest)
        assert manifest["outputs"] == [str(out_file)]

    def test_rerun_is_byte_identical(self, capsys, tmp_path, simple_model_file):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            run_cli(
                capsys,
                "curve", simple_model_file,
                "--x", "0", "--y", "3", "--z", "0",
                "--step", "0.05", "--horizon", "30", "--out", str(out),
            )
        assert out1.read_bytes() == out2.read_bytes()

    def test_coarse_step_warns_but_succeeds(self, capsys, tmp_path, simple_model_file):
        out_file = tmp_path / "coarse.csv"
        code, _ = run_cli(
            capsys,
            "curve", simple_model_file,
            "--x", "2", "--y", "5", "--z", "0",
            "--step", "0.5", "--horizon", "20", "--out", str(out_file),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "coarse.csv.manifest.json").read_text())
        assert any("step_too_coarse" in w for w in manifest["warnings"])

    def test_hitting_curve_no_z(self, capsys, tmp_path, simple_model_file):
        out_file = tmp_path / "hit.csv"
        code, _ = run_cli(
            capsys,
            "curve", simple_model_file,
            "--x", "0", "--y", "1",
            "--step", "0.05", "--horizon", "10", "--out", str(out_file),
        )
        assert code == 0
        assert out_file.read_text().splitlines()[0] == "t,H_xy,limit_xy"


class TestSimulateCommand:
    def test_reproducible_output(self, capsys, simple_model_file):
        args = (
            "simulate", simple_model_file,
            "--x", "0", "--y", "3", "--z", "0",
            "--t-list", "50,200", "--paths", "50000", "--seed", "12",
        )
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        rec = json.loads(out1)
        _validator("simulate_record.schema.json").validate(rec)
        est = rec["estimates"][-1]
        assert abs(est["probability"] - 1.0 / 6.0) <= 3 * est["std_error"]

    def test_impossible_query_all_zero(self, capsys, simple_model_file):
        code, out = run_cli(
            capsys,
            "simulate", simple_model_file,
            "--x", "-1", "--y", "2", "--z", "0",
            "--t-list", "5,20", "--paths", "2000", "--seed", "3",
        )
        rec = json.loads(out)
        assert all(e["probability"] == 0.0 for e in rec["estimates"])


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys, simple_model_file):
        code, out = run_cli(capsys, "verify", simple_model_file, "--suite", "all")
        assert code == 0
        assert "verify: PASS" in out

    def test_tails_suite_runs_extraction(self, capsys, nonsimple_model_file):
        code, out = run_cli(capsys, "verify", nonsimple_model_file, "--suite", "tails")
        assert code == 0
        assert "extract" in out

    def test_failure_exits_1(self, capsys, simple_model_file, monkeypatch):
        monkeypatch.setitem(
            cli._SUITES, "identities", lambda model, cfg: [("forced", 0.0, 1.0, 0.0, False)]
        )
        code, out = run_cli(capsys, "verify", simple_model_file, "--suite", "identities")
        assert code == 1
        assert "FAIL" in out

    def test_invalid_points_exits_2(self, capsys, simple_model_file):
        code, out = run_cli(
            capsys, "verify", simple_model_file, "--suite", "identities", "--points", "15"
        )
        assert code == 2
        assert "error" in json.loads(out)

    def test_quadrature_flags_reach_suites(self, capsys, simple_model_file, monkeypatch):
        seen = []
        monkeypatch.setitem(
            cli._SUITES, "identities", lambda model, cfg: seen.append(cfg) or []
        )
        code, _ = run_cli(
            capsys, "verify", simple_model_file, "--suite", "identities",
            "--points", "32", "--rel-tol", "1e-9",
        )
        assert code == 0
        assert (seen[0].points_per_axis, seen[0].rel_tol) == (32, 1e-9)
