import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from jsonschema import Draft7Validator
from referencing import Registry, Resource

import taboowalk.cli as cli
from taboowalk.limits import Variant
from taboowalk.simulate import SimConfig, estimate_taboo_curve, sampler_workers
from taboowalk import (
    ExtrapolationUnstable,
    QuadratureConfig,
    TabooQuery,
    TimeGrid,
    default_config,
    hitting_cdf,
    load_model,
    minus_atom,
    minus_from_plus,
    nearest_neighbor_walk,
    save_model,
    simple_walk_1d,
    taboo_cdf,
    validate_model,
)

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

    def test_minus_without_z_reports_atom(self, capsys, nonsimple_model_file):
        for y, atom in (("2", 0.4), ("4", 0.0), ("1", 0.0)):
            code, out = run_cli(capsys, "limit", nonsimple_model_file, "--x", "1", "--y", y, "--minus")
            assert code == 0
            rec = json.loads(out)
            assert (rec["limit"], rec["variant"], rec["atom_at_zero"]) == (1.0, "minus", atom)
            _validator("limit_record.schema.json").validate(rec)

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="needs SIGPIPE")
    def test_closed_stdout_ends_silently(self, nonsimple_model_file):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "taboowalk.cli", "limit", nonsimple_model_file,
                 "--x", "1", "--y", "2", "--z", "0", "--minus"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == -signal.SIGPIPE

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

    @pytest.mark.parametrize("flag", [["curve", "--rel-tol", "0"], ["limit", "--rel-tol", "0"]])
    def test_zero_quadrature_flag_exits_2(self, capsys, simple_model_file, flag):
        command, *flag = flag
        if command == "curve":
            flag = ["--step", "0.1", "--horizon", "5", "--out", "c.csv", *flag]
        code, out = run_cli(
            capsys, command, simple_model_file, "--x", "2", "--y", "5", "--z", "0", *flag
        )
        assert code == 2
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("jumps, x, y, z", [
        ({(1,): 0.4, (2,): 0.1}, "1", "2", "0"),
        ({(1, 0): 0.2, (0, 1): 0.2, (1, 1): 0.05, (1, -1): 0.05}, "1,0", "2,0", "0,0"),
        ({(1, 0, 0): 1 / 6, (0, 1, 0): 1 / 6, (0, 0, 1): 1 / 6}, "1,0,0", "0,1,0", "0,0,0"),
    ], ids=["ns1", "w2", "nn3"])
    def test_unreachable_rel_tol_exits_3(self, capsys, tmp_path, jumps, x, y, z):
        # no kernel value, the exact d = 1 residue sums included, meets 1e-30,
        # and no ladder runs on to its cap to find that out
        path = tmp_path / "walk.json"
        save_model(validate_model(len(next(iter(jumps))), jumps), path)
        code, out = run_cli(capsys, "limit", str(path), "--x", x, "--y", y, "--z", z, "--rel-tol", "1e-30")
        assert code == 3
        assert json.loads(out)["error"]["type"] == "NotConverged"

    def test_manifest_records_given_argv(self, capsys, simple_model_file):
        argv = ["limit", simple_model_file, "--x", "2", "--y", "5", "--z", "0"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["manifest"]["argv"] == argv

    @pytest.mark.parametrize("walk, point", [(simple_walk_1d(1.0), "2"), (nearest_neighbor_walk(3), "1,0,0")])
    def test_default_run_records_default_config(self, capsys, tmp_path, walk, point):
        path = tmp_path / "walk.json"
        save_model(walk, path)
        code, out = run_cli(capsys, "limit", str(path), "--x", point, "--y", point)
        assert code == 0
        manifest = json.loads(out)["manifest"]
        # limit reads only the tolerance of the quadrature config
        assert manifest["quadrature"] == {"rel_tol": default_config(walk.d).rel_tol}
        _validator("manifest.schema.json").validate(manifest)

    def test_verify_records_how_monte_carlo_ran(self, capsys, simple_model_file):
        code, out = run_cli(
            capsys, "limit", simple_model_file, "--x", "2", "--y", "5", "--z", "0",
            "--verify", "--paths", "3000", "--seed", "7",
        )
        assert code == 0
        rec = json.loads(out)
        mc = rec["verify"]["monte_carlo"]
        assert mc["truncated_paths"] == 0
        assert rec["manifest"]["sim"] == {
            "horizon": mc["t"], "n_paths": 3000, "max_jumps": 1_000_000, "workers": sampler_workers(3000),
        }
        _validator("limit_record.schema.json").validate(rec)

    def test_minus_verify_runs_the_minus_clock(self, capsys, nonsimple_model_file):
        code, out = run_cli(
            capsys, "limit", nonsimple_model_file, "--x", "0", "--y", "15", "--z", "-15",
            "--minus", "--verify", "--paths", "3000", "--seed", "7",
        )
        assert code == 0
        mc = json.loads(out)["verify"]["monte_carlo"]
        # a far query, so that some paths hit between t - (first holding time) and t
        model, q = load_model(nonsimple_model_file), TabooQuery((0,), (15,), (-15,))
        sim = SimConfig(horizon=mc["t"], n_paths=3000, seed=7)
        minus, plus = (estimate_taboo_curve(model, q, [mc["t"]], sim, v)[0]
                       for v in (Variant.MINUS, Variant.PLUS))
        assert (mc["probability"], mc["std_error"]) == (minus.probability, minus.std_error)
        assert minus.probability != plus.probability


@pytest.mark.parametrize(
    "argv, reads",
    [
        (["limit", "--x", "2", "--y", "5", "--z", "0"], {"rel_tol"}),
        (["tail", "--x", "1", "--y", "4", "--z", "6"], {"rel_tol"}),
        (["curve", "--x", "2", "--y", "5", "--step", "0.1", "--horizon", "5"], {"rel_tol"}),
        (["simulate", "--x", "0", "--y", "3", "--z", "0", "--t-list", "5", "--paths", "200"], set()),
    ],
    ids=["limit", "tail", "curve", "simulate"],
)
def test_manifest_records_only_the_settings_read(capsys, tmp_path, simple_model_file, argv, reads):
    out_file = tmp_path / "c.csv"
    extra = ["--out", str(out_file)] if argv[0] == "curve" else []
    code, out = run_cli(capsys, argv[0], simple_model_file, *argv[1:], *extra)
    assert code == 0
    if extra:
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
    else:
        manifest = json.loads(out)["manifest"]
    assert set(manifest.get("quadrature", {})) == reads
    assert ("sim" in manifest) == (argv[0] == "simulate")
    _validator("manifest.schema.json").validate(manifest)


class TestInputContract:
    """Bad input exits 2 with an error record; anything else is not input."""

    @pytest.mark.parametrize(
        "args",
        [
            ["limit", "--x", "2", "--y", "5", "--z", "0", "--verify", "--paths", "0"],
            ["curve", "--x", "2", "--y", "5", "--z", "0", "--step", "0.1", "--horizon", "5", "--out", "c.csv",
             "--rel-tol", "inf"],
            ["limit", "--x", "2", "--y", "5", "--z", "0", "--rel-tol", "nan"],
            ["limit", "--x", "2", "--y", "5", "--z", "0", "--verify", "--radius", "0"],
            ["curve", "--x", "0", "--y", "1", "--step", "0", "--horizon", "5", "--out", "c.csv"],
            ["curve", "--x", "0", "--y", "1", "--step", "0.1", "--horizon=-5", "--out", "c.csv"],
            ["simulate", "--x", "0", "--y", "3", "--z", "0", "--t-list=-1,5"],
            ["simulate", "--x", "0", "--y", "3", "--z", "0", "--t-list", "0"],
            ["simulate", "--x", "0", "--y", "3", "--z", "0", "--t-list", "5,x"],
            ["limit", "--x", "1", "--y", "2", "--bogus", "3"],  # an unknown flag
            ["limit", "--x", "1"],  # a missing flag
            # the grid follows from --rel-tol: there is no --points
            ["curve", "--x", "2", "--y", "5", "--step", "0.1", "--horizon", "5", "--out", "c.csv",
             "--points", "64"],
            ["verify", "--points", "64"],
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
            ('{"d": true, "jumps": [{"z": [true], "rate": true}]}', "ModelError"),  # not the simple walk
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

    def test_verify_without_z_exits_2(self, capsys, simple_model_file):
        code, out = run_cli(capsys, "limit", simple_model_file, "--x", "2", "--y", "5", "--verify")
        assert code == 2
        assert json.loads(out)["error"] == {"type": "InvalidQuery", "message": "--verify needs --z"}

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

    @pytest.mark.parametrize("z", [["--z", "0"], []], ids=["taboo", "hitting"])
    def test_rows_match_per_value_format(self, capsys, tmp_path, nonsimple_model_file, z):
        out_file = tmp_path / "c.csv"
        code, _ = run_cli(
            capsys,
            "curve", nonsimple_model_file,
            "--x", "2", "--y", "5", *z,
            "--step", "0.05", "--horizon", "3", "--out", str(out_file),
        )
        assert code == 0
        model = load_model(nonsimple_model_file)
        grid = TimeGrid(step=0.05, n_steps=60)
        if z:
            curves = taboo_cdf(model, TabooQuery((2,), (5,), (0,)), grid, strict=False)
        else:
            curves = (hitting_cdf(model, (2,), (5,), grid, strict=False),)
        limits = [c.limit for c in curves]
        want = [
            ",".join(cli._fmt(v) for v in (*row, *limits))
            for row in zip(grid.times, *(c.values for c in curves))
        ]
        assert out_file.read_text().splitlines()[1:-1] == want

    def test_minus_warnings_come_from_both_curves(self, capsys, tmp_path, nonsimple_model_file):
        out_file = tmp_path / "m.csv"
        code = cli.main([
            "curve", nonsimple_model_file, "--x=-2", "--y", "3", "--z", "1",
            "--step", "1.0", "--horizon", "20", "--minus", "--out", str(out_file),
        ])
        assert code == 0
        model = load_model(nonsimple_model_file)
        plus = taboo_cdf(model, TabooQuery((-2,), (3,), (1,)), TimeGrid(step=1.0, n_steps=20), strict=False)
        xyz, xzy = (minus_from_plus(c, model, (-2,), t, strict=False) for c, t in zip(plus, ((3,), (1,))))
        want = list(dict.fromkeys(xyz.warnings + xzy.warnings))
        assert len(want) > len(xyz.warnings)  # H_xzy adds its own noise warning
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        assert manifest["warnings"] == want
        assert capsys.readouterr().err.splitlines() == [f"warning: {w}" for w in want]

    @pytest.mark.parametrize("z", [["--z", "0"], []], ids=["taboo", "hitting"])
    def test_minus_first_row_is_the_atom(self, capsys, tmp_path, nonsimple_model_file, z):
        out_file = tmp_path / "m.csv"
        code, _ = run_cli(
            capsys,
            "curve", nonsimple_model_file,
            "--x", "1", "--y", "3", *z,
            "--step", "0.05", "--horizon", "3", "--minus", "--out", str(out_file),
        )
        assert code == 0
        model = load_model(nonsimple_model_file)
        targets = [(3,), (0,)] if z else [(3,)]
        row = out_file.read_text().splitlines()[1].split(",")
        assert float(row[0]) == 0.0
        assert [float(v) for v in row[1 : 1 + len(targets)]] == [minus_atom(model, (1,), t) for t in targets]

    def test_row_format_matches_fmt_on_edge_values(self):
        col = np.array([0.0, -0.0, 1e-300, 5e-324, -1.5e300, 0.1, 1 / 3, np.inf, np.nan])
        want = [f"{cli._fmt(v)},{cli._fmt(v)},{cli._fmt(0.1)}" for v in col]
        assert cli._csv_rows((col, col), (0.1,)) == want


class TestRecordPath:
    """Every record and manifest is written by one path in main."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["limit", "--x", "2", "--y", "5", "--z", "0"],
            ["limit", "--x", "2", "--y", "5"],
            ["tail", "--x", "1", "--y", "4", "--z", "6", "--minus"],
            ["simulate", "--x", "0", "--y", "3", "--z", "0", "--t-list", "5,10", "--paths", "200"],
        ],
    )
    def test_record_layout(self, capsys, simple_model_file, argv):
        code, out = run_cli(capsys, argv[0], simple_model_file, *argv[1:])
        assert code == 0
        rec = json.loads(out)
        assert list(rec)[0] == "query" and list(rec)[-1] == "manifest"
        assert rec["manifest"]["command"] == argv[0]
        assert rec["manifest"]["query"] == rec["query"]

    @pytest.mark.parametrize("z", [["--z", "0"], []], ids=["taboo", "hitting"])
    def test_curve_sidecar(self, capsys, tmp_path, simple_model_file, z):
        out_file = tmp_path / "c.csv"
        code, out = run_cli(
            capsys, "curve", simple_model_file, "--x", "2", "--y", "5", *z,
            "--step", "0.1", "--horizon", "5", "--out", str(out_file),
        )
        assert code == 0 and out == ""
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert manifest["command"] == "curve"
        assert manifest["query"] == {"x": [2], "y": [5], "z": [0] if z else None}
        assert manifest["outputs"] == [str(out_file)]


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

    @pytest.mark.parametrize("d, heuristic", [(1, False), (2, True)])
    def test_bracket_row_names_the_d2_heuristic(self, capsys, tmp_path, d, heuristic):
        # d = 2 counts escaped mass at 1/2 +- an allowance that is not a proven bound
        jumps = {(1,): 0.4, (2,): 0.1} if d == 1 else {(1, 0): 0.2, (0, 1): 0.2, (1, 1): 0.05, (1, -1): 0.05}
        path = tmp_path / "walk.json"
        save_model(validate_model(d, jumps), path)
        code, out = run_cli(capsys, "verify", str(path), "--suite", "limits")
        assert code == 0
        rows = [line for line in out.splitlines() if "limit-in-bracket" in line]
        assert rows and all(("(heuristic escape)" in row) == heuristic for row in rows)
        if heuristic:
            assert "PASS  limit-in-bracket (1, 0, 0, 1, 0, 0) (heuristic escape) measured=" in out

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
            capsys, "verify", simple_model_file, "--suite", "identities", "--rel-tol", "1e-9",
        )
        assert code == 0
        assert seen[0] == QuadratureConfig(rel_tol=1e-9)
