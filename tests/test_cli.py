import csv
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quermass import __version__
from quermass.cli import main


def _read_csv_lines(path):
    return path.read_text().splitlines()


def test_vk_closed_form_ball(capsys):
    rc = main(["vk", "--vk-method", "closed-form"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "V_2" in out and "ball-closed-form" in out
    assert repr(2.0 * math.pi) in out


def test_vk_auto_routes_box_to_closed_form(capsys):
    # box is not smooth, so auto picks the closed form
    rc = main(["vk", "--body", "box:2,1.5,1", "--k", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "24.0" in out and "box-formula" in out


def test_vk_embedded_cube_closed_form(capsys):
    # 2-face of the 4-cube: V_2 of a degenerate box with half-lengths (1,1,0,0)
    rc = main(["vk", "--n", "4", "--k", "2", "--body", "cube:0,1"])
    assert rc == 0
    assert "4.0" in capsys.readouterr().out


def test_vk_json_cube_uses_its_own_dimension(tmp_path, capsys):
    # a JSON cube in R^5 keeps its indices 3 and 4 when --n is 3: V_1 = 2 * 2
    body = json.dumps({"type": "embedded_cube", "dimension": 5, "indices": [3, 4]})
    report = tmp_path / "vk.json"
    rc = main(["vk", "--n", "3", "--k", "1", "--vk-method", "closed-form",
               "--body", body, "--json", str(report)])
    assert rc == 0
    assert json.loads(report.read_text())["results"]["value"] == 4.0
    assert "V_1 = 4.0" in capsys.readouterr().out


def test_vk_quadrature_report(tmp_path, capsys):
    report = tmp_path / "vk.json"
    rc = main(["vk", "--grid-res", "10", "--json", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["schema_version"] == "quermass.report/1"
    assert doc["package_version"] == __version__
    assert doc["command"] == "vk"
    assert doc["results"]["method"] == "quadrature"
    assert doc["results"]["q_positive_definite"] is True
    assert_allclose(doc["results"]["value"], 2.0 * math.pi, rtol=1e-8)
    # grid provenance travels with the result
    grid = doc["grid"]
    assert grid["method"] == "product-angular"
    assert grid["node_count"] == 200
    assert len(grid["fingerprint"]) == 64


def test_vk_quadrature_rejects_box(capsys):
    rc = main(["vk", "--body", "box:1,1,1", "--vk-method", "quadrature"])
    assert rc == 1
    assert "smooth" in capsys.readouterr().err


def test_bad_body_spec_exits_1(capsys):
    rc = main(["vk", "--body", "torus:1"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_body_from_json_file(tmp_path, capsys):
    body = tmp_path / "body.json"
    body.write_text(json.dumps({"type": "ball", "radius": 2.0}))
    rc = main(["vk", "--body", "@" + str(body), "--k", "1", "--vk-method", "closed-form"])
    assert rc == 0
    # V_1 of a radius-2 ball in R^3 is 8
    assert "8.0" in capsys.readouterr().out


def test_concavity_default_is_strictly_concave(capsys):
    rc = main(["concavity"])
    assert rc == 0
    assert "strictly-concave" in capsys.readouterr().out


def test_concavity_k1_violated_exits_3(tmp_path, capsys):
    # log f_1 is convex along these paths, so the scan reports a violation
    scan = tmp_path / "scan.csv"
    rc = main(["concavity", "--k", "1", "--amplitude", "0.1", "--out", str(scan)])
    assert rc == 3
    assert "violated" in capsys.readouterr().out
    lines = _read_csv_lines(scan)
    assert lines[0] == "s,f_k,f_k_prime,f_k_second,H"
    assert len(lines) == 22


def test_concavity_config_merge_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s_steps": 5, "amplitude": 0.02}))
    out5 = tmp_path / "c5.csv"
    rc = main(["concavity", "--config", str(cfg), "--out", str(out5)])
    assert rc == 0
    assert len(_read_csv_lines(out5)) == 6

    # explicit flag wins over the config file
    out7 = tmp_path / "c7.csv"
    report = tmp_path / "c7.json"
    rc = main(["concavity", "--config", str(cfg), "--s-steps", "7",
               "--out", str(out7), "--json", str(report)])
    assert rc == 0
    assert len(_read_csv_lines(out7)) == 8
    doc = json.loads(report.read_text())
    assert doc["config"]["s_steps"] == 7
    assert doc["config"]["amplitude"] == 0.02


def test_thresholds_table(tmp_path, capsys):
    table = tmp_path / "th.csv"
    report = tmp_path / "th.json"
    rc = main(["thresholds", "--out", str(table), "--json", str(report)])
    assert rc == 0
    lines = _read_csv_lines(table)
    assert lines[0] == "n,k,branch,pbar,upper_bound"
    assert len(lines) == 37  # header + (n-2) rows for each 3 <= n <= 10
    first = lines[1].split(",")
    assert first[:3] == ["3", "2", "middle"]
    assert_allclose(float(first[3]), 1.0 / math.log2(3.0), rtol=1e-15)
    doc = json.loads(report.read_text())
    assert doc["results"]["count"] == 36


def test_counterexample_default_certifies(tmp_path, capsys):
    report = tmp_path / "ce.json"
    rc = main(["counterexample", "--json", str(report)])
    assert rc == 0
    assert "inequality-fails" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert doc["results"]["conclusion"] == "inequality-fails"
    assert doc["results"]["margin"] > 0.0


def test_counterexample_above_threshold_exits_3(capsys):
    # p = 0.9 > pbar(4,2): the box certificate cannot certify failure there
    rc = main(["counterexample", "--p", "0.9"])
    assert rc == 3
    assert "inconclusive" in capsys.readouterr().out


def test_counterexample_sweep_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["counterexample", "--sweep", "--n-max", "6", "--out", str(a)]) == 0
    assert main(["counterexample", "--sweep", "--n-max", "6", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = _read_csv_lines(a)
    assert lines[0].startswith("n,k,branch,pbar,p,")
    assert len(lines) == 11  # header + sum over n=3..6 of (n-2)
    assert all(line.endswith("inequality-fails") for line in lines[1:])


def test_christoffel_csv_one_row_per_node(tmp_path, capsys):
    table = tmp_path / "ch.csv"
    report = tmp_path / "ch.json"
    rc = main(["christoffel", "--grid-res", "6", "--out", str(table),
               "--json", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["results"]["max_abs_residual"] < 1e-8
    lines = _read_csv_lines(table)
    assert lines[0] == "node_index,residual"
    assert len(lines) == doc["grid"]["node_count"] + 1


def test_poincare_exits(capsys):
    assert main(["poincare"]) == 0
    assert "ratio = 1.0" in capsys.readouterr().out
    assert main(["poincare", "--psi", "zonal4"]) == 0
    assert "ratio = 0.3" in capsys.readouterr().out


def test_ibp_check_exits(capsys):
    assert main(["ibp-check"]) == 0
    assert "ok" in capsys.readouterr().out
    # a tolerance below every residual (they are absolute values) flips the verdict
    assert main(["ibp-check", "--tol", "-1"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["vk", "--vk-method", "bogus"])
    assert exc.value.code == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_resolution": 4}))
    with pytest.raises(SystemExit) as exc:
        main(["vk", "--n", "3", "--k", "2", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "'grid_resolution'" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


# Each subcommand's options with their defaults, written out as literals so
# that the option table in quermass.cli cannot drift from them unnoticed.
PINNED_DEFAULTS = {
    "vk": {"n": 3, "k": 2, "body": "ball:1.0", "grid_res": None,
           "grid_method": None, "seed": None, "vk_method": "auto"},
    "concavity": {"n": 3, "k": 2, "psi": "x1sq", "amplitude": 0.01,
                  "body": "ball:1.0", "s_min": -2.0, "s_max": 2.0, "s_steps": 21,
                  "grid_res": None, "grid_method": None, "seed": None},
    "thresholds": {"n_min": 3, "n_max": 10},
    "counterexample": {"n": 4, "k": 2, "p": None, "sweep": False,
                       "n_min": 3, "n_max": 8},
    "christoffel": {"n": 3, "k": 2, "p": 0.5, "body": "ball:1.0",
                    "grid_res": None, "grid_method": None, "seed": None},
    "poincare": {"n": 3, "psi": "x1sq", "amplitude": None,
                 "grid_res": None, "grid_method": None, "seed": None},
    "ibp-check": {"n": 3, "k": 1, "seed": 0, "amplitude": 0.1, "tol": 1e-5,
                  "grid_res": None, "grid_method": None},
}


@pytest.mark.parametrize("command", list(PINNED_DEFAULTS))
def test_options_and_defaults_pinned(command, tmp_path, capsys):
    pinned = PINNED_DEFAULTS[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert all("--" + key.replace("_", "-") in usage for key in pinned)

    # without --config the report records exactly the pinned keys and defaults
    report = tmp_path / "report.json"
    assert main([command, "--json", str(report)]) == 0
    assert json.loads(report.read_text())["config"] == pinned

    # every pinned key is accepted by --config, and nothing else is
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(pinned))
    assert main([command, "--config", str(cfg), "--json", str(report)]) == 0
    assert json.loads(report.read_text())["config"] == pinned
    cfg.write_text(json.dumps({**pinned, "extra_key": 1}))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg)])
    assert exc.value.code == 2
    assert "'extra_key'" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("vk", "vk_method", "bogus"),      # not one of the flag's choices
    ("counterexample", "sweep", "false"),  # a string, not a bool
    ("vk", "grid_res", 6.7),           # not an integer
    ("vk", "n", "x"),                  # not an integer
])
def test_bad_config_value_exits_2(command, key, value, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--config key {key!r}" in err and "Traceback" not in err


def test_config_number_takes_the_flag_type(tmp_path, capsys):
    # a whole JSON number for a float option is stored as the float the flag gives
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 1, "n_max": 4, "sweep": True}))
    report = tmp_path / "ce.json"
    assert main(["counterexample", "--config", str(cfg), "--json", str(report)]) == 3
    assert repr(json.loads(report.read_text())["config"]["p"]) == "1.0"
    assert "p=1.0000" in capsys.readouterr().out


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"],
                         ids=["missing", "malformed", "not-an-object"])
def test_unreadable_config_exits_2(content, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main(["vk", "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot read --config" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["vk", "--body", "{not json"], "bad body spec"),
    (["vk", "--body", "@MALFORMED"], "bad body spec"),
    (["vk", "--body", "@MISSING"], "bad body spec"),
    (["vk", "--body", '{"type": "ball"}'], "missing key 'radius'"),
    (["vk", "--body", "box:1,x,1"], "bad body spec"),
    (["vk", "--n", "4", "--body", "cube:0,x"], "bad body spec"),
    (["poincare", "--psi", "{not json"], "bad psi spec"),
    (["poincare", "--psi", "@MALFORMED"], "bad psi spec"),
    (["poincare", "--psi", "@MISSING"], "bad psi spec"),
    (["poincare", "--psi", '{"dimension": 3}'], "missing key 'terms'"),
    (["poincare", "--psi", "const:x"], "bad psi spec"),
    (["concavity", "--s-steps", "-1"], "--s-steps must be >= 1"),
    (["ibp-check", "--seed", "-1"], "--seed must be >= 0"),
    (["vk", "--grid-method", "monte-carlo", "--grid-res", "100", "--seed", "-2"],
     "monte-carlo seed must be >= 0"),
])
def test_bad_spec_exits_1(argv, message, tmp_path, capsys):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"type": "ball",')
    paths = {"@MALFORMED": "@" + str(malformed), "@MISSING": "@" + str(tmp_path / "no.json")}
    assert main([paths.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["vk", "concavity", "christoffel", "poincare"])
@pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
def test_seed_on_grid_without_seed_exits_2(command, by_config, tmp_path, capsys):
    # the default grid at n = 3 is product-angular, which takes no seed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -2}))
    argv = [command, "--config", str(cfg)] if by_config else [command, "--seed", "-2"]
    report = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--json", str(report)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "seed -2" in err and "Traceback" not in err
    assert not report.exists()


@pytest.mark.parametrize("key, value", [("grid_res", 7), ("grid_method", "icosphere-n3"),
                                        ("seed", 3)])
@pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
def test_grid_option_on_closed_form_vk_exits_2(key, value, by_config, tmp_path, capsys):
    # a box takes the closed form, which builds no grid to apply the option to
    flag = "--" + key.replace("_", "-")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    option = ["--config", str(cfg)] if by_config else [flag, str(value)]
    report = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["vk", "--body", "box:1,1,1", *option, "--json", str(report)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"{flag} {value}" in err and "Traceback" not in err
    assert not report.exists()


def test_seed_of_monte_carlo_grid_is_used(tmp_path, capsys):
    report = tmp_path / "r.json"
    argv = ["vk", "--grid-method", "monte-carlo", "--grid-res", "100", "--json", str(report)]
    assert main(argv + ["--seed", "7"]) == 0
    assert json.loads(report.read_text())["grid"]["seed"] == 7


def test_concavity_zero_steps_exits_1(capsys):
    assert main(["concavity", "--s-steps", "0"]) == 1
    assert "at least one s value" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(PINNED_DEFAULTS))
def test_out_writes_csv_with_header(command, tmp_path, capsys):
    table = tmp_path / "out.csv"
    assert main([command, "--out", str(table)]) == 0
    rows = list(csv.reader(table.read_text().splitlines()))
    assert len(rows) >= 2
    assert all(cell.isidentifier() for cell in rows[0])
    assert all(len(row) == len(rows[0]) for row in rows[1:])
