import json
import math
import subprocess
import sys

import numpy as np
import pytest

from tablemech import (
    CutoffVector,
    GridMechanism,
    TableMechanismGrid,
    optimal_single_cutoff,
    save_mechanism,
)
from tablemech.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def cutoff_file(tmp_path):
    path = tmp_path / "cutoff.json"
    save_mechanism(CutoffVector([0.5]), path)
    return str(path)


@pytest.fixture
def bad_rule_file(tmp_path):
    def rule(p, a):
        return np.where((p[:, 0] <= 0.5) & (a[:, 0] >= a[:, 1]), 0, 1)

    path = tmp_path / "reverse.json"
    save_mechanism(GridMechanism.from_callable(2, 5, rule), path)
    return str(path)


def test_optimize_json(capsys):
    code, out, err = run(capsys, "optimize", "--n", "2")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["n_projects"] == 2
    assert abs(data["cutoff"] - 0.5) < 1e-9
    assert abs(data["expected_utility"] - 0.5625) < 1e-11
    # floats are rounded to 12 significant digits
    assert data["cutoff"] == float(format(optimal_single_cutoff(2).cutoff, ".12g"))


def test_optimize_csv_and_out_file(tmp_path, capsys):
    out_path = tmp_path / "opt.csv"
    code, out, _ = run(
        capsys, "optimize", "--n", "3", "--format", "csv", "--out", str(out_path)
    )
    assert code == 0
    assert out == ""  # everything went to the file
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "n_projects,cutoff,expected_utility,residual"
    fields = lines[1].split(",")
    assert fields[0] == "3"
    assert float(fields[1]) == pytest.approx(0.5485837703548635, abs=1e-9)
    # no temp droppings left behind
    assert list(tmp_path.glob("*.tmp")) == []


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--n-min", "2", "--n-max", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,cutoff,eu,sqrtn_times_gap"
    assert len(lines) == 5
    for line, n in zip(lines[1:], range(2, 6)):
        f = line.split(",")
        assert int(f[0]) == n
        res = optimal_single_cutoff(n)
        assert float(f[1]) == pytest.approx(res.cutoff, abs=1e-11)
        assert float(f[3]) == pytest.approx(
            np.sqrt(n) * (1 - res.cutoff), abs=1e-11
        )


def test_compare_ordering(capsys):
    code, out, _ = run(
        capsys, "compare", "--n-min", "2", "--n-max", "6", "--samples", "20000"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,no_verif,dynamic,static,transfers"
    for line in lines[1:]:
        n, none, dyn, static, transfers = line.split(",")
        assert float(none) <= float(dyn) + 1e-12
        assert float(dyn) <= float(static) + 1e-12
        assert float(static) <= float(transfers) + 1e-12


def test_dynamics_rows(capsys):
    code, out, _ = run(capsys, "dynamics", "--n-min", "1", "--n-max", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,c1,dynamic,static"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    assert float(rows[2][1]) == 0.5625
    assert float(rows[2][2]) == pytest.approx(0.6043701171875)


def test_audit_passing_cutoff_file(cutoff_file, capsys):
    code, out, _ = run(capsys, "audit", cutoff_file, "--grid", "5")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True
    assert data["witness"] is None
    assert data["exhaustive"] is True
    assert data["checked"] == 140625


def test_audit_failing_mechanism_exits_1(bad_rule_file, capsys):
    code, out, _ = run(capsys, "audit", bad_rule_file)
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] is False
    w = data["witness"]
    assert w["gain"] > 0
    assert w["profits"] == [0.75, 0.0]
    assert all(r <= t for r, t in zip(w["reported_profits"], w["profits"]))


def test_search_small_grid(capsys):
    code, out, _ = run(capsys, "search", "--grid", "3")
    assert code == 0
    data = json.loads(out)
    assert data["n_candidates"] == 20
    assert data["eu_exact"] == "7/12"
    assert data["is_cutoff_shaped"] is True
    assert data["best_cutoff"] == 0.5
    assert data["n_maximizers"] == 2
    assert np.asarray(data["maximizers"][0]).shape == (3, 3)


def test_search_past_ten(capsys):
    code, out, _ = run(capsys, "search", "--grid", "12")
    assert code == 0
    data = json.loads(out)
    assert data["n_candidates"] == math.comb(24, 12)
    assert data["is_cutoff_shaped"] is True
    assert data["n_maximizers"] == 1
    assert np.asarray(data["maximizers"][0]).shape == (12, 12)


def test_simulate_cutoff_file(cutoff_file, capsys):
    code, out, _ = run(
        capsys, "simulate", cutoff_file, "--samples", "50000", "--seed", "7"
    )
    assert code == 0
    data = json.loads(out)
    assert data["n_samples"] == 50000 and data["seed"] == 7
    assert abs(data["mean"] - 0.5625) <= 4 * data["std_error"]


def test_simulate_agent_flag(cutoff_file, capsys):
    code, out, _ = run(
        capsys, "simulate", cutoff_file, "--samples", "50000", "--seed", "7", "--agent"
    )
    assert code == 0
    data = json.loads(out)
    # agent of a half-cutoff two-project table: favorite if p0 clears, else default
    assert 0.5 < data["mean"] < 2.0 / 3.0


def test_simulate_table_file(tmp_path, capsys):
    path = tmp_path / "table.json"
    save_mechanism(TableMechanismGrid.from_cutoffs(CutoffVector([0.5]), 5), path)
    code, out, _ = run(capsys, "simulate", str(path), "--samples", "20000")
    assert code == 0
    data = json.loads(out)
    assert abs(data["mean"] - 0.5625) <= 4 * data["std_error"]


def test_malformed_thread_count_exits_2(cutoff_file, capsys, monkeypatch):
    monkeypatch.setenv("TABLEMECH_THREADS", "abc")
    code, out, err = run(capsys, "simulate", cutoff_file, "--samples", "1000")
    assert code == 2
    assert out == ""
    assert "TABLEMECH_THREADS" in err


def test_simulate_deterministic_across_threads(cutoff_file, tmp_path, capsys, monkeypatch):
    outs = []
    for threads in ("1", "4", "1"):
        monkeypatch.setenv("TABLEMECH_THREADS", threads)
        path = tmp_path / f"run{len(outs)}.json"
        code, _, _ = run(
            capsys, "simulate", cutoff_file, "--samples", "100000", "--out", str(path)
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_config_file_defaults_and_flag_precedence(cutoff_file, tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("# tuning\nsamples = 5000\nseed=11\n")
    code, out, _ = run(capsys, "simulate", cutoff_file, "--config", str(cfg))
    assert code == 0
    data = json.loads(out)
    assert data["n_samples"] == 5000 and data["seed"] == 11
    # an explicit flag still wins
    code, out, _ = run(
        capsys, "simulate", cutoff_file, "--config", str(cfg), "--seed", "3"
    )
    assert json.loads(out)["seed"] == 3


def test_config_rejects_unknown_keys(cutoff_file, tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("burgers=4\n")
    code, _, err = run(capsys, "simulate", cutoff_file, "--config", str(cfg))
    assert code == 2
    assert "burgers" in err



def test_config_rejects_non_integral_counts(cutoff_file, tmp_path, capsys):
    cfg = tmp_path / "cfg"
    for line in ("samples = 2.7", "seed = 1.5", "grid = nan"):
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, "simulate", cutoff_file, "--config", str(cfg))
        assert code == 2 and out == ""
        assert "needs an integer" in err
    cfg.write_text("samples = 5e3\n")  # integral in exponent form is fine
    code, out, _ = run(capsys, "simulate", cutoff_file, "--config", str(cfg))
    assert code == 0 and json.loads(out)["n_samples"] == 5000


def test_simulate_rejects_out_of_range_seed(cutoff_file, capsys):
    code, out, err = run(capsys, "simulate", cutoff_file, "--seed", "-1")
    assert code == 2 and out == ""
    assert "seed" in err


@pytest.mark.parametrize("argv", [["simulate"], ["audit", "--grid", "5"]])
def test_nan_cutoff_file_exits_2(tmp_path, capsys, argv):
    # Python's json accepts the bare NaN token, so the check must be ours
    path = tmp_path / "nan.json"
    path.write_text('{"kind": "cutoff", "n_projects": 2, "cutoffs": [NaN]}')
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and out == ""
    assert "finite" in err


def test_non_finite_tol_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "optimize", "--n", "5", "--tol", "inf")
    assert code == 2 and out == ""
    assert "tol" in err
    cfg = tmp_path / "cfg"
    cfg.write_text("tol = inf\n")
    code, out, err = run(
        capsys, "sweep", "--n-min", "2", "--n-max", "5", "--config", str(cfg)
    )
    assert code == 2 and out == ""
    assert "tol" in err


ZEROS = [[0] * 4] * 4  # a valid n=2, k=2 decision array


@pytest.mark.parametrize(
    "payload,field",
    [
        ({"n_projects": 2.0, "grid_resolution": 2, "decisions": ZEROS}, "n_projects"),
        ({"n_projects": 2, "grid_resolution": "2", "decisions": ZEROS}, "grid_resolution"),
        ({"kind": "grid", "n_projects": 2, "decisions": ZEROS}, "grid_resolution"),
        ({"kind": "grid", "grid_resolution": 2, "decisions": ZEROS}, "n_projects"),
        ({"kind": "table", "n_projects": 2}, "indicators"),
        ({"kind": "cutoff", "n_projects": "2", "cutoffs": [0.5]}, "n_projects"),
        ({"kind": "cutoff", "n_projects": True, "cutoffs": []}, "n_projects"),
        ([{"kind": "cutoff", "cutoffs": [0.5]}], "object"),
    ],
)
def test_malformed_mechanism_file_names_the_field(tmp_path, capsys, payload, field):
    path = tmp_path / "mech.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "audit", str(path), "--grid", "3")
    assert code == 2 and out == ""
    assert field in err


def test_out_file_replaced_atomically_with_plain_write_mode(tmp_path, capsys):
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    out_path = tmp_path / "opt.json"
    out_path.write_text("stale")
    code, out, _ = run(capsys, "optimize", "--n", "2", "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["n_projects"] == 2
    assert out_path.stat().st_mode == plain.stat().st_mode
    fresh = tmp_path / "fresh.json"
    assert run(capsys, "optimize", "--n", "2", "--out", str(fresh))[0] == 0
    assert fresh.stat().st_mode == plain.stat().st_mode
    assert not list(tmp_path.glob("*.tmp"))

def test_error_paths_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "audit", str(tmp_path / "missing.json"))
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "sweep", "--n-min", "5", "--n-max", "2")
    assert code == 2
    bad = tmp_path / "grid.json"
    save_mechanism(GridMechanism(2, 3, np.zeros((9, 9), dtype=int)), bad)
    code, _, err = run(capsys, "simulate", str(bad))
    assert code == 2 and "cutoff or table" in err


def test_twelve_significant_digits_in_csv(capsys):
    _, out, _ = run(capsys, "sweep", "--n-min", "3", "--n-max", "3")
    cutoff_str = out.strip().split("\n")[1].split(",")[1]
    assert cutoff_str == format(optimal_single_cutoff(3).cutoff, ".12g")


def test_shipped_example_mechanisms(capsys):
    from pathlib import Path

    mdir = Path(__file__).resolve().parent.parent / "demos" / "mechanisms"
    code, out, _ = run(capsys, "audit", str(mdir / "cutoff_n2.json"), "--grid", "5")
    assert code == 0 and json.loads(out)["verdict"] is True
    code, out, _ = run(capsys, "audit", str(mdir / "reverse_cutoff_n2.json"))
    assert code == 1
    assert json.loads(out)["witness"]["gain"] > 0


def test_parser_reused_across_calls_and_after_parse_errors(capsys):
    from tablemech import cli

    assert cli._build_parser() is cli._build_parser()
    runs = [
        ["optimize", "--n", "7"],
        ["sweep", "--n-min", "2", "--n-max", "4"],
        ["dynamics", "--n-min", "1", "--n-max", "3", "--format", "json"],
        ["compare", "--n-min", "1", "--n-max", "2", "--samples", "500"],
    ]
    before = [run(capsys, *argv) for argv in runs]
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert help_text.startswith("usage: tablemech")
    for bad in (["optimize"], ["optimize", "--n", "x"], ["frobnicate"], []):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert "usage: tablemech" in capsys.readouterr().err
    after = [run(capsys, *argv) for argv in reversed(runs)][::-1]
    assert after == before
    with pytest.raises(SystemExit):
        main(["--help"])
    assert capsys.readouterr().out == help_text


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tablemech", "optimize", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n_projects"] == 2
