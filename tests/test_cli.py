"""Command-line surface: formats, merging, exit codes, determinism."""

import hashlib
import json
import math

import numpy as np
import pytest

from threshold_diffusion import (AccuracyError, ControlProblem, DensityQuery, DiffusionParams,
                                 ExitQuery, PotentialQuery, SimConfig, potential_density,
                                 simulate_paths, stationary_density, transition_density,
                                 two_sided_exit, value_function)
from threshold_diffusion import cli
from threshold_diffusion.validate import CheckResult, criterion_3, criterion_11

BM_FLAGS = ["--mu1", "0", "--mu2", "0", "--sigma1", "1", "--sigma2", "1", "--a", "0"]
TR_FLAGS = ["--mu1", "1", "--mu2", "-1", "--sigma1", "1", "--sigma2", "2", "--a", "0"]
TR = DiffusionParams(1.0, -1.0, 1.0, 2.0, 0.0)
GRID = (-1.0, 0.0, 1.0)  # "-1:1:3"


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv_rows(text):
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#") or line[0].isalpha():
            continue
        rows.append([float(v) for v in line.split(",")])
    return rows


def table_case(command):
    """argv, columns, leading columns CSV omits, CSV block headings, rows from the
    library and simulate's summary."""
    if command == "density":  # a repeated time still prints its own blocks
        rows = [(t, x, z, transition_density(DensityQuery(TR, t, x, z)))
                for t in (1.0, 1.0) for x in (0.5, -0.25) for z in GRID]
        return (["density", *TR_FLAGS, "--t", "1,1", "--x", "0.5,-0.25", "--z-grid", "-1:1:3"],
                ("t", "x", "z", "p"), 2, ["# t=1 x=0.5", "# t=1 x=-0.25"] * 2, rows, None)
    if command == "potential":
        rows = [(1.5, 0.5, z, potential_density(PotentialQuery(TR, 1.5, 0.5, z))) for z in GRID]
        return (["potential", *TR_FLAGS, "--q", "1.5", "--x", "0.5", "--z-grid", "-1:1:3"],
                ("q", "x", "z", "u"), 2, None, rows, None)
    if command == "stationary":
        return (["stationary", *TR_FLAGS, "--z-grid", "-1:1:3"], ("z", "pi"), 0, None,
                [(z, stationary_density(TR, z)) for z in GRID], None)
    if command == "value":
        problem = ControlProblem(0.0, 2.0, 0.0, 1.0, 0.0, 1.0)
        return (["value", "--mu-bar", "0", "--sigma-bar", "2", "--mu-low", "0",
                 "--sigma-low", "1", "--a", "0", "--T", "1", "--x", "0,0.25"], ("x", "V"), 0,
                None, [(x, value_function(problem, x)) for x in (0.0, 0.25)], None)
    if command == "exit-lt":
        rows = [(q,) + two_sided_exit(ExitQuery(TR, q, 0.0, -1.0, 1.0))
                for q in (0.5, 1.0, 1.5, 2.0)]
        return (["exit-lt", *TR_FLAGS, "--x", "0", "--y", "-1", "--z", "1", "--q-grid", "0.5:2:4"],
                ("q", "down", "up"), 0, None, rows, None)
    ens = simulate_paths(SimConfig(TR, 0.0, 0.1, 0.01, 50, 3))
    survival, se = ens.survival_frequency(0.0)
    return (["simulate", *TR_FLAGS, "--x0", "0", "--horizon", "0.1", "--dt", "0.01",
             "--n-paths", "50", "--seed", "3"], ("path_index", "terminal_value"), 0, None,
            [(i, float(v)) for i, v in enumerate(ens.terminal_values)],
            {"survival": survival, "se": se, "n": 50, "dt": 0.01, "seed": 3})


def reference_render(fmt, columns, skip, headings, rows, summary):
    """The table as a writer built on json.dumps and one format per value renders it."""
    if fmt == "json":
        doc = [dict(zip(columns, row)) for row in rows]
        if summary is not None:
            doc = {"summary": summary, "paths": doc}
        return json.dumps(doc, indent=2) + "\n"
    parts, size = [], len(rows) // len(headings or [None])
    for k, heading in enumerate(headings or [None]):
        if heading is not None:
            parts.append(heading + "\n")
        parts.append(",".join(columns[skip:]) + "\n")
        parts += [",".join(f"{float(v):.17g}" for v in row[skip:]) + "\n"
                  for row in rows[k * size:(k + 1) * size]]
    return "".join(parts)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["density", "potential", "stationary", "value", "exit-lt",
                                     "simulate"])
def test_table_values_round_trip_their_library_calls(capsys, command, fmt):
    argv, columns, skip, headings, rows, summary = table_case(command)
    rc, out, err = run(capsys, argv + ["--format", fmt])
    assert rc == 0
    # byte for byte what json.dumps(indent=2) and a per-value .17g join write
    assert out == reference_render(fmt, columns, skip, headings, rows, summary)
    if fmt == "json":
        doc = json.loads(out)
        if summary is not None:
            assert doc["summary"] == summary
            doc = doc["paths"]
        assert doc == [dict(zip(columns, row)) for row in rows]
        return
    header = ",".join(columns[skip:])
    layout, got = [], []
    for line in out.splitlines():
        if line.startswith("# ") or line == header:
            layout.append(line)
        else:
            layout.append("row")
            got.append(tuple(float(v) for v in line.split(",")))
    want_layout = []
    for heading in headings or [None]:
        want_layout += [heading] * (heading is not None) + [header]
        want_layout += ["row"] * (len(rows) // len(headings or [None]))
    assert layout == want_layout
    assert got == [row[skip:] for row in rows]
    if summary is not None:
        assert json.loads(err) == summary


# The README's commands at their sizes, with the SHA-256 of what each writes to
# stdout. The digests were taken before the package's public surface shrank and
# `deltas` lost its scalar branch; any change of an output byte shows here. The
# density pair was re-taken when the convolution kernel became one exp of its
# logarithm: 325 of its 402 values moved, by at most 1.5e-15 relative, and each
# stays within 5.2e-11 of oscillating_bm_density. It was re-taken again when the
# overshoot integral became closed form: 399 values moved, by at most 5.3e-11
# relative, and each stays within 4.8e-11 of oscillating_bm_density. The exit-lt pair was re-taken
# when g_minus became exactly 1 at a (this run starts there): one of its 16
# values, down at q = 2, moved by one ulp (1.8e-16 relative).
README_RUNS = {
    "density": ["density", "--mu1", "0", "--mu2", "0", "--sigma1", "1", "--sigma2", "2",
                "--a", "0", "--t", "0.25,1", "--x", "0", "--z-grid", "-4:4:201"],
    "potential": ["potential", *TR_FLAGS, "--q", "1", "--x", "0.3", "--z-grid", "-2:2:81"],
    "stationary": ["stationary", "--mu1", "1", "--mu2", "-1", "--sigma1", "1", "--sigma2", "1",
                   "--a", "0", "--z", "0"],
    "value": ["value", "--mu-bar", "0", "--sigma-bar", "2", "--mu-low", "0", "--sigma-low", "1",
              "--a", "0", "--T", "1", "--x", "0"],
    "exit-lt": ["exit-lt", *TR_FLAGS, "--x", "0", "--y", "-1", "--z", "1",
                "--q-grid", "0.5:4:8"],
}
README_DIGESTS = {
    ("density", "csv"): "3984f408fe21cc3710d920296df3e0db4d4e9a1cd782102bea049e6029f2d164",
    ("density", "json"): "a7ab7eadfddcf0a942509dcc54980c56423e4b78ae47051c00a4c2b93c7c7c89",
    ("potential", "csv"): "2f48dc7d405b2c8a335468835b7c3eb3c3e11df51478b4b425481e867892592d",
    ("potential", "json"): "262be16f2b6a2db4e592d0cf940924389e2a3333bf819c5f2f3448c53a2ea338",
    ("stationary", "csv"): "cc139afe0e4a7b3035b0196055c659ecc443adf549f2c2785c15cc2a7a488a6a",
    ("stationary", "json"): "0a8b73b681851aa96f5a4be8dffa3de7bd8e563e85170a3ec0687d9f9a37d2e8",
    ("value", "csv"): "b822023a9186644fe348f9b95b86b78154839c0f94a45b6299c5a4327a64415c",
    ("value", "json"): "55e33e002c2e2941bd8242c53cc7bb9b4b7fac4f0f703af18640bfdb26789120",
    ("exit-lt", "csv"): "e24d7600bbacda88ae5c58736af8c5217b77687ddb1149b6499ced23550a9347",
    ("exit-lt", "json"): "73a76c75c76e527be6620f8cebb225f692a55248ff79775434080ae971cda43b",
}


@pytest.mark.parametrize("command, fmt", sorted(README_DIGESTS))
def test_readme_commands_keep_their_bytes(capsys, command, fmt):
    rc, out, err = run(capsys, README_RUNS[command] + ["--format", fmt])
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == README_DIGESTS[command, fmt]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_values_exit_2_and_leave_no_file(capsys, tmp_path, fmt):
    # the Euler step overflows: the terminal values are inf, which strict JSON
    # parsers reject as Infinity and CSV would write as inf
    target = tmp_path / f"paths.{fmt}"
    with np.errstate(over="ignore"):
        rc, out, err = run(capsys, ["simulate", "--mu1", "1e308", "--mu2", "1e308",
                                    "--sigma1", "1", "--sigma2", "1", "--a", "0", "--x0", "0",
                                    "--horizon", "2", "--dt", "1", "--n-paths", "2",
                                    "--seed", "1", "--format", fmt, "--out", str(target)])
    assert rc == 2
    assert "non-finite" in err and out == ""
    assert not target.exists()


def test_threads_env_reaches_only_the_simulating_commands(capsys, monkeypatch):
    monkeypatch.setenv("THRESHOLD_DIFFUSION_THREADS", "many")
    rc, out, _ = run(capsys, ["stationary", "--mu1", "1", "--mu2", "-1",
                              "--sigma1", "1", "--sigma2", "1", "--a", "0", "--z", "0"])
    assert rc == 0
    assert parse_csv_rows(out) == [[0.0, 1.0]]


def test_density_gaussian_points(capsys):
    rc, out, _ = run(capsys, ["density", *BM_FLAGS,
                              "--t", "1", "--x", "0", "--z-grid", "0:1:2"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# t=1 x=0"
    assert lines[1] == "z,p"
    rows = parse_csv_rows(out)
    assert rows[0][0] == 0.0
    assert rows[0][1] == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)
    assert rows[1][1] == pytest.approx(math.exp(-0.5) / math.sqrt(2 * math.pi), rel=1e-12)


def test_density_blocks_per_time_and_start(capsys):
    rc, out, _ = run(capsys, ["density", *BM_FLAGS,
                              "--t", "0.5,1", "--x", "0,1", "--z-grid", "-1:1:3"])
    assert rc == 0
    assert out.count("# t=") == 4
    assert len(parse_csv_rows(out)) == 12


def test_density_json(capsys):
    rc, out, _ = run(capsys, ["density", *BM_FLAGS, "--format", "json",
                              "--t", "1", "--x", "0", "--z-grid", "0:1:2"])
    assert rc == 0
    rows = json.loads(out)
    assert [set(r) for r in rows] == [{"t", "x", "z", "p"}] * 2
    assert rows[0]["p"] == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)


def test_potential_json(capsys):
    rc, out, _ = run(capsys, ["potential", "--mu1", "1", "--mu2", "-1",
                              "--sigma1", "1", "--sigma2", "2", "--a", "0",
                              "--q", "1", "--x", "0.3", "--format", "json",
                              "--z-grid", "-1:1:3"])
    assert rc == 0
    rows = json.loads(out)
    assert set(rows[0]) == {"q", "x", "z", "u"}
    assert all(r["u"] > 0 for r in rows)


def test_stationary_point(capsys):
    rc, out, _ = run(capsys, ["stationary", "--mu1", "1", "--mu2", "-1",
                              "--sigma1", "1", "--sigma2", "1", "--a", "0",
                              "--z", "0"])
    assert rc == 0
    assert parse_csv_rows(out) == [[0.0, 1.0]]


def test_value_symmetric_start(capsys):
    rc, out, _ = run(capsys, ["value", "--mu-bar", "0", "--sigma-bar", "2",
                              "--mu-low", "0", "--sigma-low", "1",
                              "--a", "0", "--T", "1", "--x", "0"])
    assert rc == 0
    rows = parse_csv_rows(out)
    assert rows[0][1] == pytest.approx(2.0 / 3.0, abs=1e-3)


def test_exit_lt_table(capsys):
    rc, out, _ = run(capsys, ["exit-lt", "--mu1", "1", "--mu2", "-1",
                              "--sigma1", "1", "--sigma2", "2", "--a", "0",
                              "--x", "0", "--y", "-1", "--z", "1",
                              "--q-grid", "0.5:2:4"])
    assert rc == 0
    assert out.splitlines()[0] == "q,down,up"
    rows = parse_csv_rows(out)
    assert len(rows) == 4
    for q, down, up in rows:
        assert 0.0 < down < 1.0 and 0.0 < up < 1.0
        assert down + up < 1.0
    downs = [r[1] for r in rows]
    assert downs == sorted(downs, reverse=True)


def test_simulate_csv_and_summary_streams(capsys, tmp_path):
    argv = ["simulate", *BM_FLAGS, "--x0", "0", "--horizon", "0.1", "--dt", "0.01",
            "--n-paths", "500", "--seed", "7"]
    rc, out, err = run(capsys, argv)
    assert rc == 0
    assert out.splitlines()[0] == "path_index,terminal_value"
    assert len(parse_csv_rows(out)) == 500
    summary = json.loads(err)
    assert summary["n"] == 500 and summary["seed"] == 7

    # with a file target the summary moves to stdout
    target = tmp_path / "paths.csv"
    rc, out, err = run(capsys, argv + ["--out", str(target)])
    assert rc == 0
    assert err == ""
    assert json.loads(out)["n"] == 500
    assert target.read_text().splitlines()[0] == "path_index,terminal_value"


def test_simulate_rerun_is_identical(capsys):
    argv = ["simulate", *BM_FLAGS, "--x0", "0", "--horizon", "0.1", "--dt", "0.01",
            "--n-paths", "500", "--seed", "7"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_simulate_json_embeds_summary(capsys):
    rc, out, err = run(capsys, ["simulate", *BM_FLAGS, "--x0", "0", "--horizon", "0.1",
                                "--dt", "0.01", "--n-paths", "20", "--seed", "1",
                                "--format", "json"])
    assert rc == 0
    assert err == ""
    doc = json.loads(out)
    assert set(doc) == {"summary", "paths"}
    assert len(doc["paths"]) == 20


@pytest.mark.parametrize("argv", [
    ["density", "--mu1", "0", "--mu2", "0", "--sigma1", "-1", "--sigma2", "1",
     "--a", "0", "--t", "1", "--x", "0", "--z-grid", "0:1:2"],
    ["density", *BM_FLAGS, "--t", "1", "--x", "0", "--z-grid", "0:1:1"],
    ["stationary", "--mu1", "1", "--mu2", "-1", "--sigma1", "1", "--sigma2", "1",
     "--a", "0", "--z", "0", "--z-grid", "0:1:2"],
    ["stationary", "--mu1", "1", "--mu2", "-1", "--sigma1", "1", "--sigma2", "1",
     "--a", "0"],
    ["density", *BM_FLAGS, "--t", "1", "--x", "0", "--z-grid", "0:1:2",
     "--no-such-flag", "1"],
    ["exit-lt", "--mu1", "1", "--mu2", "-1", "--sigma1", "1", "--sigma2", "2",
     "--a", "0", "--x", "5", "--y", "-1", "--z", "1", "--q-grid", "0.5:2:4"],
    ["simulate", *BM_FLAGS, "--x0", "0", "--horizon", "0.1", "--dt", "0.01",
     "--n-paths", "10", "--seed", "1", "--threads", "0"],
    ["density", *BM_FLAGS, "--t", "1", "--x", "0", "--z-grid", "0:1:2", "--threads", "2"],
    ["value", "--mu-bar", "0", "--sigma-bar", "2", "--mu-low", "0", "--sigma-low", "1",
     "--a", "0", "--T", "1"],
    # a rate q <= 0 anywhere in the grid, also with the start at y, where the
    # transforms need no rates
    ["exit-lt", *TR_FLAGS, "--x", "0", "--y", "-1", "--z", "1", "--q-grid", "0:2:5"],
    ["exit-lt", *TR_FLAGS, "--x", "0", "--y", "-1", "--z", "1", "--q-grid", "-1:2:4"],
    ["exit-lt", *TR_FLAGS, "--x", "-1", "--y", "-1", "--z", "1", "--q-grid", "-1:2:4"],
    ["potential", *TR_FLAGS, "--q", "0", "--x", "0.5", "--z-grid", "-1:1:3"],
    ["potential", *TR_FLAGS, "--q", "1", "--x", "inf", "--z-grid", "-1:1:3"],
    # finite ends whose span overflows, refused before numpy sees them
    ["density", *BM_FLAGS, "--t", "1", "--x", "0", "--z-grid", "-1e308:1e308:3"],
    # the battery's tolerances are its own, and its report is always JSON
    ["validate", "--tol", "1e-3"],
    ["validate", "--format", "csv"],
])
@pytest.mark.filterwarnings("error")
def test_invalid_requests_exit_2(capsys, argv):
    rc, _, _ = run(capsys, argv)
    assert rc == 2


def test_accuracy_failure_exits_3_and_leaves_no_file(capsys, tmp_path, monkeypatch):
    def broken(problem, x):
        raise AccuracyError("synthetic failure", estimate=2.0, error_estimate=1.0)
    monkeypatch.setattr(cli, "value_function", broken)
    target = tmp_path / "values.csv"
    rc, _, err = run(capsys, ["value", "--mu-bar", "0", "--sigma-bar", "2",
                              "--mu-low", "0", "--sigma-low", "1", "--a", "0",
                              "--T", "1", "--x", "0", "--out", str(target)])
    assert rc == 3
    assert "accuracy" in err
    assert not target.exists()


def test_unwritable_target_exits_4(capsys, tmp_path):
    rc, _, _ = run(capsys, ["stationary", "--mu1", "1", "--mu2", "-1",
                            "--sigma1", "1", "--sigma2", "1", "--a", "0",
                            "--z", "0", "--out", str(tmp_path)])
    assert rc == 4


def test_missing_config_exits_4(capsys):
    rc, _, err = run(capsys, ["density", *BM_FLAGS, "--t", "1", "--x", "0",
                              "--z-grid", "0:1:2", "--config", "/no/such/file.cfg"])
    assert rc == 4
    assert "config" in err


def test_config_merge_explicit_flags_win(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nsigma2 = 5\nt = 2\n")
    merged = ["density", "--mu1", "0", "--mu2", "0", "--sigma1", "1", "--sigma2", "3",
              "--a", "0", "--t", "1", "--x", "0", "--z-grid", "0:1:2",
              "--config", str(cfg)]
    rc, out_merged, _ = run(capsys, merged)
    assert rc == 0
    direct = ["density", "--mu1", "0", "--mu2", "0", "--sigma1", "1", "--sigma2", "3",
              "--a", "0", "--t", "1", "--x", "0", "--z-grid", "0:1:2"]
    # explicit --sigma2 and --t override the config file values
    rc, out_direct, _ = run(capsys, direct)
    assert rc == 0
    assert out_merged == out_direct
    assert "# t=1 " in out_merged


def test_config_supplies_missing_flags(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu1 = 0\nmu2 = 0\nsigma1 = 1\nsigma2 = 1\na = 0\n")
    rc, out, _ = run(capsys, ["density", "--t", "1", "--x", "0",
                              "--z-grid", "0:1:2", "--config", str(cfg)])
    assert rc == 0
    assert parse_csv_rows(out)[0][1] == pytest.approx(
        1.0 / math.sqrt(2 * math.pi), rel=1e-12)


def test_malformed_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sigma2 5\n")
    rc, _, _ = run(capsys, ["density", *BM_FLAGS, "--t", "1", "--x", "0",
                            "--z-grid", "0:1:2", "--config", str(cfg)])
    assert rc == 2


def test_invalid_threads_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("THRESHOLD_DIFFUSION_THREADS", "many")
    rc, _, _ = run(capsys, ["simulate", *BM_FLAGS, "--x0", "0", "--horizon", "0.1",
                            "--dt", "0.01", "--n-paths", "10", "--seed", "1"])
    assert rc == 2


def test_validate_subset_passes(capsys, monkeypatch):
    monkeypatch.setattr(cli._validate, "ALL_CRITERIA", (criterion_3,))
    rc, out, _ = run(capsys, ["validate"])
    assert rc == 0
    entries = json.loads(out)
    assert len(entries) == 1
    assert entries[0]["criterion"] == 3
    assert entries[0]["passed"] is True
    assert entries[0]["seconds"] >= 0.0


def test_validate_reports_a_failed_check_and_exits_1(capsys, monkeypatch):
    def criterion_4(threads=1):
        return CheckResult(4, "laplace-consistency", False, "stand-in miss", 0.0)
    monkeypatch.setattr(cli._validate, "ALL_CRITERIA", (criterion_4, criterion_3))
    rc, out, _ = run(capsys, ["validate"])
    assert rc == 1
    entries = json.loads(out)
    assert entries[0] == {"criterion": 4, "name": "laplace-consistency", "passed": False,
                          "detail": "stand-in miss", "seconds": 0.0}
    assert entries[1]["criterion"] == 3 and entries[1]["passed"] is True


def test_validate_stdout_is_json_with_simulation_check(capsys, monkeypatch):
    # criterion 11 runs the simulate command, whose summary must not leak into the report
    monkeypatch.setattr(cli._validate, "ALL_CRITERIA", (criterion_11,))
    rc, out, _ = run(capsys, ["validate"])
    assert rc == 0
    entries = json.loads(out)
    assert [e["criterion"] for e in entries] == [11]
    assert entries[0]["passed"] is True


def test_validate_records_unexpected_exception_and_continues(capsys, monkeypatch):
    def broken(threads=1):
        raise TypeError("unsupported operand")

    def criterion_5(threads=1):
        raise ValueError("stand-in")
    monkeypatch.setattr(cli._validate, "ALL_CRITERIA", (criterion_5, broken, criterion_3))
    rc, out, err = run(capsys, ["validate"])
    assert rc == 1
    entries = json.loads(out)
    assert len(entries) == 3
    # a raising check keeps its own number, not its position in the list
    assert entries[0]["criterion"] == 5 and entries[0]["passed"] is False
    assert entries[0]["detail"] == "ValueError: stand-in"
    assert entries[1]["passed"] is False
    assert entries[1]["detail"] == "TypeError: unsupported operand"
    assert entries[2]["criterion"] == 3 and entries[2]["passed"] is True
    assert "TypeError" in err


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
