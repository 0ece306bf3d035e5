"""CLI behaviour: exit codes, determinism, golden-file regression.

Regenerate the golden files with:  BECIRCLE_REGEN=1 pytest tests/test_cli.py
(byte-identical on the same platform with default tolerances).
"""
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import becircle.balanced_energy as be_mod
import becircle.experiments_cli as cli
import becircle.profiles as profiles_mod
import becircle.solver_1d as solver
from becircle import DomainError, index_table
from becircle.experiments_cli import main
from becircle.nonexistence import TwoNodeScan

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "solve.json": ["solve", "--L", "0.5", "--eps", "0.05"],
    "variation.json": ["variation", "--nodes", "0,0.4", "--eps", "0.05",
                       "--f", "0,1"],
    "cutoff.json": ["cutoff-nd", "--n", "3", "--k", "10", "--eps", "0.1",
                    "--delta", "0.001"],
    "profiles.csv": ["profiles", "--T", "20", "--stride", "2.0"],
    "profiles_T40.csv": ["profiles", "--T", "40", "--stride", "1.0"],
    "profiles_T80.csv": ["profiles", "--T", "80", "--stride", "4.0"],
    # 20002 points: the even-count branch of cumulative_simpson and of the
    # constants' tail totals
    "profiles_T20_001.csv": ["profiles", "--T", "20.001", "--stride", "5"],
    "lipschitz.json": ["lipschitz", "--L", "0.5", "--eps", "0.01,0.015,0.02,0.03"],
    "index.json": ["index", "--p", "3", "--eps", "0.01"],
    "gamma_sweep.json": ["gamma-sweep", "--nodes", "0,0.5", "--eps", "0.02,0.01,0.005"],
    "be.json": ["be", "--nodes", "0,0.5", "--eps", "0.05"],
    "two_node_scan.json": ["two-node-scan", "--eps", "0.02", "--grid", "0.3,0.5"],
    "gap_sweep.json": ["gap-sweep", "--L", "0.5", "--eps", "0.05,0.03"],
    # sweeps whose halves fill several 8192-point chunks of the block Newton:
    # 40 evenly spaced eps in [0.01, 0.1), and the 19-point grid
    # linspace(0.1, 0.9, 19) with its reference arc
    "lipschitz_sweep.json": ["lipschitz", "--L", "0.5", "--eps", (
        "0.01,0.01225,0.0145,0.01675,0.019,0.02125,0.0235,0.02575,0.028,0.03025,"
        "0.0325,0.03475,0.037,0.03925,0.0415,0.04375,0.046,0.04825,0.0505,0.05275,"
        "0.055,0.05725,0.0595,0.06175,0.064,0.06625,0.0685,0.07075,0.073,0.07525,"
        "0.0775,0.07975,0.082,0.08425,0.0865,0.08875,0.091,0.09325,0.0955,0.09775")],
    "two_node_scan_grid.json": ["two-node-scan", "--eps", "0.02", "--grid", (
        "0.1,0.14444444444444446,0.18888888888888888,0.23333333333333334,"
        "0.2777777777777778,0.32222222222222224,0.3666666666666667,0.4111111111111111,"
        "0.4555555555555556,0.5,0.5444444444444445,0.5888888888888889,"
        "0.6333333333333333,0.6777777777777778,0.7222222222222222,0.7666666666666667,"
        "0.8111111111111111,0.8555555555555555,0.9")],
}


def _run(args, out):
    code = main(args + ["--out", str(out)])
    assert code == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    data = _run(CASES[name], tmp_path / name)
    golden_path = GOLDEN / name
    if os.environ.get("BECIRCLE_REGEN") == "1":
        GOLDEN.mkdir(exist_ok=True)
        golden_path.write_bytes(data)
    assert golden_path.exists(), "golden file missing; run with BECIRCLE_REGEN=1"
    assert data == golden_path.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    # without --out the record goes to stdout, byte for byte as to a file
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_module_form_writes_the_golden_record():
    # python -m becircle runs the CLI without the RuntimeWarning that
    # python -m becircle.experiments_cli gives (the package imports that
    # module before runpy executes it)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "becircle",
         *CASES["solve.json"]],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "solve.json").read_bytes()


def test_determinism(tmp_path):
    a = _run(CASES["solve.json"], tmp_path / "a.json")
    b = _run(CASES["solve.json"], tmp_path / "b.json")
    assert a == b


def test_records_have_sorted_keys_and_meta(tmp_path):
    data = _run(CASES["solve.json"], tmp_path / "r.json")
    rec = json.loads(data)
    assert list(rec) == sorted(rec)
    assert set(rec["meta"]) >= {"grid_per_eps", "tol", "T", "version"}


def test_index_subcommand(tmp_path):
    out = tmp_path / "index.json"
    code = main(["index", "--p", "1", "--eps", "0.05", "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    row = rec["results"]["rows"][0]
    assert (row["be_index"], row["be_nullity"]) == (1, 1)
    assert (row["ac_index"], row["ac_nullity"]) == (1, 1)


def test_index_skips_inadmissible(tmp_path):
    # 0.05305164769729844 is 1/(2 p pi) with the arc length 1/6 rounded
    # first; the admissible third row keeps the table from raising
    table = index_table([3, 3, 1], [0.1, 0.05305164769729844, 0.05],
                        points_per_eps=20)
    *skipped, kept = table["rows"]
    for row in skipped:
        assert "skipped" in row
        assert "1/(2 p pi)" in row["skipped"]
    assert "skipped" not in kept


def test_index_solves_one_arc_per_row_on_its_grid(tmp_path, monkeypatch):
    # --grid-per-eps is written into meta, so the one arc solve of a row,
    # which both the BE and the AC side read, must run on it; a skipped row
    # solves nothing
    solve, seen = solver.solve_dirichlet, []

    def recording(L, eps, points_per_eps=50, **kwargs):
        seen.append((L, eps, points_per_eps))
        return solve(L, eps, points_per_eps=points_per_eps, **kwargs)

    monkeypatch.setattr(solver, "solve_dirichlet", recording)
    monkeypatch.setattr(be_mod, "solve_dirichlet", recording)
    out = tmp_path / "index.json"
    assert main(["index", "--p", "1", "--eps", "0.05", "--grid-per-eps", "20",
                 "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert seen == [(0.5, 0.05, rec["meta"]["grid_per_eps"])] == [(0.5, 0.05, 20)]
    assert rec["results"]["all_match_S1MorseIndexTheorem"] is True
    seen.clear()
    table = index_table([1, 3, 2], [0.05, 0.1, 0.03], points_per_eps=20)
    assert ["skipped" in row for row in table["rows"]] == [False, True, False]
    assert seen == [(0.5, 0.05, 20), (0.25, 0.03, 20)]


def test_usage_error_exit_code():
    assert main(["bogus-subcommand"]) == 1
    assert main(["solve", "--L", "0.5", "--eps", "0.05", "--bogus-flag"]) == 1


def test_flags_only_where_read(capsys):
    # --tol belongs to solve, --T to profiles, --format to two-node-scan and
    # lipschitz, and --grid-per-eps to every subcommand but profiles and
    # cutoff-nd; elsewhere they are usage errors
    assert main(["be", "--nodes", "0,0.5", "--eps", "0.05", "--tol", "1e-3"]) == 1
    assert main(["solve", "--L", "0.5", "--eps", "0.05", "--T", "20"]) == 1
    assert main(["solve", "--L", "0.5", "--eps", "0.05", "--format", "csv"]) == 1
    assert main(["profiles", "--grid-per-eps", "10"]) == 1
    assert main(["cutoff-nd", "--n", "2", "--k", "1e4", "--eps", "0.1",
                 "--grid-per-eps", "10"]) == 1
    capsys.readouterr()
    assert main(["lipschitz", "--L", "0.5", "--eps", "0.05,0.1", "--format", "csv",
                 "--grid-per-eps", "10"]) == 0
    assert capsys.readouterr().out.startswith("eps,energy\n")


def test_domain_error_exit_code(capsys):
    assert main(["solve", "--L", "0.5", "--eps", "0.2"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gamma-sweep", "--nodes", "0,0.5", "--eps", "0.02"],
    ["gamma-sweep", "--nodes", "0,0.5", "--eps", "0.02,0.02"],
    ["lipschitz", "--L", "0.5", "--eps", "0.05"],
    ["lipschitz", "--L", "0.5", "--eps", "0.05,0.05"],
    ["be", "--nodes", "0,0.5", "--eps", "0"],
    ["two-node-scan", "--eps", "0", "--grid", "0.3,0.5"],
    ["gap-sweep", "--L", "0.5", "--eps", "0"],
    ["solve", "--L", "0.5", "--eps", "nan"],
    ["index", "--p", "0", "--eps", "0.05"],
    ["profiles", "--T", "0"],
    ["profiles", "--T", "-5"],
    ["profiles", "--T", "300"],
    ["solve", "--L", "0.5", "--eps", "0.05", "--grid-per-eps", "0"],
    ["solve", "--L", "0.5", "--eps", "0.05", "--grid-per-eps", "-5"],
    ["solve", "--L", "nan", "--eps", "0.05"],
    ["solve", "--L", "inf", "--eps", "0.05"],
    ["be", "--nodes", "0,nan", "--eps", "0.02"],
    ["cutoff-nd", "--n", "2", "--k", "1e4", "--eps", "nan"],
    ["cutoff-nd", "--n", "2", "--k", "nan", "--eps", "0.1"],
    ["cutoff-nd", "--n", "3", "--k", "10", "--eps", "0.1", "--delta", "inf"],
    ["cutoff-nd", "--n", "400", "--k", "10", "--eps", "0.1", "--delta", "0.001"],
    ["cutoff-nd", "--n", "200", "--k", "10", "--eps", "0.1", "--delta", "100"],
    ["cutoff-nd", "--n", "3", "--k", "1e300", "--eps", "0.1", "--delta", "0.001"],
    ["variation", "--nodes", "0,0.5", "--eps", "0.05", "--f", "0,nan"],
    ["solve", "--L", "0.5", "--eps", "0.05", "--tol", "inf"],
    ["solve", "--L", "0.5", "--eps", "0.05", "--tol", "nan"],
    ["two-node-scan", "--eps", "0.05", "--grid", "0.3,nan"],
    ["profiles", "--stride", "nan"],
    ["profiles", "--stride", "0"],
    ["profiles", "--stride", "-1"],
    ["gap-sweep", "--L", "0.5", "--eps", ","],
    ["two-node-scan", "--eps", "0.02", "--grid", ","],
    ["two-node-scan", "--eps", "0.2", "--grid", "0.5"],
    ["index", "--p", "3", "--eps", "0.1"],
    ["cutoff-nd", "--n", "3", "--k", "10", "--eps", "1e-320", "--delta", "0.001"],
    ["cutoff-nd", "--n", "3", "--k", "1.0000000000001", "--eps", "1e300", "--delta", "0.001"],
    ["solve", "--L", "0.5", "--eps", "1e-320"],
    ["be", "--nodes", "0,0.5", "--eps", "1e-320"],
    ["solve", "--L", "0.5", "--eps", "5e-6"],
    ["solve", "--L", "2e-153", "--eps", "1e-154"],
    ["solve", "--L", "2e200", "--eps", "1e198"],
    ["solve", "--L", "0.5", "--eps", "0.05", "--grid-per-eps", "801"],
    ["lipschitz", "--L", "0.5", "--eps", "0.02,1e-320"],
    ["gamma-sweep", "--nodes", "0,0.5", "--eps", "0.02,1e-320"],
    ["lipschitz", "--L", "0.5", "--eps", "0.01,nan"],
    ["two-node-scan", "--eps", "nan", "--grid", "0.5"],
], ids=lambda argv: "_".join(argv).replace("--", ""))
def test_bad_input_is_a_typed_error(argv, capsys):
    # sweeps need two distinct eps; eps, L, the grid density, Newton's tol,
    # the profile stride and the cutoff's k and delta must be positive and
    # finite, with Gamma(n/2), (k delta)^n and each term of the cutoff energy
    # finite, an arc's grid step normal, L/eps within the representable
    # moduli and its gradient term inside float64, p positive, the profile
    # truncation T positive and at most 251.19 (where gdot(T)^2 leaves the
    # normal range), nodes, scan grid points and the node motion f finite; a gap sweep needs an eps and a
    # two-node scan a grid point with both arcs above 1.05 pi eps, and an
    # index table an admissible row: never a traceback, never a NaN written
    # into a record, and never a claim made on no data
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_an_unwritable_out_is_a_typed_error(tmp_path, capsys):
    # the record is computed, then cannot be written: an error line and
    # exit 1, not a FileNotFoundError traceback
    out = tmp_path / "missing" / "x.json"
    assert main(["solve", "--L", "0.5", "--eps", "0.05", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and not out.exists()


@pytest.mark.parametrize("argv", [
    ["lipschitz", "--L", "0.5", "--eps", "0.02,1e-320"],
    ["gamma-sweep", "--nodes", "0,0.5", "--eps", "0.02,1e-320"],
], ids=lambda argv: argv[0])
def test_a_sweep_reports_its_first_bad_arc(argv, capsys):
    # a sweep checks its arcs in order, smallest eps first, before solving
    # any: the message is the one the arcs solved one at a time gave
    assert main(argv) == 1
    assert capsys.readouterr().err == ("error: no normal grid step with a finite interval "
                                       "count for L = 0.5, eps = 1e-320 at 50 points per eps\n")


@pytest.mark.parametrize("argv", [
    ["lipschitz", "--L", "0.5", "--eps", "0.01,nan"],
    ["two-node-scan", "--eps", "nan", "--grid", "0.5"],
], ids=lambda argv: argv[0])
def test_a_nan_eps_is_named_as_given(argv, capsys):
    # a NaN eps is rejected as such, printed as the user wrote it: not as a
    # numpy scalar's repr, and not as a grid filter that no point passed
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: eps must be positive and finite, got nan\n"


@pytest.mark.parametrize("argv, given", [
    (["lipschitz", "--L", "0.5", "--eps", "nan"], "nan"),
    (["lipschitz", "--L", "0.5", "--eps", "nan,nan"], "nan"),
    (["lipschitz", "--L", "0.5", "--eps", "-1"], "-1.0"),
    (["gamma-sweep", "--nodes", "0,0.5", "--eps", "nan"], "nan"),
    (["gamma-sweep", "--nodes", "0,0.5", "--eps", "inf,inf"], "inf"),
], ids=lambda v: "_".join(v).replace("--", "") if isinstance(v, list) else v)
def test_a_sweep_names_a_bad_eps_before_counting_distinct_eps(argv, given, capsys):
    # a sweep checks every eps it is given before it counts the distinct
    # ones: one bad eps, or the same bad eps twice, is named, not reported
    # as too few distinct eps
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: eps must be positive and finite, got {given}\n"


@pytest.mark.parametrize("argv", [
    ["solve", "--L", "0.5", "--eps", "inf"],
    ["be", "--nodes", "0,0.5", "--eps", "inf"],
    ["index", "--p", "1", "--eps", "inf"],
    ["gap-sweep", "--L", "0.5", "--eps", "0.01,inf"],
    ["lipschitz", "--L", "0.5", "--eps", "0.01,inf"],
    ["gamma-sweep", "--nodes", "0,0.5", "--eps", "0.02,inf"],
], ids=lambda argv: argv[0])
def test_an_infinite_eps_is_not_finite(argv, capsys):
    # an infinite eps is rejected as such, not as an eps past the existence
    # threshold, which it would otherwise be compared with first
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: eps must be positive and finite, got inf\n"


def test_gap_sweep_checks_every_eps_before_solving(monkeypatch, capsys):
    # a bad eps late in --eps is rejected, with the message --eps inf alone
    # prints, before the L/eps = 1000 arc of the first eps is solved
    solves = []
    newton_halves = solver.newton_halves
    monkeypatch.setattr(solver, "newton_halves",
                        lambda *args: solves.append(args) or newton_halves(*args))
    assert main(["gap-sweep", "--L", "0.5", "--eps", "0.0005,inf"]) == 1
    assert capsys.readouterr().err == "error: eps must be positive and finite, got inf\n"
    assert main(["gap-sweep", "--L", "0.5", "--eps", "0.0005,0.2"]) == 1
    assert "L/pi" in capsys.readouterr().err
    assert solves == []


def test_index_table_rejects_an_infinite_eps_before_solving(monkeypatch):
    # an infinite eps is an error, not a row skipped as past 1/(2 p pi), and
    # it is raised before the admissible row is solved
    monkeypatch.setattr(be_mod, "nodal_solution", lambda *args, **kwargs: 1 / 0)
    with pytest.raises(DomainError, match="positive and finite, got inf"):
        index_table([1, 1], [0.02, math.inf])


_FAILING = {
    "index_table": {"rows": [], "all_match_S1MorseIndexTheorem": False},
    "gamma_sweep": {"rows": [{"be_below_comparator": False}]},
    "two_node_scan": TwoNodeScan(eps=0.02, p=np.array([0.5]), be=np.array([1.0]),
                                 reference=2.0, gap=np.array([-1.0])),
    "dirichlet_gap": -1.0,
}


@pytest.mark.parametrize("target, argv, claim", [
    ("index_table", ["index", "--p", "1", "--eps", "0.05"], "S1MorseIndexTheorem"),
    ("gamma_sweep", ["gamma-sweep", "--nodes", "0,0.5", "--eps", "0.02,0.01"],
     "GammaConSimple comparator"),
    ("two_node_scan", ["two-node-scan", "--eps", "0.02", "--grid", "0.5"],
     "NoAbsoluteMinimizerS1"),
    ("two_node_scan", ["two-node-scan", "--eps", "0.02", "--grid", "0.5",
                       "--format", "csv"], "NoAbsoluteMinimizerS1"),
    ("dirichlet_gap", ["gap-sweep", "--L", "0.5", "--eps", "0.05"],
     "LinearizedOperatorInverseThm"),
], ids=lambda v: "_".join(v).replace("--", "") if isinstance(v, list) else None)
def test_failed_claim_exits_2(target, argv, claim, monkeypatch, capsys):
    # a record whose claim fails is still written, in either format, and
    # the exit code and stderr say which claim failed
    monkeypatch.setattr(cli, target, lambda *args, **kwargs: _FAILING[target])
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out
    assert err.startswith(f"assertion failed: {claim}")


def test_gap_sweep_exit(tmp_path):
    out = tmp_path / "g.json"
    code = main(["gap-sweep", "--L", "0.5", "--eps", "0.05,0.03", "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["results"]["all_positive"] is True


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []

    def counting():
        built.append(1)
        return build()

    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(5):
            assert main(CASES["cutoff.json"]) == 0
            assert capsys.readouterr().out.encode() == (GOLDEN / "cutoff.json").read_bytes()
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_build_parser_returns_a_fresh_parser(capsys):
    # a caller who changes the parser it got cannot change main
    mine = cli.build_parser()
    assert mine is not cli.build_parser()
    mine.set_defaults(grid_per_eps=7)
    assert main(CASES["solve.json"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "solve.json").read_bytes()


def test_shared_parser_keeps_records_apart(tmp_path, capsys):
    # usage errors, --help and index's grid_per_eps default of 100 leave no
    # trace in the records that follow on the shared parser
    def goldens(tag):
        for name, argv in sorted(CASES.items()):
            assert _run(argv, tmp_path / f"{tag}-{name}") == (GOLDEN / name).read_bytes()

    goldens("before")
    assert main(["solve", "--L", "0.5", "--eps", "0.05", "--bogus-flag"]) == 1
    assert main(["--help"]) == 0
    index = tmp_path / "index.json"
    assert main(["index", "--p", "1", "--eps", "0.05", "--out", str(index)]) == 0
    assert json.loads(index.read_text())["meta"]["grid_per_eps"] == 100
    capsys.readouterr()
    goldens("after")
    assert json.loads((tmp_path / "after-solve.json").read_text())["meta"]["grid_per_eps"] == 50


def test_profiles_record_solves_five_profiles(tmp_path, monkeypatch):
    # w, rho, tau_geom and omega once each, and tau_geom's values again for
    # sigma2, counted at the variation-of-parameters core they all run; rho
    # reads the window's w, and the constants read w'(0) and omega'(0) from
    # their tail integrals
    solves = []
    core = profiles_mod._vp_core

    def counting(rhs_values, line):
        solves.append(1)
        return core(rhs_values, line)

    monkeypatch.setattr(profiles_mod, "_vp_core", counting)
    profiles_mod._halfline.cache_clear()
    try:
        name = "profiles.csv"
        assert _run(CASES[name], tmp_path / name) == (GOLDEN / name).read_bytes()
        assert len(solves) == 5
    finally:
        profiles_mod._halfline.cache_clear()


def test_profiles_record_evaluates_the_heteroclinic_once(tmp_path, monkeypatch):
    calls = []

    def counting(t):
        calls.append(np.size(t))
        return heteroclinic(t)

    heteroclinic = profiles_mod.heteroclinic
    monkeypatch.setattr(profiles_mod, "heteroclinic", counting)
    try:
        for name in ("profiles.csv", "profiles_T40.csv"):
            profiles_mod._halfline.cache_clear()
            calls.clear()
            assert _run(CASES[name], tmp_path / name) == (GOLDEN / name).read_bytes()
            assert len(calls) == 1
    finally:
        profiles_mod._halfline.cache_clear()
