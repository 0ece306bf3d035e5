#!/usr/bin/env bash
# The CLI and benchmark checks of the CI workflow, then a code-line report
# (ci/code_lines.py), runnable from any shell:
#
#     bash ci/check.sh                                        # installed console script
#     BECIRCLE="python -m becircle" PYTHONPATH=src bash ci/check.sh   # source checkout
#
# BECIRCLE is the command under test (default: becircle).  Lines that name
# `python -W error::RuntimeWarning -m becircle` test the module form under
# warnings-as-errors whatever BECIRCLE is.  Exits nonzero at the first
# failing check.
set -eo pipefail
cd "$(dirname "$0")/.."
BECIRCLE=${BECIRCLE:-becircle}

echo "== console script and module form write the golden records to stdout"
$BECIRCLE solve --L 0.5 --eps 0.05 | cmp - tests/golden/solve.json
$BECIRCLE profiles --T 20 --stride 2.0 | cmp - tests/golden/profiles.csv
$BECIRCLE profiles --T 40 --stride 1.0 | cmp - tests/golden/profiles_T40.csv
$BECIRCLE profiles --T 80 --stride 4.0 | cmp - tests/golden/profiles_T80.csv
$BECIRCLE profiles --T 20.001 --stride 5 | cmp - tests/golden/profiles_T20_001.csv
$BECIRCLE variation --nodes 0,0.4 --eps 0.05 --f 0,1 | cmp - tests/golden/variation.json
$BECIRCLE cutoff-nd --n 3 --k 10 --eps 0.1 --delta 0.001 | cmp - tests/golden/cutoff.json
$BECIRCLE lipschitz --L 0.5 --eps 0.01,0.015,0.02,0.03 | cmp - tests/golden/lipschitz.json
python -W error::RuntimeWarning -m becircle solve --L 0.5 --eps 0.05 | cmp - tests/golden/solve.json
python -W error::RuntimeWarning -m becircle solve --L 0.5 --eps 0.0025 > /dev/null
python -W error::RuntimeWarning -m becircle profiles --T 250 --stride 50 > /dev/null
python -W error::RuntimeWarning -m becircle profiles --T 15 --stride 5 > /dev/null
python -W error::RuntimeWarning -m becircle profiles --T 20.001 --stride 5 | cmp - tests/golden/profiles_T20_001.csv
$BECIRCLE index --p 3 --eps 0.01 | cmp - tests/golden/index.json
python -W error::RuntimeWarning -m becircle index --p 1 --eps 0.05 > /dev/null
python -W error::RuntimeWarning -m becircle index --p 2 --eps 0.02 > /dev/null
python -W error::RuntimeWarning -m becircle index --p 4 --eps 0.01 > /dev/null
$BECIRCLE be --nodes 0,0.5 --eps 0.05 | cmp - tests/golden/be.json
$BECIRCLE two-node-scan --eps 0.02 --grid 0.3,0.5 | cmp - tests/golden/two_node_scan.json
$BECIRCLE gap-sweep --L 0.5 --eps 0.05,0.03 | cmp - tests/golden/gap_sweep.json
python -W error::RuntimeWarning -m becircle gap-sweep --L 0.5 --eps 0.158,0.0005 > /dev/null
$BECIRCLE gamma-sweep --nodes 0,0.5 --eps 0.02,0.01,0.005 | cmp - tests/golden/gamma_sweep.json
python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["results"]["limit_deviation"] < 1e-3 else 1)' < tests/golden/gamma_sweep.json
# an asymmetric four-node sweep: BE stays below the comparator by 0.059 at
# eps 0.02 and 2.5e-4 at 0.01, far beyond the check's 1e-9 slack
python -W error::RuntimeWarning -m becircle gamma-sweep --nodes 0,0.21,0.5,0.77 --eps 0.02,0.01 > /dev/null
# sweeps that fill several 8192-point chunks of the block Newton: 40 evenly
# spaced eps in [0.01, 0.1), and the grid linspace(0.1, 0.9, 19)
SWEEP_EPS=0.01,0.01225,0.0145,0.01675,0.019,0.02125,0.0235,0.02575,0.028,0.03025,0.0325,0.03475,0.037,0.03925,0.0415,0.04375,0.046,0.04825,0.0505,0.05275,0.055,0.05725,0.0595,0.06175,0.064,0.06625,0.0685,0.07075,0.073,0.07525,0.0775,0.07975,0.082,0.08425,0.0865,0.08875,0.091,0.09325,0.0955,0.09775
SCAN_GRID=0.1,0.14444444444444446,0.18888888888888888,0.23333333333333334,0.2777777777777778,0.32222222222222224,0.3666666666666667,0.4111111111111111,0.4555555555555556,0.5,0.5444444444444445,0.5888888888888889,0.6333333333333333,0.6777777777777778,0.7222222222222222,0.7666666666666667,0.8111111111111111,0.8555555555555555,0.9
$BECIRCLE lipschitz --L 0.5 --eps $SWEEP_EPS | cmp - tests/golden/lipschitz_sweep.json
python -W error::RuntimeWarning -m becircle lipschitz --L 0.5 --eps $SWEEP_EPS | cmp - tests/golden/lipschitz_sweep.json
$BECIRCLE two-node-scan --eps 0.02 --grid $SCAN_GRID | cmp - tests/golden/two_node_scan_grid.json
python -W error::RuntimeWarning -m becircle two-node-scan --eps 0.02 --grid $SCAN_GRID | cmp - tests/golden/two_node_scan_grid.json
# arcs of 15002 and 12503 half-grid points, each a chunk alone
python -W error::RuntimeWarning -m becircle lipschitz --L 0.5 --eps 0.0025,0.003 > /dev/null
echo "ok"

echo "== bad input exits 1 with a typed error, not a traceback"
# a traceback also exits 1, so stderr must start with "error:".  The row for
# an L/eps past the representable moduli keeps eps at 5e-6: the arc grid
# grows as 1/eps, and a version that built it before checking L/eps would
# exhaust memory at a smaller eps
rows=0
while read -r args; do
  code=0
  err=$($BECIRCLE $args 2>&1 > /dev/null) || code=$?
  if [ "$code" -ne 1 ] || [[ "$err" != error:* ]]; then
    echo "$BECIRCLE $args: exit $code: $err"; exit 1
  fi
  rows=$((rows + 1))
done <<'ROWS'
solve --L 0.5 --eps 0.05 --tol inf
solve --L 0.5 --eps 0.05 --tol nan
two-node-scan --eps 0.05 --grid 0.3,nan
profiles --stride nan
profiles --stride 0
profiles --stride -1
profiles --T 300
profiles --T 12
gap-sweep --L 0.5 --eps ,
two-node-scan --eps 0.02 --grid ,
two-node-scan --eps 0.2 --grid 0.5
index --p 3 --eps 0.1
cutoff-nd --n 400 --k 10 --eps 0.1 --delta 0.001
cutoff-nd --n 200 --k 10 --eps 0.1 --delta 100
cutoff-nd --n 3 --k 1e300 --eps 0.1 --delta 0.001
cutoff-nd --n 3 --k 10 --eps 1e-320 --delta 0.001
cutoff-nd --n 3 --k 1.0000000000001 --eps 1e300 --delta 0.001
solve --L 0.5 --eps 1e-320
be --nodes 0,0.5 --eps 1e-320
solve --L 0.5 --eps 5e-6
solve --L 2e-153 --eps 1e-154
solve --L 2e200 --eps 1e198
solve --L 0.5 --eps 0.05 --grid-per-eps 801
lipschitz --L 0.5 --eps 0.02,1e-320
gamma-sweep --nodes 0,0.5 --eps 0.02,1e-320
lipschitz --L 0.5 --eps 0.01,nan
lipschitz --L 0.5 --eps 0.01,0.2
two-node-scan --eps nan --grid 0.5
solve --L 0.5 --eps inf
be --nodes 0,0.5 --eps inf
index --p 1 --eps inf
gap-sweep --L 0.5 --eps 0.01,inf
lipschitz --L 0.5 --eps 0.01,inf
gamma-sweep --nodes 0,0.5 --eps 0.02,inf
lipschitz --L 0.5 --eps nan
lipschitz --L 0.5 --eps nan,nan
lipschitz --L 0.5 --eps -1
gamma-sweep --nodes 0,0.5 --eps nan
gamma-sweep --nodes 0,0.5 --eps inf,inf
ROWS
echo "ok: $rows rows"

echo "== benchmark smoke run, one pass per workload"
for w in spectral arc-sweeps thin-layer; do
  python3 bench/run.py --workload "$w" --seed 1 --seconds 0 --trace 0 | tee "bench-$w.log"
  tail -n 1 "bench-$w.log" | python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.stdin.read())["correct"] is True else 1)'
done

echo "== traced benchmark smoke run, one pass per workload"
# every traced pass must be correct.  On spectral it must also reach the
# eigensolver.  The tracer still counts solve_banded calls under eig_sturm
# through bvp_engine's binding, but solve_tridiagonal calls LAPACK dgtsv
# directly and nothing calls solve_banded, so the banded_solves == 0 check
# can no longer fail; the guard that no eigenvalue takes a linear solve is
# now tests/test_balanced_energy.py::test_ac_spectrum_solves_per_eigenvalue,
# which counts dgtsv calls
for w in spectral arc-sweeps thin-layer; do
  python3 bench/run.py --workload "$w" --seed 1 --seconds 0 --trace 1 | tee "bench-$w-trace.log"
  tail -n 1 "bench-$w-trace.log" | python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.stdin.read())["correct"] is True else 1)'
done
tail -n 1 bench-spectral-trace.log | python3 -c 'import json, sys; m = json.loads(sys.stdin.read())["metrics"]; sys.exit(0 if m["bvp_engine.eig.calls"]["value"] > 0 and m["bvp_engine.eig.banded_solves"]["value"] == 0 else 1)'

echo "== code lines of src/becircle (a report, no threshold)"
python3 ci/code_lines.py
echo "ok: all checks passed"
