#!/usr/bin/env bash
# The CLI and benchmark checks of the CI workflow, runnable from any shell:
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
$BECIRCLE variation --nodes 0,0.4 --eps 0.05 --f 0,1 | cmp - tests/golden/variation.json
$BECIRCLE cutoff-nd --n 3 --k 10 --eps 0.1 --delta 0.001 | cmp - tests/golden/cutoff.json
$BECIRCLE lipschitz --L 0.5 --eps 0.01,0.015,0.02,0.03 | cmp - tests/golden/lipschitz.json
python -W error::RuntimeWarning -m becircle solve --L 0.5 --eps 0.05 | cmp - tests/golden/solve.json
python -W error::RuntimeWarning -m becircle solve --L 0.5 --eps 0.0025 > /dev/null
python -W error::RuntimeWarning -m becircle profiles --T 250 --stride 50 > /dev/null
python -W error::RuntimeWarning -m becircle profiles --T 15 --stride 5 > /dev/null
$BECIRCLE index --p 3 --eps 0.01 | cmp - tests/golden/index.json
python -W error::RuntimeWarning -m becircle index --p 1 --eps 0.05 > /dev/null
python -W error::RuntimeWarning -m becircle index --p 2 --eps 0.02 > /dev/null
$BECIRCLE be --nodes 0,0.5 --eps 0.05 | python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["experiment"] == "be" else 1)'
$BECIRCLE two-node-scan --eps 0.02 --grid 0.3,0.5 | python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["experiment"] == "two-node-scan" else 1)'
$BECIRCLE gap-sweep --L 0.5 --eps 0.05,0.03 | python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["experiment"] == "gap-sweep" else 1)'
$BECIRCLE gamma-sweep --nodes 0,0.5 --eps 0.02,0.01,0.005 | cmp - tests/golden/gamma_sweep.json
python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["results"]["limit_deviation"] < 1e-3 else 1)' < tests/golden/gamma_sweep.json
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
echo "ok: all checks passed"
