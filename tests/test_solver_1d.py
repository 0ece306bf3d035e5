import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import becircle.solver_1d as solver
from becircle import (DomainError, GridFunction, NoPositiveSolution,
                      existence_threshold, lambda_of_eps, lipschitz_scan,
                      min_energy, modulus_for, newton_semilinear,
                      nodal_solution, potential, solve_dirichlet)
from becircle.bvp_engine import TridiagonalOperator, eig_sturm
from becircle.elliptic_oracle import ac_family_mod
from oracles import (arc_energy_tolerance, exact_arc_energy, newton_full_grid,
                     periodic_residual, stencil_slope)

SQRT2 = math.sqrt(2.0)


def test_existence_threshold():
    assert abs(existence_threshold(math.pi) - 1.0) < 1e-15
    assert abs(existence_threshold(0.5) - 1.0 / (2 * math.pi)) < 1e-15
    assert abs(existence_threshold(1.0) - 2 * existence_threshold(0.5)) < 1e-15


def test_existence_threshold_against_eigensolver():
    # lambda_1 of the Dirichlet Laplacian on length L is pi^2 / L^2
    L, n = 0.5, 1599
    h = L / (n + 1)
    op = TridiagonalOperator(diag=np.full(n, 2 / h**2),
                             offdiag=np.full(n - 1, -1 / h**2))
    lam1 = eig_sturm(op, 1).eigenvalues[0]
    assert abs(lam1 ** -0.5 - existence_threshold(L)) < 1e-4


def test_solve_dirichlet_above_threshold():
    with pytest.raises(NoPositiveSolution):
        solve_dirichlet(0.5, 0.2)


def test_solve_dirichlet_oracle_equivalence():
    eps, L = 0.02, 0.5
    sol = solve_dirichlet(L, eps, refine_values=True)
    mod = modulus_for(eps, L)
    x = sol.u.x()
    oracle = np.array([ac_family_mod(xi / eps, mod) for xi in x])
    assert np.max(np.abs(sol.u.values - oracle)) < 1e-8


def test_solve_dirichlet_shape_invariants():
    sol = solve_dirichlet(0.5, 0.02)
    v = sol.u.values
    assert v[0] == 0.0 and v[-1] == 0.0
    assert np.all(v[1:-1] > 0.0)
    assert np.max(np.abs(v - v[::-1])) < 1e-8            # even about midpoint
    assert np.argmax(v) in (len(v) // 2, len(v) // 2 - 1, len(v) // 2 + 1)
    d2 = np.diff(v, 2)
    assert np.max(d2) <= 1e-10                            # concave
    assert abs(sol.slope_left + sol.slope_right) < 1e-8


def test_solve_dirichlet_lambda_and_slope():
    sol = solve_dirichlet(0.5, 0.02)
    pair = lambda_of_eps(0.02, 0.5)
    assert abs(sol.lam - pair.lam) < 1e-8
    assert abs(sol.lam - pair.lam) < 1e-6 * max(pair.lam, 1e-300)
    # stencil slope cross-check (conserved value is authoritative)
    assert abs(stencil_slope(sol.u, "left") - sol.slope_left) < 1e-2
    c = math.sqrt(2 * (potential(0.0) - sol.lam)) / 0.02
    assert sol.slope_left == c


@pytest.mark.parametrize("ratio", [3.2, 5.0, 10.0, 20.0, 30.0])
def test_solve_dirichlet_lambda_resolved(ratio):
    # lam = W(max u) is resolved while 1 - max u stays well above the ulp of
    # 1; past L/eps of about 40 it is rounding noise (see solve_dirichlet)
    eps = 0.5 / ratio
    lam = solve_dirichlet(0.5, eps).lam
    assert abs(lam / lambda_of_eps(eps, 0.5).lam - 1.0) < 1e-6


def test_energy_small_eps_limit():
    # one full transition split across two half-transitions: 2 sigma0-per-side
    e = solve_dirichlet(0.5, 0.005).energy
    assert abs(e - 0.9428090415820634) < 1e-3


@settings(max_examples=40, deadline=None)
@given(L=st.sampled_from([0.25, 0.5, 1.0]), ratio=st.floats(3.3, 480.0),
       points_per_eps=st.sampled_from([20, 50, 100, 200]))
@example(L=0.25, ratio=3.3, points_per_eps=100)     # the largest error constant
@example(L=0.25, ratio=112.3, points_per_eps=20)    # the largest gap, 1.7e-9
@example(L=1.0, ratio=480.0, points_per_eps=200)    # the finest grid
def test_energy_matches_the_closed_form(L, ratio, points_per_eps):
    # the arc energy against its elliptic closed form, within the measured
    # fourth-order law of arc_energy_tolerance
    eps = L / ratio
    exact = exact_arc_energy(eps, L)
    gap = abs(solve_dirichlet(L, eps, points_per_eps=points_per_eps).energy / exact - 1.0)
    assert gap <= arc_energy_tolerance(eps, L, points_per_eps)


@pytest.mark.parametrize("L, eps", [(0.5, 1e-320), (0.5, 5e-324), (1e-319, 1e-320),
                                     (1.0, 49 * np.finfo(float).tiny), (1e10, 1e-300)])
def test_no_normal_grid_step_is_a_domain_error(L, eps):
    # a subnormal eps gives a subnormal step, and a large L over a small
    # step an infinite count: int(round(inf)) raised OverflowError
    with pytest.raises(DomainError):
        solver.intervals_for(L, eps, 50)
    with pytest.raises(DomainError):
        solve_dirichlet(L, eps)


@pytest.mark.parametrize("points_per_eps", [800.0000000000001, 1e3, 1e7, math.inf])
def test_points_per_eps_past_800_is_a_domain_error(points_per_eps):
    # the finest grid on which Newton's full steps are tested to contract;
    # past it the grid, and memory, grew without bound
    with pytest.raises(DomainError):
        solver.intervals_for(0.5, 0.05, points_per_eps)
    assert solver.intervals_for(0.5, 0.05, 800) == 8000


def test_the_smallest_normal_grid_step_is_accepted():
    assert solver.intervals_for(1.0, 50 * np.finfo(float).tiny, 50) > 1e307


def test_an_arc_past_the_moduli_is_rejected_before_its_grid_is_built():
    # L/eps = 1e5 is past the largest representable modulus (about 1958);
    # the 2m + 1 = 1e7-point grid took 114 MiB before the rejection
    tracemalloc.start()
    try:
        with pytest.raises(DomainError):
            solve_dirichlet(0.5, 5e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ratio", [3.5, 20.0, 200.0])
def test_arc_energy_is_scale_free_until_its_gradient_term_leaves_float64(ratio):
    # the squared difference quotients scale as 1/eps^2: their sum overflows
    # below eps ~ 1e-153 (the energy read NaN) and their largest leaves the
    # normal range above ~4.7e153 (the energy lost digits, and at 1e200
    # read the potential term alone)
    ref = solve_dirichlet(1.0, 1.0 / ratio).energy
    for eps in (1e-153, 1e-150, 1e-100, 1e100, 1e150, 1e153):
        assert abs(solve_dirichlet(ratio * eps, eps).energy / ref - 1.0) <= 1e-14, eps
    for eps in (1e-154, 1e-200, 1e-300, 5e153, 1e156, 1e200):
        with pytest.raises(DomainError):
            solve_dirichlet(ratio * eps, eps)


def test_solve_dirichlet_uniqueness_probe():
    # ten random positive guesses in the positive-arch basin all converge to
    # the same solution (at eps = 0.02 the equation has many signed and
    # multi-lobe solutions; guesses far outside the basin legitimately find
    # those, so the probe randomizes amplitude and shape around the arch)
    eps, L = 0.02, 0.5
    ref = solve_dirichlet(L, eps)
    rng = np.random.default_rng(5)
    half = (len(ref.u.values) - 1) // 2 + 1       # the points of [0, L/2]
    x = ref.u.x()[:half]
    arch = ref.u.values[:half]
    for _ in range(10):
        amp = rng.uniform(0.7, 1.3)
        wobble = 1.0 + 0.05 * np.sin(rng.integers(1, 5) * math.pi * x / L)
        vals = amp * arch * wobble
        vals[0] = 0.0
        guess = GridFunction(a=0.0, b=0.5 * L, n=half - 2, values=vals)
        out = newton_semilinear(guess, eps, tol=1e-12)
        assert np.max(np.abs(out.values - arch)) < 1e-7


def test_nodal_solution_structure():
    sol = nodal_solution(1, 0.05)
    assert np.allclose(sol.nodes, [0.0, 0.5])
    v = sol.u.values[:-1]
    n = len(v)
    # antiperiod 1/2: u(x + 1/2) = -u(x)
    assert np.max(np.abs(np.roll(v, -n // 2) + v)) < 1e-8
    # exactly 2p sign changes around the circle (skipping the exact node zeros)
    nz = v[v != 0.0]
    changes = np.sum(np.sign(nz) != np.sign(np.roll(nz, 1)))
    assert changes == 2


def test_nodal_solution_residual_and_slope():
    sol = nodal_solution(2, 0.02)
    assert periodic_residual(sol) <= 1e-8
    lam = lambda_of_eps(0.02, 0.25).lam
    c = math.sqrt(2 * (potential(0.0) - lam)) / 0.02
    assert abs(sol.arc.slope_left - c) < 1e-7 * c


def test_nodal_solution_node_recovery():
    # zero crossings of the periodic solution sit at equally spaced nodes
    sol = nodal_solution(2, 0.02)
    v = sol.u.values
    x = sol.u.x()
    zeros = []
    for i in range(len(v) - 1):
        if v[i] == 0.0:
            zeros.append(x[i])
        elif v[i] * v[i + 1] < 0:
            zeros.append(x[i] - v[i] * (x[i + 1] - x[i]) / (v[i + 1] - v[i]))
    zeros = np.array(zeros)
    assert len(zeros) == 4
    assert np.max(np.abs(zeros - np.arange(4) * 0.25)) < 1e-7


def test_nodal_solution_threshold():
    with pytest.raises(NoPositiveSolution):
        nodal_solution(3, 0.1)   # 0.1 > 1/(6 pi)


@pytest.mark.parametrize("p", [0, -1, 1.5])
def test_nodal_solution_rejects_p_that_is_not_a_positive_integer(p):
    with pytest.raises(DomainError):
        nodal_solution(p, 0.01)


def test_nodal_solution_is_glued_from_its_arc():
    sol = nodal_solution(2, 0.02, points_per_eps=20)
    assert (sol.arc.L, sol.arc.eps) == (0.25, 0.02)
    piece = sol.arc.u.values[:-1]
    assert np.array_equal(sol.u.values[:len(piece)], piece)
    assert np.array_equal(sol.u.values[len(piece):2 * len(piece)], -piece)


@pytest.mark.parametrize("L, eps_grid, points_per_eps", [
    (0.5, np.linspace(0.01, 0.1, 10), 50),
    (0.5, np.linspace(0.01, 0.1, 20), 20),
    (0.25, np.geomspace(6e-4, 0.07, 12), 20),
    (1.0, np.geomspace(2.5e-3, 0.3, 12), 50),
    (0.5, [0.01, 0.015, 0.02, 0.03], 100),
])
def test_lipschitz_quotients_match_the_exact_energies(L, eps_grid, points_per_eps):
    # each quotient against |E_exact(e2) - E_exact(e1)| / (e2 - e1): the two
    # energies err by at most tol1 + tol2, so the quotient by at most
    # (tol1 + tol2) / (e2 - e1), each tol from arc_energy_tolerance
    scan = lipschitz_scan(L, eps_grid, points_per_eps=points_per_eps)
    exact = np.array([exact_arc_energy(e, L) for e in scan.eps])
    tol = exact * np.array([arc_energy_tolerance(e, L, points_per_eps) for e in scan.eps])
    step = np.diff(scan.eps)
    assert np.all(np.abs(scan.quotients - np.abs(np.diff(exact)) / step)
                  <= (tol[:-1] + tol[1:]) / step)


def test_min_energy_and_lipschitz_scan():
    scan = lipschitz_scan(0.5, np.linspace(0.01, 0.1, 10))
    assert np.all(np.isfinite(scan.quotients))
    assert scan.max_quotient < 10.0
    e1 = min_energy(0.05, 0.5)
    e2 = min_energy(0.051, 0.5)
    assert abs(e2 - e1) <= scan.max_quotient * 0.001 * 1.5


@settings(max_examples=200, deadline=None)
@given(L=st.floats(1e-3, 10.0), frac=st.floats(1e-3, 2.0),
       points_per_eps=st.floats(1e-2, 500.0))
@example(L=1e-3, frac=2.0, points_per_eps=1e-2)
def test_intervals_for_is_even_and_at_least_400(L, frac, points_per_eps):
    m = solver.intervals_for(L, frac * L / math.pi, points_per_eps)
    assert m % 2 == 0 and m >= 400


def test_one_closed_form_evaluation_per_pair(monkeypatch):
    sizes = []
    real = solver.ac_family_mod

    def counted(x, mod):
        sizes.append(np.size(x))
        return real(x, mod)

    monkeypatch.setattr(solver, "ac_family_mod", counted)
    solve_dirichlet(0.5, 0.05)
    # the first half of the 2m-interval grid, midpoint included
    assert sizes == [solver.intervals_for(0.5, 0.05, 50) + 1]


def test_one_pair_makes_two_newton_calls_on_the_halves(monkeypatch):
    # Newton iterates on the half [0, L/2] of each grid of the pair, midpoint
    # included: m/2 + 1 points on the m-interval grid, m + 1 on the 2m one
    points = []
    real = solver.newton_semilinear

    def counted(grid, *args, **kwargs):
        points.append(grid.n + 2)
        return real(grid, *args, **kwargs)

    monkeypatch.setattr(solver, "newton_semilinear", counted)
    for L, eps in ((0.5, 0.05), (1.0, 0.004)):
        points.clear()
        solve_dirichlet(L, eps)
        m = solver.intervals_for(L, eps, 50)
        assert points == [m // 2 + 1, m + 1], (L, eps, points)


@pytest.mark.parametrize("m", [2, 4, 6, 7, 9, 401])
def test_dirichlet_pair_rejects_an_odd_or_small_interval_count(m):
    # for an odd m the coarse half misses the midpoint; below m = 8 it has
    # fewer than 5 points
    with pytest.raises(DomainError):
        solver.dirichlet_pair(0.5, 0.05, m)


def test_dirichlet_pair_accepts_the_smallest_even_count():
    sol = solver.dirichlet_pair(0.5, 0.05, 8)
    assert (len(sol.u.values), len(sol.u_half.values)) == (9, 17)


def _bits(values):
    """Bit patterns of float64 values, so that -0.0 and 0.0 differ too."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _newton_on_the_half(grid, eps, tol):
    """newton_semilinear on the first half of an arc's grid, mirrored back
    onto the whole grid."""
    k = (grid.n + 1) // 2                          # the intervals of [0, L/2]
    half = GridFunction(a=grid.a, b=0.5 * grid.b, n=k - 1, values=grid.values[:k + 1])
    v = newton_semilinear(half, eps, tol=tol).values
    return GridFunction(a=grid.a, b=grid.b, n=grid.n, values=np.concatenate((v, v[-2::-1])))


def _pair_with_a_guess_per_grid(L, eps, m, tol, newton=_newton_on_the_half):
    """dirichlet_pair's u, u_half, lam and energy, with the closed form
    evaluated separately on the whole of each grid of the pair and solved by
    newton, which takes and returns the whole grid."""
    mod = modulus_for(eps, L)
    sols = []
    for k in (m, 2 * m):
        vals = ac_family_mod(np.linspace(0.0, L, k + 1) / eps, mod)
        vals[0] = 0.0
        vals[-1] = 0.0
        guess = GridFunction(a=0.0, b=L, n=k - 1, values=vals)
        sols.append(newton(guess, eps, tol=tol))
    lam_pair = [potential(float(np.max(s.values))) for s in sols]
    e_pair = [solver.arc_energy(s, eps) for s in sols]
    return (sols[0].values, sols[1].values, (4.0 * lam_pair[1] - lam_pair[0]) / 3.0,
            (4.0 * e_pair[1] - e_pair[0]) / 3.0)


@settings(max_examples=25, deadline=None)
@given(L=st.floats(0.1, 2.0), ratio=st.floats(3.2, 200.0),
       points_per_eps=st.sampled_from([10, 50]))
@example(L=0.5, ratio=10.0, points_per_eps=50)
def test_dirichlet_pair_matches_a_guess_per_grid(L, ratio, points_per_eps):
    eps = L / ratio
    m = solver.intervals_for(L, eps, points_per_eps)
    sol = solver.dirichlet_pair(L, eps, m)
    u, u_half, lam, energy = _pair_with_a_guess_per_grid(L, eps, m, 1e-12)
    assert np.array_equal(_bits(sol.u.values), _bits(u))
    assert np.array_equal(_bits(sol.u_half.values), _bits(u_half))
    assert _bits(sol.lam) == _bits(lam)
    assert _bits(sol.energy) == _bits(energy)


@settings(max_examples=25, deadline=None)
@given(L=st.floats(0.1, 2.0), ratio=st.floats(3.2, 200.0),
       points_per_eps=st.sampled_from([10, 50]))
@example(L=0.5, ratio=200.0, points_per_eps=50)
def test_dirichlet_pair_is_a_palindrome(L, ratio, points_per_eps):
    eps = L / ratio
    sol = solver.dirichlet_pair(L, eps, solver.intervals_for(L, eps, points_per_eps))
    for v in (sol.u.values, sol.u_half.values):
        assert np.array_equal(_bits(v), _bits(v[::-1]))


@pytest.mark.parametrize("points_per_eps", [10, 50, 100])
@pytest.mark.parametrize("ratio", [3.3, 4.0, 5.0, 7.0, 10.0, 12.0, 15.0, 25.0, 35.0,
                                   50.0, 55.0, 80.0, 150.0, 200.0, 480.0])
def test_solve_dirichlet_matches_the_full_grid_newton(ratio, points_per_eps):
    # the mirror solve against the damped Newton on every point of both
    # grids, from the closed form on each whole grid; the full-step library
    # iteration agreeing with it shows that damping does not change the
    # solution from the closed form on these inputs.  Measured worst moves
    # over these inputs: u and u_half 1.42e-14 (bound 5e-14); energy 3.6e-16
    # relative (bound 1e-15); slopes 4.8e-14 relative (bound 2e-13); lam
    # 3.4e-13 relative up to L/eps 50 (bound 1e-12, most inputs bit for
    # bit).  Past L/eps ~ 55 the midpoint rounds to 1.0 on both grids and lam
    # reads 0.0, where the full grid read 5e-32 to 4e-29 of rounding noise.
    L = 0.5
    eps = L / ratio
    sol = solve_dirichlet(L, eps, points_per_eps=points_per_eps)
    m = solver.intervals_for(L, eps, points_per_eps)
    u, u_half, lam, energy = _pair_with_a_guess_per_grid(L, eps, m, 1e-12,
                                                         newton=newton_full_grid)
    assert np.max(np.abs(sol.u.values - u)) <= 5e-14
    assert np.max(np.abs(sol.u_half.values - u_half)) <= 5e-14
    assert abs(sol.energy / energy - 1.0) <= 1e-15
    slope = math.sqrt(max(0.0, 2.0 * (potential(0.0) - lam))) / eps
    assert abs(sol.slope_left / slope - 1.0) <= 2e-13
    if ratio <= 50.0:
        assert abs(sol.lam / lam - 1.0) <= 1e-12
    else:
        assert sol.lam == 0.0 and 0.0 <= lam <= 1e-28
