import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import becircle.balanced_energy as be_mod
import becircle.bvp_engine as engine
import becircle.solver_1d as solver
from becircle import (ArcTooShort, DomainError, NodeConfig, NoPositiveSolution,
                      NotCritical, ac_spectrum, broken_transition,
                      dirichlet_gap, dtn_v, fd_first_variation,
                      first_variation, hessian, index_table, lambda_of_eps,
                      nodal_solution, profile_constants, profile_omega,
                      solve_dirichlet, translation_mode)
from becircle.balanced_energy import comparator_energy
from becircle.scalar_field import potential_d2
from becircle.elliptic_oracle import modulus_for
from becircle.solver_1d import intervals_for
from oracles import (ac_spectrum_by_sectors, arc_energy_tolerance,
                     comparator_energy_full_grid, cycle_laplacian,
                     dirichlet_gap_full_arc, exact_arc_energy, exact_transmission,
                     fd_second_variation, lame_edges, lame_gap)

SQRT2 = math.sqrt(2.0)


def test_node_config_validation():
    with pytest.raises(DomainError):
        NodeConfig(np.array([0.0, 0.3, 0.6]))      # odd count
    with pytest.raises(DomainError):
        NodeConfig(np.array([0.3, 0.1]))           # not increasing
    cfg = NodeConfig(np.array([0.1, 0.6]))
    assert np.allclose(cfg.arc_lengths(), [0.5, 0.5])


def test_broken_transition_symmetry_and_bookkeeping():
    eps = 0.02
    bt = broken_transition(NodeConfig(np.array([0.0, 0.5])), eps)
    assert abs(bt.be - 2.0 * solve_dirichlet(0.5, eps).energy) < 1e-12
    assert abs(bt.be - sum(p.energy for p in bt.pieces)) < 1e-12
    rotated = broken_transition(NodeConfig(np.array([0.13, 0.63])), eps)
    assert abs(bt.be - rotated.be) < 1e-10


@pytest.mark.parametrize("nodes, eps", [
    ([0.0, 0.5], 0.02), ([0.0, 0.3], 0.01), ([0.1, 0.45], 0.005),
    ([0.0, 0.25, 0.5, 0.75], 0.01), ([0.0, 0.1, 0.4, 0.7], 0.005),
    ([0.05, 0.2, 0.6, 0.9], 0.02),
])
def test_broken_transition_matches_the_closed_form(nodes, eps):
    # BE against the sum of exact arc energies, each arc within its bound
    lengths = NodeConfig(np.array(nodes)).arc_lengths()
    bt = broken_transition(NodeConfig(np.array(nodes)), eps)
    exact = [exact_arc_energy(eps, ell) for ell in lengths]
    bound = sum(e * arc_energy_tolerance(eps, ell, 50) for e, ell in zip(exact, lengths))
    assert abs(bt.be - sum(exact)) <= bound


def test_broken_transition_arc_too_short():
    with pytest.raises(ArcTooShort):
        broken_transition(NodeConfig(np.array([0.0, 0.05])), 0.02)


@settings(max_examples=40, deadline=None)
@given(L=st.floats(0.05, 0.5), ulps=st.integers(-3, 3))
@example(L=0.049291588734823866, ulps=0)    # the arc is one ulp above pi*eps
def test_admissibility_edge_is_one_predicate(L, ulps):
    # a few ulps either side of eps = L/pi, broken_transition and dtn_v agree
    # with the arc solve on which side of the edge eps lies
    eps = L / math.pi
    for _ in range(abs(ulps)):
        eps = math.nextafter(eps, math.copysign(math.inf, ulps))
    cfg = NodeConfig(np.array([0.0, L]))
    try:
        solve_dirichlet(L, eps)
    except NoPositiveSolution:
        with pytest.raises(ArcTooShort) as exc:
            broken_transition(cfg, eps)
        assert exc.value.arc == 0
        with pytest.raises(NoPositiveSolution):
            dtn_v(eps, L)
    else:
        broken_transition(cfg, eps)


def test_first_variation_symmetric_vanishes():
    cfg = NodeConfig(np.array([0.0, 0.5]))
    for f in ([1.0, 0.0], [0.3, -0.4], [1.0, 1.0]):
        assert abs(first_variation(cfg, 0.02, np.array(f))) <= 1e-9


def test_first_variation_linearity():
    cfg = NodeConfig(np.array([0.0, 0.4]))
    eps = 0.05
    f1, f2 = np.array([1.0, 0.2]), np.array([-0.3, 0.9])
    a = first_variation(cfg, eps, f1)
    b = first_variation(cfg, eps, f2)
    ab = first_variation(cfg, eps, f1 + f2)
    assert abs(ab - a - b) < 1e-12


def test_first_variation_matches_finite_difference():
    cfg = NodeConfig(np.array([0.0, 0.4]))
    eps = 0.05
    for f in ([0.0, 1.0], [0.7, -0.2]):
        fv = first_variation(cfg, eps, np.array(f))
        fd = fd_first_variation(cfg, eps, np.array(f))
        assert abs(fv - fd) < 1e-5 * abs(fd)


def test_first_variation_sign_orientation():
    # growing the short arc of {0, 0.4} (f = (0, +1)) raises the energy:
    # the merge direction (shrinking the short arc) lowers it
    cfg = NodeConfig(np.array([0.0, 0.4]))
    fv = first_variation(cfg, 0.05, np.array([0.0, 1.0]))
    assert fv > 0.0
    fd = fd_first_variation(cfg, 0.05, np.array([0.0, 1.0]))
    assert fd > 0.0


def _mp_linearized(arc, left, right):
    """Thomas solve of eps^2 v'' = W''(u) v with Dirichlet data, in mpmath.

    The oracle for the transmission solve: the same discrete system eliminated in
    0.62 L/eps + 25 digits, enough to carry the e^{-sqrt2 L/eps} decay, and
    both one-sided fourth-order endpoint derivatives taken before any
    rounding to double precision.  Returns (values, d_left, d_right).
    """
    u_values, eps, h = arc.u.values, arc.eps, arc.u.h
    n = len(u_values) - 2
    with mp.workdps(max(30, int(0.62 * arc.L / eps) + 25)):
        c2 = (mp.mpf(eps) / mp.mpf(h)) ** 2
        diag = [-2 * c2 - mp.mpf(potential_d2(float(u_values[i + 1]))) for i in range(n)]
        rhs = [mp.mpf(0)] * n
        rhs[0] -= c2 * mp.mpf(left)
        rhs[-1] -= c2 * mp.mpf(right)
        beta = [diag[0]] + [mp.mpf(0)] * (n - 1)
        y = [rhs[0] / beta[0]] + [mp.mpf(0)] * (n - 1)
        for i in range(1, n):
            beta[i] = diag[i] - c2 * (c2 / beta[i - 1])
            y[i] = (rhs[i] - c2 * y[i - 1]) / beta[i]
        x = [mp.mpf(0)] * n
        x[-1] = y[-1]
        for i in range(n - 2, -1, -1):
            x[i] = y[i] - (c2 / beta[i]) * x[i + 1]
        full = [mp.mpf(left)] + x + [mp.mpf(right)]
        hh = mp.mpf(h)
        d_left = (-25 * full[0] + 48 * full[1] - 36 * full[2]
                  + 16 * full[3] - 3 * full[4]) / (12 * hh)
        d_right = -(-25 * full[-1] + 48 * full[-2] - 36 * full[-3]
                    + 16 * full[-4] - 3 * full[-5]) / (12 * hh)
        return np.array([float(v) for v in full]), float(d_left), float(d_right)


@pytest.mark.parametrize("points_per_eps", [50, 200])
@pytest.mark.parametrize("ratio", [3.5, 4, 8, 10, 12.9, 17.3, 23.7, 26.3, 40,
                                   80, 160, 320, 480])
def test_dtn_v_matches_closed_form(ratio, points_per_eps):
    # the Richardson pair leaves about 1.7e-3 (L/eps)^2 (h/eps)^4 relative
    # (2.7e-10 (L/eps)^2 at 50 points per eps: 6.3e-5 at L/eps 480), and at
    # most 0.57 (h/eps)^4 at small L/eps, where the grid is finer than
    # points_per_eps; the bound is 1.8 times the worst of these measured
    # over L/eps 3.5-480 at L = 1/6, 1/4 and 1/2
    eps = 0.5 / ratio
    v = dtn_v(eps, 0.5, points_per_eps=points_per_eps)
    bound = (1.0 + 3e-3 * ratio ** 2) / points_per_eps ** 4
    assert abs(v / exact_transmission(eps, 0.5)[1] - 1.0) < bound


@pytest.mark.parametrize("L", [0.5, 1.0 / 3.0])
@pytest.mark.parametrize("ratio", np.linspace(10.0, 20.0, 21).tolist())
def test_v_follows_its_next_order_law(ratio, L):
    # v = -2 sqrt2 lam/eps (1 + rho), rho = (3/(2 sqrt2)) lam L/eps + (3/4) lam
    # + O((lam L/eps)^2).  The closed form's rho leaves the model by
    # 1.17-1.26 (lam L/eps)^2 over L/eps 10-16 (a relative error of 1.3e-4 at
    # 10 and 4e-8 at 16); from L/eps ~ 17 on, rounding in rho = x - 1 leaves
    # at most 6.4e-16.  The bound takes 1.4 and 1e-15: worst ratio 0.90.
    # dtn_v's own grid error exceeds the (3/4) lam term past L/eps ~ 12, so
    # this checks the closed form's law, not dtn_v
    eps = L / ratio
    lam = lambda_of_eps(eps, L).lam
    rho = exact_transmission(eps, L)[1] / (-2.0 * SQRT2 * lam / eps) - 1.0
    model = 3.0 / (2.0 * SQRT2) * lam * L / eps + 0.75 * lam
    assert abs(rho - model) <= 1.4 * (lam * L / eps) ** 2 + 1e-15


@pytest.mark.parametrize("L", [0.5, 1.0 / 3.0])
@pytest.mark.parametrize("ratio", np.linspace(10.0, 20.0, 21).tolist())
def test_v_next_order_coefficient_is_omegas_tail(ratio, L):
    # an observed equality, not a derivation: the coefficient 3/(2 sqrt2) of
    # lam L/eps in rho equals -omega(inf) = 3 sqrt2/4, the tail of
    # profile_omega.  Read a = -omega(T) at the default window, within the
    # tail law of test_omega_tail_follows_its_measured_law (measured 1.1e-12
    # from the literal, bound 2.5e-11); that a fits rho within the bound of
    # test_v_follows_its_next_order_law, worst ratio 0.90 as for the
    # literal.  Whether the 3/4 lam term also comes from the profiles is open
    omega = profile_omega()
    T, h = omega.T, omega.h
    a = -float(omega.values[-1])
    assert abs(a - 3.0 / (2.0 * SQRT2)) <= (9e-10 * (h / 1e-2) ** 4
                                            + 6.5 * T * math.exp(-SQRT2 * T) + 2.5e-11)
    eps = L / ratio
    lam = lambda_of_eps(eps, L).lam
    rho = exact_transmission(eps, L)[1] / (-2.0 * SQRT2 * lam / eps) - 1.0
    model = a * lam * L / eps + 0.75 * lam
    assert abs(rho - model) <= 1.4 * (lam * L / eps) ** 2 + 1e-15


def test_dtn_v_one_column_per_grid(monkeypatch):
    # the transmission needs only the data-(1, 0) solve: one banded solve
    # with a one-column right-hand side on each grid of the pair
    import becircle.balanced_energy as be
    real = be.solve_tridiagonal
    calls = []

    def counted(*args):
        calls.append(args[-1].shape)
        return real(*args)

    monkeypatch.setattr(be, "solve_tridiagonal", counted)
    dtn_v(0.05, 0.5)
    m = solver.intervals_for(0.5, 0.05, 50)
    assert calls == [(m - 1,), (2 * m - 1,)]


@settings(max_examples=25, deadline=None)
@given(L=st.floats(0.2, 1.0), ratio=st.floats(3.2, 60.0),
       points_per_eps=st.integers(10, 60))
@example(L=0.5, ratio=60.0, points_per_eps=60)
@example(L=0.942, ratio=3.2, points_per_eps=10)
def test_dtn_v_matches_mpmath_oracle(L, ratio, points_per_eps):
    # the transmitted slope b is of order lambda/eps, far below the O(1)
    # data, and must survive the float64 solve on both grids of the pair to
    # the rounding floor
    eps = L / ratio
    arc = solve_dirichlet(L, eps, points_per_eps=points_per_eps)
    b, b_half = (_mp_linearized(replace(arc, u=u), 1.0, 0.0)[2]
                 for u in (arc.u, arc.u_half))
    v = dtn_v(eps, L, points_per_eps=points_per_eps)
    assert abs(v / ((4.0 * b_half - b) / 3.0) - 1.0) < 1e-10


def test_dtn_v_underflow_raises_domain_error():
    # b ~ lambda/eps falls below the smallest normal float64 near L/eps = 505;
    # a subnormal (L/eps = 520) or zero (L/eps = 700) v would give Q = 0 and
    # a wrong Morse index
    for ratio in (520.0, 700.0):
        with pytest.raises(DomainError):
            dtn_v(0.5 / ratio, 0.5, points_per_eps=10)


def test_one_richardson_pair_per_arc(monkeypatch):
    # the transmission reads the grids m and 2m that solve_dirichlet already
    # solved: two Newton halves per arc, none more, and hessian solves one
    # arc whatever p is, with one gtsv solve per grid for its transmission
    import becircle.balanced_energy as be
    real_newton, calls = solver.newton_halves, []
    real_solve, solves = be.solve_tridiagonal, []

    def counted_newton(halves, *args, **kwargs):
        calls.extend([len(v) for v in halves])
        return real_newton(halves, *args, **kwargs)

    def counted_solve(*args):
        solves.append(1)
        return real_solve(*args)

    monkeypatch.setattr(solver, "newton_halves", counted_newton)
    monkeypatch.setattr(be, "solve_tridiagonal", counted_solve)
    for p in (1, 2, 3):
        calls.clear()
        solves.clear()
        hessian(NodeConfig(np.arange(2 * p) / (2.0 * p)), 0.02)
        assert len(calls) == 2 and len(solves) == 2, (p, calls, solves)
    for ratio in (10, 12.9, 30):
        calls.clear()
        dtn_v(0.5 / ratio, 0.5)
        assert len(calls) == 2, (ratio, calls)


@pytest.mark.parametrize("ratio", [10, 12.9, 17.3, 21.1, 23.7, 26.3, 30])
def test_dtn_v_richardson_pair_is_fourth_order(ratio):
    # the extrapolation removes the h^2 term only when the finer grid has
    # exactly twice the intervals: counts rounded separately at
    # points_per_eps and 2 points_per_eps are not in that ratio at
    # L/eps = 12.9-26.3, and there leave about 5e-7 of second-order error
    eps = 0.5 / ratio
    ref = dtn_v(eps, 0.5, points_per_eps=800)
    assert abs(dtn_v(eps, 0.5) / ref - 1.0) < 2e-7


def test_package_imports_without_mpmath():
    # mpmath is a test-only dependency: the package and v(eps) run without it
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys; sys.modules['mpmath'] = None; import becircle; "
            "v = becircle.dtn_v(0.05, 0.5); assert v < 0, v")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_linearized_slope_orientation():
    # the raw right-sided slope of the unit symmetric data is +2|v| (the
    # local profile is flat at the node, the lambda-order part tips up);
    # the oriented Neumann transmission dtn_v carries the negative sign
    # that the energy Hessian pins (see the decisions ledger)
    eps, L = 0.05, 0.5
    arc = solve_dirichlet(L, eps)
    d_left = _mp_linearized(arc, 1.0, 1.0)[1]
    v = dtn_v(eps, L)
    assert d_left > 0.0
    assert v < 0.0
    assert abs(d_left / (-2.0 * v) - 1.0) < 1e-2


def test_dtn_v_sign_decay_and_asymptotics():
    L = 0.5
    vals = [dtn_v(e, L) for e in (0.05, 0.03, 0.02, 0.01)]
    assert all(v < 0 for v in vals)
    mags = [abs(v) for v in vals]
    assert all(b < a for a, b in zip(mags, mags[1:]))
    om0 = profile_constants().omegadot0
    for e, v in zip((0.05, 0.03, 0.02, 0.01), vals):
        lam = lambda_of_eps(e, L).lam
        predicted = SQRT2 * lam * om0 / e
        assert abs(v / predicted - 1.0) < 0.2


def test_hessian_requires_critical_point():
    with pytest.raises(NotCritical):
        hessian(NodeConfig(np.array([0.0, 0.4])), 0.05)


@pytest.mark.parametrize("nodes, eps", [([0.0, 0.3], 0.015), ([0.0, 0.3], 0.01),
                                        ([0.0, 0.3], 0.005),
                                        ([0.0, 0.2, 0.5, 0.75], 0.005)])
def test_hessian_rejects_unequal_arcs(nodes, eps):
    # lambda is exponentially small here, so a bound on |dBE/dq| would let
    # these through; unequal arc lengths are what make them non-critical
    with pytest.raises(NotCritical):
        hessian(NodeConfig(np.array(nodes)), eps)


def test_hessian_rotated_regular_polygon():
    rep = hessian(NodeConfig(np.array([0.1, 0.35, 0.6, 0.85])), 0.02)
    assert (rep.index, rep.nullity) == (3, 1)


def test_hessian_short_arc_before_criticality():
    # an arc at or below pi*eps is reported as such, with its index, even
    # though the configuration is not critical either
    with pytest.raises(ArcTooShort) as exc:
        hessian(NodeConfig(np.array([0.0, 0.05])), 0.02)
    assert exc.value.arc == 0


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("ratio", [8, 14, 25, 40, 60])
def test_hessian_matches_closed_form(p, ratio):
    # Q = (lambda'(1/m)/eps) x cycle Laplacian, with lambda' in closed form:
    # the one Hessian check that does not run the transmission solve
    m = 2 * p
    eps = 1.0 / m / ratio
    Q = hessian(NodeConfig(np.arange(m) / float(m)), eps).Q
    Qref = exact_transmission(eps, 1.0 / m)[0] / eps * cycle_laplacian(m)
    assert np.max(np.abs(Q - Qref)) < 1e-6 * np.max(np.abs(Qref))


def test_hessian_structure_p1():
    cfg = NodeConfig(np.array([0.0, 0.5]))
    eps = 0.05
    rep = hessian(cfg, eps)
    assert np.max(np.abs(rep.Q - rep.Q.T)) <= 1e-10 * np.max(np.abs(rep.Q))
    assert np.max(np.abs(rep.Q @ np.ones(2))) <= rep.spectrum.zero_threshold
    v = dtn_v(eps, 0.5)
    Qref = eps * rep.c**2 * v * np.array([[2.0, -2.0], [-2.0, 2.0]])
    assert np.max(np.abs(rep.Q - Qref)) < 1e-5 * np.max(np.abs(Qref))
    evals = np.sort(np.linalg.eigvalsh(rep.Q))
    assert abs(evals[1]) <= rep.spectrum.zero_threshold
    assert abs(evals[0] - 4 * eps * rep.c**2 * v) < 1e-5 * abs(4 * eps * rep.c**2 * v)


def test_hessian_vs_finite_difference():
    rng = np.random.default_rng(17)
    for p, eps in ((1, 0.05), (2, 0.02)):
        cfg = NodeConfig(np.arange(2 * p) / (2.0 * p))
        rep = hessian(cfg, eps)
        for _ in range(3):
            f = rng.uniform(-1.0, 1.0, 2 * p)
            qf = f @ rep.Q @ f
            fd = fd_second_variation(cfg, eps, f)
            assert abs(qf - fd) < 1e-4 * abs(fd)


def test_hessian_sign_rigidity():
    cfg = NodeConfig(np.arange(4) / 4.0)
    rep = hessian(cfg, 0.02)
    rng = np.random.default_rng(23)
    tau = rep.spectrum.zero_threshold
    for _ in range(100):
        f = rng.uniform(-1.0, 1.0, 4)
        q = f @ rep.Q @ f
        assert q <= tau * f @ f
        if q > -tau * f @ f:  # only near-constant directions reach zero
            assert np.max(np.abs(f - np.mean(f))) < 1e-6 or q <= 0


def test_morse_index_table():
    for p, eps in ((1, 0.05), (2, 0.02), (3, 0.015)):
        cfg = NodeConfig(np.arange(2 * p) / (2.0 * p))
        rep = hessian(cfg, eps)
        assert (rep.index, rep.nullity) == (2 * p - 1, 1)


@pytest.mark.parametrize("p_list, eps_list", [
    ([1, 2], [0.05]), ([1], [0.05, 0.02]), ([], [0.05]),
])
def test_index_table_rejects_lists_of_unequal_length(p_list, eps_list):
    # zip would drop the unpaired entries and still report every row a match
    with pytest.raises(DomainError):
        index_table(p_list, eps_list)


@pytest.mark.parametrize("eps", [0.01, 0.5])
@pytest.mark.parametrize("p", [0, -1, 1.5])
def test_index_table_rejects_p_that_is_not_a_positive_integer(p, eps):
    # before the skip test too: eps = 0.5 is past every threshold
    with pytest.raises(DomainError):
        index_table([p], [eps])


def test_ac_spectrum_matches_morse_index():
    for p, eps in ((1, 0.05), (2, 0.02)):
        sol = nodal_solution(p, eps)
        rep = ac_spectrum(sol, how_many=2 * p + 2)
        assert rep.n_negative == 2 * p - 1
        assert rep.n_zero == 1
        # everything else strictly positive
        assert rep.n_positive == (len(sol.u.values) - 1) - 2 * p


@pytest.mark.parametrize("p", [1, 2, 3])
def test_ac_spectrum_solves_per_eigenvalue(monkeypatch, p):
    # the circle operator is block diagonal in its four quarter blocks, and
    # LAPACK's bisection solves the one block operator whole: no eigenvalue
    # takes a linear solve, counted at gtsv, the one LAPACK call behind every
    # tridiagonal solve
    real_gtsv = engine.dgtsv
    solves = []

    def counted_gtsv(*args, **kwargs):
        solves.append(1)
        return real_gtsv(*args, **kwargs)

    monkeypatch.setattr(engine, "dgtsv", counted_gtsv)
    for ratio in (9, 17):
        sol = nodal_solution(p, 1.0 / (2 * p * ratio))
        solves.clear()
        ac_spectrum(sol, 2 * p + 3)
        assert not solves, (ratio, len(solves))


@pytest.mark.parametrize("points_per_eps", [20, 50, 100])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_ac_spectrum_matches_the_two_sector_reference(p, points_per_eps):
    # the four quarter blocks have the two mirror sectors' spectra: the same
    # zero threshold and Sturm counts bit for bit, and each eigenvalue within
    # the bisection tolerance 1e-12 (measured at most 8.9e-13).  Even p puts
    # a node at x = 1/4, odd p an arc midpoint.  The counts
    # agree also from arc/eps 20 on, where both are wrong alike (the fixed
    # threshold floor lies above the smallest nonzero eigenvalue)
    for ratio in range(4, 25, 2):
        sol = nodal_solution(p, 1.0 / (2 * p * ratio), points_per_eps=points_per_eps)
        rep, ref = ac_spectrum(sol, 4 * p + 1), ac_spectrum_by_sectors(sol, 4 * p + 1)
        assert rep.zero_threshold == ref.zero_threshold, ratio
        assert ((rep.n_negative, rep.n_zero, rep.n_positive)
                == (ref.n_negative, ref.n_zero, ref.n_positive)), ratio
        assert np.max(np.abs(rep.eigenvalues - ref.eigenvalues)) <= 1e-12, ratio


@pytest.mark.parametrize("p", [1, 2, 3])
def test_ac_spectrum_makes_one_eig_sturm_call(monkeypatch, p):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return eig_sturm(*args, **kwargs)

    eig_sturm = be_mod.eig_sturm
    monkeypatch.setattr(be_mod, "eig_sturm", counted)
    ac_spectrum(nodal_solution(p, 1.0 / (2 * p * 9)), 2 * p + 3)
    assert len(calls) == 1


@pytest.mark.parametrize("points_per_eps", [20, 50, 100])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_ac_spectrum_matches_the_lame_band_edges(p, points_per_eps):
    # eigenvalues 0, 2p, 4p - 1 and 4p against Lame's closed forms within
    # the second-order grid law C (h/eps)^2, h the circle's grid step:
    # measured C <= 0.039 (mu0), 0.051, 0.44 and 0.43 over arc/eps 4-16; the
    # bound takes 1.0, plus 1e-11 for the bisection tolerance 1e-12
    for ratio in range(4, 17, 2):
        eps = 1.0 / (2 * p * ratio)
        sol = nodal_solution(p, eps, points_per_eps=points_per_eps)
        evals = ac_spectrum(sol, 4 * p + 1).eigenvalues[[0, 2 * p, 4 * p - 1, 4 * p]]
        edges = np.array(lame_edges(modulus_for(eps, 1.0 / (2 * p))))
        bound = 1.0 * (sol.u.h / eps) ** 2 + 1e-11
        assert np.max(np.abs(evals - edges)) <= bound, (ratio, evals - edges)


def test_ac_spectrum_rejects_bad_how_many():
    # an integer in [1, n], n = sol.u.n + 1 the circle operator's dimension
    sol = nodal_solution(1, 0.05)
    for how_many in (0, -1, 2.5, sol.u.n + 2):
        with pytest.raises(DomainError, match="how_many"):
            ac_spectrum(sol, how_many)


def _circle_matrix(sol):
    """Dense periodic central-difference matrix of -(eps^2 d^2 - W''(u)) at the
    reflected solution, corner couplings included."""
    v = sol.u.values[:-1]
    c2 = (sol.eps / sol.u.h) ** 2
    n = len(v)
    A = np.diag(2.0 * c2 + potential_d2(v))
    idx = np.arange(n)
    A[idx, (idx + 1) % n] = -c2
    A[(idx + 1) % n, idx] = -c2
    return A


@pytest.mark.parametrize("p, ratio, points_per_eps",
                         [(1, 9, 20), (1, 13, 20), (2, 9, 20), (2, 13, 20),
                          (3, 9, 20), (3, 13, 20), (1, 19, 50), (4, 9, 20),
                          (5, 9, 20)])
def test_ac_spectrum_matches_dense(p, ratio, points_per_eps):
    # the dihedral operator has paired eigenvalues, split among the quarter
    # blocks.  Dense eigvalsh of the whole circle matrix shares nothing with
    # the blocks or Sturm counting and is good to a few ulps of the norm.
    # p = 4 and 5 take the smallest arcs, 400 intervals each (dimension 3200
    # and 4000).
    sol = nodal_solution(p, 1.0 / (2 * p * ratio), points_per_eps=points_per_eps)
    tol = 1e-12
    rep = ac_spectrum(sol, 2 * p + 3)
    dense = np.linalg.eigvalsh(_circle_matrix(sol))
    rounding = 16.0 * np.finfo(float).eps * np.max(np.abs(dense))
    assert np.max(np.abs(rep.eigenvalues - dense[:2 * p + 3])) <= tol + rounding
    tau = rep.zero_threshold
    counts = (int(np.sum(dense < -tau)), int(np.sum(np.abs(dense) <= tau)))
    assert (rep.n_negative, rep.n_zero) == counts == (2 * p - 1, 1)
    assert rep.n_negative + rep.n_zero + rep.n_positive == len(dense)
    with pytest.raises(DomainError):
        ac_spectrum(sol, len(dense) + 1)


def test_translation_mode_rayleigh_quotient():
    sol = nodal_solution(1, 0.05)
    ux = translation_mode(sol)
    rq = ux @ _circle_matrix(sol) @ ux / (ux @ ux)
    assert abs(rq) < (sol.u.h / 0.05) ** 2   # well inside O(h^2)
    # u is odd under the mirror j -> n - j, so u_x is even
    assert np.max(np.abs(ux - ux[-np.arange(len(ux)) % len(ux)])) <= 1e-12 * np.max(np.abs(ux))


@settings(max_examples=40, deadline=None)
@given(L=st.sampled_from([0.25, 0.5, 1.0]), ratio=st.floats(3.3, 480.0),
       points_per_eps=st.sampled_from([20, 50, 100]))
@example(L=0.25, ratio=3.3, points_per_eps=20)      # the largest constant, 0.135
@example(L=0.25, ratio=4.0, points_per_eps=20)
@example(L=1.0, ratio=480.0, points_per_eps=100)    # the finest grid
def test_dirichlet_gap_matches_the_lame_band_edge(L, ratio, points_per_eps):
    # the gap against Lame's closed form within its second-order grid law
    # C (h/eps)^2, h the arc's base step: measured C <= 0.051 from L/eps 4
    # on and 0.135 at L/eps 3.3; the bound takes 0.2
    eps = L / ratio
    h = L / intervals_for(L, eps, points_per_eps)
    gap = dirichlet_gap(eps, L, points_per_eps=points_per_eps)
    assert abs(gap - lame_gap(modulus_for(eps, L))) <= 0.2 * (h / eps) ** 2 + 1e-9


@pytest.mark.parametrize("points_per_eps", [20, 50, 100])
def test_dirichlet_gap_matches_the_full_arc(points_per_eps):
    # the even half block has the whole arc's lowest eigenvalue: within
    # 2e-10, twice the bisection tolerance 1e-10 of each side (measured at
    # most 6.6e-11 on these points, at 20 points per eps and L/eps 10.3),
    # from just above the existence threshold L/eps = pi to the kp floor
    # near 1958
    L = 0.5
    for ratio in np.geomspace(3.2, 1950.0, 12):
        eps = L / ratio
        gap = dirichlet_gap(eps, L, points_per_eps=points_per_eps)
        assert abs(gap - dirichlet_gap_full_arc(eps, L, points_per_eps)) <= 2e-10, ratio


def test_dirichlet_gap_positive():
    gaps = [dirichlet_gap(e, 0.5) for e in (0.05, 0.03, 0.02, 0.01, 0.005)]
    assert all(g > 0 for g in gaps)
    # sanity floor: potential replaced by +1 gives an operator >= identity
    arc = solve_dirichlet(0.5, 0.05)
    h = arc.u.h
    c2 = (0.05 / h) ** 2
    from becircle.bvp_engine import TridiagonalOperator, eig_sturm
    op = TridiagonalOperator(diag=np.full(arc.u.n, 2 * c2 + 1.0),
                             offdiag=np.full(arc.u.n - 1, -c2))
    assert eig_sturm(op, 1).eigenvalues[0] >= 1.0


@st.composite
def _gamma_cases(draw):
    """A configuration of 2, 4 or 6 nodes and an eps in gamma_sweep's domain
    (below every arc's existence threshold), down to 1e-3."""
    m = draw(st.sampled_from([2, 4, 6]))
    weights = np.array(draw(st.lists(st.floats(0.25, 1.0), min_size=m, max_size=m)))
    arcs = weights / weights.sum()
    start = draw(st.floats(0.0, 0.9)) * arcs[-1]
    config = NodeConfig(start + np.concatenate(([0.0], np.cumsum(arcs[:-1]))))
    top = float(np.min(config.arc_lengths())) / math.pi
    return config, draw(st.floats(1e-3, top, exclude_max=True))


@example(case=(NodeConfig(np.array([0.0, 0.47])), 0.005))
@example(case=(NodeConfig(np.array([0.0, 0.21, 0.5, 0.77])), 1e-3))
@example(case=(NodeConfig(np.array([0.0, 0.5])), 0.02))
@settings(max_examples=60, deadline=None)
@given(case=_gamma_cases())
def test_comparator_on_the_layers_equals_the_full_grid(case):
    # outside the layers the full-grid density is exactly +0.0, so the sum
    # over the layers alone keeps every bit
    config, eps = case
    assert comparator_energy(config, eps) == comparator_energy_full_grid(config, eps)


@pytest.mark.parametrize("eps", [0.005, 0.001])
@pytest.mark.parametrize("nodes", [[0.0, 0.47], [0.0, 0.5], [0.0, 0.21, 0.5, 0.77]])
def test_comparator_peak_memory(nodes, eps):
    # a cold call peaks at 2.5-3.5 arrays of the longest arc's grid under
    # tracemalloc: the grid's distances, then arrays of the layers, which
    # hold at most half of it.  The density on the full grid peaked at
    # 15.1-16 arrays
    config = NodeConfig(np.array(nodes))
    ell = float(np.max(config.arc_lengths()))
    m = max(2000, int(round(ell / (eps / 200))))
    m += m % 2
    tracemalloc.start()
    try:
        comparator_energy(config, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * (m + 1) * 8
