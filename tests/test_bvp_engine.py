import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import becircle.bvp_engine as engine
import becircle.solver_1d as solver
from becircle import (DomainError, GridFunction, NonConvergence, SingularJacobian,
                      TridiagonalOperator, cumulative_simpson, eig_sturm, heteroclinic,
                      newton_semilinear, simpson, solve_dirichlet)
from becircle.bvp_engine import solve_tridiagonal
from becircle.elliptic_oracle import ac_family_mod, modulus_for
from becircle.scalar_field import potential_d1


def test_simpson_basics():
    assert simpson(np.ones(101), 0.01) == pytest.approx(1.0, abs=1e-14)
    x = np.linspace(0.0, math.pi, 1001)
    assert abs(simpson(np.sin(x), x[1] - x[0]) - 2.0) < 1e-8
    with pytest.raises(DomainError):
        simpson(np.ones(2), 0.1)


def test_simpson_fourth_order():
    errs = []
    for n in (501, 1001):
        x = np.linspace(0.0, math.pi, n)
        errs.append(abs(simpson(np.sin(x), x[1] - x[0]) - 2.0))
    assert errs[0] / errs[1] > 12.0   # ~16x per halving


def test_simpson_sigma0():
    t = np.linspace(0.0, 40.0, 40001)
    gdot = heteroclinic(t)[1]
    assert abs(simpson(gdot**2, t[1] - t[0]) - math.sqrt(2.0) / 3.0) < 1e-10


def test_cumulative_simpson_matches_simpson():
    x = np.linspace(0.0, 2.0, 2001)
    f = np.exp(-x) * np.sin(3 * x)
    cum = cumulative_simpson(f, x[1] - x[0])
    exact = (3 - np.exp(-x) * (np.cos(3 * x) * 3 + np.sin(3 * x))) / 10.0
    assert np.max(np.abs(cum - exact)) < 1e-11


def _cumulative_simpson_gather(values, h):
    """The index-array form of cumulative_simpson, kept as its oracle."""
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    out = np.zeros(n)
    npair = (n - 1) // 2
    pair = (h / 3.0) * (v[0:2 * npair:2] + 4.0 * v[1:2 * npair:2] + v[2:2 * npair + 2:2])
    out[2:2 * npair + 2:2] = np.cumsum(pair)
    j = np.arange(1, n, 2)
    j_in = j[j + 1 <= n - 1]
    out[j_in] = out[j_in - 1] + (h / 12.0) * (5.0 * v[j_in - 1] + 8.0 * v[j_in] - v[j_in + 1])
    if n % 2 == 0:
        out[-1] = out[-2] + (h / 12.0) * (-v[-3] + 8.0 * v[-2] + 5.0 * v[-1])
    return out


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 200), seed=st.integers(0, 2**32 - 1), h=st.floats(1e-4, 1.0))
@example(n=40001, seed=0, h=1e-4)
@example(n=40002, seed=1, h=1e-4)
def test_cumulative_simpson_matches_gather_form(n, seed, h):
    # the strided slices do the same arithmetic in the same order as the gathers
    v = np.random.default_rng(seed).standard_normal(n)
    assert np.array_equal(cumulative_simpson(v, h), _cumulative_simpson_gather(v, h))


def _cumulative_simpson_out_of_place(values, h):
    """cumulative_simpson as it was before it worked in place: each step a
    new array, kept as the oracle of the in-place form."""
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    out = np.zeros(n)
    npair = (n - 1) // 2
    pair = (h / 3.0) * (v[0:2 * npair:2] + 4.0 * v[1:2 * npair:2] + v[2:2 * npair + 2:2])
    out[2:2 * npair + 2:2] = np.cumsum(pair)
    k = 2 * npair
    out[1:k:2] = out[0:k - 1:2] + (h / 12.0) * (5.0 * v[0:k - 1:2] + 8.0 * v[1:k:2]
                                               - v[2:k + 1:2])
    if n % 2 == 0:
        out[-1] = out[-2] + (h / 12.0) * (-v[-3] + 8.0 * v[-2] + 5.0 * v[-1])
    return out


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 200), seed=st.integers(0, 2**32 - 1), h=st.floats(1e-4, 1.0),
       reverse=st.booleans())
@example(n=3, seed=0, h=0.5, reverse=False)
@example(n=4, seed=0, h=0.5, reverse=True)
@example(n=80001, seed=2, h=1e-3, reverse=True)     # the bracket's reversed view
@example(n=80002, seed=3, h=1e-3, reverse=False)
def test_cumulative_simpson_in_place_matches_out_of_place(n, seed, h, reverse):
    v = np.random.default_rng(seed).standard_normal(n)
    if reverse:
        v = v[::-1]
    assert np.array_equal(cumulative_simpson(v, h), _cumulative_simpson_out_of_place(v, h))


def _half(L, m, fun):
    """fun on the first half [0, L/2] of the m-interval grid of [0, L], with
    the Dirichlet datum 0 at x = 0: the grid newton_semilinear takes, whose
    right end is the midpoint."""
    x = np.linspace(0.0, L, m + 1)[:m // 2 + 1]
    values = fun(x)
    values[0] = 0.0
    return x, GridFunction(a=0.0, b=0.5 * L, n=m // 2 - 1, values=values)


def _mirror(values):
    """The palindrome on [0, L] of the values on its first half."""
    return np.concatenate((values, values[-2::-1]))


def _arc_residual(values, h, eps):
    """Sup norm of eps^2 D2 u - W'(u) at the interior points of a full arc."""
    c2 = (eps / h) ** 2
    return float(np.max(np.abs(c2 * (values[2:] - 2 * values[1:-1] + values[:-2])
                               - potential_d1(values[1:-1]))))


def test_newton_zero_fixed_point():
    _, g = _half(1.0, 100, np.zeros_like)
    out = newton_semilinear(g, 0.1)
    assert np.all(out.values == 0.0)


def test_newton_returns_its_half_grid():
    eps, L, m = 0.05, 0.5, 500
    mod = modulus_for(eps, L)
    _, guess = _half(L, m, lambda x: ac_family_mod(x / eps, mod))
    out = newton_semilinear(guess, eps, tol=1e-12)
    assert (out.a, out.b, out.n) == (0.0, 0.5 * L, m // 2 - 1)
    assert out.values[0] == 0.0                    # the Dirichlet datum is kept
    assert out.h == L / m                          # the full grid's step, exactly


def test_newton_matches_oracle():
    eps, L = 0.02, 0.5
    mod = modulus_for(eps, L)
    m = int(round(L / (eps / 50)))
    _, guess = _half(L, m, lambda x: ac_family_mod(x / eps, mod))
    out = newton_semilinear(guess, eps, tol=1e-12)
    assert _arc_residual(_mirror(out.values), out.h, eps) <= 1e-12


def test_newton_basin():
    eps, L = 0.05, 0.5
    mod = modulus_for(eps, L)
    m = int(round(L / (eps / 50)))
    x, guess = _half(L, m, lambda x: ac_family_mod(x / eps, mod))
    base = newton_semilinear(guess, eps, tol=1e-12)
    pert = base.values + 1e-3 * np.sin(math.pi * x / L)
    pert[0] = 0.0
    again = newton_semilinear(GridFunction(a=0.0, b=0.5 * L, n=m // 2 - 1, values=pert),
                              eps, tol=1e-12)
    assert np.max(np.abs(again.values - base.values)) < 2e-12


def test_newton_quadratic_decay():
    # residual after k undamped steps from a smooth guess contracts
    # quadratically once in the basin
    eps, L = 0.05, 0.5
    m = int(round(L / (eps / 50)))

    hist = []
    for k in range(1, 9):
        _, guess = _half(L, m, lambda x: 0.9 * np.sin(math.pi * x / L))
        try:
            out = newton_semilinear(guess, eps, tol=1e-13, max_iter=k)
            hist.append(_arc_residual(_mirror(out.values), out.h, eps))
            break
        except NonConvergence as exc:
            hist.append(exc.residual)
    window = [r for r in hist if 1e-11 < r < 1e-1]
    for r0, r1 in zip(window, window[1:]):
        assert r1 < 50.0 * r0 ** 2   # quadratic contraction up to a constant
    assert min(hist) < 1e-11


def test_newton_solves_per_call(monkeypatch):
    # on the halved grid of a Richardson pair the rounding floor sits above
    # tol; the iteration must end there with one full step, not keep
    # stepping among noise-level residuals
    real_solve, real_newton = engine.solve_tridiagonal, solver.newton_semilinear
    solves = []

    def counted_solve(*args):
        solves[-1] += 1
        return real_solve(*args)

    def counted_newton(*args, **kwargs):
        solves.append(0)
        return real_newton(*args, **kwargs)

    monkeypatch.setattr(engine, "solve_tridiagonal", counted_solve)
    monkeypatch.setattr(solver, "newton_semilinear", counted_newton)
    for ratio in (10, 50, 100, 200):
        solves.clear()
        solve_dirichlet(0.5, 0.5 / ratio)
        assert len(solves) == 2 and max(solves) <= 3, (ratio, solves)


@settings(max_examples=30, deadline=None)
@given(ratio=st.floats(3.2, 1950.0),
       points_per_eps=st.sampled_from([0.2, 1, 2, 5, 10, 20, 50, 100, 200, 800]),
       halved=st.booleans())
@example(ratio=1950.0, points_per_eps=800, halved=True)   # the largest accepted grid
@example(ratio=407.0, points_per_eps=0.2, halved=False)   # 400 intervals, 4 solves
@example(ratio=3.2, points_per_eps=10, halved=False)
@example(ratio=3.2, points_per_eps=100, halved=True)
def test_newton_full_steps_contract_from_the_closed_form(ratio, points_per_eps, halved):
    # Newton takes every step whole, with no globalization: from the closed
    # form, as dirichlet_pair starts it, each step must cut the sup-norm
    # residual at least 10x or end below max(tol, floor) (measured worst
    # 0.054, at L/eps 4.9 on a 400-interval grid).  Points per eps run over
    # the whole accepted range: at or below 0.2, every grid up to L/eps 1958
    # is intervals_for's 400-interval floor, so 0.2 stands for all of them.
    # A call makes at most 3 linear solves on a grid of at least one point
    # per eps, 4 below
    L, tol = 0.5, 1e-12
    eps = L / ratio
    m = solver.intervals_for(L, eps, points_per_eps) * (2 if halved else 1)
    _, guess = _half(L, m, lambda x: ac_family_mod(x / eps, modulus_for(eps, L)))
    c2 = (eps / guess.h) ** 2
    floor = 16.0 * np.finfo(float).eps * c2 * max(1.0, float(np.max(np.abs(guess.values))))
    hist = [_arc_residual(_mirror(guess.values), guess.h, eps)]
    for k in range(1, 5):
        if hist[-1] <= max(tol, floor):
            break
        try:
            out = newton_semilinear(guess, eps, tol=tol, max_iter=k)
            hist.append(_arc_residual(_mirror(out.values), out.h, eps))
        except NonConvergence as exc:
            hist.append(exc.residual)
        # a converged step ends at rounding, about floor / 8, which can be
        # less than a 10x cut of a residual just above the floor
        assert hist[-1] <= max(0.1 * hist[-2], tol, floor), hist
    assert hist[-1] <= max(tol, floor), hist
    with mock.patch.object(engine, "solve_tridiagonal", wraps=engine.solve_tridiagonal) as solve:
        newton_semilinear(guess, eps, tol=tol)
    assert solve.call_count <= (3 if points_per_eps >= 1 else 4), (solve.call_count, hist)


@settings(max_examples=30, deadline=None)
@given(ratio=st.floats(3.2, 500.0), points_per_eps=st.sampled_from([10, 50, 100]),
       halved=st.booleans())
@example(ratio=500.0, points_per_eps=100, halved=True)
@example(ratio=3.2, points_per_eps=10, halved=False)
def test_newton_ends_at_floor_on_a_fixed_point(ratio, points_per_eps, halved):
    L, tol = 0.5, 1e-12
    eps = L / ratio
    m = solver.intervals_for(L, eps, points_per_eps) * (2 if halved else 1)
    mod = modulus_for(eps, L)
    _, guess = _half(L, m, lambda x: ac_family_mod(x / eps, mod))
    out = newton_semilinear(guess, eps, tol=tol)
    v = _mirror(out.values)
    c2 = (eps / out.h) ** 2
    floor = 16.0 * np.finfo(float).eps * c2 * max(1.0, float(np.max(np.abs(v))))
    assert _arc_residual(v, out.h, eps) <= max(tol, floor)
    again = newton_semilinear(out, eps, tol=tol)
    assert np.max(np.abs(again.values - out.values)) <= 1e-12


def test_eig_dirichlet_laplacian():
    n, h = 999, 1.0 / 1000
    op = TridiagonalOperator(diag=np.full(n, 2 / h**2),
                             offdiag=np.full(n - 1, -1 / h**2))
    rep = eig_sturm(op, 2)
    assert abs(rep.eigenvalues[0] - math.pi**2) / math.pi**2 < 1e-3
    assert abs(rep.eigenvalues[1] - 4 * math.pi**2) / (4 * math.pi**2) < 1e-3


def test_eig_shift_invariance():
    n = 200
    rng = np.random.default_rng(3)
    diag = rng.uniform(1.0, 2.0, n)
    off = rng.uniform(-0.5, 0.5, n - 1)
    op = TridiagonalOperator(diag=diag, offdiag=off)
    op_shift = TridiagonalOperator(diag=diag + 2.5, offdiag=off)
    e1 = eig_sturm(op, 4).eigenvalues
    e2 = eig_sturm(op_shift, 4).eigenvalues
    assert np.max(np.abs(e2 - e1 - 2.5)) < 1e-10


def test_eig_counts_stable_under_tighter_tol():
    n = 300
    rng = np.random.default_rng(11)
    diag = rng.uniform(-1.0, 1.0, n)
    off = rng.uniform(-0.3, 0.3, n - 1)
    op = TridiagonalOperator(diag=diag, offdiag=off)
    r1 = eig_sturm(op, 5, tol=1e-10, zero_threshold=1e-9)
    r2 = eig_sturm(op, 5, tol=1e-11, zero_threshold=1e-9)
    assert r1.n_negative == r2.n_negative


def _sturm_count(diag, offdiag, shifts):
    """Eigenvalues of the tridiagonal matrix below each shift, by the
    pure-Python Sturm recurrence; vectorized over shifts."""
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    offdiag2 = offdiag ** 2
    q = diag[0] - shifts
    tiny = np.finfo(float).eps * (np.abs(diag).max() + offdiag2.max(initial=0.0) + 1.0)
    count = (q < 0).astype(int)
    for i in range(1, len(diag)):
        q = np.where(np.abs(q) < tiny, np.where(q < 0, -tiny, tiny), q)
        q = diag[i] - shifts - offdiag2[i - 1] / q
        count += q < 0
    return count


def _oracle_eig(op, how_many, tol, tau):
    """Lowest eigenvalues and (negative, zero, positive) counts at +-tau,
    bisected on the Sturm count to tol / 8, so that the oracle's own error
    stays well inside tol."""
    d, e = op.diag, op.offdiag
    radius = np.zeros(op.dim)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    los = np.full(how_many, np.min(d - radius))
    his = np.full(how_many, np.max(d + radius))
    targets = np.arange(1, how_many + 1)
    while np.max(his - los) > tol / 8.0:
        mids = 0.5 * (los + his)
        above = _sturm_count(d, e, mids) >= targets
        his = np.where(above, mids, his)
        los = np.where(above, los, mids)
    below_neg, below_pos = _sturm_count(d, e, [-tau, tau])
    return 0.5 * (los + his), (below_neg, below_pos - below_neg, op.dim - below_pos)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 300), laplacian=st.booleans(),
       seed=st.integers(0, 2**32 - 1), how_many=st.integers(1, 40),
       tol=st.sampled_from([1e-10, 1e-12]))
@example(n=300, laplacian=True, seed=0, how_many=40, tol=1e-12)
def test_eig_sturm_matches_oracle(n, laplacian, seed, how_many, tol):
    # the Dirichlet Laplacian has simple eigenvalues 2 - 2 cos(pi k / (n + 1))
    # crowded near 0; random operators cover both signs of the spectrum
    rng = np.random.default_rng(seed)
    if laplacian:
        diag, off = np.full(n, 2.0), np.full(n - 1, -1.0)
    else:
        diag, off = rng.uniform(-2.0, 2.0, n), rng.uniform(-1.0, 1.0, n - 1)
    op = TridiagonalOperator(diag=diag, offdiag=off)
    how_many = min(how_many, n)
    tau = 1e-6
    rep = eig_sturm(op, how_many, tol=tol, zero_threshold=tau)
    evals, counts = _oracle_eig(op, how_many, tol, tau)
    assert (rep.n_negative, rep.n_zero, rep.n_positive) == counts
    assert np.max(np.abs(rep.eigenvalues - evals)) <= tol
    again = eig_sturm(op, how_many, tol=tol, zero_threshold=tau)
    assert np.array_equal(again.eigenvalues, rep.eigenvalues)
    assert (again.n_negative, again.n_zero, again.n_positive) == counts


def test_solve_tridiagonal_typed_errors():
    diag, off = np.array([2.0, 3.0, 2.0, 4.0]), np.array([1.0, -1.0, 0.5])
    op = TridiagonalOperator(diag=diag, offdiag=off)
    rhs = np.array([1.0, -2.0, 0.5, 3.0])
    x = solve_tridiagonal(op, rhs)
    assert np.max(np.abs(op.matvec(x) - rhs)) < 1e-14
    # rows 0 and 1 equal: an exactly zero pivot
    singular = TridiagonalOperator(diag=np.ones(3), offdiag=np.array([1.0, 0.0]))
    with pytest.raises(SingularJacobian):
        solve_tridiagonal(singular, np.ones(3))
    # a NaN in the operator or an inf in the data is typed, not a ValueError
    with pytest.raises(SingularJacobian):
        solve_tridiagonal(TridiagonalOperator(diag=np.where(diag == 3.0, np.nan, diag),
                                              offdiag=off), rhs)
    with pytest.raises(SingularJacobian):
        solve_tridiagonal(op, np.where(rhs == 0.5, np.inf, rhs))


@pytest.mark.parametrize("how_many", [0, -1, 2.5, 6])
def test_eig_sturm_rejects_bad_how_many(how_many):
    # an integer in [1, n] or a DomainError, here n = 5
    op = TridiagonalOperator(diag=np.full(5, 2.0), offdiag=np.full(4, -1.0))
    with pytest.raises(DomainError, match="how_many"):
        eig_sturm(op, how_many)


@pytest.mark.parametrize("field", ["diag", "offdiag"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eig_sturm_rejects_non_finite_operator(field, bad):
    # a NaN or inf entry is a DomainError, not scipy's untyped ValueError
    arrays = {"diag": np.full(5, 2.0), "offdiag": np.full(4, -1.0)}
    arrays[field][2] = bad
    with pytest.raises(DomainError, match="finite"):
        eig_sturm(TridiagonalOperator(**arrays), 2)
