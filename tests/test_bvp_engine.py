import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from becircle import (DomainError, GridFunction, TridiagonalOperator,
                      cumulative_simpson, eig_sturm, heteroclinic,
                      newton_semilinear, norm_h1_eps, simpson)
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


def _grid(a, b, n, fun):
    x = np.linspace(a, b, n + 2)
    return GridFunction(a=a, b=b, n=n, values=fun(x))


def test_newton_zero_fixed_point():
    g = _grid(0.0, 1.0, 99, lambda x: np.zeros_like(x))
    out = newton_semilinear(g, 0.1, (0.0, 0.0))
    assert np.all(out.values == 0.0)


def test_newton_matches_oracle():
    eps, L = 0.02, 0.5
    mod = modulus_for(eps, L)
    n = int(round(L / (eps / 50))) - 1
    x = np.linspace(0.0, L, n + 2)
    vals = np.array([ac_family_mod(xi / eps, mod) for xi in x])
    vals[0] = vals[-1] = 0.0
    guess = GridFunction(a=0.0, b=L, n=n, values=vals)
    out = newton_semilinear(guess, eps, (0.0, 0.0), tol=1e-12)
    h = out.h
    c2 = (eps / h) ** 2
    res = c2 * (out.values[2:] - 2 * out.values[1:-1] + out.values[:-2]) \
        - potential_d1(out.values[1:-1])
    assert np.max(np.abs(res)) <= 1e-12


def test_newton_basin():
    eps, L = 0.05, 0.5
    mod = modulus_for(eps, L)
    n = int(round(L / (eps / 50))) - 1
    x = np.linspace(0.0, L, n + 2)
    vals = np.array([ac_family_mod(xi / eps, mod) for xi in x])
    vals[0] = vals[-1] = 0.0
    base = newton_semilinear(GridFunction(a=0.0, b=L, n=n, values=vals),
                             eps, (0.0, 0.0), tol=1e-12)
    pert = base.values + 1e-3 * np.sin(math.pi * x / L)
    pert[0] = pert[-1] = 0.0
    again = newton_semilinear(GridFunction(a=0.0, b=L, n=n, values=pert),
                              eps, (0.0, 0.0), tol=1e-12)
    assert np.max(np.abs(again.values - base.values)) < 2e-12


def test_newton_quadratic_decay():
    # residual after k undamped steps from a smooth guess contracts
    # quadratically once in the basin
    eps, L = 0.05, 0.5
    n = int(round(L / (eps / 50))) - 1
    x = np.linspace(0.0, L, n + 2)
    h = L / (n + 1)
    c2 = (eps / h) ** 2

    def resid(u):
        return float(np.max(np.abs(
            c2 * (u[2:] - 2 * u[1:-1] + u[:-2]) - potential_d1(u[1:-1]))))

    from becircle import NonConvergence

    hist = []
    for k in range(1, 9):
        guess = GridFunction(a=0.0, b=L, n=n,
                             values=0.9 * np.sin(math.pi * x / L))
        try:
            out = newton_semilinear(guess, eps, (0.0, 0.0), tol=1e-13, max_iter=k)
            hist.append(resid(out.values))
            break
        except NonConvergence as exc:
            hist.append(exc.residual)
    window = [r for r in hist if 1e-11 < r < 1e-1]
    for r0, r1 in zip(window, window[1:]):
        assert r1 < 50.0 * r0 ** 2   # quadratic contraction up to a constant
    assert min(hist) < 1e-11


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


def test_eig_periodic_laplacian():
    n, h = 512, 1.0 / 512
    op = TridiagonalOperator(diag=np.full(n, 2 / h**2),
                             offdiag=np.full(n - 1, -1 / h**2),
                             boundary="periodic", corner=-1 / h**2)
    rep = eig_sturm(op, 3)
    assert abs(rep.eigenvalues[0]) < 1e-6
    for j in (1, 2):
        assert abs(rep.eigenvalues[j] - 4 * math.pi**2) / (4 * math.pi**2) < 1e-3
    assert rep.n_negative == 0 and rep.n_zero == 1


def test_eig_counts_stable_under_tighter_tol():
    n = 300
    rng = np.random.default_rng(11)
    diag = rng.uniform(-1.0, 1.0, n)
    off = rng.uniform(-0.3, 0.3, n - 1)
    op = TridiagonalOperator(diag=diag, offdiag=off)
    r1 = eig_sturm(op, 5, tol=1e-10, zero_threshold=1e-9)
    r2 = eig_sturm(op, 5, tol=1e-11, zero_threshold=1e-9)
    assert r1.n_negative == r2.n_negative


def test_eig_dense_fallback_periodic_small():
    q = np.array([[2.0, -2.0], [-2.0, 2.0]])
    op = TridiagonalOperator(diag=np.diag(q), offdiag=np.array([-1.0]),
                             boundary="periodic", corner=-1.0)
    rep = eig_sturm(op, 2)
    assert np.allclose(rep.eigenvalues, [0.0, 4.0], atol=1e-12)


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
    """Lowest eigenvalues and (negative, zero, positive) counts at +-tau.

    A Dirichlet operator is bisected on the Sturm count to tol / 8, so that
    the oracle's own error stays well inside tol.  A periodic operator is
    solved dense, by an algorithm that shares nothing with Sturm counting.
    """
    if op.boundary == "periodic":
        evals = np.linalg.eigvalsh(op.dense())
        below_neg, below_pos = np.sum(evals < -tau), np.sum(evals <= tau)
        return evals[:how_many], (below_neg, below_pos - below_neg, op.dim - below_pos)
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
@given(n=st.integers(2, 300), periodic=st.booleans(), laplacian=st.booleans(),
       seed=st.integers(0, 2**32 - 1), how_many=st.integers(1, 40),
       tol=st.sampled_from([1e-10, 1e-12]))
@example(n=63, periodic=True, laplacian=True, seed=0, how_many=5, tol=1e-10)
@example(n=66, periodic=True, laplacian=True, seed=0, how_many=34, tol=1e-10)
@example(n=64, periodic=True, laplacian=False, seed=1, how_many=6, tol=1e-12)
@example(n=2, periodic=True, laplacian=False, seed=2, how_many=2, tol=1e-10)
def test_eig_sturm_matches_oracle(n, periodic, laplacian, seed, how_many, tol):
    # the periodic Laplacian has a simple zero and double eigenvalues
    # 2 - 2 cos(2 pi k / n); at n = 66 a bisection midpoint falls exactly on
    # the leading block's eigenvalue 2, between the 33rd and 34th of the
    # full matrix.  Random operators cover both signs of the spectrum.
    rng = np.random.default_rng(seed)
    if laplacian:
        diag, off, corner = np.full(n, 2.0), np.full(n - 1, -1.0), -1.0
    else:
        diag, off, corner = (rng.uniform(-2.0, 2.0, n), rng.uniform(-1.0, 1.0, n - 1),
                             rng.uniform(-1.0, 1.0))
    op = TridiagonalOperator(diag=diag, offdiag=off,
                             boundary="periodic" if periodic else "dirichlet",
                             corner=corner if periodic else 0.0)
    how_many = min(how_many, n)
    tau = 1e-6
    rep = eig_sturm(op, how_many, tol=tol, zero_threshold=tau)
    evals, counts = _oracle_eig(op, how_many, tol, tau)
    assert (rep.n_negative, rep.n_zero, rep.n_positive) == counts
    assert np.max(np.abs(rep.eigenvalues - evals)) <= tol
    again = eig_sturm(op, how_many, tol=tol, zero_threshold=tau)
    assert np.array_equal(again.eigenvalues, rep.eigenvalues)
    assert (again.n_negative, again.n_zero, again.n_positive) == counts


def test_norm_h1_eps():
    f0 = GridFunction(a=0.0, b=1.0, n=99, values=np.zeros(101))
    assert norm_h1_eps(f0, 0.1) == 0.0
    f1 = GridFunction(a=0.0, b=1.0, n=99, values=np.ones(101))
    assert abs(norm_h1_eps(f1, 0.1) - math.sqrt(0.1)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-5.0, max_value=5.0))
def test_norm_h1_eps_homogeneous(c):
    x = np.linspace(0.0, 1.0, 101)
    f = GridFunction(a=0.0, b=1.0, n=99, values=np.sin(3 * x) + 0.2 * x)
    fc = GridFunction(a=0.0, b=1.0, n=99, values=c * f.values)
    assert abs(norm_h1_eps(fc, 0.07) - abs(c) * norm_h1_eps(f, 0.07)) < 1e-12
