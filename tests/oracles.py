"""Independent oracles that only the tests read.

Each one computes a quantity of the library a second way: by quadrature,
by finite differences, in closed form, or from the discretization's own
residual.  None of them is on a path the library runs.
"""
import math
import numbers

import mpmath as mp
import numpy as np
from scipy.special import ellipe, ellipkm1

from becircle import (DomainError, GridFunction, NoPositiveSolution,
                      NonConvergence, heteroclinic, intervals_for, modulus_for,
                      potential, potential_d1, simpson, solve_dirichlet,
                      translation_mode, zero_spacing_from_kp)
from becircle.balanced_energy import _pinned_be
from becircle.bvp_engine import (SpectrumReport, eig_sturm, linearized_operator,
                                 solve_tridiagonal)
from becircle.profiles import _kappa


def periodic_residual(sol):
    """Sup norm of the discrete periodic residual eps^2 D2 u - W'(u)."""
    v = sol.u.values[:-1]
    h = sol.u.h
    c2 = (sol.eps / h) ** 2
    res = c2 * (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) - potential_d1(v)
    return float(np.max(np.abs(res)))


def cutoff_gradient_quadrature(spec):
    """The cutoff's gradient term (eps/2) int |f'|^2 by direct radial quadrature."""
    area = 2.0 * math.pi ** (spec.n / 2.0) / math.gamma(spec.n / 2.0)
    r = np.linspace(spec.delta, spec.k * spec.delta, 40001)
    h = r[1] - r[0]
    integrand = (1.0 / (r * math.log(spec.k))) ** 2 * r ** (spec.n - 1)
    return 0.5 * spec.eps * area * simpson(integrand, h)


def cutoff_potential_quadrature(spec):
    """The cutoff's potential term on the ramp, int W(f) over delta < r < k delta,
    by mpmath quadrature in s = ln(r/delta)/ln k, where f = s and the
    measure r^(n-1) dr is delta^n ln k e^(n s ln k) ds:
    omega_n delta^n ln k int_0^1 W(s) e^(n s ln k) ds / eps."""
    with mp.workdps(30):
        n, lk = spec.n, mp.log(spec.k)
        area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        integral = mp.quad(lambda s: (1 - s * s) ** 2 / 4 * mp.exp(n * s * lk), [0, 1])
        return float(area * mp.mpf(spec.delta) ** n * lk * integral / spec.eps)


def fd_second_variation(config, eps, f, points_per_eps=50):
    """Centered second difference of BE along the node perturbation f."""
    step = 1e-4
    plus = _pinned_be(config, eps, f, step, points_per_eps)
    mid = _pinned_be(config, eps, f, 0.0, points_per_eps)
    minus = _pinned_be(config, eps, f, -step, points_per_eps)
    return (plus - 2.0 * mid + minus) / step ** 2


def modulus_by_bisection(eps, L):
    """modulus_for by plain bisection on ln kp over (ln 1e-300, -1e-18),
    every step evaluating the spacing, down to adjacent doubles."""
    if not (eps > 0 and L > 0):
        raise DomainError(f"eps and L must be positive, got eps={eps}, L={L}")
    if eps >= L / math.pi:
        raise NoPositiveSolution(
            f"eps={eps} at or above the existence threshold {L / math.pi}"
        )
    target = L / eps
    lo, hi = math.log(1e-300), -1e-18
    if zero_spacing_from_kp(math.exp(lo)) < target:
        raise DomainError("rescaled length beyond representable moduli")
    for _ in range(140):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if zero_spacing_from_kp(math.exp(mid)) > target:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def exact_transmission(eps, L):
    """(lambda'(L), v) of the positive arch on [0, L], in closed form.

    The arch is the elliptic family at complementary modulus kp, with
    lambda = (kp^2/(2 - kp^2))^2/4 and L/eps = Z(kp) = 2K sqrt(2 - kp^2), so
    lambda'(L) = (dlambda/dkp)/(eps dZ/dkp), with
    dK/dkp = -(E - kp^2 K)/(k^2 kp); E - kp^2 K -> 1 as kp -> 0, so nothing
    cancels.  The conserved quantity gives eps^2 c^2 = 1/2 - 2 lambda at the
    end, so v = lambda'/(1/2 - 2 lambda).  Nothing here runs a grid solve.
    """
    kp = modulus_for(eps, L)
    k2 = (1.0 - kp) * (1.0 + kp)
    K, E = ellipkm1(kp * kp), ellipe(1.0 - kp * kp)
    dK = -(E - kp * kp * K) / (k2 * kp)
    s = 2.0 - kp * kp
    lam = (kp * kp / s) ** 2 / 4.0
    dZ = 2.0 * dK * math.sqrt(s) - 2.0 * K * kp / math.sqrt(s)
    lam_prime = 2.0 * kp ** 3 / s ** 3 / (eps * dZ)
    return lam_prime, lam_prime / (0.5 - 2.0 * lam)


def exact_arc_energy(eps, L):
    """E_eps of the positive arch on [0, L], in closed form.

    The conserved quantity gives eps u'^2/2 = (W(u) - lambda)/eps, so
    E = int eps u'^2 dx + lambda L/eps; with u = a sn(bx, k) and
    int_0^K cn^2 dn^2 = ((1 + k^2) E(k) - kp^2 K)/(3 k^2) this is
    4 (s E(k) - kp^2 K)/(3 s^{3/2}) + lambda L/eps, s = 2 - kp^2, which tends
    to 2 sqrt2/3 as kp -> 0.  K = ellipkm1(kp^2) and E = ellipe(1 - kp^2)
    cancel nothing.  Nothing here runs a grid solve.
    """
    kp = modulus_for(eps, L)
    kp2 = kp * kp
    s = 2.0 - kp2
    lam = (kp2 / s) ** 2 / 4.0
    K, E = ellipkm1(kp2), ellipe(1.0 - kp2)
    return 4.0 * (s * E - kp2 * K) / (3.0 * s ** 1.5) + lam * L / eps


def arc_energy_tolerance(eps, L, points_per_eps):
    """Bound on the relative gap of solve_dirichlet(L, eps, points_per_eps)
    .energy to exact_arc_energy(eps, L).

    The Richardson-paired energy errs by C (h/eps)^4, h the base grid step.
    Measured over L in 0.25-1 at 20 and 200 points per eps: C <= 2.75e-4 for
    L/eps in [4, 480] and C <= 7.4e-4 for L/eps in [3.3, 4), rising towards
    the existence threshold L/eps = pi.  The bound takes 4e-4 and 1e-3.
    """
    h = L / intervals_for(L, eps, points_per_eps)
    return (4e-4 if L / eps >= 4.0 else 1e-3) * (h / eps) ** 4


def lame_gap(kp):
    """The lowest Dirichlet eigenvalue of -eps^2 D^2 + W''(u) on the positive
    arch at complementary modulus kp, in closed form.

    With u = a sn(bx, k) the operator is (-D_y^2 + 6 k^2 sn^2 y)/(1 + k^2) - 1,
    Lame's operator with n = 2.  Its band-edge eigenfunction sn dn vanishes
    at both ends of the arc and is positive inside, so its eigenvalue
    3 (1 - kp^2)/(2 - kp^2) is the gap.  Nothing here runs a grid solve.
    """
    kp2 = kp * kp
    return 3.0 * (1.0 - kp2) / (2.0 - kp2)


def lame_edges(kp):
    """Four band edges of the 2p-gon's linearized operator at complementary
    modulus kp, in closed form, ascending: mu0, the lowest eigenvalue
    (theta = 0, band 1); the sn dn edge (theta = pi, band 2, the Dirichlet
    gap); the sn cn edge (theta = 0, band 2); and the start of band 3.

    With s = 2 - kp^2 and r = sqrt(1 - kp^2 + kp^4) these are
    -3 kp^4/(s (2r + s)), 3 (1 - kp^2)/s, 3/s and (s + 2r)/s; mu0 is written
    so that nothing cancels (mu0/lambda -> -6).  Nothing here runs a grid
    solve.
    """
    kp2 = kp * kp
    s = 2.0 - kp2
    r = math.sqrt(1.0 - kp2 + kp2 * kp2)
    return (-3.0 * kp2 * kp2 / (s * (2.0 * r + s)), lame_gap(kp), 3.0 / s,
            (s + 2.0 * r) / s)


def ac_spectrum_by_sectors(sol, how_many):
    """ac_spectrum computed as its two mirror sectors, one eig_sturm call
    each, merged by hand: the odd sector on the first-half indices 1..h-1,
    the even one on 0..h with its end couplings scaled by sqrt2, the lowest
    how_many eigenvalues of both and the sums of their counts.  The zero
    threshold comes from the translation mode on the even sector, as in
    ac_spectrum.
    """
    tol = 1e-12
    n = sol.u.n + 1
    if not (isinstance(how_many, numbers.Integral) and 1 <= how_many <= n):
        raise DomainError(f"how_many must be an integer in [1, {n}], got {how_many!r}")
    h = n // 2
    c2 = (sol.eps / sol.u.h) ** 2
    half = sol.u.values[:h + 1]
    sectors = (linearized_operator(half[1:h], c2), linearized_operator(half, c2))
    sectors[1].offdiag[[0, -1]] *= math.sqrt(2.0)
    ux = translation_mode(sol)[:h + 1]
    ux[1:-1] *= math.sqrt(2.0)
    rq = float(ux @ sectors[1].matvec(ux) / (ux @ ux))
    tau = max(10.0 * abs(rq), 40.0 * tol)
    odd, even = (eig_sturm(op, min(how_many, op.dim), tol=tol, zero_threshold=tau)
                 for op in sectors)
    evals = np.sort(np.concatenate((odd.eigenvalues, even.eigenvalues)))[:how_many]
    return SpectrumReport(eigenvalues=evals, zero_threshold=tau,
                          n_negative=odd.n_negative + even.n_negative,
                          n_zero=odd.n_zero + even.n_zero,
                          n_positive=odd.n_positive + even.n_positive)


def dirichlet_gap_full_arc(eps, L, points_per_eps=50):
    """dirichlet_gap on the whole arc, with no mirror: the lowest eigenvalue
    of linearized_operator on every interior point 1..m-1 of the arc's base
    grid, bisected by eig_sturm to the same tolerance 1e-10.
    """
    arc = solve_dirichlet(L, eps, points_per_eps=points_per_eps)
    op = linearized_operator(arc.u.values[1:-1], (eps / arc.u.h) ** 2)
    return float(eig_sturm(op, 1, tol=1e-10).eigenvalues[0])


def half_residual(values, c2):
    """The residual rows 1..M of eps^2 u'' = W'(u) on a mirror half
    u_0..u_M, with the ghost value u_{M+1} = u_{M-1} beyond the midpoint."""
    w = np.append(values, values[-2])
    return c2 * (w[2:] - 2.0 * w[1:-1] + w[:-2]) - potential_d1(w[1:-1])


def newton_half_alone(grid, eps, tol=1e-12, max_iter=100):
    """Newton on one mirror half by itself, the solve that the block Newton
    (bvp_engine.newton_halves) must reproduce bit for bit for each of its
    halves: full steps, the midpoint row and residual entry halved, stop
    below tol, one last step below the rounding floor, NonConvergence after
    max_iter steps above both.  This is the one-half Newton the library ran
    before its sweeps were solved in blocks.
    """
    u = grid.values.copy()
    c2 = (eps / grid.h) ** 2
    floor = 16.0 * np.finfo(float).eps * c2 * max(1.0, float(np.max(np.abs(u))))
    r = half_residual(u, c2)
    rnorm = float(np.max(np.abs(r)))
    for _ in range(max_iter):
        if rnorm <= tol:
            break
        op = linearized_operator(u[1:], c2)
        op.diag[-1] *= 0.5
        r[-1] *= 0.5
        u[1:] += solve_tridiagonal(op, r)
        if rnorm <= floor:
            break
        r = half_residual(u, c2)
        rnorm = float(np.max(np.abs(r)))
    else:
        if not rnorm <= max(tol, floor):
            raise NonConvergence(f"newton_half_alone: residual {rnorm:.3e} after "
                                 f"{max_iter} iterations", residual=rnorm,
                                 iterations=max_iter)
    return GridFunction(L=grid.L, values=u)


def newton_full_grid(grid, eps, tol=1e-12, max_iter=100):
    """Newton on every interior point of a whole grid, with no mirror, for
    any interval count and end data: newton_semilinear's sup-norm stop and
    rounding floor, but damped.  A step that does not lower the residual
    2-norm is halved, up to 40 times; newton_semilinear takes every step
    whole, so the two agreeing shows that damping does not change the
    solution from that start.
    """
    u = grid.values.copy()
    c2 = (eps / grid.h) ** 2
    floor = 16.0 * np.finfo(float).eps * c2 * max(1.0, float(np.max(np.abs(u))))

    def residual(w):
        return c2 * (w[2:] - 2.0 * w[1:-1] + w[:-2]) - potential_d1(w[1:-1])

    r = residual(u)
    rnorm = float(np.max(np.abs(r)))
    r2 = float(np.linalg.norm(r))
    for it in range(max_iter):
        if rnorm <= tol:
            break
        delta = solve_tridiagonal(linearized_operator(u[1:-1], c2), r)
        if rnorm <= floor:
            u[1:-1] += delta
            break
        t = 1.0
        for _ in range(40):
            trial = u.copy()
            trial[1:-1] = u[1:-1] + t * delta
            rt = residual(trial)
            rt2 = float(np.linalg.norm(rt))
            if rt2 < r2:
                u, r, r2 = trial, rt, rt2
                rnorm = float(np.max(np.abs(rt)))
                break
            t *= 0.5
        else:
            raise NonConvergence(f"newton_full_grid stagnated at residual {rnorm:.3e}",
                                 residual=rnorm, iterations=it)
    else:
        if rnorm > max(tol, floor):
            raise NonConvergence(f"newton_full_grid: residual {rnorm:.3e} after "
                                 f"{max_iter} iterations", residual=rnorm,
                                 iterations=max_iter)
    return GridFunction(L=grid.L, values=u)


def stencil_slope(u, side="left"):
    """One-sided fourth-order endpoint derivative of a grid function."""
    v = u.values if side == "left" else u.values[::-1]
    s = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * u.h)
    return s if side == "left" else -s


def cycle_laplacian(m):
    """2I - S - S^T on m nodes, S the cyclic shift."""
    shift = np.roll(np.eye(m), 1, axis=1)
    return 2.0 * np.eye(m) - shift - shift.T


def kappa_lambda(t):
    """kappa_lambda at any t, float or array.

    The library reads this formula only on a profile window's cached
    half-line (tau_lambda = -kappa_lambda); here it takes heteroclinic(t)
    itself.
    """
    x = np.atleast_1d(np.asarray(t, dtype=float))
    g, gdot, _ = heteroclinic(x)
    out = _kappa(x, g, gdot)
    return float(out[0]) if np.ndim(t) == 0 else out


def kappa_lambda_prime(t):
    """Analytic derivative of kappa_lambda at any t, float or array:
        dA = ((10 - 18 g g) / s + 4 g g (5 - 3 g g) / s^2) gdot,
        dB = 3 sqrt2 (s - 2 t g gdot),
        kappa'(t) = -(dA + dB) / 8,  s = sqrt2 gdot.

    The library forms no derivative of kappa: tau_lambda's slope sqrt2 at 0
    is this at t = 0, negated.
    """
    x = np.atleast_1d(np.asarray(t, dtype=float))
    g, gdot, _ = heteroclinic(x)
    s = math.sqrt(2.0) * gdot
    dA = ((10.0 - 18.0 * g * g) / s + 4.0 * g * g * (5.0 - 3.0 * g * g) / s ** 2) * gdot
    dB = 3.0 * math.sqrt(2.0) * (s - 2.0 * x * g * gdot)
    out = -(dA + dB) / 8.0
    return float(out[0]) if np.ndim(t) == 0 else out


def _chebyshev_nodes(T, N):
    """The N + 1 Chebyshev points t on [0, T] (from 0), the d/dt matrix D on
    them (L. N. Trefethen, *Spectral Methods in MATLAB*, SIAM 2000, ch. 6)
    and the signs c whose reciprocals are the barycentric weights."""
    j = np.arange(N + 1)
    x = np.cos(np.pi * j / N)                       # 1 .. -1
    c = np.where((j == 0) | (j == N), 2.0, 1.0) * (-1.0) ** j
    dx = x[:, None] - x[None, :]
    D = np.outer(c, 1.0 / c) / (dx + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    t = 0.5 * T * (1.0 - x)                          # 0 .. T
    D *= -2.0 / T                                    # d/dt
    return t, D, c


def _collocate(b, t, D, bounded):
    """The nodal values of f'' - W''(g) f = b, f(0) = 0, with the far
    condition of chebyshev_profile."""
    N = len(t) - 1
    g = np.tanh(t / math.sqrt(2.0))
    A = D @ D - np.diag(3.0 * g * g - 1.0)
    b = np.array(b, dtype=float)
    A[0] = 0.0                                       # f(0) = 0
    A[0, 0] = 1.0
    b[0] = 0.0
    A[N] = D[N]                                      # far condition at t = T
    if not bounded:
        A[N, N] += math.sqrt(2.0)
    b[N] = 0.0
    return np.linalg.solve(A, b)


def chebyshev_profile(rhs, T, at, bounded=False, N=200):
    """The half-line profile f'' - W''(g) f = rhs, f(0) = 0, by float64
    Chebyshev collocation on [0, T] at N + 1 points, read at the points
    `at` by barycentric interpolation.

    rhs is a callable of (t, w, dw): the nodes, and the collocated w
    (L w = gdot) with its derivative D w on them, for the sources that read
    w (rho's w', kappa_ode's g w).  The far condition is
    f'(T) + sqrt2 f(T) = 0, which the decaying profiles meet (their tail is
    the homogeneous solution e^{-sqrt2 t}), or f'(T) = 0 for a bounded
    profile such as omega.  Nothing here calls the library, and
    g = tanh(t / sqrt2) is evaluated here.
    """
    t, D, c = _chebyshev_nodes(T, N)
    w = _collocate(1.0 / (math.sqrt(2.0) * np.cosh(t / math.sqrt(2.0)) ** 2), t, D, False)
    f = _collocate(rhs(t, w, D @ w), t, D, bounded)
    at = np.atleast_1d(np.asarray(at, dtype=float))
    diff = at[:, None] - t[None, :]
    exact = diff == 0.0
    # barycentric weights of the Chebyshev points, (-1)^j halved at the
    # ends, are 1 / c
    wts = (1.0 / c) / np.where(exact, 1.0, diff)
    out = (wts @ f) / wts.sum(axis=1)
    hit = exact.any(axis=1)
    out[hit] = f[exact.argmax(axis=1)[hit]]
    return out


def comparator_energy_full_grid(config, eps):
    """Energy of the truncated-heteroclinic recovery profile g_k on the circle.

    Per arc: u = g(d/eps) chi(d) + (1 - chi(d)) in the distance d to the node
    set, with a smooth cos^2 ramp from 1 to 0 on [rho0/4, rho0/2].

    The library's comparator_energy before it evaluated the layers alone:
    the profile and its density on every point of each arc's grid.
    """
    lengths = config.arc_lengths()
    rho0 = float(np.min(lengths)) / 2.0
    lo, hi = rho0 / 4.0, rho0 / 2.0

    def chi_dchi(d):
        """The cutoff chi(d) and its derivative, from one ramp."""
        chi, dchi = np.ones_like(d), np.zeros_like(d)
        ramp = (d > lo) & (d < hi)
        s = 0.5 * math.pi * (d[ramp] - lo) / (hi - lo)
        cos = np.cos(s)
        chi[ramp] = cos ** 2
        chi[d >= hi] = 0.0
        dchi[ramp] = -math.pi * cos * np.sin(s) / (hi - lo)
        return chi, dchi

    total = 0.0
    for ell in lengths:
        m = max(2000, int(round(ell / (eps / 200))))
        m += m % 2
        x = np.linspace(0.0, ell, m + 1)
        d = np.minimum(x, ell - x)
        dprime = np.where(x <= ell / 2.0, 1.0, -1.0)
        g, gdot, _ = heteroclinic(d / eps)
        c, dc = chi_dchi(d)
        u = g * c + (1.0 - c)
        du = (gdot / eps * c + (g - 1.0) * dc) * dprime
        density = 0.5 * eps * du ** 2 + potential(u) / eps
        total += simpson(density, x[1] - x[0])
    return total
