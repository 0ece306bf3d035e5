"""Independent oracles that only the tests read.

Each one computes a quantity of the library a second way: by quadrature,
by finite differences, in closed form, or from the discretization's own
residual.  None of them is on a path the library runs.
"""
import math
import numbers

import numpy as np
from scipy.special import ellipe, ellipkm1

from becircle import (DomainError, EllipticModulus, GridFunction, NoPositiveSolution,
                      NonConvergence, heteroclinic, intervals_for, modulus_for,
                      potential_d1, simpson, translation_mode, zero_spacing_from_kp)
from becircle.balanced_energy import _pinned_be
from becircle.bvp_engine import (SpectrumReport, eig_sturm, linearized_operator,
                                 solve_tridiagonal)
from becircle.profiles import _kappa, _kappa_prime


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
    kp = math.exp(0.5 * (lo + hi))
    k = math.sqrt((1.0 - kp) * (1.0 + kp))
    return EllipticModulus(k=k, kp=kp)


def exact_transmission(eps, L):
    """(lambda'(L), v) of the positive arch on [0, L], in closed form.

    The arch is the elliptic family at complementary modulus kp, with
    lambda = (kp^2/(2 - kp^2))^2/4 and L/eps = Z(kp) = 2K sqrt(2 - kp^2), so
    lambda'(L) = (dlambda/dkp)/(eps dZ/dkp), with
    dK/dkp = -(E - kp^2 K)/(k^2 kp); E - kp^2 K -> 1 as kp -> 0, so nothing
    cancels.  The conserved quantity gives eps^2 c^2 = 1/2 - 2 lambda at the
    end, so v = lambda'/(1/2 - 2 lambda).  Nothing here runs a grid solve.
    """
    kp = modulus_for(eps, L).kp
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
    kp = modulus_for(eps, L).kp
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
    return GridFunction(a=grid.a, b=grid.b, n=grid.n, values=u)


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
    t = np.asarray(t, dtype=float)
    g, gdot, _ = heteroclinic(t)
    out = _kappa(t, g, gdot)
    return float(out) if out.ndim == 0 else out


def kappa_lambda_prime(t):
    """Analytic derivative of kappa_lambda at any t, float or array.

    The library reads this formula only on a profile window's cached
    half-line (tau_lambda's dvalues); here it takes heteroclinic(t) itself.
    """
    t = np.asarray(t, dtype=float)
    g, gdot, _ = heteroclinic(t)
    out = _kappa_prime(t, g, gdot)
    return float(out) if out.ndim == 0 else out
