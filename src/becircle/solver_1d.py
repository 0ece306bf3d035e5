"""Positive Dirichlet minimizers on intervals, the 2p-node periodic solutions
on the circle, and the minimum-energy map in eps.

Scalar outputs (conserved quantity, energy, node slopes) are Richardson
pairs over grids with m and 2m intervals: the raw O(h^2) quadrature and
amplitude errors sit exactly at the exponentially small energy scales the
experiments difference against, and the pairing removes them.
"""
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .bvp_engine import GridFunction, newton_semilinear, richardson, simpson
from .elliptic_oracle import ac_family_mod, modulus_for
from .errors import DomainError, NoPositiveSolution
from .scalar_field import potential

_TINY = np.finfo(float).tiny  # the smallest normal float64
# finest grid accepted: from the closed form, Newton's full steps are tested
# to contract from 400 intervals up to here, and the 2m-interval grid of a
# Richardson pair stays below 3.2e6 points at L/eps <= 1958
_MAX_POINTS_PER_EPS = 800


def existence_threshold(L):
    """Largest eps admitting a positive Dirichlet solution on length L: L/pi."""
    if not 0.0 < L < math.inf:
        raise DomainError(f"interval length must be positive and finite, got {L!r}")
    return L / math.pi


@dataclass(frozen=True)
class DirichletSolution:
    L: float
    eps: float
    u: GridFunction
    u_half: GridFunction     # raw Newton solution on the pair's 2m-interval grid
    lam: float
    slope_left: float
    slope_right: float
    energy: float


@dataclass(frozen=True)
class NodalSolution:
    p: int
    eps: float
    u: GridFunction          # on [0, 1], periodic identification
    nodes: np.ndarray        # the 2p zeros
    arc: DirichletSolution   # the arc glued; |u_x| at any node is arc.slope_left


def intervals_for(L, eps, points_per_eps):
    """Even interval count for [0, L] at points_per_eps grid points per eps;
    every arc solve takes its grid here, so eps must be positive and finite,
    points_per_eps positive and at most 800, the step a normal float (a
    subnormal eps gives a subnormal step) and the count finite."""
    if not 0.0 < eps < math.inf:
        raise DomainError(f"eps must be positive and finite, got {eps!r}")
    if not 0.0 < points_per_eps <= _MAX_POINTS_PER_EPS:
        raise DomainError(f"points per eps must be positive and at most "
                          f"{_MAX_POINTS_PER_EPS}, got {points_per_eps!r}")
    step = min(eps / points_per_eps, L / 400.0)  # at least 400 intervals
    if not (step >= _TINY and L / step < math.inf):
        raise DomainError(f"no normal grid step with a finite interval count for L = {L}, "
                          f"eps = {eps} at {points_per_eps} points per eps")
    m = int(round(L / step))
    return m + (m % 2)  # even interval count keeps the Simpson point count odd


def arc_energy(u, eps):
    """E_eps of a grid function: midpoint-rule gradient + Simpson potential.

    The squared difference quotients scale as 1/eps^2: DomainError when
    their sum overflows or their largest is not a normal float, so that the
    gradient term lost its digits or vanished.  At L/eps = 20 and 50 points
    per eps that leaves eps from about 1e-153 to 4.7e153.
    """
    h = u.h
    du = np.diff(u.values) / h
    with np.errstate(over="ignore", under="ignore"):
        du *= du
        grad = np.sum(du)
    if not (grad < math.inf and np.max(du) >= _TINY):
        raise DomainError(f"the gradient term of the energy is not representable "
                          f"in float64 at eps = {eps!r}, h = {h!r}")
    pot = simpson(potential(u.values), h)
    return 0.5 * eps * (grad * h) + pot / eps


def dirichlet_pair(L, eps, m, tol=1e-12):
    """Newton on m and 2m intervals of [0, L], started from the closed form.

    The arc is even about L/2, and Newton solves for it on the half [0, L/2]
    of each grid (see newton_semilinear).  The closed form is evaluated once,
    on the half of the 2m-interval grid, m + 1 points; the m-interval half is
    every other value of that.  Halving the step is exact, so
    linspace(0, L, 2m + 1)[::2] is linspace(0, L, m + 1) bit for bit, and the
    oracle is elementwise: each half is the one a call per grid gives.  m
    must be even, or the coarse half misses the midpoint, and at least 8, so
    that the coarse half has 5 points; DomainError otherwise.  u is the
    m-interval solution and u_half the 2m-interval one, each half mirrored
    into an exact palindrome on [0, L]; lam and the energy are their
    Richardson combination, and the slopes follow from lam.
    """
    if m % 2 or m < 8:
        raise DomainError(f"dirichlet_pair needs an even interval count >= 8, got {m!r}")
    mod = modulus_for(eps, L)  # rejects L/eps past ~1958 before the grid is built
    half = ac_family_mod(np.linspace(0.0, L, 2 * m + 1)[:m + 1] / eps, mod)
    half[0] = 0.0

    def solve(g):
        v = newton_semilinear(GridFunction(a=0.0, b=0.5 * L, n=len(g) - 2, values=g),
                              eps, tol=tol).values
        return GridFunction(a=0.0, b=L, n=2 * len(v) - 3, values=np.concatenate((v, v[-2::-1])))

    sol, sol2 = solve(half[::2]), solve(half)
    lam = richardson(*(potential(float(np.max(s.values))) for s in (sol, sol2)))
    energy = richardson(*(arc_energy(s, eps) for s in (sol, sol2)))
    c = math.sqrt(max(0.0, 2.0 * (potential(0.0) - lam))) / eps
    return DirichletSolution(L=L, eps=eps, u=sol, u_half=sol2, lam=lam,
                             slope_left=c, slope_right=-c, energy=energy)


def solve_dirichlet(L, eps, points_per_eps=50, tol=1e-12, refine_values=False):
    """The unique positive solution of eps^2 u'' = W'(u), u(0) = u(L) = 0.

    Raises NoPositiveSolution at or above the existence threshold (there the
    minimizer is u = 0, which is not admitted as a broken-transition piece).

    The arc is solved once on each grid of its Richardson pair (see
    dirichlet_pair), m = intervals_for(L, eps, points_per_eps) and 2m, both
    started from one closed-form evaluation on the first half of the 2m
    grid, and both grids are returned: u on m intervals and u_half on 2m.
    With refine_values u holds the pointwise Richardson combination of the two
    (fourth-order accurate against the closed form); by default it is the
    raw base-grid Newton solution, which satisfies the discrete equation to
    the solver tolerance.

    lam = W(max u) is resolved only up to L/eps of about 40: beyond, 1 - max u
    falls to the ulp of 1 and lam is rounding noise (7e-5 relative error
    against lambda_of_eps at L/eps = 40, 1e-2 at 50).  From L/eps of about
    55 on, the midpoint of both grids rounds to 1.0 and lam reads exactly
    0.0, where the true value is 2.7e-33 at 55 and 2.5e-294 at 480.
    first_variation, a difference of the arcs' lam, inherits that noise.
    """
    if eps >= existence_threshold(L):
        raise NoPositiveSolution(
            f"eps={eps} >= L/pi = {existence_threshold(L):.6g}: only u = 0 remains"
        )
    sol = dirichlet_pair(L, eps, intervals_for(L, eps, points_per_eps), tol)
    if refine_values:
        refined = richardson(sol.u.values, sol.u_half.values[::2])
        sol = replace(sol, u=replace(sol.u, values=refined))
    return sol


def nodal_solution(p, eps, points_per_eps=50):
    """The 2p-node solution on the circle by odd reflection of the arc solution.

    Raises NoPositiveSolution (from the arc solve) for eps >= 1/(2 p pi).
    """
    if not (isinstance(p, numbers.Integral) and p >= 1):
        raise DomainError(f"p must be a positive integer, got {p!r}")
    ell = 1.0 / (2 * p)
    arc = solve_dirichlet(ell, eps, points_per_eps=points_per_eps)
    piece = arc.u.values[:-1]
    blocks = [((-1) ** i) * piece for i in range(2 * p)]
    vals = np.concatenate(blocks + [np.zeros(1)])
    u = GridFunction(a=0.0, b=1.0, n=len(vals) - 2, values=vals)
    nodes = np.arange(2 * p) * ell
    return NodalSolution(p=p, eps=eps, u=u, nodes=nodes, arc=arc)


def min_energy(eps, L, points_per_eps=50):
    """Energy of the positive Dirichlet minimizer; the map g(eps) of the scans."""
    return solve_dirichlet(L, eps, points_per_eps=points_per_eps).energy


@dataclass(frozen=True)
class LipschitzScan:
    eps: np.ndarray
    energies: np.ndarray
    quotients: np.ndarray    # |g(e2) - g(e1)| / |e2 - e1| on adjacent pairs
    max_quotient: float


def lipschitz_scan(L, eps_grid, points_per_eps=50):
    """Quotients of eps -> min-energy over the distinct eps (at least two)."""
    eps = np.unique(np.asarray(eps_grid, dtype=float))
    if len(eps) < 2:
        raise DomainError("a Lipschitz scan needs at least two distinct eps")
    thr = existence_threshold(L)
    if np.any(eps >= thr):
        raise NoPositiveSolution(f"grid contains eps >= threshold {thr:.6g}")
    g = np.array([min_energy(e, L, points_per_eps) for e in eps])
    q = np.abs(np.diff(g)) / np.diff(eps)
    return LipschitzScan(eps=eps, energies=g, quotients=q,
                         max_quotient=float(np.max(q)))
