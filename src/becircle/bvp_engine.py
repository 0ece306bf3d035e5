"""Generic numerical machinery: grids, quadrature, damped Newton for the
semilinear two-point problem, tridiagonal solves, and a symmetric-tridiagonal
eigensolver.  Every eigenproblem is bisected on Sturm counts by LAPACK
(stebz).  A corner-coupled periodic operator with the mirror symmetry
j -> n - j (even n >= 4) splits into two plain tridiagonal operators, its
odd and even sectors, which stebz solves like Dirichlet ones; an operator
whose mirror mismatch could move an eigenvalue by more than tol/8 and
rounding (Weyl's bound) is rejected.
"""
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, solve_banded

from .errors import DomainError, NonConvergence, SingularJacobian
from .scalar_field import SQRT2, potential_d1, potential_d2

_EPS_MACH = np.finfo(float).eps


@dataclass(frozen=True)
class GridFunction:
    """Uniformly sampled function on [a, b] including both endpoints."""
    a: float
    b: float
    n: int                   # interior point count
    values: np.ndarray       # n + 2 values

    def __post_init__(self):
        if self.b <= self.a:
            raise DomainError("GridFunction requires a < b")
        if self.n < 3:
            raise DomainError("GridFunction requires n >= 3")
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.n + 2,):
            raise DomainError("values must have n + 2 entries")
        if not np.all(np.isfinite(v)):
            raise DomainError("values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def h(self):
        return (self.b - self.a) / (self.n + 1)

    def x(self):
        return np.linspace(self.a, self.b, self.n + 2)


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal operator, optionally with periodic corner coupling."""
    diag: np.ndarray
    offdiag: np.ndarray
    boundary: str = "dirichlet"      # "dirichlet" | "periodic"
    corner: float = 0.0              # A[0, n-1] = A[n-1, 0] when periodic

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.offdiag, dtype=float)
        if e.shape != (d.shape[0] - 1,):
            raise DomainError("offdiag must have len(diag) - 1 entries")
        if self.boundary not in ("dirichlet", "periodic"):
            raise DomainError(f"unknown boundary {self.boundary!r}")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)

    @property
    def dim(self):
        return self.diag.shape[0]

    def dense(self):
        A = np.diag(self.diag)
        idx = np.arange(self.dim - 1)
        A[idx, idx + 1] = self.offdiag
        A[idx + 1, idx] = self.offdiag
        if self.boundary == "periodic":
            A[0, -1] += self.corner
            A[-1, 0] += self.corner
        return A

    def matvec(self, v):
        out = self.diag * v
        out[:-1] += self.offdiag * v[1:]
        out[1:] += self.offdiag * v[:-1]
        if self.boundary == "periodic":
            out[0] += self.corner * v[-1]
            out[-1] += self.corner * v[0]
        return out


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray   # ascending, the lowest how_many
    zero_threshold: float
    n_negative: int           # exact global counts of the full spectrum
    n_zero: int
    n_positive: int


def simpson(values, h):
    """Composite Simpson; an even point count is closed by one trapezoid panel."""
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    if n < 3:
        raise DomainError("simpson needs at least 3 points")
    if n % 2 == 1:
        return (v[0] + v[-1] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-2:2].sum()) * h / 3.0
    return simpson(v[:-1], h) + 0.5 * h * (v[-2] + v[-1])


def cumulative_simpson(values, h):
    """Cumulative integral on the grid, fourth-order accurate.

    Even indices accumulate Simpson pairs; odd indices add the local
    quadratic partial panel (h/12)(5 f_{j-1} + 8 f_j - f_{j+1}).
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    if n < 3:
        raise DomainError("cumulative_simpson needs at least 3 points")
    out = np.zeros(n)
    npair = (n - 1) // 2
    pair = (h / 3.0) * (v[0:2 * npair:2] + 4.0 * v[1:2 * npair:2] + v[2:2 * npair + 2:2])
    out[2:2 * npair + 2:2] = np.cumsum(pair)
    k = 2 * npair  # odd indices below k have both neighbours
    out[1:k:2] = out[0:k - 1:2] + (h / 12.0) * (5.0 * v[0:k - 1:2] + 8.0 * v[1:k:2]
                                               - v[2:k + 1:2])
    if n % 2 == 0:  # last index is odd: backward panel
        out[-1] = out[-2] + (h / 12.0) * (-v[-3] + 8.0 * v[-2] + 5.0 * v[-1])
    return out


def solve_tridiagonal(diag, offdiag, rhs):
    """Solve the symmetric tridiagonal system; raises SingularJacobian on breakdown."""
    n = len(diag)
    ab = np.zeros((3, n))
    ab[0, 1:] = offdiag
    ab[1] = diag
    ab[2, :-1] = offdiag
    try:
        x = solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularJacobian("non-finite solution from tridiagonal solve")
    return x


def newton_semilinear(grid, eps, bc, tol=1e-12, max_iter=100):
    """Damped Newton for  eps^2 u'' = W'(u)  with Dirichlet data bc.

    Accepts the undamped step when the residual 2-norm decreases, otherwise
    halves it (at most 40 times); when no halving descends it raises
    NonConvergence.  The achievable residual is limited by rounding at about
    machine_eps * (eps/h)^2.  Below tol the iteration stops.  Below that
    floor the residual is rounding noise and can no longer rank iterates, so
    the undamped step just solved for is applied without a test and the
    iteration stops: the error after it is O(|step|^2) (the error-based
    termination of Deuflhard, Newton Methods for Nonlinear Problems, 2.1).
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    u = grid.values.copy()
    u[0], u[-1] = bc
    h = grid.h
    c2 = (eps / h) ** 2
    floor = 16.0 * _EPS_MACH * c2 * max(1.0, float(np.max(np.abs(u))))

    def residual(w):
        return c2 * (w[2:] - 2.0 * w[1:-1] + w[:-2]) - potential_d1(w[1:-1])

    r = residual(u)
    rnorm = float(np.max(np.abs(r))) if r.size else 0.0
    r2 = float(np.linalg.norm(r))
    for it in range(max_iter):
        if rnorm <= tol:
            break
        delta = solve_tridiagonal(-2.0 * c2 - potential_d2(u[1:-1]),
                                  np.full(grid.n - 1, c2), -r)
        if rnorm <= floor:
            # the residual is rounding noise: take the full step and stop
            u[1:-1] += delta
            break
        t = 1.0
        for _ in range(40):
            trial = u.copy()
            trial[1:-1] = u[1:-1] + t * delta
            rt = residual(trial)
            # accept on the smoother 2-norm; convergence is still sup-norm
            rt2 = float(np.linalg.norm(rt))
            if rt2 < r2:
                u, r, r2 = trial, rt, rt2
                rnorm = float(np.max(np.abs(rt)))
                break
            t *= 0.5
        else:
            raise NonConvergence(
                f"newton_semilinear stagnated at residual {rnorm:.3e}",
                residual=rnorm, iterations=it,
            )
    else:
        if rnorm > max(tol, floor):
            raise NonConvergence(
                f"newton_semilinear: residual {rnorm:.3e} after {max_iter} iterations",
                residual=rnorm, iterations=max_iter,
            )
    return GridFunction(a=grid.a, b=grid.b, n=grid.n, values=u)


def _stebz(diag, offdiag, select, select_range, tol):
    """LAPACK bisection (Kahan's Sturm counts) on a symmetric tridiagonal matrix."""
    try:
        return eigvalsh_tridiagonal(diag, offdiag, select=select,
                                    select_range=select_range,
                                    lapack_driver="stebz", tol=tol)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"stebz bisection failed: {exc}") from exc


def _count_at_most(diag, offdiag, x):
    """Number of eigenvalues at or below x.

    stebz takes the count from the Sturm counts at the ends of the interval;
    a tolerance as wide as the spectrum (the Gershgorin bounds) stops it from
    refining the eigenvalues inside, which would cost a bisection per
    eigenvalue.
    """
    radius = np.zeros(len(diag))
    radius[:-1] += np.abs(offdiag)
    radius[1:] += np.abs(offdiag)
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    floor = lo - 1.0 - abs(lo)
    if x <= floor:
        return 0
    return len(_stebz(diag, offdiag, "v", (floor, x), hi - floor))


def _mirror_sectors(op, tol):
    """The odd and even sectors of a mirror-symmetric periodic operator.

    With w_j the weight of edge (j, j+1), w_{n-1} the corner and h = n/2, the
    mirror j -> n - j maps the operator to itself when d_j = d_{n-j} and
    w_j = w_{n-1-j}.  Its odd eigenvectors vanish at 0 and h: the tridiagonal
    operator on indices 1..h-1.  Its even ones live on 0..h, in the basis
    e_0, (e_j + e_{n-j})/sqrt2, e_h, which scales the two end couplings by
    sqrt2.  The sectors are those of the symmetrized operator (A + PAP)/2.
    By Weyl's bound no eigenvalue of A is farther from it than the largest
    row sum of (A - PAP)/2, and A is accepted while that bound is at most
    tol/8 plus 2 eps_mach times the norm bound max|d| + 2 max|w|: the entries
    of a discretized symmetric operator, such as `circle_operator`'s
    2 c2 + W''(u), can differ from their mirror images by an ulp of rounding.
    """
    n = op.dim
    if n < 4 or n % 2:
        raise DomainError("a periodic operator needs an even dimension n >= 4")
    w = np.append(op.offdiag, op.corner)
    d_mirror, w_mirror = op.diag[-np.arange(n) % n], w[::-1]
    mismatch = 0.5 * np.max(np.abs(op.diag - d_mirror)) + np.max(np.abs(w - w_mirror))
    rounding = 2.0 * _EPS_MACH * (np.max(np.abs(op.diag)) + 2.0 * np.max(np.abs(w)))
    if mismatch > tol / 8.0 + rounding:
        raise DomainError("a periodic operator must be mirror symmetric, j -> n - j")
    d, w = 0.5 * (op.diag + d_mirror), 0.5 * (w + w_mirror)
    h = n // 2
    w_even = w[:h].copy()
    w_even[[0, -1]] *= SQRT2
    return [(d[1:h], w[1:h - 1]), (d[:h + 1], w_even)]


def eig_sturm(op, how_many, tol=1e-10, zero_threshold=None):
    """Lowest eigenvalues to tol, with exact global sign counts.

    Every eigenvalue comes from LAPACK's Sturm bisection, stebz, on a plain
    tridiagonal operator.  A Dirichlet operator is handed over whole.  A
    periodic operator must have an even dimension n >= 4 and the mirror
    symmetry j -> n - j (up to a mismatch that moves no eigenvalue by more
    than tol/8 and rounding), else DomainError; it splits into its odd and
    even sectors (`_mirror_sectors`).  The eigenvalues are the sorted union
    of the sectors' lowest how_many, and the counts at +-tau are the sums of
    the sectors' counts.  The zero threshold tau defaults to 1e-8 times the
    largest returned magnitude.
    """
    n = op.dim
    if how_many > n:
        raise DomainError("how_many exceeds the operator dimension")
    blocks = (_mirror_sectors(op, tol) if op.boundary == "periodic"
              else [(op.diag, op.offdiag)])
    evals = np.sort(np.concatenate([_stebz(d, e, "i", (0, min(how_many, len(d)) - 1), tol)
                                    for d, e in blocks]))[:how_many]
    tau = zero_threshold if zero_threshold is not None else 1e-8 * np.max(np.abs(evals))
    below_neg, below_pos = (sum(_count_at_most(d, e, x) for d, e in blocks)
                            for x in (-tau, tau))
    return SpectrumReport(eigenvalues=evals, zero_threshold=tau,
                          n_negative=int(below_neg), n_zero=int(below_pos - below_neg),
                          n_positive=int(n - below_pos))


def norm_h1_eps(f, eps):
    """Discrete eps-scaled H^1 norm with forward differences."""
    v = f.values
    h = f.h
    df = np.diff(v) / h
    l2 = h * np.sum(v[:-1] ** 2)
    dl2 = h * np.sum(df ** 2)
    return math.sqrt(eps * l2 + eps ** 3 * dl2)
